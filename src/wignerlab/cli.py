"""Command-line experiment runner.

Each subcommand runs a self-checking experiment, writes its artifacts plus a
``summary.json`` into the output directory, and exits 0 if every check
passed, 1 if a check failed, and 2 on configuration errors.  A library
``UserWarning`` raised during a run prints as one ``warning: <message>``
line on stderr.  Runs are deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

import numpy as np

from . import __version__
from .errors import ConfigurationError, ValidationError, WignerlabError, refuse_overflow
from .grid import GridFunction, make_grid
from .quantumness import eta_scan, gaussian_admissible, klm_test
from .serialize import (
    dump_json,
    load_phase_space,
    save_grid_function,
    save_phase_space,
    save_tomograms,
)
from .states import MixedStateSpec
from .symplectic import MetaplecticSpec, metaplectic_apply
from .tomography import pauli_pair, radon, reconstruct_density, require_radon_memory
from .transforms import eta_fourier
from .wavefunctions import coherent_state, hermite_state
from .weyl import displace
from .wigner import cross_wigner, marginals, moyal_overlap, wigner

#: every config key with its default and type; ``tol`` and ``input`` may
#: also be null.  Each key is also a flag: ``--N``, ``--x-min``, ...
CONFIG = {
    "N": (256, int),
    "eta": (1.0, float),
    "seed": (0, int),
    "x_min": (-10.0, float),
    "x_max": (10.0, float),
    "out": (".", str),
    "angles": (180, int),
    "samples": (40, int),
    "tol": (None, float),
    "input": (None, str),
    "state": ("coherent", str),
}

STATES = ("coherent", "hermite1", "mixed")


class Check:
    """One self-check of a run; ``cause``, when set, explains the outcome:
    why the check failed, or why a residual above its tolerance passes."""

    def __init__(self, name, residual, tolerance, passed=None, cause=None):
        self.name = name
        self.residual = float(residual)
        self.tolerance = float(tolerance)
        self.passed = bool(residual <= tolerance) if passed is None else bool(passed)
        self.cause = cause

    def as_dict(self):
        entry = {
            "name": self.name,
            "passed": self.passed,
            "residual": self.residual,
            "tolerance": self.tolerance,
        }
        if self.cause is not None:
            entry["cause"] = self.cause
        return entry

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"{status} {self.name}: residual {self.residual:.3e} (tol {self.tolerance:.3e})"
        return text if self.cause is None else f"{text}: {self.cause}"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wignerlab", description="phase-space quantum mechanics experiments"
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file (flags override it)")
        for key, (_, kind) in CONFIG.items():
            p.add_argument(
                "--" + key.replace("_", "-"), dest=key, type=kind,
                choices=STATES if key == "state" else None,
            )
    return parser


def _resolve_config(args: argparse.Namespace) -> dict:
    config = {key: default for key, (default, _) in CONFIG.items()}
    if args.config:
        try:
            with open(args.config) as handle:
                file_config = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read config file {args.config}: {exc}")
        if not isinstance(file_config, dict):
            raise ConfigurationError(f"config file {args.config} must hold a JSON object")
        unknown = set(file_config) - set(CONFIG)
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        config.update(file_config)
    for key, (default, kind) in CONFIG.items():
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
        config[key] = _typed(key, config[key], default, kind)
    if not config["eta"] > 0.0:
        raise ConfigurationError(f"eta must be positive, got {config['eta']}")
    if config["tol"] is not None and config["tol"] < 0.0:
        # no residual is below a negative tolerance
        raise ConfigurationError(f"tol must be non-negative, got {config['tol']}")
    if config["angles"] < 1:
        raise ConfigurationError(f"angles must be at least 1, got {config['angles']}")
    if args.experiment == "tomography":
        # refused here, before the angle grid is built
        require_radon_memory(config["angles"], config["N"])
    if not 0 <= config["seed"] < 2**63:
        raise ConfigurationError(f"seed must be in [0, 2**63), got {config['seed']}")
    if config["state"] not in STATES:
        raise ConfigurationError(f"state must be one of {list(STATES)}, got {config['state']!r}")
    return config


def _typed(key, value, default, kind):
    """``value`` checked as its config type; an int is accepted as a float."""
    if value is None and default is None:
        return None
    if kind is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            if abs(value) <= sys.float_info.max:  # also rejects inf and nan
                return float(value)
        raise ConfigurationError(f"config value {key} must be a finite number, got {value!r}")
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigurationError(f"config value {key} must be {kind.__name__}, got {value!r}")
    return value


def _grid(config):
    return make_grid(config["x_min"], config["x_max"], config["N"])


def _tol(config, default):
    return config["tol"] if config["tol"] is not None else default


def _make_state(config, grid, eta):
    kind = config["state"]
    if kind == "coherent":
        return coherent_state(grid, eta)
    if kind == "hermite1":
        return hermite_state(grid, eta, 1)
    spec = MixedStateSpec(
        [(0.5, coherent_state(grid, eta)), (0.5, hermite_state(grid, eta, 1))]
    )
    return spec


def _relative_gap(values, reference) -> float:
    """max |values - reference| over the peak of |reference|: a residual that
    reads alike on every scale of the box and eta, as the values scale.  A
    reference that peaks at 0, as one underflowed at a huge eta, resolves
    nothing: the gap reads 1.0, as other under-resolved checks do."""
    peak = np.max(np.abs(reference))
    return float(np.max(np.abs(values - reference)) / peak) if peak else 1.0


def _run_wigner(config, out_dir):
    grid = _grid(config)
    eta = config["eta"]
    phi0 = coherent_state(grid, eta)
    result = wigner(phi0)
    xx, pp = result.meshes()
    # in units of sqrt(eta), so the squares stay finite at a huge eta; on a
    # tiny box the p squares may still overflow, to exp(-inf) = 0, their limit
    unit = np.sqrt(eta)
    with np.errstate(over="ignore"):
        closed = np.exp(-((xx / unit) ** 2 + (pp / unit) ** 2)) / (np.pi * eta)
    checks = [
        Check("coherent_closed_form", _relative_gap(result.values, closed), _tol(config, 1e-8)),
        Check("mass", abs(result.values.sum() * result.area_element - 1.0), 1e-6),
    ]
    pos, mom = marginals(result)
    checks.append(Check("marginal_position", _relative_gap(pos, np.abs(phi0.values) ** 2), 1e-6))
    ft = eta_fourier(phi0)
    checks.append(Check("marginal_momentum", _relative_gap(mom, np.abs(ft.values) ** 2), 1e-6))
    save_phase_space(result, os.path.join(out_dir, "wigner.csv"))
    return checks


def _random_gaussian_superposition(rng, grid, eta):
    state = None
    for _ in range(2):
        z0 = rng.uniform(-1.5, 1.5, size=2)
        phase = np.exp(2j * np.pi * rng.uniform())
        term = displace(coherent_state(grid, eta), z0).values * phase
        state = term if state is None else state + term
    return GridFunction(grid, state, eta).normalized()


def _run_moyal(config, out_dir):
    grid = _grid(config)
    eta = config["eta"]
    rng = np.random.default_rng(config["seed"])
    worst = 0.0
    for _ in range(20):
        psi = _random_gaussian_superposition(rng, grid, eta)
        w = wigner(psi)
        lhs = 2.0 * np.pi * eta * moyal_overlap(w, w).real
        worst = max(worst, abs(lhs - psi.norm() ** 4))
    checks = [Check("moyal_identity", worst, _tol(config, 1e-7))]
    worst = 0.0
    for _ in range(5):
        quad = [_random_gaussian_superposition(rng, grid, eta) for _ in range(4)]
        lhs = moyal_overlap(cross_wigner(quad[0], quad[1]), cross_wigner(quad[2], quad[3]))
        rhs = quad[0].inner(quad[2]) * np.conj(quad[1].inner(quad[3])) / (2.0 * np.pi * eta)
        worst = max(worst, abs(lhs - rhs))
    # in the unit of moyal_identity: |rhs| <= 1 / (2 pi eta) for unit states
    checks.append(Check("cross_moyal", 2.0 * np.pi * eta * worst, _tol(config, 1e-7)))
    return checks


def _run_metaplectic(config, out_dir):
    grid = _grid(config)
    eta = config["eta"]
    rng = np.random.default_rng(config["seed"])
    psi = coherent_state(grid, eta)
    worst_match, worst_norm = 0.0, 0.0
    for _ in range(5):
        # draw moderate generating-function blocks, then assemble the free
        # matrix; keeps both evaluation paths inside their resolved regime
        p_blk = rng.uniform(-1.5, 1.5)
        r_blk = rng.uniform(-1.5, 1.5)
        q_blk = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        a, b = r_blk / q_blk, 1.0 / q_blk
        d = p_blk / q_blk
        c = (a * d - 1.0) / b
        S = np.array([[a, b], [c, d]])
        direct = metaplectic_apply(MetaplecticSpec.free(S), psi)
        word = metaplectic_apply(MetaplecticSpec.free_as_word(S), psi)
        worst_match = max(worst_match, _relative_gap(word.values, direct.values))
        worst_norm = max(worst_norm, abs(direct.norm() - 1.0))
    checks = [
        Check("word_vs_quadrature", worst_match, _tol(config, 1e-6)),
        Check("unitarity", worst_norm, 1e-7),
    ]
    return checks


def _run_klm(config, out_dir):
    """The sampled KLM test of an input file, or of the eta = 1 coherent state.

    An input file must show no violation.  The command's own state is
    Gaussian with Sigma = I / 2, so :func:`gaussian_admissible` decides its
    eta-positivity exactly, and the check passes when the KLM verdict agrees:
    above eta = 1 a violation is expected.
    """
    eta = config["eta"]
    expected = "no violation found"
    if config["input"]:
        symbol = load_phase_space(config["input"])
    else:
        grid = _grid(config)
        symbol = wigner(coherent_state(grid, 1.0))
        if not gaussian_admissible(0.5 * np.eye(2), eta)["admissible"]:
            expected = "violation"
    report = klm_test(symbol, eta, samples=config["samples"], seed=config["seed"])
    agrees = report.verdict == expected
    cause = "violation, as expected" if agrees and not report.passed else None
    checks = [
        Check(
            "klm_min_eigenvalue",
            max(0.0, -report.min_eigenvalue),
            max(report.tolerance, 1e-30),
            passed=agrees,
            cause=cause,
        )
    ]
    dump_json(
        {
            "schema": 1,
            "min_eigenvalue": report.min_eigenvalue,
            "hessian_min_eigenvalue": report.hessian_min_eigenvalue,
            "continuity_residual": report.continuity_residual,
            "verdict": report.verdict,
            "seed": report.seed,
            "points": report.points,
            **report.details,
        },
        os.path.join(out_dir, "klm_report.json"),
    )
    return checks


def _run_gaussian(config, out_dir):
    eta = config["eta"]
    rng = np.random.default_rng(config["seed"])
    disagreements = 0
    for _ in range(200):
        with refuse_overflow(f"a covariance drawn at eta = {eta}"):
            n = int(rng.integers(1, 3))
            root = rng.normal(size=(2 * n, 2 * n))
            sigma = root @ root.T + 1e-3 * np.eye(2 * n)
            sigma *= eta / np.max(np.abs(sigma))
            sigma *= rng.uniform(0.2, 4.0)
        try:
            gaussian_admissible(sigma, eta)
        except ValidationError:  # raised only when the two criteria contradict
            disagreements += 1
    boundary = gaussian_admissible(np.eye(2) * eta / 2.0, eta)
    checks = [
        Check("criterion_equivalence", disagreements, 0.5),
        Check("boundary_admissible", 0.0 if boundary["admissible"] else 1.0, 0.5),
    ]
    return checks


def _run_eta_scan(config, out_dir):
    grid = _grid(config)
    symbol = wigner(coherent_state(grid, 1.0))
    result = eta_scan(symbol, [0.5, 1.0, 1.5])
    expected = ["mixed", "pure", "inadmissible"]
    ok = result.verdicts() == expected
    checks = [Check("eta_scan_verdicts", 0.0 if ok else 1.0, 0.5)]
    dump_json({"schema": 1, "entries": result.entries}, os.path.join(out_dir, "eta_scan.json"))
    return checks


def _run_tomography(config, out_dir):
    grid = _grid(config)
    eta = config["eta"]
    source = _make_state(config, grid, eta)
    w = wigner(source)
    angles = np.linspace(0.0, np.pi, config["angles"], endpoint=False)
    tomo = radon(w, angles)
    density, info = reconstruct_density(tomo, eta)
    recon = info["reconstruction"]
    truth = w.values
    l2 = float(np.sqrt(np.sum((recon.values - truth) ** 2) / np.sum(truth**2)))
    checks = [Check("reconstruction_l2", l2, _tol(config, 2e-2))]
    if config["state"] == "coherent":
        phi0 = coherent_state(grid, eta)
        fidelity, cause = 0.0, None
        if density is None:
            # no density to measure: name the axioms the reconstruction broke
            cause = "; ".join(info["violations"])
        else:
            kernel = density.kernel
            fidelity = float(np.real(phi0.values.conj() @ kernel @ phi0.values * grid.dx**2))
        checks.append(
            Check("fidelity", 1.0 - fidelity, 2e-2, passed=fidelity >= 0.98, cause=cause)
        )
    save_tomograms(tomo, os.path.join(out_dir, "tomograms.csv"))
    save_phase_space(recon, os.path.join(out_dir, "reconstruction.csv"))
    return checks


def _density_gap(first, second) -> float:
    """max ||first|^2 - |second|^2| over the peak of the two densities, a
    residual that reads alike at every eta, however large or small the
    densities' scale."""
    a, b = np.abs(first) ** 2, np.abs(second) ** 2
    return float(np.max(np.abs(a - b)) / max(np.max(a), np.max(b)))


def _run_pauli(config, out_dir):
    grid = _grid(config)
    eta = config["eta"]
    psi1, psi2 = pauli_pair(1.0 + 1.0j, grid, eta)
    overlap = abs(psi1.inner(psi2)) ** 2
    checks = [Check("overlap", abs(overlap - 1.0 / np.sqrt(2.0)), _tol(config, 1e-6))]
    ft1, ft2 = eta_fourier(psi1), eta_fourier(psi2)
    marginals = [(psi1.values, psi2.values), (ft1.values, ft2.values)]
    checks.append(Check("equal_marginals", max(_density_gap(*pair) for pair in marginals), 1e-10))
    save_grid_function(psi1, os.path.join(out_dir, "pauli_psi1.csv"))
    save_grid_function(psi2, os.path.join(out_dir, "pauli_psi2.csv"))
    return checks


RUNNERS = {
    "wigner": _run_wigner,
    "moyal": _run_moyal,
    "metaplectic": _run_metaplectic,
    "klm": _run_klm,
    "gaussian": _run_gaussian,
    "eta-scan": _run_eta_scan,
    "tomography": _run_tomography,
    "pauli": _run_pauli,
}


def _warning_line(original):
    """A ``warnings.showwarning`` that prints a ``UserWarning`` as one
    ``warning: <message>`` line and hands every other category to
    ``original``; which warnings are shown is left to the filters."""

    def show(message, category, filename, lineno, file=None, line=None):
        if not issubclass(category, UserWarning):
            return original(message, category, filename, lineno, file, line)
        print(f"warning: {message}", file=file or sys.stderr)

    return show


def main(argv=None) -> int:
    with warnings.catch_warnings():  # restores showwarning, and leaves the filters as they are
        warnings.showwarning = _warning_line(warnings.showwarning)
        return _main(argv)


def _main(argv) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
        out_dir = config["out"]
        os.makedirs(out_dir, exist_ok=True)
        checks = RUNNERS[args.experiment](config, out_dir)
        passed = all(check.passed for check in checks)
        summary = {
            "schema": 1,
            "experiment": args.experiment,
            "config": {key: config[key] for key in sorted(CONFIG)},
            "checks": [check.as_dict() for check in checks],
            "passed": passed,
        }
        dump_json(summary, os.path.join(out_dir, "summary.json"))
    except WignerlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # the output directory, an artifact or summary.json
        where = exc.filename or out_dir
        print(f"error: cannot write {where}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    for check in checks:
        print(check.line())
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
