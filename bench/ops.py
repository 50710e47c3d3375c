"""The in-process operations of the benchmark and the inputs they run on.

An operation is one call into a public wignerlab function plus the check of
its output (see ``checks.py``).  Operations come in blocks; the outputs of a
block's operations are kept in a dict the later operations and checks of the
same block can read, and the dict is dropped when the block ends.

Import ``wignerlab`` before this module (and before NumPy) so that
``WIGNERLAB_THREADS`` reaches the BLAS libraries.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
import wignerlab as wl

import checks as ck

ETA = 1.0
X_MIN, X_MAX = -10.0, 10.0
CALCULUS_SIZES = (256, 512)
ADMISSIBILITY_SIZE = 256
TOMOGRAPHY_SIZES = (256, 512)
TOMOGRAPHY_ANGLES = 180  # the command line's default
THERMAL_NBAR = 0.5
THERMAL_COMPONENTS = 32
KLM_SAMPLES = 16
GAUSSIAN_MATRICES = 8  # gaussian_admissible and williamson calls per round
ETA_SCAN = (0.5, 1.0, 1.5)
AMBIGUITY_POINTS = 24


class KnownFault(Exception):
    """An operation did not produce its result; counted as failed, not as wrong."""


@dataclass
class Op:
    name: str  # key of the output in the block's dict
    layer: str  # "<module>.<function>"; the module part names the layer
    n: int | None  # grid size for per-size layers
    call: Callable[[dict], object]
    check: Callable[[object, dict], list]


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed % 2**64, salt]))


def _grids(n: int):
    grid = wl.make_grid(X_MIN, X_MAX, n)
    return grid, wl.dual_grid(grid, ETA), ck.x_points(X_MIN, X_MAX, n), ck.p_points(X_MIN, X_MAX, n, ETA)


def _phase_space(values, n):
    grid, p_grid, _, _ = _grids(n)
    return wl.PhaseSpaceFunction(grid, p_grid, values, ETA, kind="wigner")


# --- calculus -----------------------------------------------------------------


def _draw_superposition(rng):
    terms = int(rng.integers(2, 4))
    centers = rng.uniform(-1.5, 1.5, size=(terms, 2))
    amplitudes = rng.uniform(0.5, 1.0, terms) * np.exp(2j * np.pi * rng.uniform(size=terms))
    return centers, amplitudes


def _draw_free_symplectic(rng):
    """A free 2x2 symplectic matrix from moderate generating-function blocks."""
    p_blk, r_blk = rng.uniform(-0.8, 0.8, size=2)
    q_blk = rng.uniform(0.7, 1.5) * rng.choice([-1.0, 1.0])
    a, b, d = r_blk / q_blk, 1.0 / q_blk, p_blk / q_blk
    return np.array([[a, b], [(a * d - 1.0) / b, d]])


class CalculusInputs:
    """Seeded states and operators on every calculus grid size."""

    def __init__(self, seed: int, sizes=CALCULUS_SIZES):
        rng = _rng(seed, 1)
        self.coh_center = rng.uniform(-1.5, 1.5, size=2)
        self.psi_terms = _draw_superposition(rng)
        self.phi_terms = _draw_superposition(rng)
        self.S = _draw_free_symplectic(rng)
        self.amb_points = rng.uniform(-4.0, 4.0, size=(AMBIGUITY_POINTS, 2))
        self.by_n = {n: self._build(n) for n in sizes}

    def _build(self, n):
        grid, _, x, p = _grids(n)
        dx = x[1] - x[0]
        out = {"x": x, "p": p}
        x0, p0 = self.coh_center
        out["coh"] = wl.GridFunction(grid, ck.coherent(x, ETA, x0, p0), ETA)
        out["coh_wigner"] = _phase_space(ck.coherent_wigner(x, p, ETA, x0, p0), n)
        for key, (centers, amps) in (("psi", self.psi_terms), ("phi", self.phi_terms)):
            raw = ck.superposition(x, ETA, centers, amps)
            norm = np.sqrt(np.sum(np.abs(raw) ** 2) * dx)
            out[key] = wl.GridFunction(grid, raw / norm, ETA)
            out[key + "_fn"] = (centers, amps, norm)
            out["K" + key] = wl.OperatorMatrix(grid, np.outer(raw, raw.conj()) / norm**2, ETA)
        hermite = ck.hermite_functions(x, ETA, THERMAL_COMPONENTS)
        weights = ck.thermal_weights(THERMAL_NBAR, THERMAL_COMPONENTS)
        out["thermal_spec"] = wl.MixedStateSpec(
            [(float(w), wl.GridFunction(grid, h, ETA)) for w, h in zip(weights, hermite)]
        )
        out["thermal_parts"] = (weights, hermite)
        return out


def calculus_blocks(inp: CalculusInputs) -> list:
    """The operations per grid size, with the references their checks use."""
    return [_calculus_block(inp, n) for n in inp.by_n]


def _calculus_block(inp: CalculusInputs, n: int) -> list:
    d = inp.by_n[n]
    x, p = d["x"], d["p"]
    dx, dp = x[1] - x[0], p[1] - p[0]
    area = dx * dp
    psi, phi = d["psi"].values, d["phi"].values
    ft_psi = ck.fourier_direct(psi, x, p, ETA)
    ft_phi = ck.fourier_direct(phi, x, p, ETA)
    overlap2 = abs(np.vdot(psi, phi) * dx) ** 2
    Kpsi, Kphi = d["Kpsi"].kernel, d["Kphi"].kernel
    tr_ab = np.sum(Kpsi * Kphi.T) * dx**2
    hs_ab = np.sum(np.abs(Kpsi @ Kphi * dx) ** 2) * dx**2
    S = inp.S
    x0, p0 = inp.coh_center
    S_mean = S @ inp.coh_center
    S_cov = S @ (0.5 * ETA * np.eye(2)) @ S.T
    two_pi_eta = 2.0 * np.pi * ETA
    weights, hermite = d["thermal_parts"]
    thermal_kernel = np.einsum("k,kj,kl->jl", weights, hermite, hermite)

    def check_coh(out, st):
        return [("wigner_closed_form", ck.sup(out.W.values, ck.coherent_wigner(x, p, ETA, x0, p0)), ck.TOL_CLOSED_FORM)]

    def check_marginals(out, st):
        W = out.W.values
        return [
            ("marginal_position", ck.sup(W.sum(axis=1) * dp, np.abs(psi) ** 2), ck.TOL_MARGINAL),
            ("marginal_momentum", ck.sup(W.sum(axis=0) * dx, np.abs(ft_psi) ** 2), ck.TOL_MARGINAL),
        ]

    def check_moyal(out, st):
        lhs = two_pi_eta * np.sum(st["wigner_psi"].W.values * out.W.values) * area
        return [("moyal_identity", abs(lhs - overlap2), ck.TOL_MOYAL)]

    def check_cross(out, st):
        W = out.values
        return [
            ("cross_marginal_position", ck.sup(W.sum(axis=1) * dp, psi * phi.conj()), ck.TOL_MARGINAL),
            ("cross_marginal_momentum", ck.sup(W.sum(axis=0) * dx, ft_psi * ft_phi.conj()), ck.TOL_MARGINAL),
        ]

    centers, amps, norm = d["psi_fn"]
    idx_x = np.clip(np.searchsorted(x, inp.amb_points[:, 0]), 0, n - 1)
    idx_p = np.clip(np.searchsorted(p, inp.amb_points[:, 1]), 0, n - 1)
    amb_ref = ck.ambiguity_direct(
        lambda y: ck.superposition(y, ETA, centers, amps, norm), x[idx_x], p[idx_p], ETA
    )

    def check_ambiguity(out, st):
        return [("ambiguity_direct", ck.sup(out.values[idx_x, idx_p], amb_ref), ck.TOL_CLOSED_FORM)]

    def check_symbol_trace(out, st):
        return [("symbol_trace", abs(np.sum(out.values) * area / two_pi_eta - 1.0), ck.TOL_ROUND_TRIP)]

    def check_trace_product(out, st):
        rhs = np.sum(st["symbol_psi"].values * out.values) * area / two_pi_eta
        return check_symbol_trace(out, st) + [("trace_product", abs(tr_ab - rhs), ck.TOL_ROUND_TRIP)]

    def check_round_trip(out, st):
        return [("weyl_round_trip", ck.sup(out.kernel, Kpsi), ck.TOL_WEYL_ROUND_TRIP)]

    def check_twisted(out, st):
        c = out.values
        return [
            ("twisted_trace", abs(np.sum(c) * area / two_pi_eta - tr_ab), ck.TOL_ROUND_TRIP),
            ("twisted_hs_norm", abs(np.sum(np.abs(c) ** 2) * area / two_pi_eta - hs_ab), ck.TOL_ROUND_TRIP),
        ]

    sft_ref = ck.coherent_symplectic_fourier(x, p, ETA, x0, p0)

    def check_sft(out, st):
        return [("symplectic_fourier_closed_form", ck.sup(out.values, sft_ref), ck.TOL_CLOSED_FORM)]

    def check_meta_free(out, st):
        mean, cov, mass = ck.state_moments(out.values, x, p, ETA)
        return [
            ("metaplectic_unitarity", abs(mass - 1.0), ck.TOL_MOYAL),
            ("metaplectic_mean", ck.sup(mean, S_mean), ck.TOL_METAPLECTIC),
            ("metaplectic_covariance", ck.sup(cov, S_cov), ck.TOL_METAPLECTIC),
        ]

    def check_meta_word(out, st):
        return [("word_vs_free", ck.sup(out.values, st["meta_free"].values), ck.TOL_METAPLECTIC)]

    def check_mix(out, st):
        return [
            ("mix_kernel", ck.sup(out.kernel, thermal_kernel), ck.TOL_EXACT),
            ("mix_trace", abs(np.trace(out.kernel) * dx - 1.0), ck.TOL_CLOSED_FORM),
        ]

    thermal_ref = ck.thermal_wigner(x, p, ETA, THERMAL_NBAR)

    def check_thermal(out, st):
        return [("thermal_closed_form", ck.sup(out.W.values, thermal_ref), ck.TOL_CLOSED_FORM)]

    return [
        Op("wigner_coh", "wigner.wigner_pure", n, lambda st: wl.wigner(d["coh"]), check_coh),
        Op("wigner_psi", "wigner.wigner_pure", n, lambda st: wl.wigner(d["psi"]), check_marginals),
        Op("wigner_phi", "wigner.wigner_pure", n, lambda st: wl.wigner(d["phi"]), check_moyal),
        Op("cross", "wigner.cross_wigner", n, lambda st: wl.cross_wigner(d["psi"], d["phi"]), check_cross),
        Op("ambiguity", "wigner.ambiguity", n, lambda st: wl.ambiguity(d["psi"]), check_ambiguity),
        Op("symbol_psi", "weyl.weyl_symbol", n, lambda st: wl.weyl_symbol(d["Kpsi"]), check_symbol_trace),
        Op("symbol_phi", "weyl.weyl_symbol", n, lambda st: wl.weyl_symbol(d["Kphi"]), check_trace_product),
        Op("quantize", "weyl.weyl_quantize", n, lambda st: wl.weyl_quantize(st["symbol_psi"]), check_round_trip),
        Op("twisted", "weyl.twisted_product", n,
           lambda st: wl.twisted_product(st["symbol_psi"], st["symbol_phi"]), check_twisted),
        Op("sft", "transforms.symplectic_fourier", n,
           lambda st: wl.symplectic_fourier(d["coh_wigner"]), check_sft),
        Op("meta_free", "symplectic.metaplectic_free", n,
           lambda st: wl.metaplectic_apply(wl.MetaplecticSpec.free(S), d["coh"]), check_meta_free),
        Op("meta_word", "symplectic.metaplectic_word", n,
           lambda st: wl.metaplectic_apply(wl.MetaplecticSpec.free_as_word(S), d["coh"]), check_meta_word),
        Op("mix", "states.mix", n, lambda st: wl.mix(d["thermal_spec"]), check_mix),
        Op("wigner_thermal", "wigner.wigner_density", n, lambda st: wl.wigner(st["mix"]), check_thermal),
    ]


# --- admissibility ------------------------------------------------------------


def _rotated(eigs, angle):
    c, s = np.cos(angle), np.sin(angle)
    R = np.array([[c, -s], [s, c]])
    return R @ np.diag(eigs) @ R.T


def _normal_density(sigma, mean, n):
    """Normal density with covariance sigma, sampled as a Wigner-kind function."""
    _, _, x, p = _grids(n)
    xx, pp = np.meshgrid(x - mean[0], p - mean[1], indexing="ij")
    inv = np.linalg.inv(sigma)
    quad = inv[0, 0] * xx**2 + 2.0 * inv[0, 1] * xx * pp + inv[1, 1] * pp**2
    values = np.exp(-0.5 * quad) / (2.0 * np.pi * np.sqrt(np.linalg.det(sigma)))
    return _phase_space(values, n)


class AdmissibilityInputs:
    """Seeded Gaussians on the admissibility grid and seeded covariance matrices."""

    def __init__(self, seed: int, n=ADMISSIBILITY_SIZE):
        rng = _rng(seed, 2)
        sigmas = [0.25 * np.eye(2)]  # Sigma = 0.25 I: inadmissible at eta = 1
        lam = rng.uniform(0.2, 0.4)  # symplectic eigenvalue below eta / 2
        squeeze = np.exp(rng.uniform(0.0, 0.5))
        sigmas.append(_rotated([lam * squeeze, lam / squeeze], rng.uniform(0.0, np.pi)))
        for _ in range(2):  # Sigma >= (eta / 2) I: admissible
            sigmas.append(_rotated(rng.uniform(0.6, 1.2, size=2), rng.uniform(0.0, np.pi)))
        self.klm = []
        for sigma in sigmas:
            mean = rng.uniform(-0.5, 0.5, size=2)
            admissible = np.sqrt(np.linalg.det(sigma)) >= 0.5 * ETA
            klm_seed = int(rng.integers(0, 2**31))
            self.klm.append((_normal_density(sigma, mean, n), admissible, klm_seed))
        z0 = rng.uniform(-1.0, 1.0, size=2)
        _, _, x, p = _grids(n)
        self.coherent_wigner = _phase_space(ck.coherent_wigner(x, p, ETA, *z0), n)
        self.covariances = []
        for _ in range(GAUSSIAN_MATRICES):
            modes = int(rng.integers(1, 3))
            M = rng.normal(size=(2 * modes, 2 * modes))
            sigma = M @ M.T + 0.05 * np.eye(2 * modes)
            self.covariances.append(sigma * ETA / np.max(np.abs(sigma)) * rng.uniform(0.2, 4.0))


def admissibility_blocks(inp: AdmissibilityInputs) -> list:
    ops = []
    for i, (density, admissible, klm_seed) in enumerate(inp.klm):
        expected = "no violation found" if admissible else "violation"

        def check_klm(out, st, expected=expected):
            return [
                ck.verdict("klm_verdict", out.verdict == expected),
                ("klm_continuity", out.continuity_residual, ck.TOL_CLOSED_FORM),
            ]

        ops.append(Op(f"klm{i}", "quantumness.klm_test", None,
                      lambda st, a=density, s=klm_seed: wl.klm_test(a, ETA, samples=KLM_SAMPLES, seed=s),
                      check_klm))

    def check_scan(out, st):
        return [ck.verdict("eta_scan_verdicts", out.verdicts() == ["mixed", "pure", "inadmissible"])]

    ops.append(Op("eta_scan", "quantumness.eta_scan", None,
                  lambda st: wl.eta_scan(inp.coherent_wigner, ETA_SCAN), check_scan))
    for i, sigma in enumerate(inp.covariances):
        scale = max(1.0, float(np.max(np.abs(sigma))))
        lams = ck.symplectic_spectrum(sigma)
        matrix_min = ck.admissibility_min_eig(sigma, ETA)
        modes = sigma.shape[0] // 2

        def check_gauss(out, st, lams=lams, matrix_min=matrix_min, scale=scale):
            return [
                ("matrix_min_eigenvalue", abs(out["matrix_min_eigenvalue"] - matrix_min), ck.TOL_GAUSSIAN * scale),
                ("lambda_min", abs(out["lambda_min"] - lams[0]), ck.TOL_WILLIAMSON * scale),
                ck.verdict("admissible", out["admissible"] == bool(2.0 * lams[0] >= ETA)),
            ]

        def check_williamson(out, st, sigma=sigma, lams=lams, scale=scale, modes=modes):
            J = ck.j_form(modes)
            return [
                ("williamson_reconstruction", ck.sup(out.S.T @ out.D @ out.S, sigma) / scale, ck.TOL_WILLIAMSON),
                ("williamson_symplectic", ck.sup(out.S.T @ J @ out.S, J), ck.TOL_SYMPLECTIC),
                ("williamson_spectrum", ck.sup(np.sort(out.eigenvalues), lams) / scale, ck.TOL_WILLIAMSON),
            ]

        ops.append(Op(f"gauss{i}", "quantumness.gaussian_admissible", None,
                      lambda st, s=sigma: wl.gaussian_admissible(s, ETA), check_gauss))
        ops.append(Op(f"williamson{i}", "symplectic.williamson", None,
                      lambda st, s=sigma: wl.williamson(s), check_williamson))
    return [ops]


# --- tomography and serialization (reached by the command line only) ---------


def tomography_blocks(out_dir: str, sizes=TOMOGRAPHY_SIZES) -> list:
    """Radon, inversion and reconstruction of the coherent state, as the
    `tomography` command runs them, then the CSV writes and reads of the
    `wigner`, `tomography` and `klm --input` commands."""
    blocks = []
    angles = np.linspace(0.0, np.pi, TOMOGRAPHY_ANGLES, endpoint=False)
    for n in sizes:
        _, _, x, p = _grids(n)
        truth = ck.coherent_wigner(x, p, ETA, 0.0, 0.0)
        W = _phase_space(truth, n)
        phi0 = ck.coherent(x, ETA, 0.0, 0.0)
        dx = x[1] - x[0]

        def check_radon(out, st, x=x, dx=dx):
            return [
                ("tomogram_mass", ck.sup(out.values.sum(axis=1) * dx, 1.0), ck.TOL_TOMO_MASS),
                ("tomogram_theta0", ck.sup(out.values[0], np.abs(ck.coherent(x, ETA, 0.0, 0.0)) ** 2),
                 ck.TOL_TOMO_ROW),
            ]

        def check_inverse(out, st, truth=truth):
            l2 = np.sqrt(np.sum((out.values.real - truth) ** 2) / np.sum(truth**2))
            return [("reconstruction_l2", l2, 2e-2)]

        def reconstruct(st):
            density, info = wl.reconstruct_density(st["radon"], ETA)
            if density is None:
                raise KnownFault(f"no density: {info['violations']}")
            return density

        def check_density(out, st, phi0=phi0, dx=dx):
            fidelity = np.real(phi0.conj() @ out.op.kernel @ phi0) * dx**2
            return [("fidelity", 1.0 - fidelity, 2e-2)]

        block = [
            Op("radon", "tomography.radon", n, lambda st, W=W: wl.radon(W, angles), check_radon),
            Op("inverse", "tomography.inverse_radon", n, lambda st: wl.inverse_radon(st["radon"]), check_inverse),
            Op("density", "tomography.reconstruct_density", n, reconstruct, check_density),
        ]
        if n == sizes[0]:
            block += _serialize_ops(W, out_dir)
        blocks.append(block)
    return blocks


def _serialize_ops(W, out_dir) -> list:
    wigner_csv = os.path.join(out_dir, "wigner.csv")
    tomo_csv = os.path.join(out_dir, "tomograms.csv")

    def check_saved(out, st):
        _, flat = ck.read_grid_csv(wigner_csv)
        return [("csv_round_trip", ck.sup(flat.reshape(W.values.shape), W.values), 0.0)]

    def check_loaded(out, st):
        return [("load_round_trip", ck.sup(out.values, W.values), 0.0)]

    def check_tomo(out, st):
        return ck.check_tomogram_csv(tomo_csv, ETA)

    return [
        Op("save", "serialize.save_phase_space", None, lambda st: wl.save_phase_space(W, wigner_csv), check_saved),
        Op("load", "serialize.load_phase_space", None, lambda st: wl.load_phase_space(wigner_csv), check_loaded),
        Op("save_tomo", "serialize.save_tomograms", None,
           lambda st: wl.save_tomograms(st["radon"], tomo_csv), check_tomo),
    ]
