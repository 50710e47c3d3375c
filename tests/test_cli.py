import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import wignerlab
from wignerlab import ValidationError, coherent_state, make_grid, save_phase_space, wigner
from wignerlab import cli
from wignerlab.cli import main

ROOT = Path(__file__).resolve().parents[1]

ETA = 1.0


def _run(argv, capsys=None):
    code = main(argv)
    return code


def test_wigner_experiment_passes(tmp_path, capsys):
    code = main(["wigner", "--N", "64", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS coherent_closed_form" in out
    assert "FAIL" not in out
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["schema"] == 1
    assert summary["experiment"] == "wigner"
    assert summary["passed"] is True
    assert (tmp_path / "wigner.csv").exists()


def test_moyal_experiment_passes(tmp_path):
    assert main(["moyal", "--N", "64", "--out", str(tmp_path)]) == 0


def test_metaplectic_experiment_passes(tmp_path):
    assert main(["metaplectic", "--N", "128", "--out", str(tmp_path)]) == 0


def test_gaussian_experiment_passes(tmp_path):
    assert main(["gaussian", "--out", str(tmp_path)]) == 0


def test_gaussian_counts_a_criteria_contradiction_as_a_failed_check(tmp_path, capsys, monkeypatch):
    # the library raises ValidationError only when its two criteria contradict
    admissible, calls = cli.gaussian_admissible, []

    def contradicting_once(sigma, eta):
        calls.append(sigma)
        if len(calls) == 1:
            raise ValidationError("admissibility criteria disagree")
        return admissible(sigma, eta)

    monkeypatch.setattr(cli, "gaussian_admissible", contradicting_once)
    assert main(["gaussian", "--out", str(tmp_path)]) == 1
    assert "FAIL criterion_equivalence: residual 1.000e+00" in capsys.readouterr().out
    equivalence = json.loads((tmp_path / "summary.json").read_text())["checks"][0]
    assert equivalence["residual"] == 1.0 and not equivalence["passed"]


def test_eta_scan_experiment_passes(tmp_path):
    half = 0.5 * np.sqrt(2.0 * np.pi * 128)
    code = main(
        [
            "eta-scan",
            "--N", "128",
            "--x-min", str(-half),
            "--x-max", str(half),
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    scan = json.loads((tmp_path / "eta_scan.json").read_text())
    assert [entry["verdict"] for entry in scan["entries"]] == [
        "mixed", "pure", "inadmissible",
    ]


def test_klm_input_violation_exit_code(tmp_path, capsys):
    # an input file must show no violation: a coherent state at eta = 1 read
    # at eta = 1.5 fails the command's check
    half = 0.5 * np.sqrt(2.0 * np.pi * 128)
    path = tmp_path / "input.csv"
    save_phase_space(wigner(coherent_state(make_grid(-half, half, 128), ETA)), path)
    code = main(["klm", "--input", str(path), "--eta", "1.5", "--out", str(tmp_path)])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out
    report = json.loads((tmp_path / "klm_report.json").read_text())
    assert report["verdict"] == "violation"


@pytest.mark.parametrize("eta", [1.5, 3.0])
def test_klm_expected_violation_passes(tmp_path, capsys, eta):
    # the command's own eta = 1 coherent state is not eta-positive above
    # eta = 1 (Gaussian closed form), so the KLM violation is the expected verdict
    code = main(["klm", "--N", "128", "--eta", str(eta), "--out", str(tmp_path)])
    assert code == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("PASS klm_min_eigenvalue:")
    assert line.endswith(": violation, as expected")
    report = json.loads((tmp_path / "klm_report.json").read_text())
    assert report["verdict"] == "violation"
    assert sorted(report) == [
        "continuity_residual", "dropped_mass", "hessian_min_eigenvalue", "min_eigenvalue",
        "points", "radius", "schema", "seed", "support_cols", "support_rows", "verdict",
    ]
    # the support box kept of the 128 x 128 grid, and the mass left outside it
    for start, stop in (report["support_rows"], report["support_cols"]):
        assert 0 <= start < stop <= 128
    assert 0.0 <= report["dropped_mass"] <= 1e-12
    (check,) = json.loads((tmp_path / "summary.json").read_text())["checks"]
    assert check["passed"] and check["residual"] > check["tolerance"]


def test_klm_reads_input_file(tmp_path):
    half = 0.5 * np.sqrt(2.0 * np.pi * 128)
    grid = make_grid(-half, half, 128)
    W = wigner(coherent_state(grid, ETA))
    path = tmp_path / "input.csv"
    save_phase_space(W, path)
    code = main(["klm", "--input", str(path), "--out", str(tmp_path)])
    assert code == 0


def test_config_file_and_flag_precedence(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"N": 64, "out": str(tmp_path / "from_file")}))
    out_dir = tmp_path / "from_flag"
    code = main(["wigner", "--config", str(config), "--out", str(out_dir)])
    assert code == 0
    # the flag overrides the config file
    assert (out_dir / "summary.json").exists()
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["config"]["N"] == 64


def test_unknown_config_key_is_configuration_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"bogus": 1}))
    code = main(["wigner", "--config", str(config), "--out", str(tmp_path)])
    assert code == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_bad_eta_is_configuration_error(tmp_path, capsys):
    code = main(["wigner", "--eta", "-1.0", "--out", str(tmp_path)])
    assert code == 2
    assert "eta must be positive" in capsys.readouterr().err


def _one_column_csv(tmp_path):
    path = tmp_path / "one_column.csv"
    rows = "\n".join(["0.0"] * 64**2)
    path.write_text(f"N,x_min,dx,eta,kind\n64,-10,0.3125,1,wigner\nreal,imag\n{rows}\n")
    return ["klm", "--input", str(path)]


def _phase_space_csv(header="64,-10,0.3125,1,wigner", first_row="0,0"):
    def argv(tmp_path):
        path = tmp_path / "input.csv"
        rows = "\n".join([first_row] + ["0,0"] * (64**2 - 1))
        path.write_text(f"N,x_min,dx,eta,kind\n{header}\nreal,imag\n{rows}\n")
        return ["klm", "--input", str(path)]

    return argv


def _config(payload):
    def argv(tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return ["wigner", "--config", str(path)]

    return argv


def _blocked_artifact(tmp_path):
    # a directory where the command writes its first CSV
    (tmp_path / "out" / "pauli_psi1.csv").mkdir(parents=True)
    return ["pauli", "--N", "64"]


@pytest.mark.parametrize(
    "make_argv, message",
    [
        (lambda tmp_path: ["klm", "--input", str(tmp_path / "missing.csv")], "cannot read"),
        (_one_column_csv, "2 columns"),
        (_phase_space_csv(first_row="nan,0"), "non-finite samples"),
        # an imaginary column of round-off, as older writers left it
        (_phase_space_csv(first_row="0,1e-77"), "complex"),
        (_phase_space_csv(header="64,-10,inf,1,wigner"), "grid bounds must be finite"),
        (_config({"N": "abc"}), "N must be int"),
        (_config({"seed": 1.5}), "seed must be int"),
        (lambda tmp_path: ["moyal", "--N", "64", "--seed", "-1"], "seed must be in"),
        (lambda tmp_path: ["tomography", "--angles", "-3"], "angles must be at least 1"),
        # no residual passes a negative tolerance
        (lambda tmp_path: ["wigner", "--N", "64", "--tol", "-1"], "tol must be non-negative"),
        # the free operator would refine x 3.1e8-fold: refused before refine
        (lambda tmp_path: ["metaplectic", "--eta", "1e-9"], "GiB of 3.11372e+08-fold"),
        (_blocked_artifact, "cannot write"),
    ],
    ids=[
        "missing_input", "one_column_csv", "nan_sample", "complex_sample", "infinite_dx",
        "string_N", "float_seed", "negative_seed", "negative_angles", "negative_tol",
        "tiny_metaplectic_eta", "unwritable_artifact",
    ],
)
def test_bad_input_is_configuration_error(tmp_path, capsys, make_argv, message):
    out_dir = tmp_path / "out"
    code = main(make_argv(tmp_path) + ["--out", str(out_dir)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not (out_dir / "summary.json").exists()


def test_unwritable_summary_is_configuration_error(tmp_path, capsys):
    (tmp_path / "summary.json").mkdir()
    code = main(["gaussian", "--out", str(tmp_path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write") and "summary.json" in captured.err
    assert captured.out == ""


def test_huge_angle_count_is_refused_before_the_run(tmp_path, capsys, monkeypatch):
    # the ray-spectra bound is checked with the config: no tomography array
    # (10^9 angles x 256 samples is 4 TB of spectra) is ever allocated
    def started(config, out_dir):
        raise AssertionError("the tomography run started")

    monkeypatch.setitem(cli.RUNNERS, "tomography", started)
    out_dir = tmp_path / "out"
    code = main(["tomography", "--angles", "1000000000", "--N", "256", "--out", str(out_dir)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "GiB of ray spectra" in err
    assert not out_dir.exists()


def test_astronomical_refusal_is_one_short_line(tmp_path, capsys):
    # at eta = 1e-300 the free metaplectic operator would refine x about
    # 3e299-fold: the refused size prints as 1.9e+295 GiB, not in 300 digits
    code = main(["metaplectic", "--eta", "1e-300", "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "e+295 GiB of" in err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and len(err) < 160


def test_seeded_runs_are_deterministic(tmp_path):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert main(["moyal", "--N", "64", "--seed", "7", "--out", str(out1)]) == 0
    assert main(["moyal", "--N", "64", "--seed", "7", "--out", str(out2)]) == 0
    assert (out1 / "summary.json").read_bytes() != b""
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    s1["config"]["out"] = s2["config"]["out"] = ""
    assert s1 == s2


def test_tomography_experiment_passes(tmp_path):
    half = 0.5 * np.sqrt(2.0 * np.pi * 128)
    code = main(
        [
            "tomography",
            "--N", "128",
            "--x-min", str(-half),
            "--x-max", str(half),
            "--angles", "180",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    assert (tmp_path / "tomograms.csv").exists()
    assert (tmp_path / "reconstruction.csv").exists()


def test_pauli_experiment_passes(tmp_path):
    assert main(["pauli", "--N", "128", "--out", str(tmp_path)]) == 0


def _equal_marginals(tmp_path):
    checks = json.loads((tmp_path / "summary.json").read_text())["checks"]
    return next(check["residual"] for check in checks if check["name"] == "equal_marginals")


@pytest.mark.parametrize("eta", ["1e-300", "1e300"])
def test_pauli_marginals_are_relative_at_every_eta(tmp_path, capsys, recwarn, eta):
    # the residual is relative to the peak of the densities it compares: at
    # eta = 1e-300 the momentum densities peak at 2.8e299 and their absolute
    # gap read 1.1e285, at eta = 1e300 they peak at 2.8e-301 (3.8e-15 and
    # 4.6e-15 relative)
    assert main(["pauli", "--out", str(tmp_path / "default")]) == 0
    assert _equal_marginals(tmp_path / "default") <= 1e-15
    assert main(["pauli", "--eta", eta, "--out", str(tmp_path / "scaled")]) == 0
    assert _equal_marginals(tmp_path / "scaled") <= 1e-14
    assert capsys.readouterr().err == ""
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("command", ["wigner", "metaplectic", "tomography", "gaussian"])
def test_exactly_scaled_runs_read_the_same_residuals(tmp_path, command):
    # the box scaled by lambda = 4^j and eta by lambda^2 = 16^j scales every
    # grid step, sample and reference by a power of two, so each residual,
    # relative to the scale of what it compares, reads bit for bit as at
    # j = 0, the defaults.  The negative bounds are joined to their flags,
    # since argparse reads "-9.5e-06" alone as an option
    def residuals(j):
        scale, out = 4.0**j, tmp_path / str(j)
        argv = [
            command, f"--eta={16.0**j!r}", f"--x-min={-10.0 * scale!r}",
            f"--x-max={10.0 * scale!r}", "--out", str(out),
        ]
        assert main(argv) == 0
        checks = json.loads((out / "summary.json").read_text())["checks"]
        return [check["residual"] for check in checks]

    default = residuals(0)
    for j in (-20, -10, 5):
        assert residuals(j) == default


def test_tol_sets_the_tolerance_of_the_first_check(tmp_path, capsys):
    assert main(["pauli", "--N", "64", "--out", str(tmp_path)]) == 0
    assert main(["pauli", "--N", "64", "--tol", "1e-30", "--out", str(tmp_path)]) == 1
    assert "FAIL overlap" in capsys.readouterr().out
    assert json.loads((tmp_path / "summary.json").read_text())["config"]["tol"] == 1e-30


def test_zero_tol_is_a_valid_tolerance(tmp_path, capsys):
    # a zero tolerance is a check no round-off passes, not a configuration error
    assert main(["pauli", "--N", "64", "--tol", "0", "--out", str(tmp_path)]) == 1
    assert "FAIL overlap" in capsys.readouterr().out
    assert json.loads((tmp_path / "summary.json").read_text())["config"]["tol"] == 0.0


@pytest.mark.parametrize("state", ["mixed", "hermite1"])
def test_tomography_of_rank_two_and_excited_states_passes(tmp_path, state):
    # the mixture's Wigner function reads its rank-two factors, the Hermite
    # state's a rank-one pair; both reconstruct at the defaults
    assert main(["tomography", "--state", state, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "reconstruction.csv").exists()


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


#: the exit code of each command at eta = 1e300
_HUGE_ETA_EXIT = {
    "wigner": 1,
    "moyal": 1,
    "metaplectic": 1,
    "klm": 0,
    "gaussian": 0,
    "eta-scan": 0,
    "tomography": 2,
    "pauli": 0,
}


@pytest.mark.parametrize("command", list(_HUGE_ETA_EXIT))
def test_huge_eta_runs_without_overflow(tmp_path, capsys, recwarn, command):
    # eta^2 / 4 overflows a float above |eta| ~ 1.34e154; the per-mode
    # Robertson-Schrodinger check compares its sides scaled by a power of two,
    # and the coherent closed form squares x and p in units of sqrt(eta).  A
    # reference that underflows to 0 reads a gap of 1.0, not 0 / 0 = NaN.
    # The tomograms at eta = 1e300 carry no mass: a configuration error
    code = _HUGE_ETA_EXIT[command]
    assert main([command, "--eta", "1e300", "--out", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    if code == 2:
        assert [line for line in err.splitlines() if line.startswith("error: ")] == [err.strip()]
    else:
        json.loads((tmp_path / "summary.json").read_text(), parse_constant=_no_constant)


def test_tomography_at_n64_passes(tmp_path):
    # the cubic read of the backprojection keeps the minimum eigenvalue near
    # -3e-6, inside the 1e-4 PSD floor
    assert main(["tomography", "--N", "64", "--out", str(tmp_path)]) == 0


def test_tomography_names_why_fidelity_failed(tmp_path, capsys):
    # at N = 32 the Wigner function itself is under-resolved: the
    # reconstruction's minimum eigenvalue, -5.3e-3, is below the PSD floor
    # 1e-4, so no density is returned and the fidelity check says so
    assert main(["tomography", "--N", "32", "--out", str(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("PASS reconstruction_l2:") and lines[0].endswith(")")
    assert re.fullmatch(
        r"FAIL fidelity: residual 1\.000e\+00 \(tol 2\.000e-02\): "
        r"minimum eigenvalue -5\.3\d\de-03 below the PSD floor",
        lines[1],
    )
    l2, fidelity = json.loads((tmp_path / "summary.json").read_text())["checks"]
    assert "cause" not in l2
    assert fidelity["cause"] == lines[1].split(": ", 2)[2]


@pytest.mark.parametrize("command", ["wigner", "moyal", "tomography"])
def test_tiny_eta_fails_cleanly(tmp_path, capsys, recwarn, command):
    # at eta = 1e-300 the coherent state's width, 1e-150, is far below
    # dx = 0.078: it samples to one spike of 7.5e74, so its Wigner function
    # at the peak, 5.6e149 times scale dx = 1.2e298, is not a float64, and
    # the wigner and tomography commands exit 2 with one line.  The moyal
    # command's states are normalized: their Wigner functions, near
    # 1 / (pi eta), and their pairings, near 1 / (2 pi eta), are float64,
    # and summed in peak units the pairings are returned.  On states one
    # sample wide the Moyal identities do not hold, so both checks fail
    code = main([command, "--eta", "1e-300", "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    if command == "moyal":
        assert code == 1 and err == ""
        assert [line.split(":")[0] for line in out.splitlines()] == [
            "FAIL moyal_identity", "FAIL cross_moyal"
        ]
    else:
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "overflows the float64 range" in err and "Traceback" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_cross_moyal_reads_in_the_unit_of_moyal_identity(tmp_path):
    # both Moyal residuals are multiplied by 2 pi eta, and |rhs| <= 1 / (2 pi
    # eta) for unit states: at eta = 1e-300 the cross residual stays below 1,
    # where in units of 1 / (2 pi eta) it read 1.3e298
    assert main(["moyal", "--eta", "1e-300", "--out", str(tmp_path)]) == 1
    checks = json.loads((tmp_path / "summary.json").read_text())["checks"]
    cross = [check for check in checks if check["name"] == "cross_moyal"]
    assert len(cross) == 1 and cross[0]["residual"] < 1.0


def test_a_library_warning_prints_as_one_line(tmp_path, capsys):
    # tomography's conditioning warning is one "warning:" line, not Python's
    # file:line form with its echoed source; the two checks fail at 8 angles
    original = warnings.showwarning
    assert main(["tomography", "--angles", "8", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == (
        "warning: 8 angles is below the 64 needed for a faithful inversion; "
        "expect smearing on the order of 1/angles\n"
    )
    # main puts the original back, and hands every other category to it
    assert warnings.showwarning is original
    with pytest.warns(RuntimeWarning, match="kept"):
        cli._warning_line(original)(RuntimeWarning("kept"), RuntimeWarning, "f.py", 1)


def test_the_package_runs_as_the_wignerlab_command(tmp_path):
    # python -m wignerlab is cli.main: its version, and the exit-code
    # contract with one error line
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = [sys.executable, "-m", "wignerlab"]
    version = subprocess.run(run + ["--version"], env=env, capture_output=True, text=True)
    assert version.returncode == 0 and version.stdout.strip() == wignerlab.__version__
    refused = subprocess.run(
        run + ["wigner", "--N", "17", "--out", str(tmp_path)], env=env, capture_output=True,
        text=True,
    )
    assert refused.returncode == 2 and refused.stdout == ""
    assert refused.stderr.startswith("error: ") and refused.stderr.count("\n") == 1
