"""The one memory budget: every guard's count and message.

Each size-dependent call counts its working set and hands it to
``errors.require_memory``, which refuses more than 2 GiB before anything is
allocated.  The counts must bound what the calls really take, and every
refusal reads "<x.x> GiB of <what> (limit 2 GiB)".
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wignerlab import (
    GridFunction,
    MixedStateSpec,
    OperatorMatrix,
    ParameterError,
    PhaseSpaceFunction,
    ambiguity,
    cross_wigner,
    dual_grid,
    klm_test,
    make_grid,
    mix,
    radon,
    validate_density,
    weyl_quantize,
    weyl_symbol,
    wigner,
)
from wignerlab import cli, quantumness, states, tomography, weyl
from wignerlab.cli import main

ROOT = Path(__file__).resolve().parents[1]

REFUSAL = r"\d+\.\d GiB of .+ \(limit 2 GiB\)"

# One call per process: the ru_maxrss rise over the call, against the
# largest count the call handed to require_memory.  Inputs are built and
# numpy.random (about 6 MB, which klm_test imports for its sample points)
# is imported before the baseline is read; the rise is a lower bound on the
# working set, since pages freed inside the call may be reused.
_MEASURE = """
import gc, importlib, json, resource, sys
import numpy as np
import numpy.random
import wignerlab as wl

counted = []

def recording(original):
    def require_memory(nbytes, what):
        counted.append(nbytes)
        return original(nbytes, what)
    return require_memory

for name in ("quantumness", "states", "tomography", "weyl"):
    module = importlib.import_module("wignerlab." + name)
    module.require_memory = recording(module.require_memory)

case = sys.argv[1]
if case == "wigner":
    psi = wl.coherent_state(wl.make_grid(-10.0, 10.0, 512), 1.0)
    call = lambda: wl.wigner(psi)
elif case == "mix":
    grid = wl.make_grid(-10.0, 10.0, 512)
    spec = wl.MixedStateSpec([(0.125, wl.hermite_state(grid, 1.0, k)) for k in range(8)])
    call = lambda: wl.mix(spec)
elif case == "weyl_symbol":
    # the kernel path: the N x N kernel shifted in 2-D, no factors
    op = wl.pure_density(wl.coherent_state(wl.make_grid(-10.0, 10.0, 512), 1.0)).op
    call = lambda: wl.weyl_symbol(op)
elif case == "validate_density":
    # the range path: a rank-one kernel, certified by the first sketch
    op = wl.pure_density(wl.coherent_state(wl.make_grid(-10.0, 10.0, 1024), 1.0)).op
    call = lambda: wl.validate_density(op)
else:
    n = {"radon": 128, "weyl_quantize_native": 512}.get(case, 256)
    W = wl.wigner(wl.coherent_state(wl.make_grid(-10.0, 10.0, n), 1.0)).W
    if case == "radon":
        angles = np.linspace(0.0, np.pi, 4096, endpoint=False)
        call = lambda: wl.radon(W, angles)
    elif case == "weyl_quantize":
        call = lambda: wl.weyl_quantize(W, eta=0.25)
    elif case == "weyl_quantize_native":
        call = lambda: wl.weyl_quantize(W)
    else:
        samples = {"klm_test_m16": 16, "klm_test_m100": 100}.get(case, 512)
        call = lambda: wl.klm_test(W, 1.0, samples=samples)
gc.collect()
counted.clear()
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
call()
rise = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) * 1024
print(json.dumps({"counted": max(counted), "rise": rise}))
"""


# klm_test at N = 256 with few samples counts 5.5 and 7.5 MB; its fixed
# part, the N x N copy of the samples and one pair block, dominates there
_SMALL_COUNTS = ("klm_test_m16", "klm_test_m100")


@pytest.mark.parametrize(
    "case",
    [
        "radon", "weyl_quantize", "weyl_quantize_native", "klm_test", "wigner", "mix",
        "weyl_symbol", "klm_test_m16", "klm_test_m100", "validate_density",
    ],
)
def test_each_count_bounds_the_measured_peak(case):
    # the sizes keep each count between 16 and 64 MB, the small-M KLM counts
    # between 4 and 16 MB
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", _MEASURE, case],
        env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["counted"] >= result["rise"], result
    low, high = (4e6, 16e6) if case in _SMALL_COUNTS else (16e6, 64e6)
    assert low <= result["counted"] <= high


# the metaplectic word path takes O(N) memory, so it has no guard: at
# N = 4096 its four steps must not rise by more than 16 MB
_WORD = """
import gc, resource
import numpy as np
import wignerlab as wl

q, p, r = 1.3, 0.4, -0.7
spec = wl.MetaplecticSpec.free_as_word(np.array([[r / q, 1.0 / q], [(p * r - q * q) / q, p / q]]))
psi = wl.coherent_state(wl.make_grid(-10.0, 10.0, 4096), 1.0)
gc.collect()
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
wl.metaplectic_apply(spec, psi)
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) * 1024)
"""


def test_word_path_memory_is_linear_in_n():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", _WORD], env=env, capture_output=True, text=True, check=True
    )
    assert int(out.stdout.strip().splitlines()[-1]) < 16e6


def _refuse(*args, **kwargs):
    raise AssertionError("allocated before the memory check")


def _zero_stride_symbol(n):
    grid = make_grid(-10.0, 10.0, n)
    return PhaseSpaceFunction(grid, dual_grid(grid, 1.0), np.broadcast_to(0j, (n, n)), 1.0)


def _zero_stride_state(n):
    grid = make_grid(-10.0, 10.0, n)
    return GridFunction(grid, np.broadcast_to(complex(grid.length**-0.5), (n,)), 1.0)


def _library(call):
    def refusal(tmp_path, capsys):
        with pytest.raises(ParameterError) as info:
            call()
        return str(info.value)

    return refusal


def _cli(argv):
    def refusal(tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        return err[len("error: "):].strip()

    return refusal


# zero-stride inputs: a guarded call allocates nothing, and every allocation
# that would follow a missing guard is stubbed to fail at once
GUARDS = {
    "quantizer_oversampling": _library(
        lambda: weyl_quantize(_zero_stride_symbol(256), eta=1e-3)
    ),
    "klm_samples": _library(lambda: klm_test(_zero_stride_symbol(256), 1.0, samples=20000)),
    "radon_angles": _library(
        lambda: radon(_zero_stride_symbol(256), np.broadcast_to(0.3, (10**9,)))
    ),
    "cross_wigner_N": _library(
        lambda: cross_wigner(_zero_stride_state(8192), _zero_stride_state(8192))
    ),
    "mixture_wigner_N": _library(
        lambda: wigner(MixedStateSpec([(1.0, _zero_stride_state(8192))]))
    ),
    "ambiguity_N": _library(lambda: ambiguity(_zero_stride_state(8192))),
    "mix_N": _library(lambda: mix(MixedStateSpec([(1.0, _zero_stride_state(8192))]))),
    "validate_density_N": _library(
        lambda: validate_density(
            OperatorMatrix(make_grid(-10.0, 10.0, 8192), np.broadcast_to(0j, (8192, 8192)), 1.0)
        )
    ),
    "weyl_symbol_N": _library(
        lambda: weyl_symbol(
            OperatorMatrix(make_grid(-10.0, 10.0, 8192), np.broadcast_to(0j, (8192, 8192)), 1.0)
        )
    ),
    "cli_angles": _cli(["tomography", "--angles", "1000000000", "--N", "256"]),
    "cli_N": _cli(["wigner", "--N", "8192"]),
}


@pytest.mark.parametrize("refusal", GUARDS.values(), ids=GUARDS.keys())
def test_every_guard_refuses_with_one_message(refusal, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(np, "outer", _refuse)
    monkeypatch.setattr(np, "matmul", _refuse)
    monkeypatch.setattr(weyl, "half_step_correlation", _refuse)
    monkeypatch.setattr(weyl, "refine", _refuse)
    monkeypatch.setattr(quantumness, "_check_unit_mass", _refuse)
    monkeypatch.setattr(tomography, "_projection_spectra", _refuse)
    monkeypatch.setitem(cli.RUNNERS, "tomography", _refuse)
    assert re.fullmatch(REFUSAL, refusal(tmp_path, capsys))

