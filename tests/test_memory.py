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
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from wignerlab import (
    GridFunction,
    MetaplecticSpec,
    MixedStateSpec,
    OperatorMatrix,
    ParameterError,
    PhaseSpaceFunction,
    ambiguity,
    coherent_state,
    cross_wigner,
    dual_grid,
    eta_scan,
    inverse_radon,
    klm_test,
    load_phase_space,
    make_grid,
    metaplectic_apply,
    mix,
    pure_density,
    radon,
    symplectic_fourier,
    twisted_product,
    validate_density,
    weyl_quantize,
    weyl_symbol,
    wigner,
)
from wignerlab import cli, quantumness, states, symplectic, tomography, weyl
from wignerlab.cli import main

ROOT = Path(__file__).resolve().parents[1]

REFUSAL = r"\d+\.\d GiB of .+ \(limit 2 GiB\)"

# The peak resident set (VmHWM) of this process's own address space, in
# bytes.  ru_maxrss starts at the peak of the process that spawned it, so
# under a test runner that had grown past a call's peak it rose by nothing.
_PEAK = """
def peak():
    with open("/proc/self/status") as status:
        return 1024 * next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
"""

# One call per process: the rise of its peak over the call, against the
# largest count the call handed to require_memory.  Inputs are built and
# numpy.random (about 6 MB, which klm_test imports for its sample points)
# is imported before the baseline is read; the rise is a lower bound on the
# working set, since pages freed inside the call may be reused.  The inputs
# of ``_SAVED`` peak above their call when built, which left the call's
# rise at 0, so the test builds and saves them and the child only loads them.
_MEASURE = _PEAK + """
import gc, importlib, json, sys
import numpy as np
import numpy.random
import wignerlab as wl

counted = []

def recording(original):
    def require_memory(nbytes, what):
        counted.append(nbytes)
        return original(nbytes, what)
    return require_memory

for name in ("quantumness", "states", "symplectic", "tomography", "weyl"):
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
elif case == "wigner_mix":
    # the rank-8 factors of a mixture fold into the N x N table
    grid = wl.make_grid(-10.0, 10.0, 512)
    rho = wl.mix(wl.MixedStateSpec([(0.125, wl.hermite_state(grid, 1.0, k)) for k in range(8)]))
    call = lambda: wl.wigner(rho)
elif case == "weyl_symbol":
    # loaded: the kernel path, the N x N kernel shifted in 2-D, no factors
    op = wl.OperatorMatrix(wl.make_grid(-10.0, 10.0, 512), np.load(sys.argv[2]), 1.0)
    call = lambda: wl.weyl_symbol(op)
elif case.startswith("weyl_quantize"):
    # loaded: a Wigner function, or for the two real passes of a complex
    # symbol at a foreign eta a cross-Wigner function
    grid = wl.make_grid(-10.0, 10.0, 512)
    a = wl.PhaseSpaceFunction(grid, wl.dual_grid(grid, 1.0), np.load(sys.argv[2]), 1.0)
    eta = {"weyl_quantize": 0.25, "weyl_quantize_native": None}.get(case, 0.5)
    call = lambda: wl.weyl_quantize(a, eta=eta)
elif case == "metaplectic":
    # |Q| + |R| = 24 at eta = 0.01 refines x 151-fold
    q, p, r = 12.0, 0.4, 12.0
    S = np.array([[r / q, 1.0 / q], [(p * r - q * q) / q, p / q]])
    spec, psi = wl.MetaplecticSpec.free(S), wl.coherent_state(wl.make_grid(-10.0, 10.0, 1024), 0.01)
    call = lambda: wl.metaplectic_apply(spec, psi)
elif case == "validate_density":
    # loaded: the range path of a rank-one kernel, certified by the first sketch
    op = wl.OperatorMatrix(wl.make_grid(-10.0, 10.0, 1024), np.load(sys.argv[2]), 1.0)
    call = lambda: wl.validate_density(op)
else:
    n = 128 if case == "radon" else 256
    W = wl.wigner(wl.coherent_state(wl.make_grid(-10.0, 10.0, n), 1.0)).W
    if case == "radon":
        angles = np.linspace(0.0, np.pi, 4096, endpoint=False)
        call = lambda: wl.radon(W, angles)
    else:
        samples = {"klm_test_m16": 16, "klm_test_m100": 100}.get(case, 512)
        call = lambda: wl.klm_test(W, 1.0, samples=samples)
gc.collect()
counted.clear()
before = peak()
call()
print(json.dumps({"counted": max(counted), "rise": peak() - before}))
"""


def _coherent(n, x0=0.0):
    return coherent_state(make_grid(-10.0, 10.0, n), 1.0, x0)


# the inputs the measuring process loads, built here
_SAVED = {
    "weyl_quantize": lambda: wigner(_coherent(512)).W.values,
    "weyl_quantize_native": lambda: wigner(_coherent(512)).W.values,
    "weyl_quantize_complex": lambda: cross_wigner(
        _coherent(512, 0.5), _coherent(512, -0.5)
    ).values,
    "weyl_symbol": lambda: pure_density(_coherent(512)).kernel,
    "validate_density": lambda: pure_density(_coherent(1024)).kernel,
}


# klm_test at N = 256 with few samples counts 5.5 and 7.5 MB; its fixed
# part, two N x N float arrays and one pair block, dominates there
_SMALL_COUNTS = ("klm_test_m16", "klm_test_m100")


@pytest.mark.parametrize(
    "case",
    [
        "radon", "weyl_quantize", "weyl_quantize_native", "weyl_quantize_complex", "klm_test",
        "wigner", "wigner_mix", "mix", "weyl_symbol", "klm_test_m16", "klm_test_m100", "validate_density",
        "metaplectic",
    ],
)
def test_each_count_bounds_the_measured_peak(case, tmp_path):
    # the sizes keep each count between 16 and 64 MB, the small-M KLM counts
    # between 4 and 16 MB
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    saved = tmp_path / "input.npy"
    if case in _SAVED:
        np.save(saved, _SAVED[case]())
    out = subprocess.run(
        [sys.executable, "-c", _MEASURE, case, str(saved)],
        env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["counted"] >= result["rise"], result
    low, high = (4e6, 16e6) if case in _SMALL_COUNTS else (16e6, 64e6)
    assert low <= result["counted"] <= high


def _traced_peak(call):
    """Bytes ``call()`` allocates at its peak, after one untraced call has
    made the first-use allocations."""
    call()
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    call()
    peak = tracemalloc.get_traced_memory()[1] - base
    if not tracing:
        tracemalloc.stop()
    return peak


def test_eta_scan_quantizes_a_real_wigner_function_without_a_copy(cold_plans):
    # a Wigner function is float64, so the scan quantizes W's own samples and
    # no N x N copy of their real part lives beside W; the quantizer sums
    # only the lags d >= 0 into an N x N table, from one Dirichlet table and
    # no refined rows, and validates the Hermitian kernel in place.  At
    # N = 256 and eta = 0.5 the traced peak is 2.13 MiB, the table and the
    # kernel it is read into (the Dirichlet plan, built in a mapping of its
    # own outside the malloc heap, is not traced), where the (N_p + 2) x N
    # complex Dirichlet table in the heap made it 2.51, a copy of the
    # kernel's Hermitian part 3.02, the refined rows and the chirp-z
    # 6.07, the N x 2N table of all lags 9.34 and the copy 10.34.  The native
    # quantization peaks at 2.13 MiB (2.39 while the last block's row FFT
    # outlived the fill, 3.57 with the N x 2N table), its kernel mirrored
    # tile by tile
    W = wigner(coherent_state(make_grid(-10.0, 10.0, 256), 1.0)).W
    assert np.shares_memory(quantumness._check_unit_mass(W)[0], W.values)
    assert _traced_peak(lambda: eta_scan(W, [0.5])) <= 2.75 * 2**20
    assert _traced_peak(lambda: weyl_quantize(W)) <= 3.6 * 2**20


def test_rank_one_maps_build_no_lag_table():
    # a state pair's folded lags are one product of two strided views of its
    # refined samples, with no N x 2N table: at N = 512 the traced peak of
    # the Wigner function is 4.26 MiB (the lags 0 .. N/2, conjugated in place,
    # and the irfft; hfft's conjugate copy made it 6.02), of
    # the cross-Wigner function 5.32 MiB (all N lags, the partner lags added
    # in row blocks, the FFT in place) and of the ambiguity function 4.33 MiB
    # (the central lags s >= 0 and -N/2, phased and summed in place in the
    # output, the rest mirrored; a phased copy made it 8.21), where the
    # table made them 12.01, 12.26 and 12.27 MiB
    grid = make_grid(-10.0, 10.0, 512)
    psi = coherent_state(grid, 1.0, 0.5, 0.3)
    phi = coherent_state(grid, 1.0, -0.5)
    assert _traced_peak(lambda: wigner(psi)) <= 5 * 2**20
    assert _traced_peak(lambda: cross_wigner(psi, phi)) <= 9 * 2**20
    assert _traced_peak(lambda: ambiguity(psi)) <= 5 * 2**20


def test_kernels_and_mixtures_fold_into_one_n_by_n_table():
    # a kernel's parity blocks, and those of a mixture's factors, are added
    # straight into the (N + 1) x N table of the folded lags, with no N x 2N
    # table: at N = 512 the traced peak of the Weyl symbol of a kernel is
    # 8.46 MiB (the 2-D half-step shift and the table, the FFT in place in
    # it) and of the Wigner function of a 32-state mixture 6.71 MiB (the
    # table, the half-step samples and the irfft), where the N x 2N table
    # made them 12.26 and 10.39 MiB
    grid = make_grid(-10.0, 10.0, 512)
    op = pure_density(coherent_state(grid, 1.0, 0.5, 0.3)).op
    rho = mix(
        MixedStateSpec(
            [(1.0 / 32, coherent_state(grid, 1.0, x0, 0.1 * x0)) for x0 in np.linspace(-3, 3, 32)]
        )
    )
    assert rho.factors[0].shape == (512, 32)
    assert _traced_peak(lambda: weyl_symbol(op)) <= 9.5 * 2**20
    assert _traced_peak(lambda: wigner(rho)) <= 8.5 * 2**20


def test_native_quantizer_fills_only_its_band():
    # at the symbol's own eta the quantizer fills the N x (N + 1) table of
    # the lags -N/2 .. N/2 of a complex symbol and the N x (N/2 + 1) table of
    # the lags 0 .. N/2 of a real one, and a product of two kernels is scaled
    # in place: at N = 512 the traced peaks are 8.26 MiB (complex), 6.26 MiB
    # (real) and 12.46 MiB (the twisted product of two complex symbols),
    # where zero-filled N x 2N and N x N tables and a scaled copy of the
    # product made them 12.25, 8.25 and 16.25 MiB
    grid = make_grid(-10.0, 10.0, 512)
    psi, phi = coherent_state(grid, 1.0, 0.5, 0.3), coherent_state(grid, 1.0, -0.5)
    X, W = cross_wigner(psi, phi), wigner(psi).W
    assert _traced_peak(lambda: weyl_quantize(X)) <= 9 * 2**20
    assert _traced_peak(lambda: weyl_quantize(W)) <= 7 * 2**20
    assert _traced_peak(lambda: twisted_product(X, X)) <= 13 * 2**20


def test_inverse_radon_starts_from_its_support_box():
    # the support intersection starts from the rows and columns that the
    # strips nearest theta = pi/2 and 0 can keep: at N = 512 with 180 angles
    # the traced peak is 3.24 MiB, where two N x N meshgrids and an N^2
    # index array made it 10.17
    W = wigner(coherent_state(make_grid(-10.0, 10.0, 512), 1.0, 0.5, 0.3)).W
    tomo = radon(W, np.linspace(0.0, np.pi, 180, endpoint=False))
    assert _traced_peak(lambda: inverse_radon(tomo)) <= 4 * 2**20


def test_symplectic_fourier_runs_its_second_pass_in_its_stage():
    # the first pass writes an rfft of the signed samples, 32 columns at a
    # time, into the first N/2 + 1 rows of the stage, and the second pass
    # phases and sums those rows in place: at N = 512 the traced peak is
    # 4.28 MiB, where a phased copy in each pass made it 8.25
    W = wigner(coherent_state(make_grid(-10.0, 10.0, 512), 1.0, 0.5, 0.3)).W
    assert _traced_peak(lambda: symplectic_fourier(W)) <= 5 * 2**20


def test_validate_density_makes_no_copy_of_a_hermitian_kernel(cold_plans):
    # a kernel equal to its conjugate transpose is its own Hermitian part:
    # at N = 256 the traced peak is 1.02 MiB, the sketches of the range
    # basis, where the copy (K + K^H) / 2 made it 2.02
    W = wigner(coherent_state(make_grid(-10.0, 10.0, 256), 1.0)).W
    op = weyl_quantize(W, eta=0.5)
    assert np.array_equal(op.kernel, op.kernel.conj().T)
    assert _traced_peak(lambda: validate_density(op, 1e-8)) <= 1.25 * 2**20


def test_foreign_quantizer_peak_does_not_grow_with_the_oversampling(cold_plans):
    # eta = 0.5, 0.25 and 1e-3 oversample p by F = 4, 8 and 2000, yet each
    # sum reads the one Dirichlet plan, two real (N_p/2 + 1) x N factors:
    # the traced peaks agree to within those (0.5 MiB at N = 256), and at
    # F = 2000 the kernel is still Hermitian and finite, at 2.13 MiB like
    # the others
    W = wigner(coherent_state(make_grid(-10.0, 10.0, 256), 1.0)).W
    table = (W.p_grid.n // 2 + 1) * W.x_grid.n * 16
    peak = _traced_peak(lambda: weyl_quantize(W, eta=0.5))
    assert abs(_traced_peak(lambda: weyl_quantize(W, eta=0.25)) - peak) <= table
    assert _traced_peak(lambda: weyl_quantize(W, eta=1e-3)) <= 3.6 * 2**20
    kernel = weyl_quantize(W, eta=1e-3).kernel
    assert np.all(np.isfinite(kernel))
    assert np.array_equal(kernel, kernel.conj().T)


def test_foreign_quantizer_frees_the_table_of_re_a_before_filling_im_a(cold_plans):
    # a complex symbol at a foreign eta is Op(Re a) + i Op(Im a): the N x N
    # lag table of Re a is freed once its kernel is read out, and the table
    # and kernel of Im a are built beside that kernel alone, then combined
    # into it in place.  At N = 256 and eta = 0.5 the traced peak of the
    # cross-Wigner function's quantization is 3.13 MiB, its plan built
    # outside the traced heap; one N x 2N table of both signs of lag made
    # it 3.06, and two tables and two kernels alive at once 5.02
    grid = make_grid(-10.0, 10.0, 256)
    X = cross_wigner(coherent_state(grid, 1.0, 0.5), coherent_state(grid, 1.0, -0.5))
    assert np.iscomplexobj(X.values)
    assert _traced_peak(lambda: weyl_quantize(X, eta=0.5)) <= 3.6 * 2**20


def test_klm_test_reads_a_loaded_wigner_function_without_a_copy(tmp_path):
    # the wigner command's CSV loads as float64, so klm_test reads W's own
    # samples and copies only their 153 x 39 support block: at N = 256 the
    # traced peak is 2.14 MiB, where pair phases over the whole grid made it
    # 4.34 and the complex W's real-part copies 5.34
    assert main(["wigner", "--out", str(tmp_path)]) == 0
    W = load_phase_space(tmp_path / "wigner.csv")
    assert W.x_grid.n == 256
    assert np.shares_memory(quantumness._check_unit_mass(W)[0], W.values)
    assert _traced_peak(lambda: klm_test(W, 1.5, samples=40, seed=0)) <= 2.4 * 2**20


# the metaplectic word path takes O(N) memory, so it has no guard: at
# N = 4096 its four steps must not rise by more than 16 MB
_WORD = _PEAK + """
import gc
import numpy as np
import wignerlab as wl

q, p, r = 1.3, 0.4, -0.7
spec = wl.MetaplecticSpec.free_as_word(np.array([[r / q, 1.0 / q], [(p * r - q * q) / q, p / q]]))
psi = wl.coherent_state(wl.make_grid(-10.0, 10.0, 4096), 1.0)
gc.collect()
before = peak()
wl.metaplectic_apply(spec, psi)
print(peak() - before)
"""


def test_word_path_memory_is_linear_in_n():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", _WORD], env=env, capture_output=True, text=True, check=True
    )
    assert int(out.stdout.strip().splitlines()[-1]) < 16e6


def _refuse(*args, **kwargs):
    raise AssertionError("allocated before the memory check")


def _small(allocate):
    """``allocate`` refusing any array of 2^24 entries or more: a table that
    some builder other than the stubbed ones would fill."""

    def allocating(shape, *args, **kwargs):
        if np.prod(shape) >= 2**24:
            _refuse()
        return allocate(shape, *args, **kwargs)

    return allocating


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
        lambda: weyl_quantize(_zero_stride_symbol(8192), eta=1e-3)
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
    "metaplectic_eta": _library(
        lambda: metaplectic_apply(
            MetaplecticSpec.free(np.array([[1.0, 1.0], [0.0, 1.0]])),
            coherent_state(make_grid(-10.0, 10.0, 256), 1e-9),
        )
    ),
    "cli_angles": _cli(["tomography", "--angles", "1000000000", "--N", "256"]),
    "cli_N": _cli(["wigner", "--N", "8192"]),
    "cli_metaplectic_eta": _cli(["metaplectic", "--eta", "1e-9"]),
}


@pytest.mark.parametrize("refusal", GUARDS.values(), ids=GUARDS.keys())
def test_every_guard_refuses_with_one_message(refusal, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(np, "outer", _refuse)
    monkeypatch.setattr(np, "matmul", _refuse)
    # the one table builder of the Weyl-Wigner maps; at N = 8192 a second
    # one, or a lag pass that ran without it, would be caught here
    monkeypatch.setattr(weyl, "_folded_correlation", _refuse)
    for name in ("zeros", "empty"):
        monkeypatch.setattr(np, name, _small(getattr(np, name)))
    for name in ("fft", "hfft", "irfft"):
        monkeypatch.setattr(np.fft, name, _refuse)
    monkeypatch.setattr(weyl, "_dirichlet_table", _refuse)
    monkeypatch.setattr(symplectic, "refine", _refuse)
    monkeypatch.setattr(quantumness, "_check_unit_mass", _refuse)
    monkeypatch.setattr(tomography, "_projection_spectra", _refuse)
    monkeypatch.setitem(cli.RUNNERS, "tomography", _refuse)
    assert re.fullmatch(REFUSAL, refusal(tmp_path, capsys))

