"""Property tests of the FFT and chirp-z transforms over random grids and eta.

Grids are power-of-two N from 16 to 256 on non-centered intervals; eta runs
over [0.3, 3], and quantization is also checked at a foreign eta, where the
oversampled p step is not dual to the x grid.  The fast paths are compared
with the dense-phase and eigen-loop references in ``oracles``: the
Weyl-Wigner lag transforms (among them the real Wigner functions of states,
mixtures and densities known by their kernel alone), the quantizer, the free metaplectic operator,
the rescale and Fourier steps of a metaplectic word, and the Radon transform.
The symplectic Fourier transform is checked to be an involution on centered
grids, and against the direct double sum at even and odd N.
The factored paths are compared with their N x N forms: the half-step
correlation of factors (U, V) with that of the kernel U V^H, its parity
views with the ``midpoint_lag`` scatter, the quantizer's band tables
(even N, N = 4m + 2 included) with the zero-filled full-width tables it
read before, bit for bit, the strided lag products of a
state pair with its folded table, and the Gram spectrum of a mixture with
the eigensolve of its kernel.  The range-basis spectrum of a
kernel (mixtures, foreign-eta quantizations and filtered backprojections)
is compared with the N x N eigensolve, within the certificate it reports,
and the backprojection of Gaussian states with their exact Wigner
function.  The KLM matrix, built on the
pair differences j < k from per-sample phases, is compared with its
construction over all M^2 differences, and the moments that
``covariance_matrix`` reads off the marginals with the N x N mesh sums.
The symplectic spectrum that ``symplectic_eigenvalues``, ``williamson``
and ``gaussian_admissible`` share is compared with the general eigensolver
of J Sigma over random covariances of n = 1 to 3 modes, condition numbers
up to 1e6 and scales from 1e-3 to 1e3.  Near the admissibility boundary,
the Gaussian verdict and the Robertson-Schrodinger checks are compared with
the exact verdicts at scales from 1e-6 to 1e6.  Every output that reads a
plan (``errors.plan``: the foreign-eta Dirichlet table, the range sketch)
gives the same bits on an empty store, a warm one and one that evicts.
"""

from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from wignerlab import (
    CovarianceMatrix,
    DensityMatrix,
    Grid,
    GridFunction,
    MetaplecticSpec,
    MixedStateSpec,
    OperatorMatrix,
    ParameterError,
    PhaseSpaceFunction,
    ValidationError,
    ambiguity,
    coherent_state,
    covariance_matrix,
    cross_wigner,
    dual_grid,
    eta_fourier,
    eta_scan,
    gaussian_admissible,
    is_symplectic,
    klm_test,
    make_grid,
    metaplectic_apply,
    mix,
    moyal_overlap,
    inverse_radon,
    pure_density,
    radon,
    reconstruct_density,
    robertson_schrodinger_checks,
    sigma_transform_at,
    symplectic_eigenvalues,
    symplectic_fourier,
    validate_density,
    weyl_quantize,
    weyl_symbol,
    wigner,
    williamson,
)
from wignerlab import errors
from wignerlab.quantumness import klm_matrix
from wignerlab.transforms import chirp_z, oscillatory_sum
from wignerlab.wigner import quantized_density
from wignerlab.weyl import _folded_correlation, _parity_views

from oracles import (
    ambiguity_dense,
    covariance_dense,
    cross_wigner_dense,
    half_step_correlation,
    klm_matrix_dense,
    metaplectic_free_dense,
    midpoint_lag,
    periodic_interp,
    radon_dense,
    sigma_riemann,
    symplectic_eigenvalues_dense,
    transform_dense,
    weyl_quantize_dense,
    weyl_quantize_full_table,
    weyl_symbol_dense,
    wigner_density_eigen,
)

sizes = st.sampled_from([16, 32, 64, 128, 256])
etas = st.floats(0.3, 3.0)
foreign = st.sampled_from([0.5, 0.7, 1.3, 1.5])
seeds = st.integers(0, 2**32 - 1)


@st.composite
def grids(draw):
    """A grid on an arbitrary, generally non-centered [x_min, x_max), with eta."""
    n = draw(sizes)
    x_min = draw(st.floats(-14.0, -4.0))
    length = draw(st.floats(10.0, 24.0))
    return make_grid(x_min, x_min + length, n), draw(etas)


@st.composite
def free_matrices(draw):
    """Free symplectic 2x2 matrix from generating-function blocks P, Q, R."""
    q = draw(st.floats(0.5, 2.0)) * draw(st.sampled_from([-1.0, 1.0]))
    p, r = draw(st.floats(-1.5, 1.5)), draw(st.floats(-1.5, 1.5))
    return np.array([[r / q, 1.0 / q], [(p * r - q * q) / q, p / q]])


def _state(grid, eta, rng, center=None):
    """Normalized superposition of coherent states near ``center`` (default:
    the grid center)."""
    if center is None:
        center = 0.5 * (grid.x_min + grid.x_max)
    width = np.sqrt(eta)
    values = 0.0
    for _ in range(2):
        x0, p0 = center + width * rng.uniform(-1.0, 1.0), width * rng.uniform(-1.0, 1.0)
        phase = np.exp(2j * np.pi * rng.uniform())
        values = values + phase * coherent_state(grid, eta, x0, p0).values
    return GridFunction(grid, values, eta).normalized()


def _relative(fast, ref):
    return float(np.max(np.abs(fast - ref)) / np.max(np.abs(ref)))


def _kernels(grid, eta, rng):
    """A rank-one kernel of two states, which vanishes far off the diagonal
    and at the grid edges, and a dense random one whose entries are all of
    order 1, so the corner lags |j - k| ~ N - 1 and the first and last
    midpoint rows count too."""
    psi, phi = _state(grid, eta, rng), _state(grid, eta, rng)
    dense = rng.normal(size=(grid.n, grid.n)) + 1j * rng.normal(size=(grid.n, grid.n))
    return np.outer(psi.values, phi.values.conj()), dense


@given(grids(), seeds)
def test_lag_transforms_match_dense_phase(grid_eta, seed):
    grid, eta = grid_eta
    rng = np.random.default_rng(seed)
    psi, phi = _state(grid, eta, rng), _state(grid, eta, rng)
    assert _relative(cross_wigner(psi, phi).values, cross_wigner_dense(psi, phi)) <= 1e-11
    assert _relative(ambiguity(psi).values, ambiguity_dense(psi)) <= 1e-11
    for kernel in _kernels(grid, eta, rng):
        op = OperatorMatrix(grid, kernel, eta)
        assert _relative(weyl_symbol(op).values, weyl_symbol_dense(op)) <= 1e-11


@given(grids(), st.sampled_from([1, 2, 8]), seeds)
def test_factored_correlation_matches_kernel_correlation(grid_eta, rank, seed):
    # the factors are read as they come: C- or Fortran-ordered, column slices
    # of a wider array and real-valued views
    grid, _ = grid_eta
    rng = np.random.default_rng(seed)
    u, v = (rng.normal(size=(grid.n, rank)) + 1j * rng.normal(size=(grid.n, rank)) for _ in "uv")
    wide = rng.normal(size=(grid.n, 2 * rank)) + 1j * rng.normal(size=(grid.n, 2 * rank))
    for left, right in (
        (u, v),
        (np.asfortranarray(u), np.asfortranarray(v)),
        (wide[:, ::2], wide[:, 1::2]),
        (u.real, v.imag),
    ):
        factored = half_step_correlation((left, right), grid)
        kernel = half_step_correlation(left @ right.conj().T, grid)
        assert _relative(factored, kernel) <= 1e-14


@given(grids(), st.integers(2, 32), seeds)
def test_folded_table_matches_the_oracle(grid_eta, rank, seed):
    # the (N + 1) x N table that correlation_symbol folds into holds each
    # cell's lags t and t - N as the N x 2N oracle adds them, bit for bit,
    # over all N lags and over the lags 0 .. N/2 a Hermitian operator reads:
    # for a rank-one and a dense kernel, and factors of rank 2 .. 32 read as
    # they come (C- or Fortran-ordered, column slices and real-valued views)
    grid, eta = grid_eta
    n = grid.n
    rng = np.random.default_rng(seed)
    u, v = (rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank)) for _ in "uv")
    wide = rng.normal(size=(n, 2 * rank)) + 1j * rng.normal(size=(n, 2 * rank))
    sources = [
        *_kernels(grid, eta, rng),
        (u, v),
        (np.asfortranarray(u), np.asfortranarray(v)),
        (wide[:, ::2], wide[:, 1::2]),
        (u.real, v.imag),
    ]
    for source in sources:
        ref = half_step_correlation(source, grid)
        ref = ref[:, n:] + ref[:, :n]
        for width in (n, n // 2 + 1):
            folded = _folded_correlation(source, grid, width)
            assert folded.shape == (n, n) and folded.dtype == complex
            assert np.array_equal(folded[:, :width], ref[:, :width])


@given(grids())
def test_parity_views_cover_each_midpoint_lag_cell_once(grid_eta):
    # distinct entries added through the views: a cell reached twice would
    # hold a sum, a cell missed would hold zero
    n = grid_eta[0].n
    kernel = np.arange(1.0, n * n + 1.0).reshape(n, n)
    corr = np.zeros((n, 2 * n), dtype=complex)
    for (a, b), view in _parity_views(corr, n).items():
        view += kernel[a::2, b::2]
    scattered = np.zeros((n, 2 * n), dtype=complex)
    mid, lag = midpoint_lag(n)
    scattered[mid, lag] = kernel
    assert np.array_equal(corr, scattered)
    # on the N x N table of the lags d >= 0 the views read each cell of the
    # kernel's lower triangle from (midpoint, d)
    table = kernel.astype(complex)
    gathered = np.empty_like(table)
    for (a, b), view in _parity_views(table, 0).items():
        gathered[a::2, b::2] = view
    lower = np.broadcast_to(lag >= n, (n, n))
    rows, lags = np.broadcast_arrays(mid, lag - n)
    assert np.array_equal(gathered[lower], table[rows[lower], lags[lower]])
    # the band tables of a symbol at its own eta, N x (N + 1) of the lags
    # -N/2 .. N/2 and N x (N/2 + 1) of the lags 0 .. N/2, read each cell of
    # their band from (midpoint, d + zero)
    for zero, low in ((n // 2, -(n // 2)), (0, 0)):
        band = np.arange(1.0, n * (zero + n // 2 + 1) + 1.0).reshape(n, -1).astype(complex)
        gathered = np.empty((n, n), dtype=complex)
        for (a, b), view in _parity_views(band, zero).items():
            gathered[a::2, b::2] = view
        held = np.broadcast_to((lag - n >= low) & (lag - n <= n // 2), (n, n))
        assert np.array_equal(gathered[held], band[rows[held], lags[held] + zero])


@settings(max_examples=40, deadline=None)
@example(3, -10.0, 20.0, 1.0, 0.0, False, None, 0)
@example(65, -7.0, 15.0, 0.7, 0.37, True, None, 1)
@given(
    st.integers(2, 48), st.floats(-14.0, -4.0), st.floats(10.0, 24.0), etas,
    st.sampled_from([0.0, 0.37, -2.5]), st.booleans(), st.sampled_from([None, 0.5, 1.3]), seeds,
)
def test_band_tables_read_out_the_full_table_kernels(half, x_min, length, eta, shift, real, use, seed):
    # even N, N = 4m + 2 included, on centred and offset dual p grids: the
    # quantizer's band tables and their clearing give the kernel of the
    # zero-filled full-width tables bit for bit, at the symbol's own eta and
    # at a foreign one (whose tables keep their widths)
    n = 2 * half
    grid = Grid(x_min, x_min + length, n)
    dual = dual_grid(grid, eta)
    p_min = dual.x_min + shift * dual.dx
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, n))
    if not real:
        values = values + 1j * rng.normal(size=(n, n))
    a = PhaseSpaceFunction(grid, Grid(p_min, p_min + dual.length, n), values, eta)
    eta_use = None if use is None else use * eta
    kernel = weyl_quantize(a, eta_use).kernel
    full = weyl_quantize_full_table(a, eta_use)
    assert kernel.dtype == full.dtype == complex
    assert np.array_equal(kernel, full)


def _assert_gram_spectrum(rho):
    herm = 0.5 * (rho.kernel + rho.kernel.conj().T)
    dense = np.linalg.eigvalsh(herm)[::-1] * rho.grid.dx
    assert np.max(np.abs(rho.report.eigenvalues - dense)) <= 1e-14


@given(grids(), st.integers(1, 8), seeds)
def test_mixture_spectrum_matches_kernel_eigensolve(grid_eta, components, seed):
    # the last component repeats the first, so the Gram matrix is singular
    grid, eta = grid_eta
    rng = np.random.default_rng(seed)
    states = [_state(grid, eta, rng) for _ in range(components)]
    states.append(states[0])
    weights = rng.dirichlet(np.ones(len(states)))
    weights[-1] = 1.0 - weights[:-1].sum()
    _assert_gram_spectrum(mix(MixedStateSpec(list(zip(weights, states)))))


def test_mixture_of_more_states_than_points_takes_the_kernel_eigensolve():
    grid, eta = make_grid(-6.0, 6.0, 16), 1.0
    rng = np.random.default_rng(16)
    states = [_state(grid, eta, rng) for _ in range(20)]
    rho = mix(MixedStateSpec([(1.0 / 20, psi) for psi in states]))
    assert len(rho.report.eigenvalues) == grid.n
    _assert_gram_spectrum(rho)


def test_mixture_of_more_states_than_points_takes_no_range_basis(monkeypatch):
    # r >= N: the spectrum is the kernel's own, in one eigensolve, and no
    # sketch of a range basis is tried
    grid, eta = make_grid(-10.0, 10.0, 128), 1.0
    rng = np.random.default_rng(17)
    noise = rng.normal(size=(130, 128)) + 1j * rng.normal(size=(130, 128))
    states = [GridFunction(grid, row, eta).normalized() for row in noise]
    widths = []
    qr = np.linalg.qr

    def recording(matrix, *args, **kwargs):
        widths.append(matrix.shape[1])
        return qr(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", recording)
    rho = mix(MixedStateSpec([(1.0 / 130, psi) for psi in states]))
    assert widths == []
    dense = np.linalg.eigvalsh(rho.kernel * grid.dx)[::-1]
    assert np.max(np.abs(rho.report.eigenvalues - dense)) <= 1e-12 * np.max(np.abs(dense))
    assert rho.report.rank == 128 and rho.report.certificate == 0.0


def _assert_within_certificate(op, psd_floor):
    """The report's padded spectrum against the N x N eigensolve: by Weyl's
    inequality every eigenvalue lies within the certificate (plus the
    eigensolvers' round-off), and the certificate is below a tenth of the
    PSD floor."""
    report = validate_density(op, psd_floor=psd_floor)
    herm = 0.5 * (op.kernel + op.kernel.conj().T)
    dense = np.linalg.eigvalsh(herm)[::-1] * op.dx
    scale = np.max(np.abs(dense))
    assert report.certificate <= 0.1 * psd_floor * np.max(np.abs(report.eigenvalues))
    assert np.max(np.abs(report.eigenvalues - dense)) <= report.certificate + 1e-14 * scale
    assert (report.certificate == 0.0) == (report.rank == op.grid.n)
    return report


@given(grids(), st.integers(1, 8), seeds)
def test_range_spectrum_of_a_mixture_kernel_is_certified(grid_eta, components, seed):
    # the kernel alone, without the factors mix keeps
    grid, eta = grid_eta
    rng = np.random.default_rng(seed)
    states = [_state(grid, eta, rng) for _ in range(components)]
    weights = rng.dirichlet(np.ones(components))
    rho = mix(MixedStateSpec(list(zip(weights, states))))
    report = _assert_within_certificate(OperatorMatrix(grid, rho.kernel, eta), 1e-10)
    # a rank of at most 8 is certified by the first sketch once one is tried
    assert report.rank == (32 if grid.n >= 128 else grid.n)


@given(grids(), st.floats(0.3, 3.0), seeds)
def test_range_spectrum_of_a_foreign_eta_quantization_is_certified(grid_eta, other, seed):
    # rho = (2 pi eta') Op_eta'(W) / Tr, as eta_scan validates it
    grid, eta = grid_eta
    W = wigner(_state(grid, eta, np.random.default_rng(seed)))
    op, _, _ = quantized_density(W, other, 1e-8)
    _assert_within_certificate(op, 1e-8)


def _plan_outputs(W, psi, phi, eta_list):
    """Every output that reads a plan, as bytes: the eta_scan entries, the
    native and foreign kernels of W, the foreign kernel of the cross-Wigner
    function of psi and phi (N x 2N lag table, non-Hermitian), and the
    validate_density reports of the foreign kernels."""
    X = cross_wigner(psi, phi)
    ops = [weyl_quantize(W), weyl_quantize(W, eta=eta_list[0]), weyl_quantize(X, eta=eta_list[-1])]
    reports = [validate_density(op, 1e-8) for op in ops[1:]]
    return [
        repr(eta_scan(W, eta_list).entries),
        *(op.kernel.tobytes() for op in ops),
        *(r.eigenvalues.tobytes() for r in reports),
        *(
            repr((r.hermiticity_residue, r.trace_diagonal, r.certificate, r.rank, r.violations))
            for r in reports
        ),
    ]


def _capped_outputs(cap, *args):
    """:func:`_plan_outputs` with at most ``cap`` bytes of plans held."""
    limit = errors._PLAN_LIMIT_BYTES
    errors._PLAN_LIMIT_BYTES = cap
    try:
        return _plan_outputs(*args)
    finally:
        errors._PLAN_LIMIT_BYTES = limit


@given(
    st.integers(32, 80), st.floats(-12.0, -8.0), st.floats(16.0, 24.0), st.floats(0.5, 2.0), seeds
)
# N = 160 takes the range sketch (N / 2 > 32) at every eta
@example(80, -10.0, 20.0, 1.0, 0)
def test_plans_give_the_same_bits_cold_warm_and_after_an_eviction(half, x_min, length, eta, seed):
    # any even N = 2 half, not only the powers of two make_grid accepts
    grid = Grid(x_min, x_min + length, 2 * half)
    rng = np.random.default_rng(seed)
    psi, phi = _state(grid, eta, rng), _state(grid, eta, rng)
    args = (wigner(psi), psi, phi, [0.5 * eta, eta, 1.5 * eta])
    errors._plans.clear()
    cold = _capped_outputs(0, *args)
    assert not errors._plans
    _plan_outputs(*args)
    largest = max(plan.nbytes for plan in errors._plans.values())
    assert _plan_outputs(*args) == cold
    # a cap of the largest plan holds one at a time, so every build evicts
    _capped_outputs(largest, *args)
    assert _capped_outputs(largest, *args) == cold
    errors._plans.clear()


def test_full_rank_kernel_takes_the_identity_basis(monkeypatch):
    # no sketch certifies a full-rank kernel: the rank doubles from 32 to 64,
    # and at N / 2 the basis is the identity, with the N x N eigensolve
    grid = make_grid(-10.0, 10.0, 256)
    rng = np.random.default_rng(7)
    a = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
    kernel = a @ a.conj().T + 256.0 * np.eye(256)
    kernel /= np.trace(kernel).real * grid.dx
    widths = []
    qr = np.linalg.qr

    def recording(matrix, *args, **kwargs):
        widths.append(matrix.shape[1])
        return qr(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", recording)
    report = _assert_within_certificate(OperatorMatrix(grid, kernel, 1.0), 1e-10)
    assert report.ok and report.rank == 256 and report.certificate == 0.0
    assert widths == [32, 64]


@settings(deadline=None)
@given(st.sampled_from([64, 128, 256, 512]), st.floats(-2.5, 2.5), st.floats(-2.5, 2.5))
@example(64, 0.0, 0.0)
def test_backprojection_of_gaussian_states_converges_at_fourth_order(n, x0, p0):
    # the cubic read of the refined profile: L2 error 1.1e-5 (64 / N)^4 and
    # minimum eigenvalue -4.6e-6 (64 / N)^4 over centres in [-2.5, 2.5]^2
    grid = make_grid(-10.0, 10.0, n)
    w = wigner(coherent_state(grid, 1.0, x0, p0))
    tomo = radon(w, np.linspace(0.0, np.pi, 180, endpoint=False))
    truth = w.values.real
    recon = inverse_radon(tomo).values.real
    order = (64.0 / n) ** 4
    assert np.sqrt(np.sum((recon - truth) ** 2) / np.sum(truth**2)) <= 2e-5 * order
    density, info = reconstruct_density(tomo, 1.0)
    assert density is not None and info["min_eigenvalue"] >= -1e-5 * order
    _assert_within_certificate(density.op, 1e-4)


def test_half_step_correlation_refuses_an_odd_grid():
    # the Weyl symbol of a kernel and the Wigner function of a two-state
    # mixture, whose factors take the folded table
    grid = Grid(-5.0, 5.0, 15)
    ones = np.ones((grid.n, grid.n), dtype=complex)
    states = [coherent_state(grid, 1.0, x0).normalized() for x0 in (-1.0, 1.0)]
    for call in (
        lambda: weyl_symbol(OperatorMatrix(grid, ones, 1.0)),
        lambda: wigner(MixedStateSpec([(0.5, psi) for psi in states])),
    ):
        with pytest.raises(ParameterError, match="even N"):
            call()


@given(grids(), seeds)
def test_native_quantizer_returns_the_lag_band(grid_eta, seed):
    # a kernel on the lags |j - k| < N/2 has a symbol that holds them all:
    # the quantizer returns its even lags and nothing beyond N/2 (odd lags
    # pass through band-limited x interpolation, not exact for random entries)
    grid, eta = grid_eta
    _, dense = _kernels(grid, eta, np.random.default_rng(seed))
    j, k = np.indices(dense.shape)
    lag = np.abs(j - k)
    kernel = np.where(2 * lag < grid.n, dense, 0.0)
    back = weyl_quantize(weyl_symbol(OperatorMatrix(grid, kernel, eta))).kernel
    even = lag % 2 == 0
    assert _relative(back[even], kernel[even]) <= 1e-12
    assert np.all(back[2 * lag > grid.n] == 0.0)


@given(grids(), foreign, seeds)
def test_quantizer_maps_the_conjugate_symbol_to_the_adjoint(grid_eta, factor, seed):
    # Op(conj a) = Op(a)^H for a complex symbol, natively and at a foreign
    # eta: natively the lags -d of the N x (N + 1) table must be those of
    # the lags d of conj a conjugated, which swapped halves of the table
    # would break, and at a foreign eta Op(Re a) - i Op(Im a) must be the
    # adjoint of Op(Re a) + i Op(Im a), which a wrong sign would break
    grid, eta = grid_eta
    for kernel in _kernels(grid, eta, np.random.default_rng(seed)):
        a = weyl_symbol(OperatorMatrix(grid, kernel, eta))
        conj = PhaseSpaceFunction(grid, a.p_grid, a.values.conj(), eta)
        for at in (None, factor * eta):
            adjoint = weyl_quantize(a, eta=at).kernel.conj().T
            assert _relative(weyl_quantize(conj, eta=at).kernel, adjoint) <= 1e-14


@given(grids(), foreign, seeds)
# at the foreign eta, one block of N = 16 rows and two full blocks of 128
# against the one Dirichlet table, a complex symbol in two real passes, the
# N x N lag tables of Re a and Im a, their kernels combined; the
# native quantization takes one row FFT per block.  Over 150 draws the
# closed-form sums missed the dense product by at most 1.8e-13, the chirp-z
# they replaced by 2.9e-13
@example((make_grid(-5.0, 9.0, 16), 0.4), 0.5, 0)
@example((make_grid(-13.0, 8.0, 256), 2.5), 1.5, 1)
def test_chirp_z_quantizer_matches_dense_product(grid_eta, factor, seed):
    grid, eta = grid_eta
    rng = np.random.default_rng(seed)
    eta_use = factor * eta
    for kernel in _kernels(grid, eta, rng):
        a = weyl_symbol(OperatorMatrix(grid, kernel, eta))
        assert _relative(weyl_quantize(a).kernel, weyl_quantize_dense(a)) <= 1e-11
        fast = weyl_quantize(a, eta=eta_use).kernel
        assert _relative(fast, weyl_quantize_dense(a, eta=eta_use)) <= 1e-12
    # a real symbol, here the Wigner function of a two-state mixture, sums
    # only the lags d >= 0 and mirrors its kernel: exactly Hermitian
    weights = rng.dirichlet(np.ones(2))
    weights[-1] = 1.0 - weights[0]
    W = wigner(MixedStateSpec([(w, _state(grid, eta, rng)) for w in weights]))
    assert W.values.dtype == np.float64
    for at, bound in ((eta, 1e-11), (eta_use, 1e-12)):
        kernel = weyl_quantize(W, eta=at).kernel
        assert _relative(kernel, weyl_quantize_dense(W, eta=at)) <= bound
        assert np.array_equal(kernel, kernel.conj().T)
        assert np.all(np.diagonal(kernel).imag == 0.0)


def test_foreign_quantizer_meets_the_dense_oracle_at_n512():
    # at eta / a.eta = 0.25 (F = 8) the closed-form p sums miss the dense
    # product by 2.3e-13 for a random real symbol and 5.1e-14 for the Wigner
    # function of a two-state mixture; the chirp-z they replaced, whose chirp
    # phases grew like step j^2, missed by 6.4e-13 and 1.7e-13
    grid = make_grid(-10.0, 10.0, 512)
    p_grid = dual_grid(grid, 1.0)
    rng = np.random.default_rng(0)
    a = PhaseSpaceFunction(grid, p_grid, rng.normal(size=(512, 512)), 1.0)
    psi, phi = coherent_state(grid, 1.0, 0.3, 0.2), coherent_state(grid, 1.0, -0.5, -0.4)
    W = wigner(MixedStateSpec([(0.4, psi), (0.6, phi)]))
    for symbol, bound in ((a, 4e-13), (W, 1e-13)):
        fast = weyl_quantize(symbol, eta=0.25).kernel
        assert _relative(fast, weyl_quantize_dense(symbol, eta=0.25)) <= bound


@pytest.mark.parametrize("ratio", [1.5, 0.5, 1.0 / 3.0])
def test_foreign_quantizer_at_the_singularities_of_its_table(ratio):
    # at these eta / a.eta some u = pi j + c d of the Dirichlet table vanish,
    # with both sines of sin(u) / sin(u / M); read from one argument their
    # quotient is M there, for a real and a complex symbol alike
    grid = make_grid(-10.0, 10.0, 256)
    rng = np.random.default_rng(7)
    real = PhaseSpaceFunction(grid, dual_grid(grid, 1.0), rng.normal(size=(256, 256)), 1.0)
    _, dense = _kernels(grid, 1.0, rng)
    for a in (real, weyl_symbol(OperatorMatrix(grid, dense, 1.0))):
        fast = weyl_quantize(a, eta=ratio).kernel
        assert _relative(fast, weyl_quantize_dense(a, eta=ratio)) <= 1e-12


@given(grids(), st.integers(1, 8), seeds)
def test_density_wigner_matches_eigen_loop(grid_eta, components, seed):
    # components == 1 is the pure state, whose kernel is the outer product
    grid, eta = grid_eta
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(components))
    weights[-1] = 1.0 - weights[:-1].sum()
    states = [_state(grid, eta, rng) for _ in weights]
    rho = mix(MixedStateSpec(list(zip(weights, states))))
    explicit = sum(w * np.outer(psi.values, psi.values.conj()) for w, psi in zip(weights, states))
    assert _relative(rho.kernel, explicit) <= 1e-14
    first = states[0].values
    assert _relative(pure_density(states[0]).kernel, np.outer(first, first.conj())) <= 1e-15
    assert _relative(wigner(rho).values, wigner_density_eigen(rho)) <= 1e-12



def _parity_view_maps(psi, phi):
    """W(psi, phi), W(psi) and Amb(psi) from the N x 2N half-step correlation
    of their factors, folded and summed as ``correlation_symbol`` and
    ``ambiguity`` sum it: the parity-view path of kernels and rank r > 1."""
    grid, eta = psi.grid, psi.eta
    n = grid.n
    p_grid = dual_grid(grid, eta)
    sign = np.full(n, grid.dx / (2.0 * np.pi * eta))
    sign[1::2] *= -1.0
    cross, auto = (
        half_step_correlation((psi.values[:, None], other.values[:, None]), grid)
        for other in (phi, psi)
    )
    half = n // 2 + 1
    maps = {
        "cross": np.fft.fft((cross[:, n:] + cross[:, :n]) * sign, axis=1),
        "wigner": np.fft.hfft((auto[:, n : n + half] + auto[:, :half]) * sign[:half], n, axis=1),
        "ambiguity": oscillatory_sum(
            auto[:, n // 2 : 3 * n // 2].T, grid, p_grid, eta, -1, scale=sign[0]
        ),
    }
    # ambiguity sums the lags -N/2 .. 0 and mirrors the lags s > 0 but
    # their entry at p = -N/2 dp: Amb(-z) = conj Amb(z)
    amb, mid = maps["ambiguity"], n // 2
    amb[mid + 1 :, 1:] = np.conjugate(amb[mid - 1 : 0 : -1, n - 1 : 0 : -1])
    return maps


@given(grids(), seeds)
def test_rank_one_maps_match_the_parity_view_path(grid_eta, seed):
    # a state pair's lags are one product of two strided views of its
    # refined, zero-padded samples, with no N x 2N table: the cross-Wigner,
    # Wigner and ambiguity functions, and the Wigner function of the one-term
    # density, match the parity-view path of the same factors with its dtype
    grid, eta = grid_eta
    rng = np.random.default_rng(seed)
    psi, phi = _state(grid, eta, rng), _state(grid, eta, rng)
    ref = _parity_view_maps(psi, phi)
    rank_one = {
        "cross": cross_wigner(psi, phi).values,
        "wigner": wigner(psi).values,
        "density": wigner(pure_density(psi)).values,
        "ambiguity": ambiguity(psi).values,
    }
    ref["density"] = ref["wigner"]
    for name, values in rank_one.items():
        assert values.dtype == ref[name].dtype, name
        assert _relative(values, ref[name]) <= 1e-14, name


@given(st.sampled_from([15, 33, 63, 127]), etas)
def test_rank_one_maps_refuse_an_odd_grid_before_any_transform(n, eta):
    grid = Grid(-8.0, 8.0, n)
    psi = coherent_state(grid, eta).normalized()
    rho = pure_density(psi)
    calls = (
        lambda: cross_wigner(psi, psi.normalized()),
        lambda: wigner(psi),
        lambda: wigner(rho),
        lambda: ambiguity(psi),
    )
    with pytest.MonkeyPatch.context() as patch:
        for name in ("fft", "ifft", "hfft", "rfft", "irfft"):
            patch.setattr(np.fft, name, _no_transform)
        for call in calls:
            with pytest.raises(ParameterError, match="even N"):
                call()


def _no_transform(*args, **kwargs):
    raise AssertionError("a transform ran before the odd grid was refused")


@given(grids(), st.integers(1, 8), seeds)
def test_hermitian_wigner_paths_match_dense_oracles(grid_eta, components, seed):
    # the real Wigner functions of a state (one hfft of half the lags), of a
    # mixture spec (the factors mix keeps) and of a density known by its
    # kernel alone (the real part of the full lag sum), against the
    # dense-phase oracles.  A kernel is Hermitian only to round-off: with an
    # anti-Hermitian residue of 4e-11 its Wigner function is still the real
    # part of the full sum, not the sum of half the lags
    grid, eta = grid_eta
    rng = np.random.default_rng(seed)
    psi = _state(grid, eta, rng)
    assert _relative(wigner(psi).values, cross_wigner_dense(psi, psi)) <= 1e-13
    weights = rng.dirichlet(np.ones(components))
    weights[-1] = 1.0 - weights[:-1].sum()
    spec = MixedStateSpec([(w, _state(grid, eta, rng)) for w in weights])
    rho = mix(spec)
    eigen = wigner_density_eigen(rho)
    assert _relative(wigner(spec).values, eigen) <= 1e-13
    assert _relative(wigner(DensityMatrix(rho.op, rho.report)).values, eigen) <= 1e-13
    skew = rng.uniform(-1.0, 1.0, size=(grid.n, grid.n))
    kernel = rho.kernel + 1e-11 * np.max(np.abs(rho.kernel)) * 1j * (skew + skew.T)
    op = OperatorMatrix(grid, kernel, eta)
    full = weyl_symbol(op).values.real / (2.0 * np.pi * eta)
    assert _relative(wigner(DensityMatrix(op, validate_density(op))).values, full) <= 1e-14


def test_wigner_of_a_state_at_n512_is_within_1e_14_of_the_dense_oracle():
    # every phase of the lag sum is an exact sign or FFT root, so no float
    # exp table adds its error (the complex-phase pass read 6.8e-14 here)
    psi = coherent_state(make_grid(-10.0, 10.0, 512), 1.0, 0.5, 0.3)
    assert _relative(wigner(psi).values, cross_wigner_dense(psi, psi)) <= 1e-14

@given(
    st.sampled_from([64, 128, 256]),
    st.floats(-14.0, -8.0),
    st.floats(8.0, 14.0),
    st.floats(0.4, 2.0),
    free_matrices(),
    seeds,
)
def test_free_metaplectic_matches_dense_quadrature(n, x_min, x_max, eta, S, seed):
    # a state near the origin, on a non-centered grid that holds it and its image
    grid = make_grid(x_min, x_max, n)
    psi = _state(grid, eta, np.random.default_rng(seed), center=0.0)
    spec = MetaplecticSpec.free(S)
    ref = metaplectic_free_dense(spec, psi)
    assert _relative(metaplectic_apply(spec, psi).values, ref) <= 1e-12


def _word_step(psi, step):
    return metaplectic_apply(MetaplecticSpec.from_word([step]), psi).values


@given(
    grids(),
    st.floats(0.25, 4.0),
    st.sampled_from([-1.0, 1.0]),
    st.integers(0, 3),
    seeds,
)
@example((make_grid(-11.3, 7.9, 64), 0.9), 1.7, -1.0, 2, 0)
# most of L x_j falls off the grid
@example((make_grid(-7.0, 11.0, 128), 0.6), 4.0, 1.0, 1, 1)
@example((make_grid(-12.5, 6.0, 256), 2.2), 0.25, -1.0, 3, 2)
# a self-dual grid (N dx^2 = 2 pi eta): the Fourier step lands on its own samples
@example((make_grid(-np.sqrt(32.0 * np.pi), np.sqrt(32.0 * np.pi), 64), 1.0), 1.0, 1.0, 0, 3)
def test_word_steps_match_dense_interpolant(grid_eta, size, sign, m, seed):
    grid, eta = grid_eta
    rng = np.random.default_rng(seed)
    values = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
    psi = GridFunction(grid, values, eta)
    L = sign * size
    ref = periodic_interp(values, grid, L * grid.points, zero_outside=True)
    error = _word_step(psi, ("rescale", L, m)) - 1j**m * np.sqrt(size) * ref
    assert np.max(np.abs(error)) <= 1e-11 * np.max(np.abs(values))
    real = _word_step(GridFunction(grid, values.real, eta), ("rescale", L, 0))
    assert np.max(np.abs(real.imag)) <= 1e-12 * np.max(np.abs(values.real))
    phi = eta_fourier(psi)
    ref = periodic_interp(phi.values, phi.grid, grid.points, zero_outside=True)
    error = _word_step(psi, ("fourier",)) - np.exp(-0.25j * np.pi) * ref
    assert np.max(np.abs(error)) <= 1e-11 * np.max(np.abs(phi.values))


def _radon_input(grid, eta, seed, kind):
    """A real W for the Radon transform, by ``kind``:

    - "superposition": the Wigner function of a random superposition near
      the grid centre;
    - "off_centre": that of one coherent state three tenths of the way into
      the x and p boxes, a small support far from the centre;
    - "filled": a Gaussian six standard deviations across each box, above
      SUPPORT_RTOL max |W| on every sample, so the support box is the
      whole grid;
    - "negative_cat": minus the Wigner function of a cat split along x and
      p; its lobes, the only samples near the edge of its support, are
      negative, and its fringes carry both signs.
    """
    rng = np.random.default_rng(seed)
    if kind == "superposition":
        return wigner(_state(grid, eta, rng))
    p_grid = dual_grid(grid, eta)
    if kind == "filled":
        x, p = np.meshgrid(grid.points, p_grid.points, indexing="ij")
        xc, pc = 0.5 * (grid.x_min + grid.x_max), 0.5 * (p_grid.x_min + p_grid.x_max)
        values = np.exp(-18.0 * ((x - xc) / grid.length) ** 2 - 18.0 * ((p - pc) / p_grid.length) ** 2)
        return PhaseSpaceFunction(grid, p_grid, values, eta, kind="wigner")
    if kind == "off_centre":
        x0 = grid.x_min + 0.3 * grid.length
        p0 = p_grid.x_min + 0.3 * p_grid.length
        return wigner(coherent_state(grid, eta, x0, p0))
    xc = 0.5 * (grid.x_min + grid.x_max)
    hx, hp = 1.5 * np.sqrt(eta), 0.5 * np.sqrt(eta)
    values = coherent_state(grid, eta, xc + hx, hp).values + coherent_state(grid, eta, xc - hx, -hp).values
    W = wigner(GridFunction(grid, values, eta).normalized())
    return PhaseSpaceFunction(grid, p_grid, -W.values, eta, kind="wigner")


@given(
    grids(),
    st.lists(st.floats(-np.pi, np.pi), min_size=1, max_size=6),
    seeds,
    st.sampled_from(["superposition", "off_centre", "filled", "negative_cat"]),
)
@example((make_grid(-10.0, 10.0, 256), 1.0), [0.0, np.pi / 2, 1.0], 0, "superposition")
# theta and pi - theta share a p-axis stage; so do duplicated angles
@example((make_grid(-12.0, 9.0, 128), 0.8), [0.3, np.pi - 0.3, 1.1, np.pi - 1.1], 1, "superposition")
@example((make_grid(-12.0, 9.0, 64), 1.4), [0.7, 2.0, 0.7], 2, "superposition")
@example((make_grid(-7.0, 11.0, 64), 2.2), [np.pi / 2, 0.0, np.pi / 2, 0.0], 3, "superposition")
@example((make_grid(-11.0, 6.0, 128), 0.6), [-2.5, 4.0, 3 * np.pi / 2, 7.0, -np.pi], 4, "superposition")
@example((make_grid(-9.0, 13.0, 128), 1.7), np.linspace(0.0, np.pi, 64, endpoint=False), 5, "superposition")
# the support box: a small block far from the centre, the whole grid, and a
# box whose edge samples are all negative
@example((make_grid(-16.0, 12.0, 256), 1.0), np.linspace(0.0, np.pi, 24, endpoint=False), 6, "off_centre")
@example((make_grid(-10.0, 10.0, 128), 1.3), np.linspace(0.0, np.pi, 24, endpoint=False), 7, "filled")
@example((make_grid(-11.0, 10.0, 256), 0.9), np.linspace(0.0, np.pi, 24, endpoint=False), 8, "negative_cat")
def test_radon_matches_literal_dft(grid_eta, angles, seed, kind):
    grid, eta = grid_eta
    W = _radon_input(grid, eta, seed, kind)
    assert _relative(radon(W, angles).values, radon_dense(W, angles)) <= 1e-11


@given(
    st.integers(1, 300),
    st.integers(1, 300),
    st.floats(-1.0, 1.0),
    st.floats(-np.pi, np.pi),
    seeds,
)
# n + m - 1 at and just above 3 2^k and 5 2^k, and a single output
@example(97, 96, 0.3, 0.5, 0)
@example(100, 94, -0.7, 1.0, 1)
@example(80, 81, 0.9, -2.0, 2)
@example(81, 81, -0.2, 3.0, 3)
@example(300, 1, 0.6, -1.0, 4)
@example(1, 1, 0.1, 0.2, 5)
def test_chirp_z_matches_literal_sum(n, m, turns, start, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    step = 2.0 * np.pi * turns / max(n, m)
    l, k = np.arange(n), np.arange(m)
    ref = values @ np.exp(1j * (start * l[:, None] + step * np.outer(l, k)))
    assert _relative(chirp_z(values, m, step, start), ref) <= 1e-11


@given(sizes.filter(lambda n: n >= 64), etas, st.floats(-0.3, 0.3), seeds)
def test_moyal_identity(n, eta, offset, seed):
    # a self-dual grid (N dx^2 = 2 pi eta) of 64 or more points holds the
    # states in x and in p; at N = 32 their tails reach the edges above 1e-7
    length = np.sqrt(2.0 * np.pi * eta * n)
    x_min = (offset - 0.5) * length
    grid = make_grid(x_min, x_min + length, n)
    rng = np.random.default_rng(seed)
    psi, phi = _state(grid, eta, rng), _state(grid, eta, rng)
    w = wigner(psi)
    assert abs(2.0 * np.pi * eta * moyal_overlap(w, w).real - 1.0) <= 1e-7
    lhs = 2.0 * np.pi * eta * moyal_overlap(w, wigner(phi)).real
    assert abs(lhs - abs(psi.inner(phi)) ** 2) <= 1e-7


@settings(max_examples=30)
@given(st.integers(5, 96), st.floats(3.0, 12.0), etas, seeds)
@example(5, 3.0, 1.0, 0)
@example(6, 3.0, 1.0, 0)
def test_symplectic_fourier_matches_the_double_sum(n, half, eta, seed):
    # a real W on a centred grid of even or odd N: every entry, the mirrored
    # half and the unpaired row and column included, is the direct double sum
    grid = Grid(-half, half, n)
    values = np.random.default_rng(seed).standard_normal((n, n))
    W = PhaseSpaceFunction(grid, dual_grid(grid, eta), values, eta)
    dense = sigma_riemann(W, range(n), range(n))
    assert _relative(symplectic_fourier(W).values, dense) <= 1e-12


@given(sizes, st.floats(5.0, 12.0), etas, st.floats(-0.5, 0.5), seeds)
def test_symplectic_fourier_is_an_involution(n, half, eta, offset, seed):
    # the transform needs a centered grid; the states sit off its centre, so
    # the phase ramps of the grid offsets do not cancel by symmetry.  The
    # residual grows like N (about 3e-13 at N = 512)
    grid = make_grid(-half, half, n)
    rng = np.random.default_rng(seed)
    W = wigner(_state(grid, eta, rng, center=offset * half))
    assert _relative(symplectic_fourier(symplectic_fourier(W)).values, W.values) <= 1e-12


def _normal_density(grid, eta, rng, squeeze=1.0):
    """A correlated normal density off the grid centre, on the dual p grid,
    its principal variances multiplied by ``squeeze`` and 1 / ``squeeze``,
    normalized by its sum."""
    p_grid = dual_grid(grid, eta)
    mean = (
        0.5 * (grid.x_min + grid.x_max) + rng.uniform(-1.0, 1.0),
        0.1 * p_grid.length * rng.uniform(-1.0, 1.0),
    )
    angle = rng.uniform(0.0, np.pi)
    rotation = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    variances = eta * rng.uniform(0.2, 1.5, size=2) * np.array([squeeze, 1.0 / squeeze])
    sigma = rotation @ np.diag(variances) @ rotation.T
    xx, pp = np.meshgrid(grid.points - mean[0], p_grid.points - mean[1], indexing="ij")
    inv = np.linalg.inv(sigma)
    values = np.exp(-0.5 * (inv[0, 0] * xx**2 + 2.0 * inv[0, 1] * xx * pp + inv[1, 1] * pp**2))
    values /= np.sum(values) * grid.dx * p_grid.dx
    return PhaseSpaceFunction(grid, p_grid, values, eta, kind="wigner")


@settings(deadline=None)
@given(grids(), etas, st.integers(2, 40), seeds, st.floats(1.0, 30.0))
def test_klm_matrix_matches_all_differences(grid_eta, klm_eta, samples, seed, squeeze):
    grid, eta = grid_eta
    a = _normal_density(grid, eta, np.random.default_rng(seed), squeeze)
    report = klm_test(a, klm_eta, samples=samples, seed=seed)
    fast = klm_matrix(a, report.points, klm_eta)
    dense = klm_matrix_dense(a, report.points, klm_eta)
    norm = np.linalg.norm(dense, 2)
    assert np.max(np.abs(fast - dense)) <= 1e-12 * norm
    literal = transform_dense(a, report.points, 1.0 / klm_eta) / (2.0 * np.pi * klm_eta)
    assert np.max(np.abs(sigma_transform_at(a, report.points, klm_eta) - literal)) < 1e-14
    # the full-grid dense matrix is that of the kept box plus that of the
    # samples left out, whose entries the reported dropped mass bounds
    box = tuple(slice(*report.details[key]) for key in ("support_rows", "support_cols"))
    outside = a.values.copy()
    outside[box] = 0.0
    dropped = np.sum(np.abs(outside)) * a.area_element
    assert abs(report.details["dropped_mass"] - dropped) <= 1e-12 * dropped
    left_out = PhaseSpaceFunction(a.x_grid, a.p_grid, outside, a.eta, kind="wigner")
    change = np.max(np.abs(klm_matrix_dense(left_out, report.points, klm_eta)))
    assert change <= (1.0 + 1e-9) * report.details["dropped_mass"] / (2.0 * np.pi * klm_eta)
    assert np.array_equal(fast, fast.conj().T)
    eigenvalues = np.linalg.eigvalsh(dense)
    assert abs(report.min_eigenvalue - eigenvalues[0]) <= 1e-12 * norm
    hessian_ok = report.hessian_min_eigenvalue >= -1e-8 * max(1.0, klm_eta)
    assert report.passed == (eigenvalues[0] >= -1e-8 * norm and hessian_ok)


def _assert_moments_match(W):
    cov = covariance_matrix(W)
    mean, sigma = covariance_dense(W)
    scale = np.max(np.abs(sigma))
    assert np.max(np.abs(cov.sigma - sigma)) <= 1e-13 * scale
    assert np.max(np.abs(cov.mean - mean)) <= 1e-13 * max(np.max(np.abs(mean)), np.sqrt(scale))


@given(grids(), seeds)
def test_covariance_matches_mesh_sums(grid_eta, seed):
    grid, eta = grid_eta
    _assert_moments_match(_normal_density(grid, eta, np.random.default_rng(seed)))


@pytest.mark.filterwarnings("ignore:near-degenerate")
@given(st.sampled_from([1, 2, 3]), st.floats(0.0, 6.0), st.floats(-3.0, 3.0), seeds)
@example(1, 6.0, -3.0, 0)
@example(2, 6.0, 3.0, 1)
@example(3, 6.0, 0.0, 2)
def test_symplectic_spectrum_matches_the_general_eigensolver(n, log_cond, log_scale, seed):
    # Sigma = scale O diag(d) O^T, O a random rotation, d from 1 down to 10^-log_cond
    rng = np.random.default_rng(seed)
    rotation = np.linalg.qr(rng.normal(size=(2 * n, 2 * n)))[0]
    spread = np.concatenate([[0.0, 1.0], rng.uniform(size=2 * n - 2)])
    sigma = 10.0**log_scale * (rotation * 10.0 ** (-log_cond * spread)) @ rotation.T
    dense = symplectic_eigenvalues_dense(sigma)
    bound = 1e-10 * dense[-1]
    assert np.max(np.abs(symplectic_eigenvalues(sigma) - dense)) <= bound
    data = williamson(sigma)
    assert np.max(np.abs(data.eigenvalues - dense)) <= bound
    # eta = lambda_min lies inside the admissible region of both criteria
    verdict = gaussian_admissible(sigma, dense[0])
    assert verdict["admissible"] and abs(verdict["lambda_min"] - dense[0]) <= bound
    assert np.max(np.abs(data.S.T @ data.D @ data.S - sigma)) <= 1e-8 * np.max(np.abs(sigma))
    assert is_symplectic(data.S)[1] <= 1e-9


def _boundary_covariances(count=300, seed=0):
    """(Sigma, eta, u) near the Gaussian boundary: Sigma = O diag(e) O^T of
    n = 1 to 3 modes, O a random rotation, e log-uniform in [1e-6, 1] with
    max 1; eta = 2 lambda_min (1 + u), |u| log-uniform in [1e-6, 5e-2] with a
    random sign, so Sigma is admissible at eta exactly when u < 0."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 4))
        rotation = np.linalg.qr(rng.normal(size=(2 * n, 2 * n)))[0]
        e = 10.0 ** rng.uniform(-6.0, 0.0, 2 * n)
        e /= e.max()
        sigma = (rotation * e) @ rotation.T
        lam_min = symplectic_eigenvalues_dense(sigma)[0]
        u = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6.0, np.log10(5e-2))
        yield sigma, 2.0 * lam_min * (1.0 + u), u


def _robertson_schrodinger_exact(sigma, eta):
    """Per mode, var_x var_p >= cov^2 + eta^2 / 4 in exact rational arithmetic."""
    n = len(sigma) // 2
    return [
        Fraction(sigma[j, j]) * Fraction(sigma[n + j, n + j])
        >= Fraction(sigma[j, n + j]) ** 2 + Fraction(eta) ** 2 / 4
        for j in range(n)
    ]


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e200, 1e300])
def test_gaussian_verdicts_are_scale_free(scale):
    # (t Sigma, t eta) has the verdict of (Sigma, eta); squeezed covariances
    # within 5 % of the boundary raise no "criteria disagree"
    for sigma, eta, u in _boundary_covariances():
        sigma, eta = scale * sigma, scale * eta
        verdict = gaussian_admissible(sigma, eta)
        assert verdict["admissible"] == (u < 0)
        rs = [check["ok"] for check in verdict["rs_checks"]]
        assert rs == _robertson_schrodinger_exact(sigma, eta)


@pytest.mark.parametrize("factor, admissible", [(1.006, False), (1.001, False), (0.994, True)])
def test_squeezed_covariance_near_the_boundary_takes_lambdas_verdict(factor, admissible):
    # lambda_min = 5.6e-6, while ||Sigma + i eta J / 2|| ~ 5.6e-3: the matrix
    # margin is a millionth of lambda's relative margin
    sigma = np.diag([5.6e-3, 5.6e-9])
    eta = 2.0 * np.sqrt(5.6e-3 * 5.6e-9) * factor
    assert gaussian_admissible(sigma, eta)["admissible"] == admissible


def test_robertson_schrodinger_check_is_relative():
    # lhs = 1e-14 lies far below rhs = 2.5e-13, inside an absolute 1e-12 band
    (check,) = robertson_schrodinger_checks(1e-7 * np.eye(2), 1e-6)
    assert check["lhs"] < check["rhs"] and not check["ok"]


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_covariance_symmetry_checks_are_relative(scale):
    asymmetric = scale * np.array([[1.0, 0.3], [0.0, 1.0]])
    with pytest.raises(ValidationError, match="symmetric"):
        symplectic_eigenvalues(asymmetric)
    with pytest.raises(ValidationError, match="symmetric"):
        CovarianceMatrix(asymmetric, np.zeros(2), 1)
    rounded = scale * np.array([[1.0, 0.3], [0.3 + 1e-12, 1.0]])
    symplectic_eigenvalues(rounded)
    CovarianceMatrix(rounded, np.zeros(2), 1)
