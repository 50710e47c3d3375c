"""Property tests of the FFT and chirp-z transforms over random grids and eta.

Grids are power-of-two N from 16 to 256 on non-centered intervals; eta runs
over [0.3, 3], and quantization is also checked at a foreign eta, where the
oversampled p step is not dual to the x grid.  The fast paths are compared
with the dense-phase and eigen-loop references in ``oracles``: the
Weyl-Wigner lag transforms, the quantizer, the free metaplectic operator,
the rescale and Fourier steps of a metaplectic word, and the Radon transform.
The symplectic Fourier transform is checked to be an involution on centered
grids.
The factored paths are compared with their N x N forms: the half-step
correlation of factors (U, V) with that of the kernel U V^H, its parity
views with the ``midpoint_lag`` scatter, and the Gram spectrum of a
mixture with the eigensolve of its kernel.  The range-basis spectrum of a
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
up to 1e6 and scales from 1e-3 to 1e3.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from wignerlab import (
    Grid,
    GridFunction,
    MetaplecticSpec,
    MixedStateSpec,
    OperatorMatrix,
    ParameterError,
    PhaseSpaceFunction,
    ambiguity,
    coherent_state,
    covariance_matrix,
    cross_wigner,
    dual_grid,
    eta_fourier,
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
    symplectic_eigenvalues,
    symplectic_fourier,
    validate_density,
    weyl_quantize,
    weyl_symbol,
    wigner,
    williamson,
)
from wignerlab.quantumness import klm_matrix
from wignerlab.transforms import chirp_z
from wignerlab.weyl import _parity_views, half_step_correlation

from oracles import (
    ambiguity_dense,
    covariance_dense,
    cross_wigner_dense,
    klm_matrix_dense,
    metaplectic_free_dense,
    midpoint_lag,
    periodic_interp,
    radon_dense,
    symplectic_eigenvalues_dense,
    weyl_quantize_dense,
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
    grid, _ = grid_eta
    rng = np.random.default_rng(seed)
    u, v = (rng.normal(size=(grid.n, rank)) + 1j * rng.normal(size=(grid.n, rank)) for _ in "uv")
    factored = half_step_correlation((u, v), grid)
    assert _relative(factored, half_step_correlation(u @ v.conj().T, grid)) <= 1e-14


@given(grids())
def test_parity_views_cover_each_midpoint_lag_cell_once(grid_eta):
    # distinct entries added through the views: a cell reached twice would
    # hold a sum, a cell missed would hold zero
    n = grid_eta[0].n
    kernel = np.arange(1.0, n * n + 1.0).reshape(n, n)
    corr = np.zeros((n, 2 * n), dtype=complex)
    for (a, b), view in _parity_views(corr).items():
        view += kernel[a::2, b::2]
    scattered = np.zeros((n, 2 * n), dtype=complex)
    mid, lag = midpoint_lag(n)
    scattered[mid, lag] = kernel
    assert np.array_equal(corr, scattered)


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
    # rho = (2 pi eta') Op_eta'(W), as eta_scan validates it
    grid, eta = grid_eta
    W = wigner(_state(grid, eta, np.random.default_rng(seed))).W
    op = weyl_quantize(W, eta=other)
    _assert_within_certificate(OperatorMatrix(grid, 2.0 * np.pi * other * op.kernel, other), 1e-8)


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
    grid = Grid(-5.0, 5.0, 15)
    ones = np.ones((grid.n, 1), dtype=complex)
    for source in (ones @ ones.T, (ones, ones)):
        with pytest.raises(ParameterError, match="even N"):
            half_step_correlation(source, grid)


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
# at the foreign eta, one chirp-z over all 2N lags for the single block of
# N = 16 rows and for each of two full blocks of 128; the native quantization
# takes one row FFT per block
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
        assert _relative(fast, weyl_quantize_dense(a, eta=eta_use)) <= 1e-11


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
    assert _relative(wigner(rho).W.values, wigner_density_eigen(rho)) <= 1e-12


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
        return wigner(_state(grid, eta, rng)).W
    p_grid = dual_grid(grid, eta)
    if kind == "filled":
        x, p = np.meshgrid(grid.points, p_grid.points, indexing="ij")
        xc, pc = 0.5 * (grid.x_min + grid.x_max), 0.5 * (p_grid.x_min + p_grid.x_max)
        values = np.exp(-18.0 * ((x - xc) / grid.length) ** 2 - 18.0 * ((p - pc) / p_grid.length) ** 2)
        return PhaseSpaceFunction(grid, p_grid, values, eta, kind="wigner")
    if kind == "off_centre":
        x0 = grid.x_min + 0.3 * grid.length
        p0 = p_grid.x_min + 0.3 * p_grid.length
        return wigner(coherent_state(grid, eta, x0, p0)).W
    xc = 0.5 * (grid.x_min + grid.x_max)
    hx, hp = 1.5 * np.sqrt(eta), 0.5 * np.sqrt(eta)
    values = coherent_state(grid, eta, xc + hx, hp).values + coherent_state(grid, eta, xc - hx, -hp).values
    W = wigner(GridFunction(grid, values, eta).normalized()).W
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
    w = wigner(psi).W
    assert abs(2.0 * np.pi * eta * moyal_overlap(w, w).real - 1.0) <= 1e-7
    lhs = 2.0 * np.pi * eta * moyal_overlap(w, wigner(phi).W).real
    assert abs(lhs - abs(psi.inner(phi)) ** 2) <= 1e-7


@given(sizes, st.floats(5.0, 12.0), etas, st.floats(-0.5, 0.5), seeds)
def test_symplectic_fourier_is_an_involution(n, half, eta, offset, seed):
    # the transform needs a centered grid; the states sit off its centre, so
    # the phase ramps of the grid offsets do not cancel by symmetry.  The
    # residual grows like N (about 3e-13 at N = 512)
    grid = make_grid(-half, half, n)
    rng = np.random.default_rng(seed)
    W = wigner(_state(grid, eta, rng, center=offset * half)).W
    assert _relative(symplectic_fourier(symplectic_fourier(W)).values, W.values) <= 1e-12


def _normal_density(grid, eta, rng):
    """A correlated normal density off the grid centre, on the dual p grid,
    normalized by its sum."""
    p_grid = dual_grid(grid, eta)
    mean = (
        0.5 * (grid.x_min + grid.x_max) + rng.uniform(-1.0, 1.0),
        0.1 * p_grid.length * rng.uniform(-1.0, 1.0),
    )
    angle = rng.uniform(0.0, np.pi)
    rotation = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    sigma = rotation @ np.diag(eta * rng.uniform(0.2, 1.5, size=2)) @ rotation.T
    xx, pp = np.meshgrid(grid.points - mean[0], p_grid.points - mean[1], indexing="ij")
    inv = np.linalg.inv(sigma)
    values = np.exp(-0.5 * (inv[0, 0] * xx**2 + 2.0 * inv[0, 1] * xx * pp + inv[1, 1] * pp**2))
    values /= np.sum(values) * grid.dx * p_grid.dx
    return PhaseSpaceFunction(grid, p_grid, values, eta, kind="wigner")


@settings(deadline=None)
@given(grids(), etas, st.integers(2, 40), seeds)
def test_klm_matrix_matches_all_differences(grid_eta, klm_eta, samples, seed):
    grid, eta = grid_eta
    a = _normal_density(grid, eta, np.random.default_rng(seed))
    report = klm_test(a, klm_eta, samples=samples, seed=seed)
    fast = klm_matrix(a, report.points, klm_eta)
    dense = klm_matrix_dense(a, report.points, klm_eta)
    norm = np.linalg.norm(dense, 2)
    assert np.max(np.abs(fast - dense)) <= 1e-12 * norm
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
