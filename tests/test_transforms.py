import tracemalloc

import numpy as np
import pytest

from wignerlab import (
    Grid,
    GridFunction,
    ParameterError,
    PhaseSpaceFunction,
    ambiguity,
    coherent_state,
    dual_grid,
    eta_fourier,
    hermite_state,
    make_grid,
    symplectic_fourier,
    wigner,
)
from wignerlab.transforms import chirp_z, fourier_shift, refine

from oracles import ambiguity_dense, periodic_interp, sigma_riemann


@pytest.fixture
def grid():
    return make_grid(-10.0, 10.0, 64)


def _riemann_fourier(psi, eta, p):
    """Direct quadrature oracle for the scaled Fourier transform."""
    x = psi.grid.points
    phases = np.exp(-1j * np.outer(p, x) / eta)
    return phases @ psi.values * psi.grid.dx / np.sqrt(2.0 * np.pi * eta)


@pytest.mark.parametrize("eta", [0.5, 1.0, 2.0])
def test_eta_fourier_matches_riemann_oracle(grid, eta):
    psi = coherent_state(grid, eta, 0.4, -0.3)
    ft = eta_fourier(psi)
    oracle = _riemann_fourier(psi, eta, ft.grid.points)
    assert np.max(np.abs(ft.values - oracle)) < 1e-12


def test_eta_fourier_round_trip(grid):
    psi = coherent_state(grid, 1.0, 0.4, -0.3)
    back = eta_fourier(eta_fourier(psi), inverse=True)
    assert back.grid.matches(dual_grid(dual_grid(grid, 1.0), 1.0))
    # round trip on the centered grid: compare against resampled original
    ref = coherent_state(back.grid, 1.0, 0.4, -0.3)
    assert np.max(np.abs(back.values - ref.values)) < 1e-12


def test_eta_fourier_parseval(grid):
    psi = coherent_state(grid, 1.0, 0.4, -0.3)
    assert eta_fourier(psi).norm() == pytest.approx(psi.norm(), abs=1e-12)


def test_eta_fourier_gaussian_fixed_point(grid):
    # the standard Gaussian is a fixed point of F_eta up to grid resampling
    eta = 1.0
    psi = coherent_state(grid, eta, 0.0, 0.0)
    ft = eta_fourier(psi)
    ref = (np.pi * eta) ** -0.25 * np.exp(-ft.grid.points**2 / (2.0 * eta))
    assert np.max(np.abs(ft.values - ref)) < 1e-12


def test_symplectic_fourier_is_involution(grid):
    eta = 1.0
    W = wigner(coherent_state(grid, eta, 0.3, 0.2))
    back = symplectic_fourier(symplectic_fourier(W))
    assert np.max(np.abs(back.values - W.values)) < 1e-12


def test_symplectic_fourier_riemann_oracle(grid):
    eta = 1.0
    W = wigner(coherent_state(grid, eta, 0.3, 0.2))
    out = symplectic_fourier(W)
    x = W.x_grid.points
    p = W.p_grid.points
    # F_sigma a(z) = (2 pi eta)^-1 Int exp(-i (p x' - p' x)/eta) a(z') dz'
    i, k = 5, 7
    phase = np.exp(
        -1j * (p[k] * x[:, None] - p[None, :] * x[i]) / eta
    )
    oracle = np.sum(phase * W.values) * W.area_element / (2.0 * np.pi * eta)
    assert abs(out.values[i, k] - oracle) < 1e-12


def test_symplectic_fourier_wigner_becomes_ambiguity(grid):
    W = wigner(coherent_state(grid, 1.0))
    assert symplectic_fourier(W).kind == "ambiguity"
    # F_sigma W(psi) = Amb psi holds up to the lag leak: the lag -L/2 of the
    # edge row 0 is where the two sums part, and the residual relative to
    # max |Amb| equals |Amb| there relative to its peak, at every N (1.4e-11
    # for coherent states, 2.4e-7 for Hermite 3, 2.9e-3 for Hermite 8)
    for n in (128, 256, 512):
        g = make_grid(-10.0, 10.0, n)
        states = [coherent_state(g, 1.0), coherent_state(g, 1.0, 0.5, 0.3)]
        states += [hermite_state(g, 1.0, k) for k in range(9)]
        for psi in states:
            amb = ambiguity(psi)
            out = symplectic_fourier(wigner(psi))
            assert out.x_grid.matches(amb.x_grid) and out.p_grid.matches(amb.p_grid)
            peak = np.max(np.abs(amb.values))
            edge = np.max(np.abs(amb.values[0])) / peak
            assert np.max(np.abs(out.values - amb.values)) / peak <= 2.0 * edge + 1e-12


@pytest.mark.parametrize("n", [16, 64, 256])
def test_conjugate_symmetric_maps_mirror_one_half(n):
    # Amb(-z) = conj Amb(z) and F_sigma W(-z) = conj F_sigma W(z) for a real
    # W: on the centred output grids entry (i, k) pairs with (N - i, N - k).
    # Both maps share one finisher: it sums rows 0 .. N/2 of their stage (the
    # ambiguity function's lags s <= 0, the transform's p <= 0) and writes
    # the other rows as the conjugates of their mirrors bit for bit, except
    # in column 0, which has no partner and takes one extra sum per row.
    # Row 0 (x = -N/2 dx) and column 0 (p = -N/2 dp) of each output are
    # checked against the direct sums
    half = n // 2
    for grid in (make_grid(-10.0, 10.0, n), make_grid(-7.0, 12.0, n)):
        for psi in (coherent_state(grid, 1.0, 0.5, 0.3), hermite_state(grid, 1.0, 3)):
            amb, dense = ambiguity(psi).values, ambiguity_dense(psi)
            mirror = np.conjugate(amb[n - 1 : half : -1, n - 1 : 0 : -1])
            assert np.array_equal(amb[1:half, 1:], mirror)
            peak = np.max(np.abs(dense))
            for unpaired in (np.s_[0], np.s_[:, 0]):
                assert np.max(np.abs(amb[unpaired] - dense[unpaired])) <= 1e-11 * peak
            if not grid.is_centered:
                continue
            W = wigner(psi)
            out = symplectic_fourier(W).values
            mirror = np.conjugate(out[n - 1 : 0 : -1, half - 1 : 0 : -1])
            assert np.array_equal(out[1:, half + 1 :], mirror)
            assert np.max(np.abs(out[0] - sigma_riemann(W, [0], range(n))[0])) < 1e-12
            assert np.max(np.abs(out[:, 0] - sigma_riemann(W, range(n), [0])[:, 0])) < 1e-12


def test_symplectic_fourier_requires_centered_grid():
    g = make_grid(0.0, 16.0, 64)
    gp = dual_grid(g, 1.0)
    f = PhaseSpaceFunction(g, gp, np.zeros((64, 64)), 1.0)
    with pytest.raises(ParameterError):
        symplectic_fourier(f)
    # the mirrored half needs the centred p grid too: -p must be a grid point
    g = make_grid(-8.0, 8.0, 64)
    gp = dual_grid(g, 1.0)
    shifted = make_grid(gp.x_min + gp.dx / 3.0, gp.x_max + gp.dx / 3.0, 64)
    f = PhaseSpaceFunction(g, shifted, np.zeros((64, 64)), 1.0)
    with pytest.raises(ParameterError, match="centered p grid"):
        symplectic_fourier(f)


def _traced_peak(call):
    """Peak bytes the call allocates beyond what exists when it starts."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_chirp_z_works_in_one_padded_buffer():
    # 128 rows of 1024 samples, 512 sums.
    # The padded buffer (1536 samples per row) and the output take about
    # 4.5 MB; a pre-phased copy and separate FFT arrays took 7.7 MB
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(128, 1024)) + 1j * rng.normal(size=(128, 1024))
    assert _traced_peak(lambda: chirp_z(rows, 512, 1e-3, -0.3)) < 5e6


def test_two_dimensional_fourier_shift_holds_one_buffer():
    n = 512
    g = make_grid(-10.0, 10.0, n)
    rng = np.random.default_rng(4)
    vals = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))

    def shift_both_axes():
        # the second shift runs in place in the first one's buffer
        shifted = fourier_shift(vals, g, -0.5 * g.dx, axis=0)
        fourier_shift(shifted, g, -0.5 * g.dx, axis=1, out=shifted)

    assert _traced_peak(shift_both_axes) < 16 * n * n + 512 * n


def _band_limited(grid, seed=0):
    """Random band-limited signal built from low-frequency modes."""
    rng = np.random.default_rng(seed)
    t = (grid.points - grid.x_min) / grid.length
    vals = np.zeros(grid.n, dtype=complex)
    for k in range(-5, 6):
        vals += rng.normal() * np.exp(2j * np.pi * k * t)
    return vals


def test_refine_reproduces_trig_interpolant():
    g = make_grid(-4.0, 4.0, 32)
    vals = _band_limited(g)
    fine = refine(vals, 4)
    t = (g.x_min + np.arange(128) * g.dx / 4 - g.x_min) / g.length
    rng = np.random.default_rng(0)
    ref = np.zeros(128, dtype=complex)
    for k in range(-5, 6):
        ref += rng.normal() * np.exp(2j * np.pi * k * t)
    assert np.max(np.abs(fine - ref)) < 1e-12


def test_refine_keeps_real_inputs_real():
    rng = np.random.default_rng(1)
    vals = rng.normal(size=32)
    fine = refine(vals, 2)
    assert np.max(np.abs(fine.imag)) < 1e-13
    assert np.max(np.abs(fine[::2] - vals)) < 1e-13


def test_refine_validates_factor():
    with pytest.raises(ParameterError):
        refine(np.zeros(16), 0)
    with pytest.raises(ParameterError):
        refine(np.zeros(15), 2)


def test_fourier_shift_exact_on_band_limited():
    g = make_grid(-4.0, 4.0, 32)
    vals = _band_limited(g, seed=2)
    shifted = fourier_shift(vals, g, 3 * g.dx)
    assert np.max(np.abs(shifted - np.roll(vals, 3))) < 1e-12


def test_fourier_shift_fractional_gaussian():
    g = make_grid(-8.0, 8.0, 128)
    f = np.exp(-g.points**2)
    shifted = fourier_shift(f, g, 0.3)
    assert np.max(np.abs(shifted - np.exp(-((g.points - 0.3) ** 2)))) < 1e-12


def test_fourier_shift_at_odd_n_matches_trig_sum():
    # an odd N has no Nyquist bin: every bin takes the plain shift phase
    g = Grid(0.0, 2.0 * np.pi, 15)
    t = g.points
    vals = np.cos(3 * t) + 0.5 * np.sin(7 * t) + 0.2
    shifted = fourier_shift(vals, g, 0.3)
    assert np.max(np.abs(shifted - periodic_interp(vals, g, t - 0.3))) < 1e-12
    exact = np.cos(3 * (t - 0.3)) + 0.5 * np.sin(7 * (t - 0.3)) + 0.2
    assert np.max(np.abs(shifted - exact)) < 1e-12
