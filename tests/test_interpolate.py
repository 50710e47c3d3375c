import numpy as np
import pytest

from wignerlab import (
    Grid,
    ParameterError,
    dual_grid,
    fourier_shift,
    make_grid,
    refine,
)

from oracles import periodic_interp, point_interp2d, shear_interp, tensor_interp


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


@pytest.mark.parametrize("n", [16, 15])
def test_fourier_shift_over_a_tuple_of_axes_is_the_nested_shifts(n):
    g = Grid(-4.0, 4.0, n)
    rng = np.random.default_rng(n)
    vals = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    nested = fourier_shift(fourier_shift(vals, g, 0.3, axis=0), g, 0.3, axis=1)
    assert np.array_equal(fourier_shift(vals, g, 0.3, axis=(0, 1)), nested)
    assert np.array_equal(fourier_shift(vals[0], g, 0.3, axis=(0,)), fourier_shift(vals[0], g, 0.3))


def test_periodic_interp_matches_samples_and_offgrid():
    g = make_grid(-8.0, 8.0, 128)
    f = np.exp(-g.points**2).astype(complex)
    on_grid = periodic_interp(f, g, g.points)
    assert np.max(np.abs(on_grid - f)) < 1e-12
    pts = np.array([-1.234, 0.0, 2.515])
    off = periodic_interp(f, g, pts)
    assert np.max(np.abs(off - np.exp(-(pts**2)))) < 1e-10


def test_periodic_interp_zero_outside():
    g = make_grid(-8.0, 8.0, 64)
    f = np.ones(64, dtype=complex)
    out = periodic_interp(f, g, np.array([-9.0, 0.0, 8.0]), zero_outside=True)
    assert out[0] == 0.0
    assert out[2] == 0.0
    assert out[1] == pytest.approx(1.0)


def test_tensor_and_point_interp_agree():
    g = make_grid(-8.0, 8.0, 64)
    gp = dual_grid(g, 1.0)
    xx, pp = np.meshgrid(g.points, gp.points, indexing="ij")
    vals = np.exp(-(xx**2) - 0.5 * pp**2).astype(complex)
    new_x = np.array([-0.7, 0.4])
    new_p = np.array([0.1, -0.9, 0.6])
    t = tensor_interp(vals, g, gp, new_x, new_p)
    mx, mp = np.meshgrid(new_x, new_p, indexing="ij")
    p = point_interp2d(vals, g, gp, mx, mp)
    assert np.max(np.abs(t - p)) < 1e-10
    ref = np.exp(-(mx**2) - 0.5 * mp**2)
    assert np.max(np.abs(p - ref)) < 1e-9


def test_shear_interp_rows():
    g = make_grid(-8.0, 8.0, 64)
    gp = dual_grid(g, 1.0)
    xx, pp = np.meshgrid(g.points, gp.points, indexing="ij")
    vals = np.exp(-(xx**2) - 0.1 * pp**2).astype(complex)
    slope = 0.3
    out = shear_interp(vals, g, gp, slope)
    ref = np.exp(-(xx**2) - 0.1 * (pp + slope * xx) ** 2)
    interior = (np.abs(pp + slope * xx) < 0.8 * gp.x_max) & (np.abs(xx) < 6)
    assert np.max(np.abs((out - ref)[interior])) < 1e-8
