"""The dense interpolation helpers of the test oracles, against samples and closed forms."""

import numpy as np
import pytest

from wignerlab import dual_grid, make_grid

from oracles import periodic_interp, point_interp2d, shear_interp, tensor_interp


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
