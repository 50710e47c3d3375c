import numpy as np
import pytest

from wignerlab import (
    ConfigurationError,
    GridFunction,
    NormalizationError,
    ParameterError,
    PhaseSpaceFunction,
    boundary_leak,
    coherent_state,
    dual_grid,
    make_grid,
)


def test_grid_points_and_spacing():
    g = make_grid(-8.0, 8.0, 64)
    assert g.dx == pytest.approx(0.25)
    assert g.points[0] == -8.0
    assert g.points[-1] == pytest.approx(8.0 - g.dx)
    assert g.length == 16.0
    assert g.is_centered


def test_make_grid_rejects_bad_sizes():
    with pytest.raises(ConfigurationError):
        make_grid(-1.0, 1.0, 48)
    with pytest.raises(ConfigurationError):
        make_grid(-1.0, 1.0, 8)
    with pytest.raises(ConfigurationError):
        make_grid(1.0, -1.0, 64)
    with pytest.raises(ConfigurationError):
        make_grid(-1.0, 1.0, 64.0)


def test_dual_grid_spacing_and_involution():
    g = make_grid(-8.0, 8.0, 64)
    eta = 1.0
    p = dual_grid(g, eta)
    assert p.dx == pytest.approx(2.0 * np.pi * eta / (g.n * g.dx))
    assert p.is_centered
    # dual of the dual is the centered position grid
    back = dual_grid(p, eta)
    assert back.dx == pytest.approx(g.dx)
    assert back.n == g.n
    assert back.is_centered


def test_grid_function_validation():
    g = make_grid(-8.0, 8.0, 64)
    with pytest.raises(ParameterError):
        GridFunction(g, np.zeros(32), 1.0)
    with pytest.raises(ParameterError):
        GridFunction(g, np.full(64, np.nan), 1.0)
    with pytest.raises(ParameterError):
        GridFunction(g, np.zeros(64), -1.0)


def test_grid_function_norm_and_inner():
    g = make_grid(-8.0, 8.0, 64)
    psi = coherent_state(g, 1.0, 0.0, 0.0)
    assert psi.norm() == pytest.approx(1.0, abs=1e-12)
    phi = coherent_state(g, 1.0, 0.5, -0.2)
    ip = psi.inner(phi)
    # antilinear in the first slot
    assert np.conj(phi.inner(psi)) == pytest.approx(ip)


def test_normalize_zero_raises():
    g = make_grid(-8.0, 8.0, 64)
    f = GridFunction(g, np.zeros(64), 1.0)
    with pytest.raises(NormalizationError):
        f.normalized()


def test_phase_space_function_shape_check():
    g = make_grid(-8.0, 8.0, 64)
    gp = dual_grid(g, 1.0)
    with pytest.raises(ParameterError):
        PhaseSpaceFunction(g, gp, np.zeros((64, 32)), 1.0)
    with pytest.raises(ParameterError):
        PhaseSpaceFunction(g, gp, np.zeros((64, 64)), 1.0, kind="bogus")


def test_real_values_guards_imaginary_part():
    g = make_grid(-8.0, 8.0, 64)
    gp = dual_grid(g, 1.0)
    vals = np.ones((64, 64)) + 1e-3j
    f = PhaseSpaceFunction(g, gp, vals, 1.0)
    with pytest.raises(ParameterError):
        f.real_values()
    assert np.all(f.real_values(rtol=1e-2) == 1.0)


def test_boundary_leak():
    vals = np.zeros((64, 64))
    vals[32, 32] = 1.0
    assert boundary_leak(vals) == 0.0
    vals[0, 0] = 1.0
    assert boundary_leak(vals) == pytest.approx(0.5)
    assert boundary_leak(np.zeros((8, 8))) == 0.0
