import inspect
from pathlib import Path

import numpy as np
import pytest

import wignerlab
from wignerlab import (
    ConfigurationError,
    GridFunction,
    NormalizationError,
    OperatorMatrix,
    ParameterError,
    PhaseSpaceFunction,
    ambiguity,
    boundary_leak,
    coherent_state,
    covariance_matrix,
    cross_wigner,
    dual_grid,
    eta_scan,
    expectation,
    inverse_radon,
    klm_test,
    load_phase_space,
    make_grid,
    marginals,
    pure_density,
    radon,
    save_phase_space,
    symplectic_fourier,
    weyl_symbol,
    wigner,
)
from wignerlab.quantumness import klm_matrix


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
    for bounds in [(-np.inf, 10.0), (-10.0, np.inf), (np.nan, 10.0)]:
        with pytest.raises(ConfigurationError):
            make_grid(*bounds, 64)


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
    for bad in [np.nan, np.inf]:
        vals = np.zeros((64, 64))
        vals[3, 5] = bad
        with pytest.raises(ParameterError, match="non-finite"):
            PhaseSpaceFunction(g, gp, vals, 1.0)


def test_real_values_guards_imaginary_part():
    # complex values are refused whatever their imaginary part, zero included
    g = make_grid(-8.0, 8.0, 64)
    gp = dual_grid(g, 1.0)
    for imag in (1e-3, 1e-300, 0.0):
        f = PhaseSpaceFunction(g, gp, np.ones((64, 64)) + imag * 1j, 1.0, "wigner")
        with pytest.raises(ParameterError, match="wigner function is complex"):
            f.real_values()


def test_phase_space_values_are_float64_or_complex():
    # real samples become float64 (a float64 array is kept as it is), complex
    # ones complex128
    g = make_grid(-8.0, 8.0, 64)
    gp = dual_grid(g, 1.0)
    real = np.ones((64, 64))
    f = PhaseSpaceFunction(g, gp, real, 1.0)
    assert f.values is real
    for vals in (np.ones((64, 64), dtype=int), np.ones((64, 64), dtype=np.float32)):
        assert PhaseSpaceFunction(g, gp, vals, 1.0).values.dtype == np.float64
    vals = np.ones((64, 64), dtype=np.complex64)
    assert PhaseSpaceFunction(g, gp, vals, 1.0).values.dtype == np.complex128
    # the real values are the float64 array itself, with no tolerance to pass
    assert f.real_values() is real


def _tilted_wigner(n, tilt):
    W = wigner(coherent_state(make_grid(-8.0, 8.0, n), 1.0))
    values = W.values + tilt * 1j * np.max(np.abs(W.values))
    return PhaseSpaceFunction(W.x_grid, W.p_grid, values, W.eta, "wigner")


_REAL_ONLY = {
    "radon": lambda W: radon(W, [0.0, 1.0]),
    "marginals": marginals,
    "klm_test": lambda W: klm_test(W, 1.0, samples=4),
    "eta_scan": lambda W: eta_scan(W, [1.0]),
    "expectation": lambda W: expectation(W, pure_density(coherent_state(W.x_grid, 1.0))),
    "covariance_matrix": covariance_matrix,
    "klm_matrix": lambda W: klm_matrix(W, np.zeros((2, 2)), 1.0),
}


@pytest.mark.parametrize("tilt", [5e-10, 0.5])
@pytest.mark.parametrize("consumer", sorted(_REAL_ONLY))
def test_every_real_only_consumer_refuses_complex_values(consumer, tilt):
    # one rule, one message: however small the imaginary part, a complex W
    # is refused by every consumer that needs a real one
    with pytest.raises(ParameterError, match="^wigner function is complex; a real one is needed$"):
        _REAL_ONLY[consumer](_tilted_wigner(128, tilt))


def test_realness_has_one_owner():
    # real values are W's own array, read without a tolerance, and no library
    # module takes the real or imaginary part of a function's values itself
    psi = coherent_state(make_grid(-8.0, 8.0, 64), 1.0)
    w = wigner(psi)
    assert np.shares_memory(w.real_values(), w.values)
    assert not inspect.signature(PhaseSpaceFunction.real_values).parameters.keys() - {"self"}
    package = Path(wignerlab.__file__).parent
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        assert ".values.real" not in text and ".values.imag" not in text, path.name


def test_boundary_leak():
    vals = np.zeros((64, 64))
    vals[32, 32] = 1.0
    assert boundary_leak(vals) == 0.0
    vals[0, 0] = 1.0
    assert boundary_leak(vals) == pytest.approx(0.5)
    assert boundary_leak(np.zeros((8, 8))) == 0.0


def test_every_producer_reports_the_leak_of_its_samples(tmp_path):
    # a coherent state near the edge of the grid leaks about 0.22 of its mass
    g = make_grid(-10.0, 10.0, 128)
    psi = coherent_state(g, 1.0, x0=8.5)
    W = wigner(psi)
    save_phase_space(W, tmp_path / "w.csv")
    tomo = radon(W, np.linspace(0.0, np.pi, 90, endpoint=False))
    kernel = np.outer(psi.values, psi.values.conj())
    produced = {
        "wigner": W,
        "cross_wigner": cross_wigner(psi, coherent_state(g, 1.0, x0=8.0)),
        "ambiguity": ambiguity(psi),
        "weyl_symbol": weyl_symbol(OperatorMatrix(g, kernel, 1.0)),
        "symplectic_fourier": symplectic_fourier(W),
        "inverse_radon": inverse_radon(tomo),
        "load_phase_space": load_phase_space(tmp_path / "w.csv"),
    }
    for name, out in produced.items():
        assert out.leak == boundary_leak(out.values), name
    assert produced["inverse_radon"].leak > 0.2
    assert produced["load_phase_space"].leak > 0.2
    with pytest.raises(TypeError):
        PhaseSpaceFunction(g, W.p_grid, W.values, 1.0, leak=0.0)
