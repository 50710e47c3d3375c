import copy
import re
from pathlib import Path

import numpy as np
import pytest

import wignerlab
from wignerlab import (
    DensityMatrix,
    MixedStateSpec,
    PhaseSpaceFunction,
    WignerResult,
    ambiguity,
    coherent_state,
    cross_wigner,
    eta_fourier,
    eta_scan,
    hermite_state,
    klm_test,
    make_grid,
    marginals,
    moyal_overlap,
    pure_density,
    radon,
    save_phase_space,
    symplectic_fourier,
    weyl_symbol,
    wigner,
)

ETA = 1.0


@pytest.fixture
def grid():
    return make_grid(-10.0, 10.0, 64)


def test_coherent_wigner_closed_form(grid):
    z0 = (0.4, -0.6)
    result = wigner(coherent_state(grid, ETA, *z0))
    xx, pp = result.meshes()
    closed = np.exp(-((xx - z0[0]) ** 2 + (pp - z0[1]) ** 2) / ETA) / (np.pi * ETA)
    assert np.max(np.abs(result.values - closed)) < 1e-10


def test_hermite_wigner_negative_at_origin(grid):
    result = wigner(hermite_state(grid, ETA, 1))
    i = np.argmin(np.abs(result.x_grid.points))
    k = np.argmin(np.abs(result.p_grid.points))
    # first excited state: W(0, 0) = -1 / (pi eta)
    assert result.values[i, k] == pytest.approx(-1.0 / (np.pi * ETA), abs=1e-10)


def test_wigner_mass_and_marginals(grid):
    psi = coherent_state(grid, ETA, 0.3, 0.5)
    result = wigner(psi)
    assert result.integral().real == pytest.approx(1.0, abs=1e-10)
    pos, mom = marginals(result)
    assert np.max(np.abs(pos - np.abs(psi.values) ** 2)) < 1e-12
    ft = eta_fourier(psi)
    assert np.max(np.abs(mom - np.abs(ft.values) ** 2)) < 1e-12


def test_realness_is_read_off_the_dtype(grid):
    # the Wigner function of a state, a mixture or a density is the symbol
    # of a Hermitian operator and is produced real; cross-Wigner of two
    # states, the ambiguity function and the symbol of an operator are not
    psi = coherent_state(grid, ETA, 0.5, 0.0)
    phi = hermite_state(grid, ETA, 1)
    spec = MixedStateSpec([(0.25, psi), (0.75, phi)])
    rho = pure_density(phi)
    for source in (psi, spec, rho, DensityMatrix(rho.op, rho.report)):
        assert wigner(source).values.dtype == np.float64
    for a in (cross_wigner(psi, phi), ambiguity(psi), weyl_symbol(rho.op)):
        assert a.values.dtype == np.complex128


def test_a_wigner_distribution_is_a_phase_space_function(grid, tmp_path):
    # wigner() returns the phase-space function itself, every consumer takes
    # it as it is, and its W is the function again: the one name that
    # callers reading result.W, as bench/selftest.py does, still need
    psi = coherent_state(grid, ETA, 0.5, 0.0)
    phi = hermite_state(grid, ETA, 1)
    rho = pure_density(phi)
    spec = MixedStateSpec([(0.25, psi), (0.75, phi)])
    for source in (psi, spec, rho, DensityMatrix(rho.op, rho.report)):
        assert isinstance(wigner(source), WignerResult)
    bad = copy.deepcopy(wigner(psi))
    assert isinstance(bad, WignerResult) and isinstance(bad, PhaseSpaceFunction)
    assert bad.W is bad
    before = bad.values
    bad.W.values = bad.W.values * 1.001
    assert np.array_equal(bad.values, before * 1.001)
    W = wigner(psi)
    pos, _ = marginals(W)
    assert np.sum(pos) * grid.dx == pytest.approx(1.0, abs=1e-10)
    assert 2.0 * np.pi * ETA * moyal_overlap(W, W).real == pytest.approx(1.0, abs=1e-10)
    assert radon(W, [0.0]).values.shape == (1, grid.n)
    assert eta_scan(W, [1.0]).verdicts() == ["pure"]
    assert klm_test(W, ETA, samples=4, seed=0).passed
    save_phase_space(W, tmp_path / "w.csv")
    same = cross_wigner(psi, psi)
    assert isinstance(same, WignerResult) and same.values.dtype == np.float64
    pair = cross_wigner(psi, phi)
    assert type(pair) is PhaseSpaceFunction and pair.values.dtype == np.complex128
    # the library itself never unwraps
    for path in sorted(Path(wignerlab.__file__).parent.glob("*.py")):
        assert not re.search(r"\.W\b|hasattr\(\w+, .W.\)", path.read_text()), path.name


def test_cross_wigner_hermitian_symmetry(grid):
    psi = coherent_state(grid, ETA, 0.5, 0.0)
    phi = hermite_state(grid, ETA, 1)
    wpf = cross_wigner(psi, phi)
    wfp = cross_wigner(phi, psi)
    assert np.max(np.abs(wpf.values - np.conj(wfp.values))) < 1e-12


def test_moyal_identity(grid):
    psi = coherent_state(grid, ETA, 0.2, -0.1)
    W = wigner(psi)
    lhs = 2.0 * np.pi * ETA * moyal_overlap(W, W).real
    assert lhs == pytest.approx(psi.norm() ** 4, abs=1e-12)


def test_cross_moyal(grid):
    states = [
        coherent_state(grid, ETA, 0.2, -0.1),
        hermite_state(grid, ETA, 1),
        coherent_state(grid, ETA, -0.4, 0.3),
        hermite_state(grid, ETA, 2),
    ]
    lhs = moyal_overlap(
        cross_wigner(states[0], states[1]), cross_wigner(states[2], states[3])
    )
    rhs = (
        states[0].inner(states[2])
        * np.conj(states[1].inner(states[3]))
        / (2.0 * np.pi * ETA)
    )
    assert abs(lhs - rhs) < 1e-12


def test_ambiguity_is_symplectic_ft_of_wigner(grid):
    psi = coherent_state(grid, ETA, 0.3, -0.2)
    amb = ambiguity(psi)
    via_sft = symplectic_fourier(wigner(psi))
    assert np.max(np.abs(amb.values - via_sft.values)) < 1e-10
    assert amb.kind == "ambiguity"


def _assert_ambiguity_origin(psi):
    amb = ambiguity(psi)
    i = np.argmin(np.abs(amb.x_grid.points))
    k = np.argmin(np.abs(amb.p_grid.points))
    # Amb psi(0) = ||psi||^2 / (2 pi eta)
    assert amb.values[i, k] == pytest.approx(1.0 / (2.0 * np.pi * ETA), abs=1e-10)


def test_ambiguity_value_at_origin(grid):
    _assert_ambiguity_origin(coherent_state(grid, ETA))


def test_ambiguity_value_at_origin_non_centered_grid():
    _assert_ambiguity_origin(coherent_state(make_grid(-10.0, 12.0, 64), ETA))


def test_wigner_of_density_matches_pure_state(grid):
    psi = coherent_state(grid, ETA, 0.1, 0.7)
    direct = wigner(psi)
    via_rho = wigner(pure_density(psi))
    assert np.max(np.abs(direct.values - via_rho.values)) < 1e-10


def test_wigner_of_mixture_is_convex_combination(grid):
    psi0 = coherent_state(grid, ETA)
    psi1 = hermite_state(grid, ETA, 1)
    spec = MixedStateSpec([(0.3, psi0), (0.7, psi1)])
    mixed = wigner(spec)
    ref = 0.3 * wigner(psi0).values + 0.7 * wigner(psi1).values
    assert np.max(np.abs(mixed.values - ref)) < 1e-10
