"""The test oracles that check identities, and the dense interpolation
helpers, against samples and closed forms."""

import numpy as np
import pytest

from wignerlab import coherent_state, dual_grid, make_grid

from oracles import (
    fock_narcowich_spectrum,
    periodic_interp,
    point_interp2d,
    reflection_wigner_check,
    shear_interp,
    tensor_interp,
)

ETA = 1.0


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


def test_reflection_wigner_identity():
    grid = make_grid(-10.0, 10.0, 64)
    psi = coherent_state(grid, ETA, 0.3, -0.2)
    out = reflection_wigner_check(psi, (0.5, 0.25))
    assert out["interpolated"]
    assert out["residual"] < 1e-10
    # on the sample lattice the Wigner side needs no interpolation
    p_grid = dual_grid(grid, ETA)
    out = reflection_wigner_check(psi, (grid.points[33], p_grid.points[31]))
    assert not out["interpolated"]
    assert out["residual"] < 1e-10
    # beyond the p box the Wigner side reads zero, not a periodic image
    out = reflection_wigner_check(psi, (0.5, p_grid.x_max + 10.0))
    assert out["wigner_value"] == 0


@pytest.mark.parametrize("n", range(4))
def test_fock_narcowich_spectrum_is_a_unit_trace_and_diagonal_at_its_own_eta(n):
    # sum_k lambda_k = Int W_n = 1, and at eta' = eta, lambda_k = delta_kn
    eta = 1.3
    for ratio in (0.3, 0.9, 1.1, 3.0):
        assert abs(fock_narcowich_spectrum(n, eta, ratio * eta).sum() - 1.0) < 1e-12
    lam = fock_narcowich_spectrum(n, eta, eta)
    assert np.max(np.abs(lam - np.eye(len(lam))[n])) < 1e-12


@pytest.mark.parametrize("ratio", [0.3, 0.9, 1.1, 3.0])
def test_fock_narcowich_spectrum_of_the_ground_state_is_geometric(ratio):
    # W_0^eta at eta' is the Gaussian state of weights
    # lambda_k = 2 eta' / (eta + eta') q^k, q = (eta - eta') / (eta + eta'):
    # thermal below eta, alternating in sign above it
    eta = 0.7
    eta_prime = ratio * eta
    q = (eta - eta_prime) / (eta + eta_prime)
    closed = 2.0 * eta_prime / (eta + eta_prime) * q ** np.arange(80)
    assert np.max(np.abs(fock_narcowich_spectrum(0, eta, eta_prime) - closed)) < 1e-12
