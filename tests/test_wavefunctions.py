import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermval

from wignerlab import coherent_state, gaussian_wavepacket, hermite_state, make_grid


def _closed_form(x, eta, k):
    """(pi eta)^(-1/4) (2^k k!)^(-1/2) H_k(xi) exp(-xi^2 / 2), xi = x / sqrt(eta)."""
    xi = x / np.sqrt(eta)
    lognorm = -0.5 * (k * math.log(2.0) + math.lgamma(k + 1)) - 0.25 * math.log(math.pi * eta)
    return hermval(xi, [0.0] * k + [1.0]) * np.exp(lognorm - 0.5 * xi**2)


@pytest.mark.parametrize("eta", [0.5, 1.0, 1.7])
def test_hermite_state_matches_closed_form(eta):
    grid = make_grid(-10.0, 12.0, 256)
    for k in range(121):
        psi = hermite_state(grid, eta, k).values
        ref = _closed_form(grid.points, eta, k)
        assert np.max(np.abs(psi - ref)) <= 1e-12 * np.max(np.abs(ref)), k


@pytest.mark.parametrize("k", [5, 170, 300])
def test_hermite_state_solves_oscillator_equation(k):
    eta = 1.0
    grid = make_grid(-40.0, 40.0, 2048)
    psi = hermite_state(grid, eta, k).values
    freq = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
    second = np.fft.ifft(-(freq**2) * np.fft.fft(psi)).real
    energy = eta * (2 * k + 1)
    residual = -(eta**2) * second + grid.points**2 * psi - energy * psi
    assert np.max(np.abs(residual)) <= 1e-10 * energy * np.max(np.abs(psi))


@pytest.mark.parametrize("half, n, k", [(40.0, 1024, 170), (60.0, 4096, 1000)])
def test_high_hermite_state_is_finite_and_normalized(half, n, k):
    # k = 1000 reaches |xi| > 38.6, where a seed exp(-xi^2 / 2) underflows
    psi = hermite_state(make_grid(-half, half, n), 1.0, k)
    assert np.all(np.isfinite(psi.values))
    assert psi.norm() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("eta", [1e-300, 1e-5, 0.3, 1.0, 3.0, 1e5, 1e300, 5.7e307])
def test_ground_amplitude_is_the_one_of_pi_eta_wherever_pi_eta_is_finite(eta):
    # the three builders share (pi eta)^(-1/4): bit for bit that formula, of a
    # float and of a numpy double, while pi eta is finite
    grid = make_grid(-10.0, 10.0, 64)
    x = grid.points
    amplitude = (np.pi * eta) ** -0.25
    with np.errstate(under="ignore"):
        gauss = np.exp(-(x**2) / (2.0 * eta))
        hermite = np.exp(-0.5 * (x / np.sqrt(eta)) ** 2)
        packet = np.exp(-(1.3 + 0.4j) * (x - 0.2) ** 2 / (2.0 * eta))
        for e in (eta, np.float64(eta)):
            assert np.array_equal(coherent_state(grid, e).values, amplitude * gauss)
            assert np.array_equal(hermite_state(grid, e, 0).values, amplitude * hermite)
            assert np.array_equal(
                gaussian_wavepacket(grid, e, 1.3 + 0.4j, 0.2).values,
                amplitude * 1.3**0.25 * packet,
            )


def test_ground_amplitude_is_finite_where_pi_eta_overflows():
    # pi eta is inf at eta = 1.7e308, and (pi eta)^(-1/4) read 0: every state
    # was the zero function; pi^(-1/4) eta^(-1/4) is 6.6e-78
    grid = make_grid(-10.0, 10.0, 256)
    eta = 1.7e308
    for psi in (
        coherent_state(grid, eta),
        hermite_state(grid, eta, 2),
        gaussian_wavepacket(grid, eta, 1.0 + 1.0j),
    ):
        assert 0.0 < psi.norm() < np.inf
    assert coherent_state(grid, eta).values[0] == np.pi**-0.25 * eta**-0.25
