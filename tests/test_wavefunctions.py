import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermval

from wignerlab import hermite_state, make_grid


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
