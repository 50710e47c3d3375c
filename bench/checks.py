"""Reference computations the benchmark checks wignerlab's outputs against.

Everything here is plain NumPy written from the formulas, with no call into
wignerlab, so a fault in the library cannot hide in its own reference.  A
check returns a list of ``(name, residual, tolerance)`` triples; it passes
when every residual is finite and at most its tolerance.  Tolerances are the
ones the library's own tests and acceptance gate use.
"""

from __future__ import annotations

import numpy as np

TOL_CLOSED_FORM = 1e-8  # closed-form Wigner functions (acceptance criterion 01)
TOL_MOYAL = 1e-7  # Moyal identities (criterion 02)
TOL_MARGINAL = 1e-6  # marginals (criterion 03)
TOL_ROUND_TRIP = 1e-7  # trace formulas and symbol norms (criteria 04, 05)
TOL_WEYL_ROUND_TRIP = 1e-6  # weyl_quantize(weyl_symbol(K)) = K (tests/test_weyl.py)
TOL_METAPLECTIC = 1e-6  # free matrix vs generator word, Wigner transport
TOL_WILLIAMSON = 1e-8  # Williamson reconstruction (criterion 09)
TOL_SYMPLECTIC = 1e-9  # S^T J S = J (criterion 09)
TOL_GAUSSIAN = 1e-10  # admissibility matrix eigenvalue (criterion 10)
TOL_TOMO_MASS = 1e-8  # tomogram row masses (tests/test_tomography.py)
TOL_TOMO_ROW = 1e-10  # theta = 0 tomogram against |phi0|^2
TOL_PAULI = 1e-6  # Pauli-pair overlap (cli pauli experiment)
TOL_PAULI_MARGINAL = 1e-10  # Pauli-pair marginals (cli pauli experiment)
TOL_EXACT = 1e-12  # sums the library must reproduce to rounding
TOL_VERDICT = 0.5  # residual 0 for a right verdict, 1 for a wrong one


def passed(results) -> bool:
    return all(np.isfinite(res) and res <= tol for _, res, tol in results)


def verdict(name, ok) -> tuple:
    return (name, 0.0 if ok else 1.0, TOL_VERDICT)


def sup(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


# --- grids ----------------------------------------------------------------


def x_points(x_min: float, x_max: float, n: int) -> np.ndarray:
    return x_min + (x_max - x_min) / n * np.arange(n)


def p_points(x_min: float, x_max: float, n: int, eta: float) -> np.ndarray:
    """Centered momentum grid dual to the x grid: dp = 2 pi eta / (n dx)."""
    dp = 2.0 * np.pi * eta / (x_max - x_min)
    return -0.5 * n * dp + dp * np.arange(n)


# --- states ---------------------------------------------------------------


def coherent(x, eta, x0, p0) -> np.ndarray:
    """Displaced coherent state with the symmetrized displacement phase."""
    x = np.asarray(x, dtype=float)
    return (
        (np.pi * eta) ** -0.25
        * np.exp(-((x - x0) ** 2) / (2.0 * eta))
        * np.exp(1j * (p0 * x - 0.5 * p0 * x0) / eta)
    )


def superposition(x, eta, centers, amplitudes, norm=1.0) -> np.ndarray:
    """sum_k c_k coherent(z_k) / norm, evaluated anywhere on the line."""
    out = np.zeros(np.shape(x), dtype=complex)
    for (x0, p0), c in zip(centers, amplitudes):
        out = out + c * coherent(x, eta, x0, p0)
    return out / norm


def hermite_functions(x, eta, count) -> np.ndarray:
    """Rows 0..count-1: normalized eta-oscillator eigenfunctions, by recurrence."""
    xi = np.asarray(x, dtype=float) / np.sqrt(eta)
    out = np.empty((count, xi.size))
    out[0] = (np.pi * eta) ** -0.25 * np.exp(-0.5 * xi**2)
    if count > 1:
        out[1] = np.sqrt(2.0) * xi * out[0]
    for k in range(2, count):
        out[k] = np.sqrt(2.0 / k) * xi * out[k - 1] - np.sqrt((k - 1) / k) * out[k - 2]
    return out


def thermal_weights(nbar: float, count: int) -> np.ndarray:
    w = nbar ** np.arange(count) / (1.0 + nbar) ** (np.arange(count) + 1)
    return w / w.sum()


# --- closed forms -----------------------------------------------------------


def coherent_wigner(x, p, eta, x0, p0) -> np.ndarray:
    xx, pp = np.meshgrid(x, p, indexing="ij")
    return np.exp(-((xx - x0) ** 2 + (pp - p0) ** 2) / eta) / (np.pi * eta)


def thermal_wigner(x, p, eta, nbar) -> np.ndarray:
    width = eta * (2.0 * nbar + 1.0)
    xx, pp = np.meshgrid(x, p, indexing="ij")
    return np.exp(-(xx**2 + pp**2) / width) / (np.pi * width)


def coherent_symplectic_fourier(x, p, eta, x0, p0) -> np.ndarray:
    """F_sigma of the coherent Wigner function at z0:

    (2 pi eta)^-1 exp(-i sigma(z, z0) / eta) exp(-|z|^2 / 4 eta),
    sigma(z, z0) = p x0 - p0 x.
    """
    xx, pp = np.meshgrid(x, p, indexing="ij")
    phase = np.exp(-1j * (pp * x0 - p0 * xx) / eta)
    return phase * np.exp(-(xx**2 + pp**2) / (4.0 * eta)) / (2.0 * np.pi * eta)


# --- transforms -------------------------------------------------------------


def fourier_direct(values, x, p, eta) -> np.ndarray:
    """F_eta psi(p) = (2 pi eta)^-1/2 sum_x exp(-i p x / eta) psi(x) dx, O(N^2)."""
    dx = x[1] - x[0]
    return np.exp(-1j * np.outer(p, x) / eta) @ values * dx / np.sqrt(2.0 * np.pi * eta)


def ambiguity_direct(fn, x_at, p_at, eta) -> np.ndarray:
    """(2 pi eta)^-1 Int exp(-i p y / eta) psi(y + x/2) psi*(y - x/2) dy

    at the points (x_at[i], p_at[i]), by a fine Riemann sum of the analytic
    state ``fn``.
    """
    y = np.linspace(-25.0, 25.0, 10001)
    dy = y[1] - y[0]
    out = np.empty(len(x_at), dtype=complex)
    for i, (x0, p0) in enumerate(zip(x_at, p_at)):
        integrand = np.exp(-1j * p0 * y / eta) * fn(y + 0.5 * x0) * np.conj(fn(y - 0.5 * x0))
        out[i] = np.sum(integrand) * dy / (2.0 * np.pi * eta)
    return out


def state_moments(values, x, p, eta):
    """(mean, covariance, norm squared) of a state from its samples.

    Momentum moments use the direct O(N^2) eta-Fourier sum; the symmetrized
    x p moment uses p psi = F^-1 (p F psi), which is exact on dual grids.
    """
    dx, dp = x[1] - x[0], p[1] - p[0]
    fmat = np.exp(-1j * np.outer(p, x) / eta) * dx / np.sqrt(2.0 * np.pi * eta)
    ft = fmat @ values
    p_psi = (dp / dx) * (fmat.conj().T @ (p * ft))
    rho_x = np.abs(values) ** 2 * dx
    rho_p = np.abs(ft) ** 2 * dp
    mx, mp = np.sum(x * rho_x), np.sum(p * rho_p)
    sxx = np.sum((x - mx) ** 2 * rho_x)
    spp = np.sum((p - mp) ** 2 * rho_p)
    sxp = np.real(np.vdot(values, x * p_psi) * dx) - mx * mp
    return np.array([mx, mp]), np.array([[sxx, sxp], [sxp, spp]]), float(np.sum(rho_x))


# --- symplectic algebra -----------------------------------------------------


def j_form(n: int) -> np.ndarray:
    """J = [[0, I], [-I, 0]] for z = (x_1..x_n, p_1..p_n)."""
    eye, zero = np.eye(n), np.zeros((n, n))
    return np.block([[zero, eye], [-eye, zero]])


def symplectic_spectrum(sigma) -> np.ndarray:
    """Symplectic eigenvalues of sigma, ascending: the positive eigenvalues of i J sigma."""
    n = sigma.shape[0] // 2
    vals = np.linalg.eigvals(1j * j_form(n) @ sigma).real
    return np.sort(vals[vals > 0.0])[:n]


def admissibility_min_eig(sigma, eta) -> float:
    n = sigma.shape[0] // 2
    return float(np.linalg.eigvalsh(sigma + 0.5j * eta * j_form(n))[0])


# --- CSV files, read without the library's loader ---------------------------


def read_grid_csv(path):
    """(header dict, complex samples) of a grid CSV written by the library."""
    with open(path) as handle:
        handle.readline()
        n, x_min, dx, eta, kind = handle.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=3, ndmin=2)
    head = {"n": int(n), "x_min": float(x_min), "dx": float(dx), "eta": float(eta), "kind": kind}
    return head, data[:, 0] + 1j * data[:, 1]


def read_tomogram_csv(path):
    """(header dict, angles, rows) of a tomogram CSV written by the library."""
    with open(path) as handle:
        handle.readline()
        n_angles, n, x_min, dx, eta = handle.readline().strip().split(",")
        angles = np.array([float(v) for v in handle.readline().strip().split(",")[1:]])
    rows = np.loadtxt(path, delimiter=",", skiprows=3, ndmin=2)
    head = {
        "n_angles": int(n_angles), "n": int(n), "x_min": float(x_min),
        "dx": float(dx), "eta": float(eta),
    }
    return head, angles, rows


# --- checks on files the command line writes --------------------------------


def check_wigner_csv(path, eta=1.0):
    """wigner.csv of the standard coherent state against its closed form."""
    head, flat = read_grid_csv(path)
    n = head["n"]
    x = head["x_min"] + head["dx"] * np.arange(n)
    p = p_points(x[0], x[0] + n * head["dx"], n, eta)
    closed = coherent_wigner(x, p, eta, 0.0, 0.0)
    values = flat.reshape(n, n) if flat.size == n * n else np.full((n, n), np.nan)
    return [
        ("wigner_csv_closed_form", sup(values, closed), TOL_CLOSED_FORM),
        ("wigner_csv_kind", 0.0 if head["kind"] == "wigner" else 1.0, TOL_VERDICT),
    ]


def check_tomogram_csv(path, eta=1.0):
    """Unit mass on every row, and the theta = 0 row equal to |phi0|^2."""
    head, angles, rows = read_tomogram_csv(path)
    x = head["x_min"] + head["dx"] * np.arange(head["n"])
    masses = rows.sum(axis=1) * head["dx"]
    first = int(np.argmin(np.abs(angles)))
    return [
        ("tomogram_rows", 0.0 if rows.shape == (head["n_angles"], head["n"]) else 1.0, TOL_VERDICT),
        ("tomogram_mass", sup(masses, 1.0), TOL_TOMO_MASS),
        ("tomogram_theta0", sup(rows[first], np.abs(coherent(x, eta, 0.0, 0.0)) ** 2), TOL_TOMO_ROW),
    ]


def check_pauli_csv(path1, path2):
    """Equal position and momentum marginals, |<psi1|psi2>|^2 = 1/sqrt(2)."""
    head, psi1 = read_grid_csv(path1)
    _, psi2 = read_grid_csv(path2)
    n = head["n"]
    x = head["x_min"] + head["dx"] * np.arange(n)
    p = p_points(x[0], x[0] + n * head["dx"], n, head["eta"])
    overlap = abs(np.vdot(psi1, psi2) * head["dx"]) ** 2
    mom1 = np.abs(fourier_direct(psi1, x, p, head["eta"])) ** 2
    mom2 = np.abs(fourier_direct(psi2, x, p, head["eta"])) ** 2
    return [
        ("pauli_overlap", abs(overlap - 1.0 / np.sqrt(2.0)), TOL_PAULI),
        ("pauli_position", sup(np.abs(psi1) ** 2, np.abs(psi2) ** 2), TOL_PAULI_MARGINAL),
        ("pauli_momentum", sup(mom1, mom2), TOL_PAULI_MARGINAL),
    ]
