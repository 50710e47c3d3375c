"""Quantum admissibility of phase-space functions.

Three layers of tests decide whether a normalized phase-space function can
be the Wigner distribution of a state at a given eta:

* Gaussian closed form: admissible iff |eta| <= 2 lambda_min(Sigma),
  equivalently Sigma + i eta J / 2 >= 0.
* Sampled quantum-Bochner (KLM) matrices: any finite matrix with entries
  exp(i sigma(z_j, z_k)/2 eta) a_sigma(z_j - z_k) must be positive
  semidefinite.  Sampling can certify failure only, never positivity.
  For a real a, a_sigma(-w) is the conjugate of a_sigma(w) and a_sigma(0)
  is the mass over 2 pi eta, so only the M(M - 1)/2 differences with
  j < k are transformed and the matrix is Hermitian by construction.  The
  phases of a difference are products of per-sample phases,
  exp(-i p_j x / eta) conj(exp(-i p_k x / eta)) along x and likewise
  along p: 2 M N exponentials for M samples on an N x N grid.
* A Hessian necessary condition at the origin of the eta-free reduced
  transform: -f''(0) + i eta J / 2 >= 0.

Zero and non-finite eta are refused.  A negative eta flips the sign of
the transforms; the Gaussian test reads |eta|.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .errors import ParameterError, ValidationError, require_memory
from .grid import Grid, PhaseSpaceFunction, dual_grid
from .states import OperatorMatrix, validate_density
from .symplectic import j_matrix, symplectic_eigenvalues
from .weyl import weyl_quantize

__all__ = [
    "CovarianceMatrix",
    "GaussianStateSpec",
    "KLMReport",
    "EtaScanResult",
    "gaussian_state",
    "covariance_matrix",
    "gaussian_admissible",
    "robertson_schrodinger_checks",
    "reduced_transform",
    "sigma_transform_at",
    "klm_test",
    "narcowich_oconnell_profile",
    "quartic_derivative_witness",
    "eta_scan",
]


@dataclass
class CovarianceMatrix:
    sigma: np.ndarray
    mean: np.ndarray
    n: int

    def __post_init__(self):
        self.sigma = np.asarray(self.sigma, dtype=float)
        self.mean = np.asarray(self.mean, dtype=float)
        if self.sigma.shape != (2 * self.n, 2 * self.n):
            raise ParameterError("covariance matrix has wrong shape")
        scale = max(1.0, float(np.max(np.abs(self.sigma))))
        if np.max(np.abs(self.sigma - self.sigma.T)) > 1e-10 * scale:
            raise ValidationError("covariance matrix must be symmetric")


@dataclass
class GaussianStateSpec:
    sigma: np.ndarray
    mean: np.ndarray
    eta: float


def gaussian_state(spec: GaussianStateSpec, grid: Grid) -> PhaseSpaceFunction:
    """Sample a Gaussian phase-space state on a grid.

    The result is the normal density
    rho(z) = (2 pi)^-n (det Sigma)^(-1/2) exp(-1/2 Sigma^-1 (z-z0).(z-z0))
    as a Wigner-kind phase-space function.
    """
    if not isinstance(spec, GaussianStateSpec):
        raise ParameterError(f"unsupported Gaussian spec {type(spec).__name__}")
    sigma = np.asarray(spec.sigma, dtype=float)
    if sigma.shape != (2, 2):
        raise ParameterError("gridded Gaussian states support n = 1 only")
    symplectic_eigenvalues(sigma)  # refuses a covariance that is not positive definite
    p_grid = dual_grid(grid, spec.eta)
    xx, pp = np.meshgrid(grid.points, p_grid.points, indexing="ij")
    z0 = np.asarray(spec.mean, dtype=float)
    dz = np.stack([xx - z0[0], pp - z0[1]])
    inv = np.linalg.inv(sigma)
    quad = (
        inv[0, 0] * dz[0] ** 2
        + 2.0 * inv[0, 1] * dz[0] * dz[1]
        + inv[1, 1] * dz[1] ** 2
    )
    norm = 1.0 / (2.0 * np.pi * np.sqrt(np.linalg.det(sigma)))
    values = norm * np.exp(-0.5 * quad)
    return PhaseSpaceFunction(grid, p_grid, values, spec.eta, kind="wigner")


def _nonzero_eta(eta) -> float:
    """eta as a float, refused when zero or not finite."""
    value = float(eta)
    if value == 0.0 or not np.isfinite(value):
        raise ParameterError(f"eta must be a nonzero finite number, got {eta}")
    return value


def _moments(values: np.ndarray, x: np.ndarray, p: np.ndarray):
    """Mean and central second moments of real samples on the x by p lattice.

    The samples are normalized by their own sum.  The means and variances
    are read off the two marginals and the covariance off the one bilinear
    form (x - <x>)^T values (p - <p>), so no N x N mesh is built.
    """
    along_x = values.sum(axis=1)
    along_p = values.sum(axis=0)
    total = along_x.sum()
    mx = x @ along_x / total
    mp = p @ along_p / total
    dx, dp = x - mx, p - mp
    sxx = dx**2 @ along_x / total
    spp = dp**2 @ along_p / total
    sxp = dx @ values @ dp / total
    return np.array([mx, mp]), np.array([[sxx, sxp], [sxp, spp]])


def covariance_matrix(W: PhaseSpaceFunction) -> CovarianceMatrix:
    """Second central moments of a normalized phase-space distribution.

    Read off the two marginals and one bilinear form (see :func:`_moments`).
    """
    values = W.values.real
    mass = float(np.sum(values) * W.area_element)
    if abs(mass - 1.0) > 1e-3:
        raise ValidationError(f"distribution mass is {mass}, expected 1")
    mean, sigma = _moments(values, W.x_grid.points, W.p_grid.points)
    return CovarianceMatrix(sigma, mean, 1)


def gaussian_admissible(sigma: np.ndarray, eta: float) -> dict:
    """Quantum admissibility of a Gaussian covariance matrix at eta.

    Both equivalent forms are computed and must agree:
    |eta| <= 2 lambda_min  and  Sigma + i eta J / 2 >= 0.
    Positivity and lambda_min come from :func:`symplectic_eigenvalues`; the
    matrix form takes its own eigensolve, so the two stay independent.
    Also reports the (weaker) per-mode Robertson-Schrodinger checks.
    Zero and non-finite eta are refused.
    """
    eta = _nonzero_eta(eta)
    sigma = np.asarray(sigma, dtype=float)
    n = sigma.shape[0] // 2
    scale = max(1.0, float(np.max(np.abs(sigma))))
    try:
        lam_min = float(symplectic_eigenvalues(sigma)[0])
    except ValidationError:
        lam_min = None
    matrix = 0.5 * (sigma + sigma.T) + 0.5j * abs(eta) * j_matrix(n)
    matrix_min = float(np.linalg.eigvalsh(matrix)[0])
    matrix_ok = matrix_min >= -1e-10 * scale
    out = {
        "positive_definite": lam_min is not None,
        "matrix_min_eigenvalue": matrix_min,
        "rs_checks": robertson_schrodinger_checks(sigma, eta),
        "lambda_min": lam_min,
        "admissible": False,
    }
    if lam_min is not None:
        lam_ok = abs(eta) <= 2.0 * lam_min + 1e-9 * scale
        if lam_ok != matrix_ok:
            raise ValidationError(
                "admissibility criteria disagree: "
                f"2 lambda_min = {2 * lam_min}, matrix min eig = {matrix_min}"
            )
        out["admissible"] = lam_ok
    return out


def robertson_schrodinger_checks(sigma: np.ndarray, eta: float) -> list:
    """Per-mode checks dx_j dp_j >= sqrt(cov(x_j,p_j)^2 + eta^2/4)."""
    sigma = np.asarray(sigma, dtype=float)
    n = sigma.shape[0] // 2
    checks = []
    for j in range(n):
        var_x, var_p = sigma[j, j], sigma[n + j, n + j]
        cov = sigma[j, n + j]
        lhs = var_x * var_p
        rhs = cov**2 + eta**2 / 4.0
        checks.append(
            {"mode": j, "lhs": float(lhs), "rhs": float(rhs), "ok": bool(lhs >= rhs - 1e-12)}
        )
    return checks


#: points per block of :func:`_quadrature_transform`; bounds its memory
_POINT_CHUNK = 256


def _quadrature_transform(values: np.ndarray, ex: np.ndarray, ep: np.ndarray) -> np.ndarray:
    """sum over i, k of ex[i, w] values[i, k] ep[k, w], one sum per column w.

    This is the one contraction behind every symplectic Fourier transform at
    arbitrary points.  Because sigma(w, z') = w_p x' - w_x p', the kernel
    exp(-i scale sigma(w, z')) factors into two 1-D phases, the columns
    ex[:, w] = exp(-i scale w_p x) and ep[:, w] = exp(i scale w_x p), and
    the double sum is one matrix product and one column-wise dot product.
    The callers build the phases: :func:`reduced_transform` and
    :func:`sigma_transform_at` per point, :func:`klm_matrix` as products of
    per-sample phases.  Real ``values`` (C-contiguous) multiply the
    interleaved real and imaginary parts of ``ep`` in one real product, so
    no complex copy of the samples is made.  Callers pass at most
    ``_POINT_CHUNK`` columns at a time, which keeps memory O(chunk N).
    """
    if np.iscomplexobj(values):
        inner = values @ ep
    else:
        inner = (values @ ep.view(float)).view(complex)
    return np.einsum("iw,iw->w", ex, inner)


def _transform_at(a: PhaseSpaceFunction, points, scale: float) -> np.ndarray:
    """sum over z' of exp(-i sigma(w, z') scale) a(z') dz' at points w.

    Builds the phases of each block of ``_POINT_CHUNK`` points: 2 M N
    exponentials for M points on an N x N grid, instead of M N^2.  No FFT is
    involved, so any pair of x and p grids works.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    values = a.values if np.any(a.values.imag) else np.ascontiguousarray(a.values.real)
    x, p = a.x_grid.points, a.p_grid.points
    out = np.empty(len(points), dtype=complex)
    for start in range(0, len(points), _POINT_CHUNK):
        block = points[start : start + _POINT_CHUNK]
        ex = np.exp(-1j * scale * np.outer(x, block[:, 1]))
        ep = np.exp(1j * scale * np.outer(p, block[:, 0]))
        out[start : start + _POINT_CHUNK] = _quadrature_transform(values, ex, ep)
    return out * a.area_element


def reduced_transform(a: PhaseSpaceFunction, points) -> np.ndarray:
    """eta-free reduced transform Int exp(-i sigma(w, z')) a(z') dz'.

    Public as the paper's eta-independent symplectic Fourier transform.
    """
    return _transform_at(a, points, 1.0)


def sigma_transform_at(a: PhaseSpaceFunction, points, eta: float) -> np.ndarray:
    """Symplectic Fourier transform at arbitrary points for a given eta.

    Zero and non-finite eta are refused.
    """
    eta = _nonzero_eta(eta)
    return _transform_at(a, points, 1.0 / eta) / (2.0 * np.pi * eta)


def klm_matrix(a: PhaseSpaceFunction, points, eta: float) -> np.ndarray:
    """The sampled KLM matrix exp(i sigma(z_j, z_k) / 2 eta) a_sigma(z_j - z_k).

    For the real part of ``a`` (:func:`klm_test` refuses a non-real one),
    a_sigma(-w) is the conjugate of a_sigma(w) and a_sigma(0) is the mass
    over 2 pi eta.  So a_sigma is transformed at the M(M - 1)/2 differences
    with j < k only, the lower triangle holds their conjugates and the
    diagonal the exact mass term: the matrix is Hermitian bit for bit.  The
    phases of z_j - z_k are products of per-sample phases,
    sx[:, j] conj(sx[:, k]) with sx[i, j] = exp(-i p_j x_i / eta) and
    likewise sp[k, j] = exp(i x_j p_k / eta) along p: 2 M N exponentials.
    The pairs go through :func:`_quadrature_transform` in blocks of
    ``_POINT_CHUNK``.
    """
    eta = _nonzero_eta(eta)
    points = np.asarray(points, dtype=float)
    xs, ps = points[:, 0], points[:, 1]
    values = np.ascontiguousarray(a.values.real)
    sx = np.exp(-1j / eta * np.outer(a.x_grid.points, ps))
    sp = np.exp(1j / eta * np.outer(a.p_grid.points, xs))
    rows, cols = np.triu_indices(len(points), 1)
    upper = np.empty(len(rows), dtype=complex)
    for start in range(0, len(rows), _POINT_CHUNK):
        j, k = rows[start : start + _POINT_CHUNK], cols[start : start + _POINT_CHUNK]
        # np.take keeps the blocks C-contiguous, as the real product needs
        ex = np.take(sx, k, axis=1).conj()
        ex *= np.take(sx, j, axis=1)
        ep = np.take(sp, k, axis=1).conj()
        ep *= np.take(sp, j, axis=1)
        upper[start : start + _POINT_CHUNK] = _quadrature_transform(values, ex, ep)
    scale = a.area_element / (2.0 * np.pi * eta)
    # sigma(z_j, z_k) = p_j x_k - x_j p_k
    upper *= np.exp(0.5j / eta * (ps[rows] * xs[cols] - xs[rows] * ps[cols])) * scale
    matrix = np.empty((len(points), len(points)), dtype=complex)
    matrix[rows, cols] = upper
    matrix[cols, rows] = upper.conj()
    np.fill_diagonal(matrix, np.sum(values) * scale)
    return matrix


@dataclass
class KLMReport:
    points: np.ndarray
    min_eigenvalue: float
    tolerance: float
    hessian_min_eigenvalue: float
    continuity_residual: float
    verdict: str  # "no violation found" or "violation"
    seed: int = 0
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "no violation found"


def _check_unit_mass(a: PhaseSpaceFunction):
    scale = float(np.max(np.abs(a.values))) or 1.0
    if float(np.max(np.abs(a.values.imag))) > 1e-9 * scale:
        raise ValidationError("phase-space function must be real")
    mass = float(np.sum(a.values.real) * a.area_element)
    if abs(mass - 1.0) > 1e-6:
        raise ValidationError(f"phase-space mass is {mass}, expected 1")
    return mass


def _hessian_check(mean: np.ndarray, sigma: np.ndarray, eta: float) -> float:
    """Min eigenvalue of -f''(0)/f(0) + i eta J / 2 for the reduced transform f.

    Differentiating f(w) = Int exp(-i sigma(w, z)) a(z) dz under the integral
    turns the Hessian into exact second moments of a, so no finite
    differences are needed:

        -f''(0) / f(0) = [[<p^2>, -<x p>], [-<x p>, <x^2>]],

    the raw moments Sigma + mean mean^T of the normalized distribution.
    """
    (mxx, mxp), (_, mpp) = sigma + np.outer(mean, mean)
    matrix = np.array([[mpp, -mxp], [-mxp, mxx]]) + 0.5j * eta * j_matrix(1)
    return float(np.linalg.eigvalsh(matrix)[0])


def _check_count(name: str, value, minimum: int) -> int:
    """``value`` as an int, refused unless it is an integer (not a bool) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ParameterError(f"{name} must be at least {minimum}, got {value}")
    return int(value)


def klm_test(
    a: PhaseSpaceFunction,
    eta: float,
    samples: int = 40,
    seed: int = 0,
) -> KLMReport:
    """Sampled quantum-Bochner positivity test at a given eta.

    Draws phase-space points in a ball scaled to the distribution (kept in
    the inner 80% of the grid), builds the KLM matrix and reports its
    minimum Hermitian eigenvalue.  A positive report reads "no violation
    found" — sampling cannot prove positivity over all point sets.
    :func:`klm_matrix` transforms a at the M(M - 1)/2 pair differences only,
    with phases built from per-sample phases, and fills the rest of the
    matrix by its Hermitian symmetry.  The ball's radius and the Hessian
    check read one set of moments each (:func:`_moments`).

    Zero or non-finite eta, a non-integer (or bool) ``samples`` below 2 and
    a negative or non-integer ``seed`` are refused with ParameterError
    before any work.  :func:`errors.require_memory` then refuses the working
    set before anything is allocated.  It counts, as if they overlapped, a
    complex N x N array for two real copies of the samples, the
    two per-sample phase arrays with the temporaries that build them (four
    complex samples x N), one pair block (four complex ``_POINT_CHUNK`` x N
    arrays: the two phases, a gathered column block and the product with
    the samples) and four complex samples x samples arrays (the pair
    indices, the transformed pairs, the matrix and the eigensolver's copy).
    """
    eta = _nonzero_eta(eta)
    samples = _check_count("samples", samples, 2)
    seed = _check_count("seed", seed, 0)
    n = max(a.x_grid.n, a.p_grid.n)
    require_memory(
        16 * (n * n + 4 * samples * n + 4 * _POINT_CHUNK * n + 4 * samples**2),
        f"KLM matrices for {samples} samples",
    )
    _check_unit_mass(a)
    values = np.ascontiguousarray(a.values.real)
    x, p = a.x_grid.points, a.p_grid.points
    _, spread = _moments(np.abs(values), x, p)
    radius = 3.0 * float(np.sqrt(np.linalg.eigvalsh(spread)[-1]))
    radius = min(
        radius,
        0.4 * a.x_grid.length,
        0.4 * a.p_grid.length,
    )
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2.0 * np.pi, samples)
    radii = radius * np.sqrt(rng.uniform(0.0, 1.0, samples))
    points = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    matrix = klm_matrix(a, points, eta)
    eigenvalues = np.linalg.eigvalsh(matrix)
    min_eig = float(eigenvalues[0])
    # the spectral norm of a Hermitian matrix is its largest |eigenvalue|
    tol = 1e-8 * float(max(-eigenvalues[0], eigenvalues[-1]))
    # the diagonal is the exact a_sigma(0) = mass / (2 pi eta)
    continuity = abs(matrix[0, 0] - 1.0 / (2.0 * np.pi * eta))
    hess_min = _hessian_check(*_moments(values, x, p), eta)
    ok = min_eig >= -tol and hess_min >= -1e-8 * max(1.0, abs(eta))
    return KLMReport(
        points=points,
        min_eigenvalue=min_eig,
        tolerance=tol,
        hessian_min_eigenvalue=hess_min,
        continuity_residual=float(continuity),
        verdict="no violation found" if ok else "violation",
        seed=seed,
        details={"radius": radius},
    )


def narcowich_oconnell_profile(a: float, b: float):
    """The classical-but-not-quantum profile

    f(x, p) = (1 - a x^2 / 2 - b p^2 / 2) exp(-(a^2 x^4 + b^2 p^4))

    whose fourth x-derivative at the origin is -24 a^2 < 0, ruling out
    eta-positivity for every eta with a b >= eta^2 / 4.
    """
    if a <= 0.0 or b <= 0.0:
        raise ParameterError("profile parameters must be positive")

    def profile(x, p):
        x = np.asarray(x, dtype=float)
        p = np.asarray(p, dtype=float)
        return (1.0 - 0.5 * a * x**2 - 0.5 * b * p**2) * np.exp(
            -(a**2 * x**4 + b**2 * p**4)
        )

    return profile


def quartic_derivative_witness(f, h: float = 0.05) -> float:
    """Central finite-difference d^4 f / dx^4 at the origin (p = 0)."""
    stencil = np.array([f(-2 * h, 0.0), f(-h, 0.0), f(0.0, 0.0), f(h, 0.0), f(2 * h, 0.0)])
    weights = np.array([1.0, -4.0, 6.0, -4.0, 1.0])
    return float(weights @ stencil / h**4)


@dataclass
class EtaScanResult:
    entries: list

    def verdicts(self) -> list:
        return [entry["verdict"] for entry in self.entries]


def eta_scan(a: PhaseSpaceFunction, eta_list) -> EtaScanResult:
    """Admissibility of a fixed phase-space function across eta values.

    Each eta quantizes rho_eta = (2 pi eta) Op_eta(a) and tests the density
    axioms of one :func:`states.validate_density` report against its own
    thresholds (1e-8 Hermiticity and PSD, 1e-6 trace); the purity surrogate
    (2 pi eta) Int a^2 must stay <= 1 for an admissible eta, and equals 1
    only for a pure state.
    """
    eta_list = list(eta_list)
    if not eta_list:
        raise ParameterError("eta list must not be empty")
    _check_unit_mass(a)
    entries = []
    for eta in eta_list:
        eta = float(eta)
        op = weyl_quantize(a, eta=eta)
        rho = OperatorMatrix(op.grid, 2.0 * np.pi * eta * op.kernel, eta)
        report = validate_density(rho, psd_floor=1e-8)
        herm, min_eig = report.hermiticity_residue, report.min_eigenvalue
        scale = float(np.max(np.abs(report.eigenvalues))) or 1.0
        trace = report.trace_diagonal.real
        surrogate = float(2.0 * np.pi * eta * np.sum(a.values.real**2) * a.area_element)
        psd_ok = min_eig >= -1e-8 * scale
        trace_ok = abs(trace - 1.0) <= 1e-6
        if not (psd_ok and trace_ok and herm <= 1e-8 and surrogate <= 1.0 + 1e-6):
            verdict = "inadmissible"
        elif surrogate >= 1.0 - 1e-6:
            verdict = "pure"
        else:
            verdict = "mixed"
        entries.append(
            {
                "eta": eta,
                "verdict": verdict,
                "min_eigenvalue": min_eig,
                "trace": trace,
                "purity_surrogate": surrogate,
                "hermiticity_residue": herm,
            }
        )
    return EtaScanResult(entries)
