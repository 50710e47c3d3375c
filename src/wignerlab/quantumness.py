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
  along p.  They are built on the support block only, the n_x rows and
  n_p columns holding a sample above eps max |a| (:func:`grid.support_box`):
  M (n_x + n_p) exponentials for M samples, and M(M - 1) n_x n_p / 2
  products, however large the grid around the block.
* A Hessian necessary condition at the origin of the eta-free reduced
  transform: -f''(0) + i eta J / 2 >= 0, the uncertainty matrix of the
  raw second moments (:func:`_uncertainty_spectrum`, as for Gaussians).

Zero and non-finite eta are refused.  A negative eta flips the sign of
the transforms; the Gaussian test reads |eta|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .errors import ParameterError, ValidationError, require_memory
from .grid import Grid, PhaseSpaceFunction, dual_grid, peak_pairing, support_box
from .symplectic import j_matrix, symplectic_eigenvalues
from .wigner import quantized_density

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
        if np.max(np.abs(self.sigma - self.sigma.T)) > 1e-10 * np.max(np.abs(self.sigma)):
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

    Read off the two marginals and one bilinear form (see :func:`_moments`);
    a complex ``W`` is refused (:meth:`grid.PhaseSpaceFunction.real_values`).
    """
    values = W.real_values()
    mass = float(np.sum(values) * W.area_element)
    if abs(mass - 1.0) > 1e-3:
        raise ValidationError(f"distribution mass is {mass}, expected 1")
    mean, sigma = _moments(values, W.x_grid.points, W.p_grid.points)
    return CovarianceMatrix(sigma, mean, 1)


def _uncertainty_spectrum(sigma: np.ndarray, eta: float):
    """(minimum eigenvalue, spectral norm) of (Sigma + Sigma^T) / 2 + i |eta| J / 2,
    whose conjugate (the sign of eta flipped) has the same eigenvalues."""
    n = sigma.shape[0] // 2
    vals = np.linalg.eigvalsh(0.5 * (sigma + sigma.T) + 0.5j * abs(eta) * j_matrix(n))
    return float(vals[0]), float(max(-vals[0], vals[-1]))


def gaussian_admissible(sigma: np.ndarray, eta: float) -> dict:
    """Quantum admissibility of a Gaussian covariance matrix at eta.

    The verdict is |eta| <= 2 lambda_min (1 + r), with positivity and
    lambda_min from :func:`symplectic_eigenvalues`.  The equivalent form,
    min eig >= -r ||Sigma + i eta J / 2||, takes its own eigensolve; r = 1e-10.
    A squeezed Sigma shrinks the matrix margin, so ValidationError is raised
    only when one form passes and the other fails, each beyond its band.
    Also reports the (weaker) per-mode Robertson-Schrodinger checks.  Zero
    and non-finite eta, and a Sigma with a non-finite entry, are refused
    with ``ParameterError``.
    """
    eta = _nonzero_eta(eta)
    sigma = np.asarray(sigma, dtype=float)
    if not np.all(np.isfinite(sigma)):
        raise ParameterError("covariance matrix has non-finite entries")
    try:
        lam_min = float(symplectic_eigenvalues(sigma)[0])
    except ValidationError:
        lam_min = None
    matrix_min, matrix_norm = _uncertainty_spectrum(sigma, eta)
    out = {
        "positive_definite": lam_min is not None,
        "matrix_min_eigenvalue": matrix_min,
        "rs_checks": robertson_schrodinger_checks(sigma, eta),
        "lambda_min": lam_min,
        "admissible": False,
    }
    if lam_min is not None:
        r = 1e-10  # relative, so (t Sigma, t eta) has the verdict of (Sigma, eta)
        lam_pass = abs(eta) < 2.0 * lam_min * (1.0 - r)
        lam_fail = abs(eta) > 2.0 * lam_min * (1.0 + r)
        matrix_pass, matrix_fail = matrix_min > r * matrix_norm, matrix_min < -r * matrix_norm
        if (lam_pass and matrix_fail) or (lam_fail and matrix_pass):
            raise ValidationError(
                "admissibility criteria disagree: "
                f"2 lambda_min = {2 * lam_min}, matrix min eig = {matrix_min}"
            )
        out["admissible"] = not lam_fail
    return out


def robertson_schrodinger_checks(sigma: np.ndarray, eta: float) -> list:
    """Per-mode checks dx_j dp_j >= sqrt(cov(x_j,p_j)^2 + eta^2/4), to 1e-12 relative.

    The verdict compares both sides in units of one power of two, the
    largest of their terms, so it is the unscaled comparison bit for bit
    wherever that neither overflows nor underflows, and holds at any scale.
    ``lhs`` and ``rhs`` are reported unscaled, inf beyond the float range.
    """
    sigma = np.asarray(sigma, dtype=float)
    eta = np.float64(eta)
    n = sigma.shape[0] // 2
    checks = []
    for j in range(n):
        var_x, var_p = sigma[j, j], sigma[n + j, n + j]
        cov = sigma[j, n + j]
        lhs, cov2, eta2 = _scaled_products([(var_x, var_p, 0), (cov, cov, 0), (eta, eta, -2)])
        rhs = cov2 + eta2
        ok = lhs >= rhs - 1e-12 * max(lhs, rhs)
        with np.errstate(over="ignore"):
            lhs, rhs = var_x * var_p, cov**2 + eta**2 / 4.0
        checks.append({"mode": j, "lhs": float(lhs), "rhs": float(rhs), "ok": bool(ok)})
    return checks


def _scaled_products(terms: list) -> list:
    """The products a b 2^k of the terms (a, b, k), each divided by 2^E, E
    the largest exponent among the nonzero ones.  The mantissa products
    round as the unscaled products do, and none overflows."""
    parts = [(*math.frexp(a), *math.frexp(b), k) for a, b, k in terms]
    top = max((ea + eb + k for ma, ea, mb, eb, k in parts if ma and mb), default=0)
    return [math.ldexp(ma * mb, ea + eb + k - top) for ma, ea, mb, eb, k in parts]


#: points per block of :func:`_quadrature_transform`; bounds its memory
_POINT_CHUNK = 256


def _support_block(a: PhaseSpaceFunction, values: np.ndarray):
    """(block, x, p, box): a copy of the support block of ``values`` and its points.

    The box is :func:`grid.support_box` at rtol = machine epsilon: every
    sample left out is at most eps max |a|, so no sum above round-off moves.
    In the copy each subnormal sample, 0 < |v| < tiny (a real or an
    imaginary part), is read as 0: a Gaussian squeezed 10x and turned by
    45 degrees holds 239 of them inside its 256 x 73 box at N = 256, and
    the BLAS product of :func:`_quadrature_transform` runs several times
    slower on them.  Their products with the phases of unit modulus stay
    below tiny, under half an ulp of any sum above 2^53 tiny (about
    2e-292), so no such sum moves.
    """
    rows, cols = support_box(values, np.finfo(float).eps)
    block = values[rows, cols].copy()
    parts = block.view(float)  # a complex block as its real and imaginary parts
    parts[np.abs(parts) < np.finfo(float).tiny] = 0.0
    return block, a.x_grid.points[rows], a.p_grid.points[cols], (rows, cols)


def _quadrature_transform(values: np.ndarray, ex: np.ndarray, ep: np.ndarray) -> np.ndarray:
    """sum over i, k of ex[i, w] values[i, k] ep[k, w], one sum per column w.

    This is the one contraction behind every symplectic Fourier transform at
    arbitrary points.  Because sigma(w, z') = w_p x' - w_x p', the kernel
    exp(-i scale sigma(w, z')) factors into two 1-D phases, the columns
    ex[:, w] = exp(-i scale w_p x) and ep[:, w] = exp(i scale w_x p), and
    the double sum is one matrix product and one column-wise dot product.
    The callers pass the n_x x n_p support block of :func:`_support_block`,
    whose subnormal samples read as 0, and build the phases on its points
    only: :func:`reduced_transform` and :func:`sigma_transform_at` per
    point, :func:`klm_matrix` as products of per-sample phases.  A block of
    w columns costs w n_x n_p products, whatever the grid around the
    support.  Real ``values`` multiply the interleaved real and imaginary
    parts of ``ep`` in one real product, so no complex copy of the samples
    is made.  Callers pass at most ``_POINT_CHUNK`` columns at a time,
    which keeps memory O(chunk (n_x + n_p)).
    """
    if np.iscomplexobj(values):
        inner = values @ ep
    else:
        inner = (values @ ep.view(float)).view(complex)
    return np.einsum("iw,iw->w", ex, inner)


def _transform_at(a: PhaseSpaceFunction, points, scale: float) -> np.ndarray:
    """sum over z' of exp(-i sigma(w, z') scale) a(z') dz' at points w.

    The sum runs over the support block of ``a`` (:func:`_support_block`),
    so a sample left out is at most eps max |a| and a subnormal one reads as
    0.  Builds the phases of each block of ``_POINT_CHUNK`` points on the
    block's points: M (n_x + n_p) exponentials and M n_x n_p products for M
    points on an n_x x n_p block, instead of M N^2 exponentials on the
    N x N grid.  No FFT is involved, so any pair of x and p grids works.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    block, x, p, _ = _support_block(a, a.values)
    out = np.empty(len(points), dtype=complex)
    for start in range(0, len(points), _POINT_CHUNK):
        chunk = points[start : start + _POINT_CHUNK]
        ex = np.exp(-1j * scale * np.outer(x, chunk[:, 1]))
        ep = np.exp(1j * scale * np.outer(p, chunk[:, 0]))
        out[start : start + _POINT_CHUNK] = _quadrature_transform(block, ex, ep)
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


def _klm_matrix(a: PhaseSpaceFunction, block, x, p, total: float, points, eta: float):
    """The KLM matrix of :func:`klm_matrix` from the support block of a real ``a``.

    ``block``, ``x`` and ``p`` are the block and its points as
    :func:`_support_block` returned them, and ``total`` the sum of the
    samples of ``a`` over the whole grid, which the diagonal reads.
    """
    xs, ps = points[:, 0], points[:, 1]
    sx = np.exp(-1j / eta * np.outer(x, ps))
    sp = np.exp(1j / eta * np.outer(p, xs))
    rows, cols = np.triu_indices(len(points), 1)
    upper = np.empty(len(rows), dtype=complex)
    for start in range(0, len(rows), _POINT_CHUNK):
        j, k = rows[start : start + _POINT_CHUNK], cols[start : start + _POINT_CHUNK]
        # np.take keeps the blocks C-contiguous, as the real product needs
        ex = np.take(sx, k, axis=1).conj()
        ex *= np.take(sx, j, axis=1)
        ep = np.take(sp, k, axis=1).conj()
        ep *= np.take(sp, j, axis=1)
        upper[start : start + _POINT_CHUNK] = _quadrature_transform(block, ex, ep)
    scale = a.area_element / (2.0 * np.pi * eta)
    # sigma(z_j, z_k) = p_j x_k - x_j p_k
    upper *= np.exp(0.5j / eta * (ps[rows] * xs[cols] - xs[rows] * ps[cols])) * scale
    matrix = np.empty((len(points), len(points)), dtype=complex)
    matrix[rows, cols] = upper
    matrix[cols, rows] = upper.conj()
    np.fill_diagonal(matrix, total * scale)
    return matrix


def klm_matrix(a: PhaseSpaceFunction, points, eta: float) -> np.ndarray:
    """The sampled KLM matrix exp(i sigma(z_j, z_k) / 2 eta) a_sigma(z_j - z_k).

    ``a`` must be real (:meth:`grid.PhaseSpaceFunction.real_values`), so
    a_sigma(-w) is the conjugate of a_sigma(w) and a_sigma(0) is the mass
    over 2 pi eta.  So a_sigma is transformed at the M(M - 1)/2 differences
    with j < k only, the lower triangle holds their conjugates and the
    diagonal the exact mass term, summed over the whole grid: the matrix is
    Hermitian bit for bit.  The pairs read the n_x x n_p support block of
    ``a`` (:func:`_support_block`: the samples above eps max |a|, the
    subnormal ones read as 0).  The phases of z_j - z_k are products of
    per-sample phases on the block's points, sx[:, j] conj(sx[:, k]) with
    sx[i, j] = exp(-i p_j x_i / eta) and likewise sp[k, j] = exp(i x_j p_k
    / eta) along p: M (n_x + n_p) exponentials.  The pairs go through
    :func:`_quadrature_transform` in blocks of ``_POINT_CHUNK``, at
    M(M - 1) n_x n_p / 2 products in all.
    """
    eta = _nonzero_eta(eta)
    values = a.real_values()
    block, x, p, _ = _support_block(a, values)
    return _klm_matrix(a, block, x, p, np.sum(values), np.asarray(points, dtype=float), eta)


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
    """(values, total): the real samples of ``a`` themselves and their sum,
    refused unless of unit mass."""
    values = a.real_values()
    total = np.sum(values)
    mass = float(total * a.area_element)
    if abs(mass - 1.0) > 1e-6:
        raise ValidationError(f"phase-space mass is {mass}, expected 1")
    return values, total


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
    The KLM matrix is that of :func:`klm_matrix`, transformed at the
    M(M - 1)/2 pair differences only, with phases built from per-sample
    phases, and filled by its Hermitian symmetry.  The support block of
    ``a`` (:func:`_support_block`) is found once and read by the matrix and
    by the Hessian check, which takes one set of moments off the block
    (:func:`_moments`), as the ball's radius takes one of |a| on the block;
    the diagonal reads the sum that the unit-mass check took.  The part of
    |a| outside the block, over the whole grid, is summed for the dropped
    mass.  ``details`` records the ball's "radius", the kept "support_rows"
    and "support_cols" of the N x N_p grid as [start, stop) and the
    "dropped_mass", Int |a| dz over the samples outside the block: it bounds
    2 pi |eta| times the change that leaving them out made to any entry of
    the matrix.

    Zero or non-finite eta, a non-integer (or bool) ``samples`` below 2 and
    a negative or non-integer ``seed`` are refused with ParameterError
    before any work.  :func:`errors.require_memory` then refuses the working
    set before anything is allocated, counted for a block as large as the
    N x N grid, so that it bounds every block.  It counts two float N x N
    arrays, the most of the grid-sized ones that live at once: |a| with the
    boolean mask that find the support box, the block with the |block| and
    the boolean mask that find its subnormal samples, the block with the
    |block| that the ball's radius reads, or the block with the |a| that the
    dropped mass reads.  It adds the two per-sample phase arrays with the
    temporaries that build them (four complex samples x N), one pair block
    (four complex ``_POINT_CHUNK`` x N arrays: the two phases, a gathered
    column block and the product with the samples) and four complex
    samples x samples arrays (the pair indices, the transformed pairs, the
    matrix and the eigensolver's copy).
    """
    eta = _nonzero_eta(eta)
    samples = _check_count("samples", samples, 2)
    seed = _check_count("seed", seed, 0)
    n = max(a.x_grid.n, a.p_grid.n)
    require_memory(
        18 * n * n + 16 * (4 * samples * n + 4 * _POINT_CHUNK * n + 4 * samples**2),
        f"KLM matrices for {samples} samples",
    )
    values, total = _check_unit_mass(a)
    block, x, p, (rows, cols) = _support_block(a, values)
    _, spread = _moments(np.abs(block), x, p)
    magnitude = np.abs(values)
    magnitude[rows, cols] = 0.0  # the samples outside the block, summed as they are
    dropped = float(np.sum(magnitude)) * a.area_element
    del magnitude
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
    matrix = _klm_matrix(a, block, x, p, total, points, eta)
    eigenvalues = np.linalg.eigvalsh(matrix)
    min_eig = float(eigenvalues[0])
    # the spectral norm of a Hermitian matrix is its largest |eigenvalue|
    tol = 1e-8 * float(max(-eigenvalues[0], eigenvalues[-1]))
    # the diagonal is the exact a_sigma(0) = mass / (2 pi eta)
    continuity = abs(matrix[0, 0] - 1.0 / (2.0 * np.pi * eta))
    # -f''(0) / f(0) is J^T (Sigma + mean mean^T) J, the exact raw second moments
    mean, sigma = _moments(block, x, p)
    hess_min = _uncertainty_spectrum(sigma + np.outer(mean, mean), eta)[0]
    ok = min_eig >= -tol and hess_min >= -1e-8 * max(1.0, abs(eta))
    return KLMReport(
        points=points,
        min_eigenvalue=min_eig,
        tolerance=tol,
        hessian_min_eigenvalue=hess_min,
        continuity_residual=float(continuity),
        verdict="no violation found" if ok else "violation",
        seed=seed,
        details={"radius": radius, "dropped_mass": dropped, "support_rows": [rows.start, rows.stop],
                 "support_cols": [cols.start, cols.stop]},
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

    Each eta reads the report, at the PSD floor 1e-8, of rho_eta =
    (2 pi eta) Op_eta(a) / Tr (:func:`wigner.quantized_density` of ``a``,
    which must be real; an entry's "trace" is Tr, which is Int a).  The purity
    (2 pi eta) Int a^2 / Tr^2 of rho_eta must stay <= 1 for an admissible
    eta, and equals 1 only for a pure state.  Int a^2 is summed in the peak
    unit of a (:func:`grid.peak_pairing`), so scaling x and p by lambda and
    eta by lambda^2, which scales a by 1/lambda^2, does not push the squares
    out of the float range.
    """
    eta_list = list(eta_list)
    if not eta_list:
        raise ParameterError("eta list must not be empty")
    values = _check_unit_mass(a)[0]
    square = float(peak_pairing(values, values, a.area_element, "the purity of a scanned function"))
    entries = []
    for eta in eta_list:
        eta = float(eta)
        # the density itself is not kept: its kernel is freed before the next eta
        report, trace = quantized_density(a, eta, 1e-8)[1:]
        surrogate = 2.0 * np.pi * eta / trace * square / trace
        if not (report.ok and surrogate <= 1.0 + 1e-6):
            verdict = "inadmissible"
        elif surrogate >= 1.0 - 1e-6:
            verdict = "pure"
        else:
            verdict = "mixed"
        entries.append(
            {
                "eta": eta,
                "verdict": verdict,
                "min_eigenvalue": report.min_eigenvalue,
                "trace": trace,
                "purity_surrogate": surrogate,
                "hermiticity_residue": report.hermiticity_residue,
            }
        )
    return EtaScanResult(entries)
