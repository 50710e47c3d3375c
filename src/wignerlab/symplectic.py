"""Symplectic linear algebra and metaplectic (quadratic Fourier) operators.

Phase-space coordinates are ordered z = (x_1..x_n, p_1..p_n), with the
standard form sigma(z, z') = p x' - p' x, i.e. J = [[0, I], [-I, 0]].

A free symplectic matrix (invertible upper-right block B) carries the
generating function

    A(x, x') = 1/2 P x.x - Q x.x' + 1/2 R x'.x'
    P = D B^-1,  Q = B^-1,  R = B^-1 A

and lifts to the quadratic Fourier transform

    S_{A,m} psi(x) = (2 pi eta)^(-n/2) i^(m - n/2) sqrt|det B^-1|
                     Int exp(i A(x, x')/eta) psi(x') dx'

with m = 0 if det B^-1 > 0 and m = 1 otherwise.  On a uniform grid its
Riemann sum is chirp(P) . chirp-z(Q) . chirp(R).  The same operator also
factors into elementary chirp / rescale / Fourier steps (a generator word).
"""

from __future__ import annotations

from dataclasses import dataclass
import warnings

import numpy as np

from .errors import NotFreeError, ParameterError, ValidationError
from .grid import Grid, GridFunction
from .transforms import chirp_z, eta_fourier, refine

__all__ = [
    "j_matrix",
    "blocks",
    "is_symplectic",
    "require_symplectic",
    "chirp_matrix",
    "rescale_matrix",
    "fourier_matrix",
    "symplectic_eigenvalues",
    "WilliamsonData",
    "williamson",
    "GeneratingFunction",
    "free_generating_function",
    "MetaplecticSpec",
    "metaplectic_matrix",
    "metaplectic_apply",
]

SYMPLECTIC_TOL = 1e-10
#: relative round-off allowed at the grid edges when resampling a word step
_EDGE_RTOL = 1e-12


def j_matrix(n: int) -> np.ndarray:
    """Standard symplectic form J = [[0, I], [-I, 0]]."""
    eye = np.eye(n)
    zero = np.zeros((n, n))
    return np.block([[zero, eye], [-eye, zero]])


def _dimension(S: np.ndarray) -> int:
    S = np.asarray(S)
    if S.ndim != 2 or S.shape[0] != S.shape[1] or S.shape[0] % 2:
        raise ParameterError(f"expected an even square matrix, got shape {S.shape}")
    return S.shape[0] // 2


def blocks(S: np.ndarray):
    """Upper-left A, upper-right B, lower-left C, lower-right D blocks."""
    n = _dimension(S)
    S = np.asarray(S, dtype=float)
    return S[:n, :n], S[:n, n:], S[n:, :n], S[n:, n:]


def is_symplectic(S: np.ndarray):
    """(verdict, residual) with residual = max |S^T J S - J|."""
    n = _dimension(S)
    S = np.asarray(S, dtype=float)
    J = j_matrix(n)
    residual = float(np.max(np.abs(S.T @ J @ S - J)))
    return residual <= SYMPLECTIC_TOL, residual


def require_symplectic(S: np.ndarray, tol: float = SYMPLECTIC_TOL) -> np.ndarray:
    ok, residual = is_symplectic(S)
    if residual > tol:
        raise ValidationError(f"matrix is not symplectic (residual {residual:.3e})")
    return np.asarray(S, dtype=float)


def chirp_matrix(P) -> np.ndarray:
    """Symplectic matrix [[I, 0], [P, I]] of the chirp exp(i P x.x / 2 eta)."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    if np.max(np.abs(P - P.T)) > 1e-12:
        raise ParameterError("chirp matrix P must be symmetric")
    n = P.shape[0]
    return np.block([[np.eye(n), np.zeros((n, n))], [P, np.eye(n)]])


def rescale_matrix(L) -> np.ndarray:
    """Symplectic matrix [[L^-1, 0], [0, L^T]] of psi(x) -> sqrt|det L| psi(Lx)."""
    L = np.atleast_2d(np.asarray(L, dtype=float))
    if abs(np.linalg.det(L)) < 1e-12:
        raise ParameterError("rescale matrix L must be invertible")
    n = L.shape[0]
    return np.block(
        [[np.linalg.inv(L), np.zeros((n, n))], [np.zeros((n, n)), L.T]]
    )


def fourier_matrix(n: int = 1) -> np.ndarray:
    return j_matrix(n)


def _symplectic_spectrum(sigma: np.ndarray):
    """Symplectic eigenvalues of Sigma, ascending, with their frame: two eigh.

    Sigma must be finite, symmetric and positive definite.  The eigh of
    Sigma decides positive definiteness and gives the root M = Sigma^(1/2).
    The Hermitian i W, W = Sigma^(-1/2) J Sigma^(-1/2), has eigenvalues
    +-1 / lambda_j; returns (lambda, V, M), V the eigenvectors of the
    positive half, ordered with lambda.
    """
    sigma = np.asarray(sigma, dtype=float)
    n = _dimension(sigma)
    if not np.all(np.isfinite(sigma)):
        raise ValidationError("covariance matrix must be finite")
    if np.max(np.abs(sigma - sigma.T)) > 1e-10 * max(1.0, np.max(np.abs(sigma))):
        raise ValidationError("covariance matrix must be symmetric")
    vals, vecs = np.linalg.eigh(0.5 * (sigma + sigma.T))
    if vals[0] <= 0.0:
        raise ValidationError("covariance matrix must be positive definite")
    M, Minv = [(vecs * vals**power) @ vecs.T for power in (0.5, -0.5)]
    kappa, V = np.linalg.eigh(1j * Minv @ j_matrix(n) @ Minv)
    # positive half, largest kappa first, so lambda = 1 / kappa ascends
    return 1.0 / kappa[n:][::-1], V[:, n:][:, ::-1], M


def symplectic_eigenvalues(sigma: np.ndarray) -> np.ndarray:
    """Williamson's lambda_j of a positive definite Sigma, ascending: the
    moduli of the +-i lambda_j eigenvalue pairs of J Sigma."""
    return _symplectic_spectrum(sigma)[0]


@dataclass
class WilliamsonData:
    """Factorization Sigma = S^T D S with S symplectic, D = diag(L, L)."""

    S: np.ndarray
    eigenvalues: np.ndarray  # ascending

    @property
    def D(self) -> np.ndarray:
        return np.diag(np.concatenate([self.eigenvalues, self.eigenvalues]))


def williamson(sigma: np.ndarray) -> WilliamsonData:
    """Williamson normal form of a positive definite matrix, for every n.

    Each eigenvector v_j of :func:`_symplectic_spectrum` is phased so that
    (M v_j)_j = i |(M v_j)_j|, which makes S[n + j, j] = 0 < S[j, j]; at
    n = 1 that is the upper-triangular factor.
    """
    lam, V, M = _symplectic_spectrum(sigma)
    n = len(lam)
    if np.any(np.diff(lam) < 1e-12):
        warnings.warn("near-degenerate symplectic eigenvalues; factor may be ill-conditioned")
    V = V * np.exp(1j * (0.5 * np.pi - np.angle(np.diagonal(M[:n] @ V))))
    # W (Im v, Re v) = kappa (-Re v, Im v), so sqrt(2) (Im v, Re v) spans the 2-plane
    Q = np.sqrt(2.0) * np.hstack([V.imag, V.real])
    S = (M @ Q / np.sqrt(np.concatenate([lam, lam]))).T
    require_symplectic(S, tol=1e-9)
    return WilliamsonData(S, lam)


@dataclass
class GeneratingFunction:
    """Quadratic generating function of a free symplectic matrix."""

    P: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    def value(self, x, xp) -> float:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        xp = np.atleast_1d(np.asarray(xp, dtype=float))
        return float(
            0.5 * x @ self.P @ x - x @ self.Q @ xp + 0.5 * xp @ self.R @ xp
        )

    def gradients(self, x, xp):
        """(p, p') from p = dA/dx and p' = -dA/dx'."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        xp = np.atleast_1d(np.asarray(xp, dtype=float))
        return self.P @ x - self.Q @ xp, self.Q.T @ x - self.R @ xp


def free_generating_function(S: np.ndarray) -> GeneratingFunction:
    S = require_symplectic(S)
    A, B, C, D = blocks(S)
    if abs(np.linalg.det(B)) < 1e-12:
        raise NotFreeError(
            "upper-right block B is singular, so the matrix is not free; compose two "
            "free factors (e.g. S = (S J) J^-1) and supply a generator word instead"
        )
    Binv = np.linalg.inv(B)
    P, Q, R = D @ Binv, Binv, Binv @ A
    if max(np.max(np.abs(P - P.T)), np.max(np.abs(R - R.T))) > 1e-10:
        raise ValidationError("generating-function blocks failed symmetry check")
    return GeneratingFunction(P, Q, R)


@dataclass
class MetaplecticSpec:
    """A metaplectic operator, as a free matrix or a generator word.

    Word steps (applied first to last):
      ("chirp", P)       multiply by exp(i P x^2 / 2 eta)       -> [[1,0],[P,1]]
      ("rescale", L, m)  i^m sqrt|L| psi(L x)                   -> [[1/L,0],[0,L]]
      ("fourier",)       i^(-1/2) F_eta                          -> J
    """

    matrix: np.ndarray | None = None
    word: list | None = None

    @classmethod
    def free(cls, S: np.ndarray) -> "MetaplecticSpec":
        free_generating_function(S)
        return cls(matrix=np.asarray(S, dtype=float))

    @classmethod
    def from_word(cls, word: list) -> "MetaplecticSpec":
        if not word:
            raise ParameterError("generator word must not be empty")
        return cls(word=list(word))

    @classmethod
    def free_as_word(cls, S: np.ndarray) -> "MetaplecticSpec":
        """Generator word realizing the quadratic Fourier transform of S."""
        gen = free_generating_function(S)
        m = 0 if np.linalg.det(gen.Q) > 0 else 1
        return cls(word=[("chirp", gen.R), ("fourier",), ("rescale", gen.Q, m), ("chirp", gen.P)])


def _apply_chirp(psi: GridFunction, P) -> GridFunction:
    P = float(np.atleast_2d(P)[0, 0])
    phase = np.exp(1j * P * psi.grid.points**2 / (2.0 * psi.eta))
    return GridFunction(psi.grid, phase * psi.values, psi.eta)


def _resample(values: np.ndarray, grid: Grid, start: float, step: float) -> np.ndarray:
    """Band-limited interpolant of grid samples at start + j step, j = 0 .. N-1.

    One chirp-z sums two rows: the frequencies 0 .. N/2, and 0 .. -N/2
    conjugated, with the DC and Nyquist coefficients split evenly between
    them, so real samples resample to real values.  Indexing each row from
    frequency 0 keeps the chirp phases of the low frequencies, where a smooth
    state's weight lies, small: a single row over -N/2 .. N/2 with the
    post-phase exp(-i pi N t) was 5 to 25x less accurate at N = 1024.  Points
    outside [x_min, x_max) read zero, as for a decaying function; the edges
    carry a round-off tolerance, so the dual grid of a self-dual grid, which
    may start one rounding above x_min, keeps its first sample.
    """
    n = grid.n
    half = n // 2
    spec = np.fft.fft(values)
    rows = np.stack([spec[: half + 1], spec[-np.arange(half + 1)].conj()])
    rows[:, [0, half]] *= 0.5
    t = (start + step * np.arange(n) - grid.x_min) / grid.length
    out = chirp_z(rows, n, 2.0 * np.pi * step / grid.length, 2.0 * np.pi * t[0])
    out = (out[0] + out[1].conj()) / n
    out[(t < -_EDGE_RTOL) | (t >= 1.0 - _EDGE_RTOL)] = 0.0
    return out


def _apply_rescale(psi: GridFunction, L, m: int = 0) -> GridFunction:
    L = float(np.atleast_2d(L)[0, 0])
    if not 0.25 <= abs(L) <= 4.0:
        raise ParameterError(f"|L| = {abs(L)} outside the supported range [1/4, 4]")
    grid = psi.grid
    values = _resample(psi.values, grid, L * grid.x_min, L * grid.dx)
    values *= (1j) ** (m % 4) * np.sqrt(abs(L))
    return GridFunction(grid, values, psi.eta)


def _apply_fourier(psi: GridFunction) -> GridFunction:
    # F_eta psi lives on the dual grid; resample it onto the position grid
    phi = eta_fourier(psi)
    grid = psi.grid
    values = _resample(phi.values, phi.grid, grid.x_min, grid.dx)
    values *= np.exp(-0.25j * np.pi)  # i^(-1/2), principal branch, n = 1
    return GridFunction(grid, values, psi.eta)


# generator step: (its symplectic matrix, its action on a state), both
# called with the step's parameters; a rescale's phase index m has no matrix
_STEPS = {
    "chirp": (chirp_matrix, _apply_chirp),
    "rescale": (lambda L, m=0: rescale_matrix(L), _apply_rescale),
    "fourier": (lambda: fourier_matrix(1), _apply_fourier),
}


def _step(step):
    try:
        return _STEPS[step[0]]
    except KeyError:
        raise ParameterError(f"unknown generator step {step[0]!r}") from None


def metaplectic_matrix(spec: MetaplecticSpec) -> np.ndarray:
    """The symplectic matrix underneath a metaplectic spec."""
    if spec.matrix is not None:
        return np.asarray(spec.matrix, dtype=float)
    S = None
    for step in spec.word:
        M = _step(step)[0](*step[1:])
        S = M if S is None else M @ S
    return S


def metaplectic_apply(spec: MetaplecticSpec, psi: GridFunction) -> GridFunction:
    """Apply a metaplectic operator to a state (one degree of freedom).

    Free matrices evaluate the Riemann sum of the quadratic Fourier transform
    as chirp(P) . chirp-z . chirp(R); generator words apply their elementary
    steps in sequence.
    """
    if spec.word is None:
        matrices = [np.asarray(spec.matrix, dtype=float)]
    else:
        matrices = [_step(step)[0](*step[1:]) for step in spec.word]
    if any(M.shape != (2, 2) for M in matrices):
        raise ParameterError("grid-based metaplectic application supports n = 1 only")
    if spec.word is not None:
        out = psi
        for step in spec.word:
            out = _step(step)[1](out, *step[1:])
        return out
    gen = free_generating_function(matrices[0])
    eta = psi.eta
    grid = psi.grid
    P, Q, R = gen.P[0, 0], gen.Q[0, 0], gen.R[0, 0]
    m = 0 if Q > 0 else 1
    # The integrand is psi times a chirp whose local frequency reaches
    # (|Q| + |R|) L / 2 eta, so the x' quadrature needs band-limited
    # oversampling before its Riemann sum is exact.
    chirp_band = (abs(Q) + abs(R)) * grid.length * grid.dx
    factor = 1 + int(np.ceil(chirp_band / (2.0 * np.pi * eta)))
    dxf = grid.dx / factor
    xf = grid.x_min + np.arange(factor * grid.n) * dxf
    fine_vals = refine(psi.values, factor) * np.exp(0.5j * R * xf**2 / eta)
    # -Q x_j x'_l = -Q x_min x_j - Q x_min dx' l - Q dx dx' j l
    summed = chirp_z(fine_vals, grid.n, -Q * grid.dx * dxf / eta, -Q * grid.x_min * dxf / eta)
    x = grid.points
    prefactor = (
        (2.0 * np.pi * eta) ** -0.5
        * np.exp(0.5j * np.pi * (m - 0.5))
        * np.sqrt(abs(Q))
        * dxf
    )
    values = prefactor * np.exp(1j * (0.5 * P * x**2 - Q * grid.x_min * x) / eta) * summed
    return GridFunction(grid, values, eta)
