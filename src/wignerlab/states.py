"""Operators and density matrices at finite grid resolution.

An operator with kernel K(x, y) acts on a grid function as
(A psi)_j = sum_k K[j, k] psi_k dx, so composing operators multiplies the
kernels with a dx weight and the trace is the dx-weighted diagonal sum.
Density matrices add the Hermitian / positive / unit-trace checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ValidationError, require_memory
from .grid import Grid, GridFunction

__all__ = [
    "OperatorMatrix",
    "MixedStateSpec",
    "DensityMatrix",
    "ValidationReport",
    "pure_density",
    "mix",
    "state_stats",
    "validate_density",
]

#: relative eigenvalue floor for "positive semidefinite at machine precision"
PSD_RTOL = 1e-10

#: columns per block when a kernel is compared with its transpose: a block
#: of rows read transposed stays in cache, where reading a whole N = 512
#: kernel transposed touches a new page at every element
_TILE = 64

#: width of the first range basis of a kernel's spectrum; it doubles until
#: certified, and from N / 2 on the basis is the identity
_SKETCH_RANK = 32

#: a range basis is certified when its residual is at most this fraction of
#: the PSD floor times the largest |eigenvalue|
_CERTIFY = 0.1


@dataclass
class OperatorMatrix:
    """Dense kernel K(x_j, y_k) of an operator on the grid."""

    grid: Grid
    kernel: np.ndarray
    eta: float

    def __post_init__(self):
        self.kernel = np.asarray(self.kernel, dtype=complex)
        n = self.grid.n
        if self.kernel.shape != (n, n):
            raise ParameterError(
                f"kernel shape {self.kernel.shape} does not match grid size {n}"
            )
        if not np.all(np.isfinite(self.kernel)):
            raise ParameterError("operator kernel contains non-finite entries")

    @property
    def dx(self) -> float:
        return self.grid.dx

    def apply(self, psi: GridFunction) -> GridFunction:
        if not psi.grid.matches(self.grid):
            raise ParameterError("grid mismatch between operator and state")
        return GridFunction(self.grid, self.kernel @ psi.values * self.dx, self.eta)

    def compose(self, other: "OperatorMatrix") -> "OperatorMatrix":
        """Operator product self . other."""
        if not other.grid.matches(self.grid):
            raise ParameterError("grid mismatch between operators")
        return OperatorMatrix(self.grid, self.kernel @ other.kernel * self.dx, self.eta)

    def trace(self) -> complex:
        return complex(np.trace(self.kernel) * self.dx)

    def hs_norm_squared(self) -> float:
        return float(np.sum(np.abs(self.kernel) ** 2) * self.dx**2)

    def hermiticity_residue(self) -> float:
        kernel = self.kernel
        scale = float(np.max(np.abs(kernel))) or 1.0
        residue = 0.0
        for j in range(0, self.grid.n, _TILE):
            block = kernel[:, j : j + _TILE] - kernel[j : j + _TILE, :].conj().T
            residue = max(residue, float(np.max(np.abs(block))))
        return residue / scale


@dataclass
class MixedStateSpec:
    """Statistical mixture {(weight_j, psi_j)} with weights summing to one."""

    components: list

    def __post_init__(self):
        if not self.components:
            raise ParameterError("mixture needs at least one component")
        total = 0.0
        first = self.components[0][1]
        for weight, psi in self.components:
            if weight < 0.0:
                raise ParameterError(f"negative mixture weight {weight}")
            psi.require_normalized()
            psi.require_compatible(first)
            total += weight
        if abs(total - 1.0) > 1e-12:
            raise ParameterError(f"mixture weights sum to {total}, expected 1")


@dataclass
class ValidationReport:
    """What :func:`validate_density` measured; the spectrum is descending.

    It holds the ``rank`` eigenvalues of the operator on a range basis of
    that many columns and N - rank exact zeros.  Each eigenvalue of the
    Hermitian part lies within ``certificate``, the Frobenius residual of
    the basis, of its entry (Weyl's inequality).
    """

    hermiticity_residue: float
    eigenvalues: np.ndarray
    trace_diagonal: complex
    certificate: float
    rank: int
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def trace_eigenvalues(self) -> float:
        return float(np.sum(self.eigenvalues))

    @property
    def trace_discrepancy(self) -> float:
        return abs(self.trace_diagonal - self.trace_eigenvalues)


@dataclass
class DensityMatrix:
    """Validated density operator: Hermitian, positive, unit trace.

    ``factors``, when set, is a pair (U, V) of N x r arrays with kernel
    U V^H; :func:`mix` keeps U = Psi^T diag(w) and V = Psi^T.
    """

    op: OperatorMatrix
    report: ValidationReport
    factors: tuple | None = None

    @property
    def grid(self) -> Grid:
        return self.op.grid

    @property
    def eta(self) -> float:
        return self.op.eta

    @property
    def kernel(self) -> np.ndarray:
        return self.op.kernel


def _sketch(n: int, r: int) -> np.ndarray:
    """The fixed n x r sketch of a range basis: unit phases exp(2 pi i u).

    u is the top 53 bits of the splitmix64 hash of the entry's index
    k n + j, so the sketch is closed-form: the same in every run, column k
    the same for every r, and no random generator is imported.
    """
    z = np.arange(1, n + 1, dtype=np.uint64)[:, None] + np.arange(r, dtype=np.uint64) * np.uint64(n)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return np.exp(2j * np.pi * 2.0**-53 * (z >> np.uint64(11)))


def _spectrum(herm: np.ndarray, psd_floor: float):
    """Descending spectrum of a Hermitian N x N array from a range basis Q.

    Returns (eigenvalues, certificate, rank).  Q is the orthonormal basis of
    H Omega for the fixed sketch Omega of ``rank`` columns
    (Halko, Martinsson & Tropp, SIAM Rev. 53, 2011).  The eigenvalues of
    B = Q^H H Q, padded with N - rank zeros, match those of H to within the
    certificate ||H - Q B Q^H||_F (Weyl's inequality), which is summed over
    blocks of ``_TILE`` columns so that no N x N temporary is made.  The
    rank starts at ``_SKETCH_RANK`` and doubles until the certificate is at
    most ``_CERTIFY`` psd_floor max |eigenvalue|.  From N / 2 on a sketch
    cannot win: Q is the identity, B = H and the certificate is zero.
    """
    n = len(herm)
    rank = _SKETCH_RANK
    while rank < n // 2:
        basis = np.linalg.qr(herm @ _sketch(n, rank))[0]
        small = basis.conj().T @ (herm @ basis)
        vals = np.linalg.eigvalsh(small)
        residual = 0.0
        for j in range(0, n, _TILE):
            cols = slice(j, j + _TILE)
            block = herm[:, cols] - basis @ (small @ basis[cols].conj().T)
            residual += np.vdot(block, block).real
        certificate = float(np.sqrt(residual))
        if certificate <= _CERTIFY * psd_floor * float(np.max(np.abs(vals))):
            return np.sort(np.concatenate([vals, np.zeros(n - rank)]))[::-1], certificate, rank
        rank *= 2
    return np.linalg.eigvalsh(herm)[::-1], 0.0, n


def validate_density(op: OperatorMatrix, strict: bool = False, psd_floor: float = PSD_RTOL):
    """Check the density-matrix axioms and return the report.

    The report keeps the spectrum and the diagonal-sum trace; the
    eigenvalue-sum trace is read off the spectrum.  The two traces always
    agree for a finite matrix, but their continuum counterparts need not, so
    the discrepancy is surfaced as a diagnostic.
    ``psd_floor`` is the relative eigenvalue floor; reconstructions with
    known ringing pass a looser one.  With ``strict`` a failing operator
    raises instead.  The Hermitian part H = (K + K^H)/2 is formed once, in
    blocks of ``_TILE`` columns: the Hermiticity residue max |K - K^H| is
    2 max |K - H|.  The spectrum is that of H on a certified range basis
    (:func:`_spectrum`): a numerically low-rank kernel takes a sketch of a
    few dozen columns and one small eigensolve, and a full-rank one the
    N x N eigensolve.  The report keeps the basis rank and its certificate,
    which is at most a tenth of the PSD floor times the largest |eigenvalue|.

    :func:`errors.require_memory` refuses the working set first: the
    Hermitian part and at most one more N x N complex array (the
    eigensolver's copy of H, or the sketch, H Omega, Q and H Q, each
    N x N/4 at most), and two column blocks, 32 (N^2 + _TILE N) bytes.
    """
    n = op.grid.n
    require_memory(32 * (n * n + _TILE * n), f"spectrum of a kernel at N = {n}")
    kernel = op.kernel
    herm_part = np.empty_like(kernel)
    scale, residue = 0.0, 0.0
    for j in range(0, n, _TILE):
        cols = slice(j, j + _TILE)
        block = np.add(kernel[cols, :].conj().T, kernel[:, cols], out=herm_part[:, cols])
        block *= 0.5
        scale = max(scale, float(np.max(np.abs(kernel[:, cols]))))
        residue = max(residue, float(np.max(np.abs(kernel[:, cols] - block))))
    vals, certificate, rank = _spectrum(herm_part, psd_floor)
    herm = 2.0 * residue / (scale or 1.0)
    return _judge(op, herm, vals * op.dx, certificate * op.dx, rank, strict, psd_floor)


def _judge(
    op: OperatorMatrix, herm: float, vals: np.ndarray, certificate: float, rank: int,
    strict: bool, psd_floor: float,
):
    """The report of an operator from its Hermiticity residue and spectrum."""
    tr_diag = op.trace()
    report = ValidationReport(herm, vals, tr_diag, certificate, rank)
    scale = float(np.max(np.abs(vals))) or 1.0
    if herm > 1e-10:
        report.violations.append(f"hermiticity residue {herm:.3e} exceeds 1e-10")
    if vals[-1] < -psd_floor * scale:
        report.violations.append(
            f"minimum eigenvalue {vals[-1]:.3e} below the PSD floor"
        )
    if abs(tr_diag - 1.0) > 1e-8:
        report.violations.append(f"trace {tr_diag} differs from 1 beyond 1e-8")
    if strict and not report.ok:
        raise ValidationError("; ".join(report.violations))
    return report


def pure_density(psi: GridFunction) -> DensityMatrix:
    """Rank-one projector |psi><psi| of a normalized state: the one-term mixture."""
    return mix(MixedStateSpec([(1.0, psi)]))


def mix(spec: MixedStateSpec) -> DensityMatrix:
    """Convex mixture sum_j w_j |psi_j><psi_j| as one product (Psi^T w) Psi^*.

    Psi stacks the r component states (r x N).  The density matrix keeps
    the factors U = Psi^T diag(w) and V = Psi^T of its kernel U V^H, from
    which the Wigner maps write their half-step correlation.  For r < N the
    factors are the range basis of the spectrum: the r x r Gram matrix
    diag(sqrt w) Psi^* Psi^T diag(sqrt w) dx has the nonzero eigenvalues of
    the kernel times dx, padded with N - r exact zeros, so the report has
    rank r and certificate 0; the Hermiticity residue and the trace are read
    off the kernel.  For r >= N :func:`validate_density` certifies a range
    basis of the kernel, the identity when it has full rank.

    :func:`errors.require_memory` refuses the working set before anything is
    allocated: the r x N stack Psi, its weighted copy and its conjugate, the
    N x N kernel, at most two more N x N complex arrays while the kernel is
    validated (for r >= N the Hermitian part and the eigensolver's copy of
    it or the sketch) and two freed ones the allocator may keep resident,
    that is 16 (5 N^2 + 3 r N) bytes.
    """
    weights, states = zip(*spec.components)
    n, r = states[0].grid.n, len(states)
    require_memory(16 * (5 * n * n + 3 * r * n), f"density matrix of {r} states at N = {n}")
    rows = np.array([psi.values for psi in states])  # Psi: one state per row
    u, v = rows.T * weights, rows.T
    kernel = np.matmul(u, v.conj().T)  # by name, so a test can stub it
    op = OperatorMatrix(states[0].grid, kernel, states[0].eta)
    if r >= n:
        return DensityMatrix(op, validate_density(op, strict=True), (u, v))
    roots = np.sqrt(weights)
    gram = np.matmul(roots[:, None] * rows.conj(), rows.T * roots) * op.dx
    vals = np.zeros(n)
    vals[:r] = np.linalg.eigvalsh(gram)
    vals = np.sort(vals)[::-1]
    report = _judge(op, op.hermiticity_residue(), vals, 0.0, r, strict=True, psd_floor=PSD_RTOL)
    return DensityMatrix(op, report, (u, v))


def state_stats(rho: DensityMatrix) -> dict:
    """Trace and von Neumann entropy from the validated spectrum, purity
    Tr rho^2 from the Frobenius norm of the kernel.

    The Frobenius norm counts the whole kernel, whatever the rank of the
    report's range basis.  The verdict is the report's, taken at the PSD
    floor the density was validated at: a report with violations raises
    them.  Negative eigenvalues the report allowed are clamped to zero
    before the entropy sum (0 ln 0 = 0); the clamped total is reported.
    """
    if not rho.report.ok:
        raise ValidationError("; ".join(rho.report.violations))
    vals = rho.report.eigenvalues
    clamped = float(-np.sum(vals[vals < 0.0]))
    vals = np.clip(vals, 0.0, None)
    positive = vals[vals > 0.0]
    return {
        "trace": float(np.sum(vals)),
        "purity": rho.op.hs_norm_squared(),
        "entropy": float(-np.sum(positive * np.log(positive))),
        "clamped": clamped,
    }
