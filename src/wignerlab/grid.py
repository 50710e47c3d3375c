"""Uniform 1-D grids and the sampled function containers built on them.

Position grids carry ``n`` points ``x_j = x_min + j dx`` with
``dx = (x_max - x_min) / n``.  Once a positive action parameter ``eta`` is
attached, the dual momentum grid is the centered grid with spacing
``dp = 2 pi eta / (n dx)``; all discrete transforms in this library keep
that duality so forward/inverse Fourier pairs land back on the same grid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConfigurationError, NormalizationError, ParameterError, refuse_overflow, require_memory
)

__all__ = [
    "Grid",
    "GridFunction",
    "PhaseSpaceFunction",
    "WignerResult",
    "make_grid",
    "dual_grid",
    "boundary_leak",
]

#: relative tolerance used when comparing grids / eta values for identity
_MATCH_RTOL = 1e-12

#: absolute tolerance on a unit trace, and on ||psi||^2 = Tr |psi><psi|
TRACE_ATOL = 1e-8


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform grid of ``n`` points on ``[x_min, x_max)``: a finite length
    and a positive spacing ``dx``, or ``ParameterError``."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if not (np.isfinite(self.length) and self.dx > 0.0):
            raise ParameterError(
                f"box [{self.x_min}, {self.x_max}) of {self.n} points "
                "has no finite, positive spacing"
            )

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    @property
    def points(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n)

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @property
    def is_centered(self) -> bool:
        return abs(self.x_min + self.x_max) <= _MATCH_RTOL * self.length

    def matches(self, other: "Grid") -> bool:
        scale = max(self.length, other.length)
        return (
            self.n == other.n
            and abs(self.x_min - other.x_min) <= _MATCH_RTOL * scale
            and abs(self.x_max - other.x_max) <= _MATCH_RTOL * scale
        )


def make_grid(x_min: float, x_max: float, n: int) -> Grid:
    """Build a validated grid; ``n`` must be a power of two >= 16.

    A grid is refused (:func:`errors.require_memory`) before anything is
    allocated when one complex state on it, 16 N bytes, and the buffers of
    one 1-D transform of that state, 48 N bytes, exceed the budget: 64 N
    bytes in all, so N <= 2^25 is accepted.
    """
    if not isinstance(n, (int, np.integer)):
        raise ConfigurationError(f"point count must be an integer, got {n!r}")
    if not _is_power_of_two(int(n)) or n < 16:
        raise ConfigurationError(f"point count must be a power of two >= 16, got {n}")
    if not (np.isfinite(x_min) and np.isfinite(x_max)):
        raise ConfigurationError(f"grid bounds must be finite, got [{x_min}, {x_max}]")
    if not (x_max > x_min):
        raise ConfigurationError(f"degenerate interval [{x_min}, {x_max}]")
    require_memory(64 * int(n), f"a state and one transform of it at N = {n}")
    return Grid(float(x_min), float(x_max), int(n))


def _check_eta(eta: float) -> float:
    eta = float(eta)
    if not eta > 0.0 or not np.isfinite(eta):
        raise ParameterError(f"eta must be a positive real number, got {eta}")
    return eta


def dual_grid(grid: Grid, eta: float) -> Grid:
    """Centered momentum grid dual to ``grid``: spacing ``2 pi eta/(n dx)``."""
    eta = _check_eta(eta)
    dp = 2.0 * np.pi * eta / (grid.n * grid.dx)
    half = 0.5 * grid.n * dp
    try:
        return Grid(-half, half, grid.n)
    except ParameterError as exc:
        raise ParameterError(
            f"at eta = {eta}, the dual of [{grid.x_min}, {grid.x_max}): {exc}"
        ) from None


@dataclass
class GridFunction:
    """Complex function sampled on a :class:`Grid` with attached ``eta``."""

    grid: Grid
    values: np.ndarray
    eta: float

    def __post_init__(self):
        self.eta = _check_eta(self.eta)
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.grid.n,):
            raise ParameterError(
                f"values shape {self.values.shape} does not match grid size {self.grid.n}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ParameterError("grid function contains non-finite samples")

    @property
    def dx(self) -> float:
        return self.grid.dx

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2) * self.dx)

    def norm(self) -> float:
        return float(np.sqrt(self.norm_squared()))

    def inner(self, other: "GridFunction") -> complex:
        """dx-weighted inner product, antilinear in ``self``."""
        self.require_compatible(other)
        return complex(np.vdot(self.values, other.values) * self.dx)

    def normalized(self) -> "GridFunction":
        nrm = self.norm()
        if nrm == 0.0:
            raise NormalizationError("cannot normalize the zero function")
        return replace(self, values=self.values / nrm)

    def require_normalized(self):
        norm_squared = self.norm_squared()
        if abs(norm_squared - 1.0) > TRACE_ATOL:
            raise NormalizationError(f"state norm squared is {norm_squared}, expected 1")

    def require_compatible(self, other: "GridFunction"):
        if not self.grid.matches(other.grid):
            raise ParameterError("grid mismatch between grid functions")
        if abs(self.eta - other.eta) > _MATCH_RTOL * max(self.eta, other.eta):
            raise ParameterError("eta mismatch between grid functions")


@dataclass
class PhaseSpaceFunction:
    """Function on the ``x_grid`` x ``p_grid`` lattice (axis 0 = x, axis 1 = p).

    ``kind`` tags how the values should be interpreted: ``"wigner"`` for
    (real) Wigner distributions, ``"symbol"`` for Weyl symbols,
    ``"ambiguity"`` for ambiguity functions and ``"generic"`` otherwise.
    Realness is the dtype, decided by the producer: real samples are kept
    as float64 (a float64 array as it is), complex ones become complex128.
    A consumer that needs real values reads :meth:`real_values`, which
    refuses complex ones, however small their imaginary part.  The boundary
    leak is read off the samples, never stored.
    """

    x_grid: Grid
    p_grid: Grid
    values: np.ndarray
    eta: float
    kind: str = "generic"

    KINDS = ("wigner", "symbol", "ambiguity", "generic")

    def __post_init__(self):
        self.eta = _check_eta(self.eta)
        values = np.asarray(self.values)
        self.values = values.astype(complex if np.iscomplexobj(values) else float, copy=False)
        if self.values.shape != (self.x_grid.n, self.p_grid.n):
            raise ParameterError(
                f"values shape {self.values.shape} does not match grids "
                f"({self.x_grid.n}, {self.p_grid.n})"
            )
        if not np.all(np.isfinite(self.values)):
            raise ParameterError("phase-space function contains non-finite samples")
        if self.kind not in self.KINDS:
            raise ParameterError(f"unknown kind {self.kind!r}")

    @property
    def leak(self) -> float:
        return boundary_leak(self.values)

    @property
    def dx(self) -> float:
        return self.x_grid.dx

    @property
    def dp(self) -> float:
        return self.p_grid.dx

    @property
    def area_element(self) -> float:
        return self.dx * self.dp

    def integral(self) -> complex:
        return complex(np.sum(self.values) * self.area_element)

    def real_values(self) -> np.ndarray:
        """The float64 samples themselves; complex values are refused."""
        if np.iscomplexobj(self.values):
            raise ParameterError(f"{self.kind} function is complex; a real one is needed")
        return self.values

    def require_compatible(self, other: "PhaseSpaceFunction"):
        if not (self.x_grid.matches(other.x_grid) and self.p_grid.matches(other.p_grid)):
            raise ParameterError("phase-space grid mismatch")
        if abs(self.eta - other.eta) > _MATCH_RTOL * max(self.eta, other.eta):
            raise ParameterError("eta mismatch between phase-space functions")

    def meshes(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.x_grid.points, self.p_grid.points, indexing="ij")


class WignerResult(PhaseSpaceFunction):
    """A Wigner distribution: the phase-space function itself, whose ``W``
    property returns it again for callers that still read that name."""

    @property
    def W(self) -> "WignerResult":
        return self


def _peak_unit(values: np.ndarray) -> np.float64:
    """The power of two at or below max |values| (1/2 when every sample is 0).

    Values divided by it peak in [1, 2), so their squares neither overflow
    nor underflow however large or small the samples, and the division is
    exact: values scaled by a power of two give the same quotient.
    """
    return np.ldexp(0.5, np.frexp(np.max(np.abs(values)))[1])


def peak_pairing(a: np.ndarray, b: np.ndarray, weight: float, what: str):
    """weight sum conj(a) b, summed in the peak units of a and b.

    Each array is divided by its unit (:func:`_peak_unit`) before the
    products are summed, and the sum is multiplied by (weight unit_a) unit_b
    last, so a representable pairing is returned whatever the range of its
    terms: the Moyal pairing, an expectation, a squared Hilbert-Schmidt
    norm or a purity.  The units are powers of two, so the result equals
    weight sum conj(a) b wherever that neither overflows nor underflows.
    One that cannot be represented raises one ``ParameterError`` naming
    ``what`` (:func:`errors.refuse_overflow`).
    """
    unit_a = _peak_unit(a)
    unit_b = unit_a if b is a else _peak_unit(b)
    x = a / unit_a
    y = x if b is a else b / unit_b
    total = np.sum(x.conj() * y)
    with refuse_overflow(what):
        return total * (weight * unit_a) * unit_b


def boundary_leak(values: np.ndarray) -> float:
    """Fraction of |values|^2 mass in the outer 5 % of each axis.

    Diagnostic for the assumption that functions are negligible outside the
    grid; every :class:`PhaseSpaceFunction` reports it as ``leak``.  The
    squares are summed in the peak unit of the values (:func:`_peak_unit`),
    so the leak does not depend on their scale.
    """
    magnitude = np.abs(values) / _peak_unit(values)
    total = float(np.sum(magnitude**2))
    if total == 0.0:
        return 0.0
    # the outer 5 % of any axis is all but the inner box
    edges = [max(1, int(np.ceil(0.05 * n))) for n in magnitude.shape]
    mask = np.ones(magnitude.shape, dtype=bool)
    mask[tuple(slice(edge, n - edge) for edge, n in zip(edges, magnitude.shape))] = False
    outer = float(np.sum(magnitude[mask] ** 2))
    return outer / total


def support_box(values: np.ndarray, rtol: float) -> tuple[slice, slice]:
    """(rows, cols): the bounding box of the samples above rtol max |values|.

    The box runs from the first to the last row, and column, that holds a
    sample above the threshold.  Every sample outside it is at most rtol
    max |values|, so a sum over the box differs from the sum over the grid
    by at most the sum of |values| outside it.  When no sample is above, as
    for all-zero values, the whole grid is kept.  :func:`tomography.radon`
    widens this box at its own threshold, and the transforms at arbitrary
    points of :mod:`quantumness` read it at rtol = machine epsilon.
    """
    magnitude = np.abs(values)
    above = magnitude > rtol * np.max(magnitude)
    hits = (above.any(axis=1), above.any(axis=0))
    return tuple(slice(int(np.argmax(h)), h.size - int(np.argmax(h[::-1]))) for h in hits)
