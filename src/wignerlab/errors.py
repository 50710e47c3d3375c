"""Exception types shared across the library, its memory budget, its
overflow guard and its plans."""

import mmap
import threading
from collections import OrderedDict
from contextlib import contextmanager

import numpy as np


class WignerlabError(ValueError):
    """Base class for all library errors."""


class ConfigurationError(WignerlabError):
    """Invalid grid or experiment configuration."""


class ParameterError(WignerlabError):
    """Mismatched grids, eta parameters, or out-of-range arguments."""


class ValidationError(WignerlabError):
    """An object failed its mathematical validity checks."""


class NormalizationError(ValidationError):
    """A state or distribution does not carry the required mass/norm."""


class NotFreeError(ParameterError):
    """Symplectic matrix has a singular upper-right block."""


#: the largest working set, in bytes, that one library call may allocate
_MEMORY_LIMIT_BYTES = 2 * 2**30


def require_memory(nbytes: int, what: str):
    """Refuse a working set of ``nbytes`` (counted by the caller) above the budget.

    The count is one call's working set.  Plans (:func:`plan`) outlive the
    call that built them and are held apart from it, at most
    ``_PLAN_LIMIT_BYTES`` (32 MiB) in all; the call that builds a plan
    counts it as part of its own working set.  A size of a million GiB or
    more prints in ``%.3g`` form, so an astronomical count stays one short
    line.
    """
    if nbytes > _MEMORY_LIMIT_BYTES:
        limit = _MEMORY_LIMIT_BYTES / 2**30
        gib = nbytes / 2**30
        size = f"{gib:.3g}" if gib >= 1e6 else f"{gib:.1f}"
        raise ParameterError(f"{size} GiB of {what} (limit {limit:.0f} GiB)")


@contextmanager
def refuse_overflow(what: str):
    """Run a block whose float64 result must be representable: an overflow,
    or an invalid value it leads to, raises one ``ParameterError`` naming
    ``what`` in place of numpy's RuntimeWarnings and inf or nan samples."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError:
        raise ParameterError(f"{what} overflows the float64 range") from None


#: the bytes of plans held across calls, in least-recently-used order
_PLAN_LIMIT_BYTES = _MEMORY_LIMIT_BYTES // 64

_plans: OrderedDict = OrderedDict()
_plans_lock = threading.Lock()


class PlanParts(tuple):
    """A plan of several read-only arrays, sized as one."""

    @property
    def nbytes(self) -> int:
        return sum(array.nbytes for array in self)


def plan_buffer(shape, dtype=float) -> np.ndarray:
    """An uninitialised array in an anonymous mapping of its own, outside the
    malloc heap, for a plan's build to write its result into.

    A held plan outlives every call; in the heap it sits among the
    short-lived arrays of the calls that read it and decides where they
    land.  With the foreign-eta plans in the heap, the admissibility bench
    round at N = 256 handed its lag tables and kernels back to the system
    and faulted them in again on every call, 1,315 minor page faults per
    round; with the plans mapped apart, none.  A build that writes into the
    mapping leaves no freed copy of its result resident in the heap.  The
    range sketch of ``validate_density``, a few columns, stays in the heap:
    mapped apart it raised the peak resident set of ``wignerlab tomography
    --N 512`` by 0.2 MB and saved no fault.
    """
    dtype = np.dtype(dtype)
    count = int(np.prod(shape))
    return np.frombuffer(mmap.mmap(-1, max(count * dtype.itemsize, 1)), dtype, count).reshape(shape)


def plan(build, *args):
    """The array ``build(*args)``, read-only, held across calls.

    A plan is an array that depends only on its arguments (a grid and eta,
    never a symbol's values), or a tuple of such arrays, held as
    :class:`PlanParts`, so a call that repeats them reads the held
    array bit for bit instead of building it again; the first call pays the
    build.  Plans are held under one lock, at most ``_PLAN_LIMIT_BYTES`` in
    all, the least recently used dropped first; a larger plan is built on
    every call and never held.  A build may write its arrays into
    :func:`plan_buffer`, outside the malloc heap.  The build runs outside
    the lock, so two threads may build one plan at once, to the same bits.
    """
    key = (build, *args)
    with _plans_lock:
        held = _plans.get(key)
        if held is not None:
            _plans.move_to_end(key)
            return held
    built = build(*args)
    if isinstance(built, tuple):
        built = PlanParts(built)
    for array in built if isinstance(built, tuple) else (built,):
        array.flags.writeable = False
    with _plans_lock:
        if built.nbytes <= _PLAN_LIMIT_BYTES:
            _plans[key] = built
            total = sum(held.nbytes for held in _plans.values())
            while total > _PLAN_LIMIT_BYTES:
                total -= _plans.popitem(last=False)[1].nbytes
    return built
