"""Exception types shared across the library."""


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
    """Refuse a working set of ``nbytes`` (counted by the caller) above the budget."""
    if nbytes > _MEMORY_LIMIT_BYTES:
        limit = _MEMORY_LIMIT_BYTES / 2**30
        raise ParameterError(f"{nbytes / 2**30:.1f} GiB of {what} (limit {limit:.0f} GiB)")
