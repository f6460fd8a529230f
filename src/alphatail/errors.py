"""Exception hierarchy shared across the package.

Every error raised by the library derives from :class:`AlphatailError`, so
callers (and the CLI) can distinguish our failures from genuine bugs.
"""

import operator


class AlphatailError(Exception):
    """Base class for all library errors."""


class InvalidParams(AlphatailError, ValueError):
    """A family parameter violates its stated constraint."""


def positive_integer(value, name: str = "n", error: type = InvalidParams, *, zero: bool = False) -> int:
    """``value`` as an int: a positive integer, or a nonnegative one with
    ``zero``, NumPy's included; anything else (a float, NaN, a negative,
    zero unless allowed) raises ``error``."""
    try:
        if (out := operator.index(value)) >= (0 if zero else 1):
            return out
    except TypeError:
        pass
    raise error(f"{name} must be a {'nonnegative' if zero else 'positive'} integer, got {value!r}")


class NormalizationDivergent(InvalidParams):
    """The family's total mass diverges (e.g. a power tail with exponent <= 1)."""


class DepthExceeded(AlphatailError):
    """A constructed family was queried beyond its generation depth."""


class StagesExceeded(InvalidParams):
    """Diffusion construction asked for more stages than the configured maximum."""


class InvalidBase(InvalidParams):
    """A constructed family needs a strictly decreasing, infinite base."""


class FiniteSupport(AlphatailError):
    """Operation requires an infinite-support distribution."""


class ScheduleTooShort(InvalidParams):
    """A sample-size schedule does not span enough points or decades."""


class InvalidV(InvalidParams):
    """Estimator order v outside the admissible range [1, n-1]."""


class SamplerLimit(AlphatailError):
    """A sample larger than the sampler's cap on draws, or a draw past the
    deepest letter it walks."""


class TooLarge(InvalidParams):
    """Exact enumeration was requested beyond the supported instance size."""


class SpecParseError(InvalidParams):
    """A textual family spec could not be parsed."""
