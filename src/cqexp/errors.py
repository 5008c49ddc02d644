"""Exception types shared by the library and the CLI.

The CLI maps these onto exit codes: validation errors exit 2, numerical
failures exit 3, resource-cap violations exit 4.
"""


class CqexpError(Exception):
    """Base class for all library errors."""


class InvalidOperator(CqexpError):
    """Input matrix violates a structural precondition (e.g. not Hermitian)."""


class NotPSD(CqexpError):
    """Matrix has an eigenvalue below the negativity tolerance."""


class DimensionError(CqexpError):
    """Operator dimensions are inconsistent with the declared factorization."""


class InvalidSequence(CqexpError):
    """Sequence contains a letter outside the alphabet."""


class InvalidGrid(CqexpError):
    """Rate grid is not strictly increasing or lies outside (0, C)."""


class InfiniteDivergence(CqexpError):
    """Support condition violated where a finite minimizer is required."""


class NotClassical(CqexpError):
    """Operation requires mutually commuting channel outputs."""


class NumericalInstability(CqexpError):
    """A numerical check failed: an unconverged prior solve, or inconsistent exponent bounds."""


class RateAboveCapacity(CqexpError):
    """Requested rate is at or above channel capacity."""


class TooLarge(CqexpError):
    """Requested computation exceeds a configured resource cap."""


class InvalidChannelSpec(CqexpError):
    """Channel description file failed to parse or validate."""
