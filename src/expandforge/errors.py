"""Exception taxonomy shared across the package, and the count check.

Each class maps to one failure kind named in the public contracts, so tests
and the CLI can match on type rather than message text.
"""


class ExpandForgeError(Exception):
    """Base class for all package errors."""


class ParameterError(ExpandForgeError):
    """An argument value is outside its documented range."""


class ShapeError(ExpandForgeError):
    """Array dimensions do not line up."""


class SimplexError(ExpandForgeError):
    """A vector that must be a probability distribution is not one."""


class NumericInputError(ExpandForgeError):
    """Non-finite values where finite reals are required."""


class DegenerateVectorError(ExpandForgeError):
    """A vector with near-zero norm where a direction is required."""


class RankError(ExpandForgeError):
    """Training data rank is too low for the requested basis size."""


class CoverageError(ExpandForgeError):
    """A class is missing exemplars or samples it must have."""


class FormatError(ExpandForgeError):
    """A serialized file does not follow its container format."""


class InputError(ExpandForgeError):
    """An input collection is empty or otherwise unusable."""


class NumericDivergenceError(ExpandForgeError):
    """The optimization objective became non-finite."""


def check_count(name: str, value, low: int | None, high: int | None = None) -> None:
    """Raise ParameterError unless value is an int in [low, high], a None
    bound left open: the one rule for every count and seed argument."""
    # a bool is an int to isinstance, but no count or seed
    if (isinstance(value, bool) or not isinstance(value, int)
            or (low is not None and value < low) or (high is not None and value > high)):
        bound = "" if low is None else f" >= {low}" if high is None else f" in [{low}, {high}]"
        raise ParameterError(f"{name} must be an int{bound}, got {value!r}")
