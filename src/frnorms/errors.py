"""Exception types shared across the package."""


class FrnormsError(Exception):
    """Base class for all package errors."""


class InputError(FrnormsError):
    """Invalid input data or parameters (CLI exit code 2)."""


class DimensionError(InputError):
    """Matrix is not square or has inconsistent dimensions."""


class ShapeError(InputError):
    """Direct-sum shapes of two objects do not match."""


class WeightError(InputError):
    """Tracial weight vector is invalid."""


class PartitionError(InputError):
    """Refined partition terms do not tile the summand dimension."""


class GroupingError(InputError):
    """Slot grouping violates the block identification rules."""


class UnitarityError(InputError):
    """Matrix required to be unitary is not."""


class RationalityError(InputError):
    """Continued-fraction remainder vanished: input is rational to working precision."""


class ConvergenceError(FrnormsError):
    """LAPACK eigensolver failed to converge (CLI exit code 3)."""
