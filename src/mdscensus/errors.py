"""Exception types shared across the package."""


class MdsError(Exception):
    """Base class for every error raised by this package."""


class NonPrimeCharacteristic(MdsError):
    """The requested field characteristic is not prime."""


class UnsupportedSize(MdsError):
    """The requested field order exceeds the supported cap."""


class NonPrimePower(MdsError):
    """A field order was given that is not a prime power."""


class FieldMismatch(MdsError):
    """Operands belong to different fields or are not valid encodings."""


class DivisionByZero(MdsError):
    """Multiplicative inverse of zero requested."""


class BadIndex(MdsError):
    """A column multi-index is out of range or of the wrong size."""


class RankDeficient(MdsError):
    """A matrix that must have full row rank does not."""


class ShapeMismatch(MdsError):
    """Operands have incompatible shapes or ambient parameters."""


class DegreeMismatch(MdsError):
    """Exterior-algebra degrees are incompatible for the operation."""


class ZeroInput(MdsError):
    """The zero vector/form was passed where a nonzero one is required."""


class DimensionMismatch(MdsError):
    """Subspace dimensions are incompatible for the operation."""


class ExactnessViolation(MdsError):
    """An internal exactness cross-check failed; indicates a bug."""


class DivisibilityViolation(ExactnessViolation):
    """An exact integer division that is guaranteed by theory failed."""


def exact_quotient(num, den, what):
    """num // den, which theory says is exact; DivisibilityViolation naming
    `what` when a remainder is left."""
    quotient, remainder = divmod(num, den)
    if remainder:
        raise DivisibilityViolation(f"{what}: {num} / {den} is not an integer")
    return quotient


class OutOfRange(MdsError):
    """A numeric parameter lies outside the operation's domain."""


class BudgetExceeded(MdsError):
    """The estimated work exceeds the configured candidate budget."""

    def __init__(self, estimate, budget, what=""):
        self.estimate = estimate
        self.budget = budget
        self.what = what
        detail = f" for {what}" if what else ""
        super().__init__(
            f"estimated work {estimate}{detail} exceeds budget {budget}"
        )
