"""Exception types shared across the toolkit."""


class MatlenError(Exception):
    """Base class for all toolkit errors: the CLI prints `label: message` and exits `exit_code`."""

    exit_code = 2
    label = "error"


class Unsupported(MatlenError):
    """The instance lies outside the supported regime."""

    exit_code = 3
    label = "unsupported instance"


class DimensionMismatch(MatlenError):
    """Matrix orders (or vector/ambient dimensions) are incompatible."""


class FieldMismatch(MatlenError):
    """Operands live over different prime fields."""


class NotPrime(MatlenError):
    """Requested modulus is not a prime number."""


class ModulusTooLarge(Unsupported):
    """Modulus exceeds the 2^20 cap under which int64 and float64 arithmetic stays exact."""


class AccumulatorOverflow(MatlenError):
    """Exact accumulation over F_p would exceed int64 for this dimension and modulus."""


class Singular(MatlenError):
    """Matrix inversion requested for a rank-deficient matrix."""


class NotSplit(Unsupported):
    """A minimal polynomial does not factor into linear terms over F_p."""


class CharPolyNotSplit(NotSplit):
    """Jordan block sizes do not account for the full order n."""


class CertificateMismatch(MatlenError):
    """A certificate's witness rank differs from the rank its Jordan profile predicts."""


class EmptySet(MatlenError):
    """A generating set must contain at least one matrix."""


class BudgetExceeded(MatlenError):
    """An enumeration guard (word count or level cap) was exceeded."""


class InvalidK(MatlenError):
    """Rank-one span level below the bound's admissible range (k < 2)."""


class SizeMismatch(Unsupported):
    """Jordan block sizes do not sum to the requested order."""


class FamilyHypothesisViolated(Unsupported):
    """Prescribed Jordan structure contradicts the instance family's hypothesis."""


class GenerationRetriesExhausted(Unsupported):
    """Random instance construction failed to produce a generating set."""


class ParseError(MatlenError):
    """Malformed instance file or report input."""
