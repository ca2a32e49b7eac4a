"""Exception hierarchy of branchzeta; caller input read by exact_int and exact_rational."""

from fractions import Fraction

# Bits allowed to the exact integers of one kernel evaluation, counted before any
# is formed (0.1 s at the bound on a 2-core VM), and to a rational read from text.
MAX_BITS = 1 << 19


def exact_int(value) -> int:
    """int(value), or ValueError naming value where int() would change it
    (1.5, Fraction(3, 2)); a str and an integral float still convert."""
    if (k := int(value)) != value and not isinstance(value, (str, bytes)):
        raise ValueError(f"{value} is not an integer")
    return k


def exact_rational(x, max_bits: int = MAX_BITS) -> Fraction:
    """Fraction(x); text is sized first, at 10/3 bits a digit and an exponent
    counted as its value (9 digits of it pass), and refused over max_bits.
    A zero denominator, as in "1/0", raises ValueError."""
    if isinstance(x, str):
        mantissa, _, exp = x.lower().partition("e")
        exp = exp.strip().lstrip("+-").replace("_", "").lstrip("0")[:9]
        digits = len(mantissa) + (int(exp) if exp.isdecimal() else 0)
        if 10 * digits > 3 * max_bits:
            raise DomainError(f"about {digits} digits, over the bound of {max_bits} bits")
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"{x!r} has a zero denominator") from None


class BranchZetaError(Exception):
    """Base class for every error raised by this package."""


class InvalidCharSeq(BranchZetaError):
    """Characteristic-sequence invariants fail (ordering or gcd chain)."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class NotPlaneBranchSemigroup(BranchZetaError):
    """Generator list fails the plane-branch semigroup characterization."""

    def __init__(self, failed_condition: str, conditions: tuple = ()):
        super().__init__(failed_condition)
        self.failed_condition = failed_condition
        self.conditions = conditions  # the validation report's checks, if any


class NotInSemigroup(BranchZetaError):
    """Requested integer has no representation in the semigroup."""


class IndexOutOfRange(BranchZetaError):
    """Step or contact index outside 1..g (or vector length mismatch)."""


class InvalidIndices(BranchZetaError):
    """Bell-polynomial indices violate 1 <= k <= nu or wrong x length."""


class PreconditionViolated(BranchZetaError):
    """Structural precondition broken (e.g. u + v not an integer)."""


class DomainError(BranchZetaError):
    """Parameters outside the operation's mathematical domain."""


class ConvergenceFailure(BranchZetaError):
    """Quadrature subdivision budget exhausted before reaching tolerance;
    levels holds the refinement levels [inner, shell, tail] at the raise."""

    def __init__(self, message: str, levels: list[int] | None = None):
        super().__init__(message)
        self.levels = levels


class NegativeCoefficient(BranchZetaError):
    """A finalized exponent multiset came out with a negative multiplicity."""

    def __init__(self, exponent, multiplicity: int):
        super().__init__(f"multiplicity {multiplicity} < 0 at exponent {exponent}")
        self.exponent = exponent
        self.multiplicity = multiplicity


class InvalidCutoff(BranchZetaError):
    """Deformation weight cutoff below the minimum admissible weight."""


class ZeroLambda(BranchZetaError):
    """A deformation family scale factor lambda_i is zero."""
