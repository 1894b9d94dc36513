"""Exception types shared across the package."""


class HoweError(Exception):
    """Base class for all errors raised by this package."""


class MixedFieldsError(HoweError, TypeError):
    """Operands belong to different fields."""


class DivisionByZeroError(HoweError, ZeroDivisionError):
    """Division or inversion of a zero field element."""


class UnsupportedFieldError(HoweError):
    """Operation not defined over the given field kind."""


class UnsupportedDegreeError(HoweError):
    """Factorization over Q found a squarefree factor of degree >= 4 with no
    rational root; only rational roots and a remaining factor of degree <= 3
    are supported."""


class BothZeroError(HoweError):
    """gcd of two zero polynomials."""


class ZeroPolynomialError(HoweError):
    """Operation requires a nonzero polynomial."""


class DuplicateRamificationPointError(HoweError, ValueError):
    """Two of the eight branch values coincide."""

    def __init__(self, first: str, second: str, value):
        self.first = first
        self.second = second
        self.value = value
        super().__init__(f"duplicate ramification point: {first} == {second} == {value}")


class InfinityNotSupportedError(HoweError, ValueError):
    """Branch values must be finite."""


class NotSingularError(HoweError):
    """First-order vanishing conditions fail at the candidate point."""


class MultiplicityExceedsTwoError(HoweError):
    """All second partials vanish at a singular point; indicates an upstream bug."""


class BudgetExceededError(HoweError):
    """Exhaustive scan would exceed the configured point-evaluation budget."""


class ConstructionMismatchError(HoweError):
    """The two independent derivations of the sextic disagree."""
