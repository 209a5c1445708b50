"""Exception taxonomy shared across the package.

Every error raised on a bad input or an out-of-budget computation derives
from BCHLabError so callers (and the CLI) can catch one type.  Names state
the violated precondition.
"""


class BCHLabError(Exception):
    """Base class for all package errors."""


class NotCoprime(BCHLabError):
    """gcd(q, rn) != 1, so q-cyclotomic cosets mod rn are undefined."""


class BadDelta(BCHLabError):
    """Designed distance outside the constructible range 2 <= delta <= n."""


class BadFamilyParams(BCHLabError):
    """(q, m, family) violates a family precondition (parity, residue class)."""


class NotEnoughCosets(BCHLabError):
    """A requested k-th largest coset leader does not exist."""


class OrderNotDividing(BCHLabError):
    """No primitive N-th root of unity: N does not divide the group order."""


class FactorizationTooLarge(BCHLabError):
    """Integer factorization exceeded the trial-division + rho budget."""


class ExtensionTooLarge(BCHLabError):
    """Required extension degree exceeds code_core.MAX_EXT_DEGREE."""


class ClassTooLarge(BCHLabError):
    """A leader map would hold more residues than cyclotomic's cap, or
    the class positions of a defining set would overflow int64."""


class SearchBudgetExceeded(BCHLabError):
    """A distance is left open past the check-matrix search's node cap;
    the message names the interval proven, if there is one."""


class UnknownExample(BCHLabError):
    """verify_example got an id that is not in the registry."""


class NoCaseMatched(BCHLabError):
    """No piecewise formula row matched a delta inside the stated domain."""


class MultipleCasesMatched(BCHLabError):
    """More than one piecewise row matched (the rows must partition)."""


class UnsupportedM(BCHLabError):
    """The closed form is not stated for this m (e.g. m % 4 == 0, cyclic)."""


class UnsupportedQ(BCHLabError):
    """The closed form needs a different residue class of q (e.g. 3 mod 4)."""


class Phi3Unavailable(BCHLabError):
    """The third-largest odd leader formula requires q^m >= 25."""


class DeltaOutOfRange(BCHLabError):
    """delta is outside the closed form's stated window."""


class EmptySet(BCHLabError):
    """An operation that needs a nonempty set got an empty one."""


class CoefficientNotInSubfield(BCHLabError):
    """A polynomial coefficient expected in the base subfield is not there."""
