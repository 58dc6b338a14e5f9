"""Exception types shared across the package, the size limits, and the gates.

The limits and gates live here, away from the numpy-backed field layer, so
the closed-form paths refuse an oversize enumeration without loading it.
DEFAULT_ENUM_BUDGET is the default of the one size knob, `--budget`;
TOWER_CAP is a fixed bound on the fields a tower is ever built for.
"""

DEFAULT_ENUM_BUDGET = 1 << 22
TOWER_CAP = 1 << 26


class Error(Exception):
    """Base class for every package-specific error."""


class NotPrime(Error):
    """A parameter that must be prime is not."""


class NotCoprime(Error):
    """Two parameters that must be coprime are not."""


class NotADivisor(Error):
    """A parameter that must divide another does not."""


class EvenPrime(Error):
    """The characteristic must be odd for this operation."""


class ZeroHasNoLog(Error):
    """Discrete logarithm of the zero element was requested."""


class SizeBudgetExceeded(Error):
    """An exact enumeration would exceed the configured size budget."""


class NoRepresentation(Error):
    """The requested diophantine representation does not exist."""


class BadDiscriminant(Error):
    """The discriminant is outside the supported family."""


class IrrationalPeriod(Error):
    """A closed form produced an irrational value where an integer is required."""


class NotSemiprimitive(Error):
    """The semiprimitivity condition p^j = -1 (mod N) has no solution j."""


class NotIndexTwo(Error):
    """The parameters do not satisfy the index-two hypotheses."""


class NonIntegralWeight(Error):
    """A weight formula produced a non-integer; the inputs are inconsistent."""


class OrderNotPrimePower(Error):
    """The multiplicative order is not the required prime power."""


class Unsupported(Error):
    """No closed form applies and exhaustive search is out of budget."""


def require_divisor(N: int, r: int) -> None:
    """Refuse a code or period order N unless N divides r - 1."""
    if N < 1 or (r - 1) % N:
        raise NotADivisor(f"N = {N} does not divide r - 1 = {r - 1}")


def require_tower_size(p: int, d: int) -> None:
    """Refuse to build GF(p^d) when it is larger than TOWER_CAP."""
    if p**d > TOWER_CAP:
        raise SizeBudgetExceeded(f"r = {p}^{d} exceeds the tower budget {TOWER_CAP}")


def require_enum_size(what: str, r: int, budget: int) -> None:
    """Refuse an enumeration of GF(r), named what, when r is larger than budget."""
    if r > budget:
        raise SizeBudgetExceeded(f"{what} at r = {r} exceeds budget {budget}")
