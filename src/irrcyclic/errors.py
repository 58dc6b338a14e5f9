"""Exception types shared across the package, the size limits, the gates,
and the base of the package's records.

The limits and gates live here, away from the numpy-backed field layer, so
the closed-form paths refuse an oversize enumeration without loading it.
DEFAULT_ENUM_BUDGET is the default of the one size knob, `--budget`;
TOWER_CAP is a fixed bound on the fields a tower is ever built for.
"""

from operator import attrgetter

DEFAULT_ENUM_BUDGET = 1 << 22
TOWER_CAP = 1 << 26


class _Record:
    """Base of the package's records: plain classes, so that importing them
    compiles no generated code.

    A subclass lists its fields in constructor order as `__slots__`, and the
    constructor here binds its arguments to them by position or keyword.  A
    slot whose name starts with an underscore is not a field (and "__dict__"
    only makes room for cached properties).  A record that checks or derives
    values writes its own `__init__`, which checks, passes its fields on to
    `super().__init__` and sets only its underscored slots itself, through
    `object.__setattr__`.  A record compares and hashes as the tuple of its
    fields, prints as Name(field=value, ...), pickles through its
    constructor, and refuses assignment and deletion.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls._values = attrgetter(*cls._fields)
        # each field's slot setter, called directly: object.__setattr__ would
        # look the slot up again for every field of every record built
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            values = dict(zip(fields, args), **kwargs)
            if len(values) != len(args) + len(kwargs) or values.keys() != set(fields):
                raise TypeError(f"{type(self).__qualname__}() takes {', '.join(fields)};"
                                f" got {len(args)} positional and keywords {sorted(kwargs)}")
            args = [values[name] for name in fields]
        for put, value in zip(self._setters, args):
            put(self, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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
