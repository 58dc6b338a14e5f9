"""Closed forms for Gauss sums and Gaussian periods.

Every value here is exact.  Quadratic irrationalities are carried as
(x + y*sqrt(D))/2 pairs; period polynomials carry integer coefficients and,
when the theory pins them down, their integer root multisets.
"""

from __future__ import annotations

import functools
import math
from collections import Counter

from . import numtheory
from .errors import (
    EvenPrime,
    IrrationalPeriod,
    NotIndexTwo,
    NotSemiprimitive,
    _Record,
    require_divisor,
)


class QuadraticValue:
    """Exact (half_x + half_y * sqrt(D)) / 2 with integer halves.

    For D = 1 (mod 4) the ring of integers allows both halves odd, but they
    must share parity; otherwise both must be even.  Closed under + and *.
    """

    __slots__ = ("half_x", "half_y", "D")

    def __init__(self, half_x: int, half_y: int, D: int):
        if D % 4 == 1:
            if (half_x - half_y) % 2:
                raise ValueError("halves must share parity when D = 1 (mod 4)")
        elif half_x % 2 or half_y % 2:
            raise ValueError("halves must be even when D != 1 (mod 4)")
        self.half_x = half_x
        self.half_y = half_y
        self.D = D

    @classmethod
    def from_integer(cls, n: int, D: int) -> "QuadraticValue":
        return cls(2 * n, 0, D)

    @classmethod
    def sqrt_of(cls, D: int) -> "QuadraticValue":
        return cls(0, 2, D)

    def _coerce(self, other):
        if isinstance(other, int):
            return QuadraticValue.from_integer(other, self.D)
        if isinstance(other, QuadraticValue):
            if other.D != self.D:
                raise ValueError("mixed discriminants")
            return other
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadraticValue(self.half_x + other.half_x, self.half_y + other.half_y, self.D)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadraticValue(self.half_x - other.half_x, self.half_y - other.half_y, self.D)

    def __neg__(self):
        return QuadraticValue(-self.half_x, -self.half_y, self.D)

    def __mul__(self, other):
        if isinstance(other, int):
            return QuadraticValue(self.half_x * other, self.half_y * other, self.D)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        x = self.half_x * other.half_x + self.D * self.half_y * other.half_y
        y = self.half_x * other.half_y + self.half_y * other.half_x
        if x % 2 or y % 2:
            raise AssertionError("a product of ring integers must have even halves")
        return QuadraticValue(x // 2, y // 2, self.D)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "QuadraticValue":
        if e < 0:
            raise ValueError("negative powers not supported")
        out = QuadraticValue.from_integer(1, self.D)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def conjugate(self) -> "QuadraticValue":
        return QuadraticValue(self.half_x, -self.half_y, self.D)

    def norm(self) -> int:
        """self * conjugate(self), always an integer: the halves share parity,
        and both are even unless D = 1 (mod 4)."""
        return (self.half_x**2 - self.D * self.half_y**2) // 4

    @property
    def is_rational(self) -> bool:
        return self.half_y == 0

    def as_integer(self) -> int:
        if self.half_y or self.half_x % 2:
            raise ValueError(f"{self!r} is not a rational integer")
        return self.half_x // 2

    def value(self) -> complex:
        root = math.sqrt(self.D) if self.D >= 0 else 1j * math.sqrt(-self.D)
        return (self.half_x + self.half_y * root) / 2

    def __eq__(self, other) -> bool:
        if self.half_y == 0:
            # a rational value compares as the int it equals, whatever D
            return self.half_x // 2 == other
        if isinstance(other, QuadraticValue):
            return (self.half_x, self.half_y, self.D) == (other.half_x, other.half_y, other.D)
        return NotImplemented

    def __hash__(self) -> int:
        if self.half_y == 0:  # a rational value has even halves, and equals that int
            return hash(self.half_x // 2)
        return hash(("QV", self.half_x, self.half_y, self.D))

    def __repr__(self) -> str:
        return f"({self.half_x} + {self.half_y}*sqrt({self.D}))/2"


def quadratic_gauss_sum(p: int, s: int) -> QuadraticValue:
    """Exact Gauss sum of the quadratic character of GF(p^s), odd p.

    Real +-sqrt(q) or imaginary +-sqrt(-q) depending on p mod 4 and the
    parity of s; imaginary values are expressed over sqrt(-p).
    """
    if p == 2:
        raise EvenPrime("the quadratic character needs odd characteristic")
    numtheory.require_prime(p)
    sign = (-1) ** (s - 1)
    if p % 4 == 3:
        # the extra factor is (sqrt(-1))**s: (-1)**(s // 2), times sqrt(-1)
        # when s is odd, which the sqrt(-p) below carries
        sign *= (-1) ** (s // 2)
    if s % 2 == 0:
        return QuadraticValue.from_integer(sign * p ** (s // 2), p)
    root = p if p % 4 == 1 else -p
    return QuadraticValue(0, 2 * sign * p ** ((s - 1) // 2), root)


def periods_order2(p: int, s: int, m: int) -> tuple[int, int]:
    """The two Gaussian periods of order 2 over GF(p^(s*m)), odd p.

    eta_0 sums the additive character over the nonzero squares.  Integral
    only in even total degree; odd degrees raise IrrationalPeriod.  p = -1
    (mod 2) makes this the semiprimitive case with j = 1 and gamma = d/2.
    """
    if p == 2:
        raise EvenPrime("order-2 periods need odd characteristic")
    numtheory.require_prime(p)
    d = s * m
    if d % 2:
        raise IrrationalPeriod(f"order-2 periods over GF({p}^{d}) are irrational")
    return tuple(semiprimitive_periods(p, 1, d // 2, 2).as_list())


def expand_roots(roots) -> tuple[int, ...]:
    """Ascending coefficients of the monic product of (X - value)^mult over
    the (value, mult) pairs in roots."""
    poly = [1]
    for value, mult in roots:
        for _ in range(mult):
            poly = [0] + poly
            for i in range(len(poly) - 1):
                poly[i] -= value * poly[i + 1]
    return tuple(poly)


class PeriodPolynomial(_Record):
    """Monic integer polynomial whose roots are the order-N Gaussian periods.

    coeffs is ascending (constant first, leading 1 last).  roots, when the
    closed form determines them, is a tuple of (value, multiplicity) pairs.
    """

    __slots__ = ("N", "r", "coeffs", "roots")

    def __init__(self, N: int, r: int, coeffs: tuple[int, ...],
                 roots: tuple[tuple[int, int], ...] | None):
        if len(coeffs) != N + 1 or coeffs[-1] != 1:
            raise AssertionError("the period polynomial must be monic of degree N")
        if roots is not None:
            if sum(mult for _, mult in roots) != N:
                raise AssertionError("root multiplicities must sum to N")
            if expand_roots(roots) != coeffs:
                raise AssertionError("roots do not expand to the coefficients")
        super().__init__(N, r, coeffs, roots)

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def _exact_div(num: int, den: int, what: str) -> int:
    if num % den:
        raise AssertionError(f"{what} = {num}/{den} is not an integer")
    return num // den


def _roots_order3(p: int, d: int) -> tuple[tuple[int, int], ...] | None:
    """The order-3 periods over GF(p^d) as (value, multiplicity) pairs, when
    the degree determines them; the one solve runs at p^(d/3), not at r."""
    if p % 3 == 2:
        # p = -1 (mod 3), and d is even, else 3 would not divide r - 1
        special, _, common = semiprimitive_periods(p, 1, d // 2, 3)
        return ((special, 1), (common, 2))
    if d % 3 == 0:
        cube = p ** (d // 3)
        c1, d1 = numtheory.solve_c27d(cube, p)
        half_plus = _exact_div(c1 + 9 * d1, 2, "conjugate pair")
        half_minus = _exact_div(c1 - 9 * d1, 2, "conjugate pair")
        return tuple(sorted(Counter([
            _exact_div(-1 + c1 * cube, 3, "root"),
            _exact_div(-1 - half_plus * cube, 3, "root"),
            _exact_div(-1 - half_minus * cube, 3, "root"),
        ]).items()))
    return None


def _roots_order4(p: int, d: int) -> tuple[tuple[int, int], ...] | None:
    """The order-4 periods over GF(p^d) as (value, multiplicity) pairs, when
    the degree determines them; the one solve runs at p^(d/2), not at r."""
    if p % 4 == 3:
        # p = -1 (mod 4), and 4 | r - 1 forces even degree here
        special, _, common = semiprimitive_periods(p, 1, d // 2, 4)
        return ((special, 1), (common, 3))
    if d % 4 == 0:
        half = p ** (d // 2)
        quarter = p ** (d // 4)
        u1, v1 = numtheory.solve_u4v(half, p)
        return tuple(sorted(Counter([
            _exact_div(-1 - half - 2 * quarter * u1, 4, "root"),
            _exact_div(-1 - half + 2 * quarter * u1, 4, "root"),
            _exact_div(-1 + half - 4 * quarter * v1, 4, "root"),
            _exact_div(-1 + half + 4 * quarter * v1, 4, "root"),
        ]).items()))
    return None


def period_poly_order3(p: int, s: int, m: int) -> PeriodPolynomial:
    """Period polynomial of order 3, with roots when the degree allows them."""
    numtheory.require_prime(p)
    d = s * m
    r = p**d
    require_divisor(3, r)
    c, dd = numtheory.solve_c27d(r, p)
    coeffs = (
        -_exact_div((c + 3) * r - 1, 27, "constant term"),
        -_exact_div(r - 1, 3, "linear term"),
        1,
        1,
    )
    return PeriodPolynomial(3, r, coeffs, _roots_order3(p, d))


def period_poly_order4(p: int, s: int, m: int) -> PeriodPolynomial:
    """Period polynomial of order 4, with roots when the degree allows them."""
    numtheory.require_prime(p)
    d = s * m
    r = p**d
    require_divisor(4, r)
    u, v = numtheory.solve_u4v(r, p)
    n = (r - 1) // 4
    if n % 2 == 0:
        coeffs = (
            _exact_div(r * r - (4 * u * u - 8 * u + 6) * r + 1, 256, "constant term"),
            _exact_div((2 * u - 3) * r + 1, 16, "linear term"),
            -_exact_div(3 * r - 3, 8, "quadratic term"),
            1,
            1,
        )
    else:
        coeffs = (
            _exact_div(9 * r * r - (4 * u * u - 8 * u - 2) * r + 1, 256, "constant term"),
            _exact_div((2 * u + 1) * r + 1, 16, "linear term"),
            _exact_div(r + 3, 8, "quadratic term"),
            1,
            1,
        )
    return PeriodPolynomial(4, r, coeffs, _roots_order4(p, d))


# ---------------------------------------------------------------------------
# semiprimitive family


def _semiprimitive(p: int, j: int, gamma: int, N: int) -> tuple[int, bool]:
    """(sqrt(r), alternating) over GF(p^(2*j*gamma)), after checking that
    p^j = -1 (mod N).  The Gauss sums alternate in sign when p, gamma and
    (p^j + 1)/N are all odd, which makes N even."""
    if N < 1 or pow(p, j, N) != N - 1:
        raise NotSemiprimitive(f"{p}^{j} is not -1 mod {N}")
    return p ** (j * gamma), p % 2 == 1 and gamma % 2 == 1 and ((p**j + 1) // N) % 2 == 1


def semiprimitive_gauss_sums(p: int, j: int, gamma: int, N: int) -> list[int]:
    """G(psi^i) for i = 1..N-1 over GF(p^(2*j*gamma)), all rational integers.

    psi is an order-N character; with p^j = -1 (mod N) every such Gauss sum
    is +-sqrt(r).
    """
    root, alternating = _semiprimitive(p, j, gamma, N)
    if alternating:
        return [(-1) ** i * root for i in range(1, N)]
    return [(-1) ** (gamma - 1) * root] * (N - 1)


class SemiprimitivePeriods(_Record):
    """Order-N periods in the semiprimitive case: one special class, rest equal.

    Unpacks as (special_value, special_index, common_value).
    """

    __slots__ = ("N", "special_index", "special_value", "common_value")

    def __iter__(self):
        return iter((self.special_value, self.special_index, self.common_value))

    def as_list(self) -> list[int]:
        out = [self.common_value] * self.N
        out[self.special_index] = self.special_value
        return out


def semiprimitive_periods(p: int, j: int, gamma: int, N: int) -> SemiprimitivePeriods:
    """The order-N periods over GF(p^(2*j*gamma)) for any N >= 1 with
    p^j = -1 (mod N): the one evaluation of the semiprimitive formula.  N = 2
    is thm18, and N = 1 gives the single period -1."""
    root, alternating = _semiprimitive(p, j, gamma, N)
    if alternating:
        special = _exact_div((N - 1) * root - 1, N, "special period")
        common = _exact_div(-(root + 1), N, "common period")
        return SemiprimitivePeriods(N, N // 2, special, common)
    sign = (-1) ** gamma
    special = _exact_div(-sign * (N - 1) * root - 1, N, "special period")
    common = _exact_div(sign * root - 1, N, "common period")
    return SemiprimitivePeriods(N, 0, special, common)


# ---------------------------------------------------------------------------
# index-two family: N1 = l^lam for a prime l = 3 (mod 4), l > 3, with p of
# order (l-1)/2 mod l


class IndexTwoParams(_Record):
    """Everything needed to evaluate the index-two weight formula.

    G holds the Gauss sums over sqrt(-l), indexed 0..lam+1; entries 0 and
    lam+1 are zero by convention so the telescoping class sums can reference
    one slot past each end.  gauss_sum(t) = G[t] for t = 1..lam.
    """

    __slots__ = ("p", "l", "lam", "s", "N1", "f", "h", "a", "b", "G")

    def gauss_sum(self, t: int) -> QuadraticValue:
        return self.G[t]

    def class_sum(self, i: int) -> int:
        """The exact character-sum correction S_i entering the weight of class i."""
        if not 0 <= i < self.N1:
            raise ValueError("class index out of range")
        if i == 0:
            depth, unit = self.lam, 0
        else:
            depth = numtheory.valuation(i, self.l)
            unit = i // self.l**depth
        G, l = self.G, self.l
        # twice S_i, from the integer halves of the Gauss sums
        twice = sum(l**t * (G[t].half_x - G[t + 1].half_x) for t in range(depth + 1))
        twice += numtheory.legendre(unit, l) * l ** (depth + 1) * G[depth + 1].half_y
        if twice % 2:
            raise AssertionError("index-two class sum must be an integer")
        return twice // 2


def index2_params(p: int, l: int, lam: int, s: int) -> IndexTwoParams:
    """Validate the index-two hypotheses and assemble the exact ingredients.

    s is the ratio (total degree) / f where f = phi(l^lam) / 2 is the degree
    attached to the full order l^lam; the caller checks that ratio is integral.
    """
    numtheory.require_prime(p)
    numtheory.require_prime(l)
    if l % 4 != 3 or l == 3:
        raise NotIndexTwo(f"l = {l} is not 3 (mod 4) above 3")
    if lam < 1 or s < 1:
        raise ValueError("lam and s must be positive")
    if p == l:
        raise NotIndexTwo("p must differ from l")
    if numtheory.mult_order(p, l) != (l - 1) // 2:
        raise NotIndexTwo(f"{p} does not have order (l-1)/2 mod {l}")
    if numtheory.legendre(p, l) != 1:
        raise NotIndexTwo(f"{p} is not a quadratic residue mod {l}")
    N1 = l**lam
    f = (l - 1) * l ** (lam - 1) // 2
    h = numtheory.class_number(l)
    a, b = numtheory.solve_alb(p, l, h)
    G = [QuadraticValue(0, 0, -l)] * (lam + 2)
    base = QuadraticValue(a, b, -l)
    for t in range(1, lam + 1):
        exponent = s * (f - h * l ** (lam - t))
        if exponent < 0 or exponent % 2:
            raise AssertionError("Gauss sum magnitude must be integral")
        power = base ** (s * l ** (lam - t))
        if power.norm() != p ** (s * h * l ** (lam - t)):
            raise AssertionError("Gauss sum norm must be a power of p")
        G[t] = power * ((-1) ** (s - 1) * p ** (exponent // 2))
    return IndexTwoParams(p, l, lam, s, N1, f, h, a, b, tuple(G))


def index2_periods(params: IndexTwoParams) -> list[int]:
    """The N1 Gaussian periods implied by the index-two class sums."""
    out = []
    for i in range(params.N1):
        num = params.class_sum(i) - 1
        if num % params.N1:
            raise AssertionError("index-two period must be integral")
        out.append(num // params.N1)
    return out


# ---------------------------------------------------------------------------
# the rule table, numbered as in Ding & Yang, "Hamming weights in irreducible
# cyclic codes" (arXiv:1108.3887); a rule returns None when it does not apply


def _semiprimitive_runs(p: int, j: int, gamma: int, N: int):
    special, index, common = semiprimitive_periods(p, j, gamma, N)
    # runs in class order, at most three however large N is
    runs = [(common, index), (special, 1), (common, N - 1 - index)]
    return [run for run in runs if run[1]]


def _thm24(p: int, d: int, N: int):
    # N divides p^d - 1, so ord_N(p) divides d: no need to factor N
    j = numtheory.semiprimitive_j(p, N, divisor_of=d) if N >= 3 else None
    if j is None:
        return None
    # p^j = -1 (mod N) makes ord_N(p) = 2j, and ord_N(p) divides d
    if d % (2 * j):
        raise AssertionError("the class order 2j must divide the extension degree")
    return _semiprimitive_runs(p, j, d // (2 * j), N)


def _thm22(p: int, d: int, N: int):
    power = numtheory.prime_power(N)
    if power is None or power[0] % 4 != 3 or power[0] == 3:
        return None
    l, lam = power
    f = (l - 1) * l ** (lam - 1) // 2
    if numtheory.mult_order(p, l, divisor_of=d) != (l - 1) // 2 or d % f:
        return None
    return [(eta, 1) for eta in index2_periods(index2_params(p, l, lam, d // f))]


_RULES = (
    ("thm16", lambda p, d, N: [(-1, 1)] if N == 1 else None),
    # p = -1 (mod 2): the semiprimitive case with j = 1
    ("thm18", lambda p, d, N: _semiprimitive_runs(p, 1, d // 2, 2)
        if N == 2 and d % 2 == 0 else None),
    ("thm24", _thm24),
    ("thm19", lambda p, d, N: _roots_order3(p, d)
        if N == 3 and p % 3 == 1 and d % 3 == 0 else None),
    ("thm21", lambda p, d, N: _roots_order4(p, d)
        if N == 4 and p % 4 == 1 and d % 4 == 0 else None),
    ("thm22", _thm22),
)

# tags whose periods are the roots of the period polynomial: the multiset is
# exact, but which root belongs to which class is not known
ROOTS_ONLY = ("thm19", "thm21")


def closed_periods(p: int, d: int, N: int) -> tuple[str, list[tuple[int, int]]] | None:
    """(tag, [(eta, multiplicity), ...]) from the first rule that gives the
    order-N Gaussian periods over GF(p^d), or None when none applies.

    The pairs are runs in class order: repeating each eta multiplicity times
    gives the N periods class by class, and a run of equal periods is one
    pair, so a semiprimitive rule gives at most three pairs for any N.  For
    the tags in ROOTS_ONLY the pairs are the distinct roots of the period
    polynomial with their multiplicities, in no class order.  Weights ask at
    order N1, `irrcyclic periods` at order N.
    """
    require_divisor(N, p**d)
    found = _first_rule(p, d, N)
    return None if found is None else (found[0], list(found[1]))


@functools.lru_cache(maxsize=256)
def _first_rule(p: int, d: int, N: int) -> tuple[str, tuple[tuple[int, int], ...]] | None:
    # Every rule's runs must hold N periods with the sum rule, sum eta = -1,
    # and the k = 0 product rule, sum eta^2 = r*theta_0 - (r-1)/N, where
    # theta_0 = 1 when -1 lies in class 0 (p = 2 or N | (r-1)/2), else 0.
    # Both read only the multiset, so they hold for ROOTS_ONLY rules too.
    # The runs are cached as tuples, so no caller can change what the next
    # one is handed.
    for tag, rule in _RULES:
        runs = rule(p, d, N)
        if runs is None:
            continue
        runs = tuple(runs)
        r = p**d
        theta0 = p == 2 or (r - 1) // 2 % N == 0
        if (sum(mult for _, mult in runs) != N
                or sum(mult * eta for eta, mult in runs) != -1
                or sum(mult * eta * eta for eta, mult in runs) != r * theta0 - (r - 1) // N):
            raise AssertionError(
                f"{tag}: order-{N} periods over GF({p}^{d}) fail the sum and product rules"
            )
        return tag, runs
    return None
