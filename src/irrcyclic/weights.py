"""Weight distributions of irreducible cyclic codes.

The code attached to (p, s, m, N) lives over GF(q), q = p^s, inside GF(r),
r = q^m, and has length n = (r - 1) / N.  Its nonzero weights come from the
Gaussian periods of order N1 = gcd((r-1)/(q-1), N).  `dist` and `periods`
share one rule table, `closed_forms.closed_periods`, asked here at order N1;
the prime-power form comes next and exact period enumeration last.  Only the
enumeration loads the numpy-backed field layer, so a closed form runs on
integer arithmetic alone.

Class weights are computed per beta-class and then pushed through a common
finalizer that merges equal weights, strips the zero-weight kernel classes of
degenerate codes, and divides the beta counts by the kernel size.  Every
distribution is checked against the divisibility and bound theorems at
construction time.
"""

from __future__ import annotations

import math
from collections import Counter

from . import closed_forms, numtheory
from .errors import (
    DEFAULT_ENUM_BUDGET,
    EvenPrime,
    IrrationalPeriod,
    NonIntegralWeight,
    NotCoprime,
    NotIndexTwo,
    NotPrime,
    OrderNotPrimePower,
    SizeBudgetExceeded,
    Unsupported,
    _Record,
    require_divisor,
    require_enum_size,
    require_tower_size,
)


class CodeSpec(_Record):
    """Validated parameters of one irreducible cyclic code, plus derived facts.

    The weight divisor and the weight bounds are derived once, here, for
    `divisibility`, `bounds` and the checks of every distribution of the code.
    """

    __slots__ = ("p", "s", "m", "N", "q", "r", "n", "N1", "m0", "kernel_size",
                 "_divisor", "_bounds")

    def __init__(self, p: int, s: int, m: int, N: int, q: int, r: int, n: int,
                 N1: int, m0: int, kernel_size: int):
        super().__init__(p, s, m, N, q, r, n, N1, m0, kernel_size)
        object.__setattr__(self, "_divisor", (q - 1) // math.gcd(q - 1, N // N1))
        # the square root is floored before the outer division is rounded,
        # keeping both endpoints exact integers
        radius = math.isqrt((N1 - 1) ** 2 * r)
        num_lo, num_hi, den = (q - 1) * (r - radius), (q - 1) * (r + radius), q * N
        object.__setattr__(self, "_bounds", (-(-num_lo // den), num_hi // den))

    @property
    def degenerate(self) -> bool:
        return self.m0 < self.m

    def __repr__(self) -> str:
        return f"CodeSpec(p={self.p}, s={self.s}, m={self.m}, N={self.N})"


def code_params(p: int, s: int, m: int, N: int) -> CodeSpec:
    numtheory.require_prime(p)
    if s < 1 or m < 1:
        raise ValueError("s and m must be positive")
    q = p**s
    r = q**m
    require_divisor(N, r)
    n = (r - 1) // N
    N1 = math.gcd((r - 1) // (q - 1), N)
    # the true dimension divides m, so only divisors need checking
    m0 = numtheory.mult_order(q, n, divisor_of=m)
    if N1 * (N1 - 1) < r and m0 != m:
        raise AssertionError("small N1 forces a nondegenerate code")
    return CodeSpec(p, s, m, N, q, r, n, N1, m0, q ** (m - m0))


def _weight(spec: CodeSpec, num: int, what: str) -> int:
    """num / (qN) as a weight of the code; what names the source in the refusal."""
    den = spec.q * spec.N
    w, rem = divmod(num, den)
    if rem or not 0 <= w <= spec.n:
        g = math.gcd(num, den)
        text = str(num // g) if g == den else f"{num // g}/{den // g}"
        raise NonIntegralWeight(f"{what} gives weight {text} for {spec}")
    return w


def weight_from_period(spec: CodeSpec, eta: int) -> int:
    """Weight of every codeword whose beta lies in the class with period eta."""
    return _weight(spec, (spec.q - 1) * (spec.r - 1 - spec.N1 * eta), f"period {eta}")


def index2_weight(spec: CodeSpec, i: int, params: closed_forms.IndexTwoParams) -> int:
    """Weight of the codewords whose beta sits in index-two class i.

    The class sum collapses to a telescoping series in the exact Gauss-sum
    ingredients; the result must come out a nonnegative integer.
    """
    if params.N1 != spec.N1:
        raise NotIndexTwo(f"parameters are for order {params.N1}, spec has N1 = {spec.N1}")
    num = (spec.q - 1) * (spec.r - params.class_sum(i))
    return _weight(spec, num, f"index-two class {i}")


def divisibility(spec: CodeSpec) -> int:
    """Every nonzero weight is divisible by (q-1)/gcd(q-1, N/N1)."""
    return spec._divisor


def bounds(spec: CodeSpec) -> tuple[int, int]:
    """Closed interval guaranteed to contain every nonzero weight:
    (q-1)(r -+ floor(sqrt((N1-1)^2 r))) / (qN), rounded inward."""
    return spec._bounds


def is_constant_weight(spec: CodeSpec) -> bool:
    """True when all nonzero codewords share one weight.

    N1 = 1 is the classical criterion; one-dimensional degenerate codes are
    scalar multiples of a single word and are constant-weight as well.
    """
    return spec.N1 == 1 or spec.m0 == 1


class PeriodCheck(_Record):
    """Outcome of the three structural checks on a set of order-N1 periods."""

    __slots__ = ("integral", "congruent", "bounded")

    @property
    def all_pass(self) -> bool:
        return self.integral and self.congruent and self.bounded


def check_period_properties(spec: CodeSpec, periods) -> PeriodCheck:
    """Check integrality, N1*eta = -1 (mod q), and the sqrt(r) bound.

    periods is a period set (anything with `integer_values`, None when some
    period is irrational) or a sequence of ints; it must hold exactly N1
    values for the order-N1 classes of the code.
    """
    values = getattr(periods, "integer_values", periods)
    if len(periods) != spec.N1:
        raise ValueError(f"expected {spec.N1} periods, got {len(periods)}")
    if values is None:
        return PeriodCheck(False, False, False)
    distinct = set(values)
    congruent = all((spec.N1 * eta + 1) % spec.q == 0 for eta in distinct)
    radius = math.isqrt((spec.N1 - 1) ** 2 * spec.r)
    bounded = all(abs(spec.N1 * eta + 1) <= radius for eta in distinct)
    return PeriodCheck(True, congruent, bounded)


class WeightDistribution(_Record):
    """Nonzero weights with codeword counts, ascending by weight."""

    __slots__ = ("spec", "entries", "method")

    def __init__(self, spec: CodeSpec, entries: tuple[tuple[int, int], ...], method: str):
        last = 0
        total = 0
        div = spec._divisor
        for w, count in entries:
            if not (w > last and count > 0):
                raise AssertionError("entries must be ascending with positive counts")
            if w > spec.n:
                raise AssertionError("weight exceeds the code length")
            if w % div:
                raise AssertionError("weight violates the divisibility theorem")
            last = w
            total += count
        if total != spec.q**spec.m0 - 1:
            raise AssertionError("counts must cover all nonzero codewords")
        if entries:
            lo, hi = spec._bounds
            if not (lo <= entries[0][0] and entries[-1][0] <= hi):
                raise AssertionError("weights violate the bound theorem")
        super().__init__(spec, entries, method)

    def counts_by_weight(self) -> dict[int, int]:
        return dict(self.entries)

    def total_nonzero(self) -> int:
        return sum(c for _, c in self.entries)

    @property
    def minimum_distance(self) -> int:
        return self.entries[0][0]

    def enumerator_text(self) -> str:
        parts = ["1"]
        for w, count in self.entries:
            head = "" if count == 1 else str(count)
            parts.append(f"{head}x^{w}")
        return " + ".join(parts)


def distribution_from_beta_weights(spec: CodeSpec, pairs, method: str) -> WeightDistribution:
    """Merge per-beta-class (weight, beta_count) pairs into a distribution.

    Weight-zero classes are exactly the nonzero kernel of the degenerate map
    beta -> codeword; each surviving weight count collapses by the kernel size.
    """
    merged: dict[int, int] = {}
    for w, count in pairs:
        merged[w] = merged.get(w, 0) + count
    if sum(merged.values()) != spec.r - 1:
        raise AssertionError("classes must cover all nonzero beta")
    zero = merged.pop(0, 0)
    if zero != spec.kernel_size - 1:
        raise AssertionError("zero-weight classes must match the kernel")
    entries = []
    for w in sorted(merged):
        count = merged[w]
        if count % spec.kernel_size:
            raise AssertionError("kernel size must divide each weight count")
        entries.append((w, count // spec.kernel_size))
    return WeightDistribution(spec, tuple(entries), method)


# ---------------------------------------------------------------------------
# the closed-form dispatcher


def _prime_power_attempt(spec: CodeSpec):
    """Prime-power shape: n an odd prime power t^jj with q = 1 (mod t), m = t^d."""
    power = numtheory.prime_power(spec.n)
    if power is None:
        return None
    t, jj = power
    if t == 2 or spec.q % t != 1:
        return None
    d = numtheory.valuation(spec.m, t)
    if t**d != spec.m:
        return None
    ell = d + numtheory.valuation(spec.q - 1, t)
    if numtheory.mult_order(spec.q, t**ell, divisor_of=spec.m) != spec.m:
        raise AssertionError("q must have order m modulo t^ell")
    if jj > ell:
        raise AssertionError("length valuation bound must hold")
    return t, jj, d, ell


def _prime_power_entries(spec: CodeSpec, t: int, jj: int, d: int, ell: int):
    if jj <= ell - d:
        if spec.m0 != 1:
            raise AssertionError("a length dividing q - 1 gives a one-dimensional code")
        return ((spec.n, spec.q - 1),)
    big_t = t ** (jj - ell + d)
    if spec.m0 != big_t:
        raise AssertionError("dimension must match the theorem")
    scale = t ** (ell - d)
    return tuple(
        (scale * w, math.comb(big_t, w) * (spec.q - 1) ** w) for w in range(1, big_t + 1)
    )


def _period_pairs(spec: CodeSpec, periods) -> list[tuple[int, int]]:
    """(weight, beta count) pairs, one per distinct order-N1 period.

    periods holds (eta, multiplicity) runs; each class holds (r-1)/N1 betas.
    """
    merged = Counter()
    for eta, mult in periods:
        merged[eta] += mult
    count = (spec.r - 1) // spec.N1
    return [(weight_from_period(spec, eta), count * mult) for eta, mult in merged.items()]


def _closed_form(spec: CodeSpec) -> WeightDistribution | None:
    found = closed_forms.closed_periods(spec.p, spec.s * spec.m, spec.N1)
    if found is not None:
        tag, periods = found
        return distribution_from_beta_weights(spec, _period_pairs(spec, periods), tag)
    # the one weight-level rule: it gives the weights without the periods
    shape = _prime_power_attempt(spec)
    if shape is not None:
        return WeightDistribution(spec, _prime_power_entries(spec, *shape), "thm23")
    return None


def build_tower(p: int, s: int, m: int):
    """`fields.build_tower`; the numpy-backed field layer loads on first call."""
    from . import fields

    return fields.build_tower(p, s, m)


def enumerated_periods(spec: CodeSpec, N: int, *, budget: int):
    """The order-N Gaussian periods of GF(r) by enumeration; a field past the
    tower cap, then past budget, is refused before numpy loads."""
    require_tower_size(spec.p, spec.s * spec.m)
    require_enum_size("period enumeration", spec.r, budget)
    from . import cyclotomy

    tower = build_tower(spec.p, spec.s, spec.m)
    return cyclotomy.gaussian_periods_exact(tower, N, budget=budget)


def _brute(spec: CodeSpec, budget: int) -> WeightDistribution:
    periods = enumerated_periods(spec, spec.N1, budget=budget)
    if periods.integer_values is None:
        raise IrrationalPeriod(
            f"order-{spec.N1} periods must be integers when N1 divides (r-1)/(q-1)"
        )
    runs = Counter(periods.integer_values).items()
    return distribution_from_beta_weights(spec, _period_pairs(spec, runs), "brute")


def weight_distribution(
    spec: CodeSpec,
    method: str = "auto",
    *,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> WeightDistribution:
    """Weight distribution via closed forms, exact enumeration, or both.

    method "auto" tries closed forms then falls back to enumeration within
    budget; "closed" insists on a closed form; "brute" skips closed forms.
    """
    if method not in ("auto", "closed", "brute"):
        raise ValueError(f"unknown method {method!r}")
    if method in ("auto", "closed"):
        out = _closed_form(spec)
        if out is not None:
            return out
        if method == "closed":
            raise Unsupported(f"no closed form applies to {spec}")
    if spec.r > budget:
        if method == "brute":
            raise SizeBudgetExceeded(f"r = {spec.r} exceeds the enumeration budget {budget}")
        raise Unsupported(f"no closed form applies to {spec} and r = {spec.r} is out of budget")
    return _brute(spec, budget)


def prime_power_distribution(q: int, t: int, ell: int, jj: int) -> WeightDistribution:
    """Distribution of the length-t^jj code over GF(q) from the prime-power form.

    q is a prime power with multiplicative order t^d modulo t^ell for some d
    (anything else raises OrderNotPrimePower); the code is C(q^m - 1, N) with
    m that order and N = (q^m - 1) / t^jj.
    """
    power = numtheory.prime_power(q)
    if power is None:
        raise NotPrime(f"q = {q} is not a prime power")
    p, s = power
    if t == 2:
        raise EvenPrime("the length prime t must be odd")
    numtheory.require_prime(t)
    if ell < 1 or not 1 <= jj <= ell:
        raise ValueError("need ell >= 1 and 1 <= jj <= ell")
    # the order is a power of t exactly when q^(t^(ell-1)) = 1 (mod t^ell):
    # raise q to t, t^2, ... rather than factor t^ell
    modulus = t**ell
    if q % t == 0:
        raise NotCoprime(f"{q % modulus} shares a factor with {modulus}")
    x, m = q % modulus, 1
    while x != 1 and m < modulus // t:
        x, m = pow(x, t, modulus), m * t
    if x != 1:
        raise OrderNotPrimePower(f"ord(q mod t^ell) is not a power of {t}")
    N = (q**m - 1) // t**jj
    spec = code_params(p, s, m, N)
    shape = _prime_power_attempt(spec)
    if shape is None:
        raise AssertionError("validated parameters must fit the prime-power form")
    return WeightDistribution(spec, _prime_power_entries(spec, *shape), "thm23")
