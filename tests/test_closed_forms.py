import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from irrcyclic import closed_forms as cf
from irrcyclic import cyclotomy, numtheory
from irrcyclic.errors import (
    EvenPrime,
    IrrationalPeriod,
    NotADivisor,
    NotIndexTwo,
    NotSemiprimitive,
)
from irrcyclic.fields import build_tower


# -- quadratic values


def test_quadratic_value_parity_invariant():
    with pytest.raises(ValueError):
        cf.QuadraticValue(1, 0, 8)  # odd half over D != 1 (mod 4)
    with pytest.raises(ValueError):
        cf.QuadraticValue(1, 2, 5)  # mixed parity over D = 1 (mod 4)
    v = cf.QuadraticValue(1, 1, 5)  # golden-ratio style half-integers are fine
    assert abs(v.value() - (1 + math.sqrt(5)) / 2) < 1e-12


def test_quadratic_value_ring():
    a = cf.QuadraticValue(3, 1, -7)
    b = cf.QuadraticValue(-1, 1, -7)
    assert abs((a * b).value() - a.value() * b.value()) < 1e-12
    assert abs((a + b).value() - (a.value() + b.value())) < 1e-12
    assert (a * a.conjugate()).as_integer() == a.norm() == Fraction(9 + 7, 4)
    assert (a ** 3).value() == pytest.approx(a.value() ** 3)
    assert cf.QuadraticValue.from_integer(5, -7) == 5
    assert cf.QuadraticValue.sqrt_of(-7).norm() == 7


def test_quadratic_value_norm_is_an_int():
    # the halves share parity, so the norm is integral for every D
    for half_x, half_y, D in [(3, 1, -7), (1, 1, 5), (2, 4, 8), (-2, 2, -7), (0, 0, -7)]:
        norm = cf.QuadraticValue(half_x, half_y, D).norm()
        assert type(norm) is int
        assert 4 * norm == half_x**2 - D * half_y**2


# -- quadratic Gauss sums (order 2)


def test_quadratic_gauss_sum_values():
    g51 = cf.quadratic_gauss_sum(5, 1)
    assert (g51.half_x, g51.half_y, g51.D) == (0, 2, 5)  # sqrt(5)
    g31 = cf.quadratic_gauss_sum(3, 1)
    assert (g31.half_x, g31.half_y, g31.D) == (0, 2, -3)  # sqrt(-3)
    assert cf.quadratic_gauss_sum(3, 2).as_integer() == 3
    assert cf.quadratic_gauss_sum(5, 2).as_integer() == -5
    assert cf.quadratic_gauss_sum(7, 2).as_integer() == 7


def test_quadratic_gauss_sum_modulus():
    for p in (3, 5, 7, 11, 13):
        for s in (1, 2, 3):
            g = cf.quadratic_gauss_sum(p, s)
            # algebraic norm: p^s for even s, -p*.p^(s-1) for odd s
            if s % 2 == 0:
                want = p**s
            else:
                want = -((-1) ** ((p - 1) // 2)) * p**s
            assert g.norm() == Fraction(want)
            assert abs(abs(g.value()) - math.sqrt(p) ** s) < 1e-9
    with pytest.raises(EvenPrime):
        cf.quadratic_gauss_sum(2, 3)


def test_quadratic_gauss_sum_numeric_small_fields():
    # direct numeric sums on GF(9), GF(25), GF(49)
    for p in (3, 5, 7):
        t = build_tower(p, 1, 2)
        want = cf.quadratic_gauss_sum(p, 2).value()
        got = cyclotomy.gauss_sum_numeric(t, 2, 1)
        assert abs(got - want) < 1e-9


# -- order-2 periods


def test_periods_order2_values():
    assert cf.periods_order2(7, 1, 2) == (3, -4)
    assert cf.periods_order2(5, 1, 2) == (-3, 2)
    assert cf.periods_order2(3, 1, 4) == (-5, 4)
    assert cf.periods_order2(3, 2, 2) == (-5, 4)
    assert cf.periods_order2(3, 1, 6) == (13, -14)


def test_periods_order2_guards():
    with pytest.raises(IrrationalPeriod):
        cf.periods_order2(3, 1, 3)
    with pytest.raises(EvenPrime):
        cf.periods_order2(2, 1, 4)


def test_periods_order2_match_brute():
    for p, s, m in [(3, 1, 2), (3, 1, 4), (5, 1, 2), (7, 1, 2), (3, 2, 2), (5, 1, 4)]:
        t = build_tower(p, s, m)
        assert cyclotomy.gaussian_periods_exact(t, 2).integer_values == \
            cf.periods_order2(p, s, m)


# -- period polynomials of orders 3 and 4


ORDER3_CASES = {
    (2, 1, 4): ((3, -5, 1, 1), {-3: 1, 1: 2}),
    (2, 1, 6): ((-45, -21, 1, 1), {5: 1, -3: 2}),
    (2, 1, 8): ((275, -85, 1, 1), {-11: 1, 5: 2}),
    (7, 1, 3): ((216, -114, 1, 1), {2: 1, 9: 1, -12: 1}),
    (5, 1, 4): ((1088, -208, 1, 1), {-17: 1, 8: 2}),
}

ORDER4_CASES = {
    (3, 1, 4): ((-56, 76, -30, 1, 1), {-7: 1, 2: 3}),
    (5, 1, 4): ((896, -664, -234, 1, 1), {1: 1, -14: 1, -4: 1, 16: 1}),
    (3, 1, 6): ((-6860, -2597, -273, 1, 1), {20: 1, -7: 3}),
}


@pytest.mark.parametrize("args,want", sorted(ORDER3_CASES.items()))
def test_period_poly_order3(args, want):
    coeffs, roots = want
    poly = cf.period_poly_order3(*args)
    assert poly.coeffs == coeffs
    assert poly.roots is not None and dict(poly.roots) == roots
    for value in roots:
        assert poly.evaluate(value) == 0


@pytest.mark.parametrize("args,want", sorted(ORDER4_CASES.items()))
def test_period_poly_order4(args, want):
    coeffs, roots = want
    poly = cf.period_poly_order4(*args)
    assert poly.coeffs == coeffs
    assert poly.roots is not None and dict(poly.roots) == roots
    for value in roots:
        assert poly.evaluate(value) == 0


@pytest.mark.parametrize("args,coeffs", [
    ((13, 1, 1), (3, -4, 2, 1, 1)),
    ((29, 1, 1), (23, 20, 4, 1, 1)),
    ((5, 1, 3), (271, -164, 16, 1, 1)),
])
def test_period_poly_order4_odd_quarter(args, coeffs):
    # (r - 1)/4 odd: the other coefficient set, here with irrational periods
    p, s, m = args
    assert ((p ** (s * m) - 1) // 4) % 2 == 1
    poly = cf.period_poly_order4(*args)
    assert poly.coeffs == coeffs and poly.roots is None
    numeric = cyclotomy.gaussian_periods_exact(build_tower(*args), 4).numeric()
    assert np.allclose(np.poly(numeric)[::-1], coeffs)


def test_period_poly_matches_brute_periods():
    for (p, s, m), _ in sorted(ORDER3_CASES.items()):
        t = build_tower(p, s, m)
        got = sorted(cyclotomy.gaussian_periods_exact(t, 3).integer_values)
        poly = cf.period_poly_order3(p, s, m)
        want = sorted(v for v, mult in poly.roots for _ in range(mult))
        assert got == want
    for (p, s, m), _ in sorted(ORDER4_CASES.items()):
        t = build_tower(p, s, m)
        got = sorted(cyclotomy.gaussian_periods_exact(t, 4).integer_values)
        poly = cf.period_poly_order4(p, s, m)
        want = sorted(v for v, mult in poly.roots for _ in range(mult))
        assert got == want


def test_period_poly_vieta():
    for poly in (cf.period_poly_order3(7, 1, 3), cf.period_poly_order4(5, 1, 4)):
        roots = [v for v, mult in poly.roots for _ in range(mult)]
        assert sum(roots) == -1  # sum of all periods
        prod = math.prod(roots)
        sign = -1 if poly.N % 2 else 1
        assert prod == sign * poly.coeffs[0]


# -- semiprimitive Gauss sums and periods


def test_semiprimitive_gauss_sums_examples():
    # one value per nontrivial character, i = 1 .. N-1
    assert cf.semiprimitive_gauss_sums(2, 1, 3, 3) == [8, 8]
    assert cf.semiprimitive_gauss_sums(3, 1, 1, 4) == [-3, 3, -3]
    assert cf.semiprimitive_gauss_sums(3, 1, 2, 4) == [-9, -9, -9]
    with pytest.raises(NotSemiprimitive):
        cf.semiprimitive_gauss_sums(7, 1, 1, 12)


def test_semiprimitive_gauss_sums_numeric():
    for p, j, gammas, N in [(2, 1, (1, 2, 3), 3), (3, 1, (1, 2), 4)]:
        for gamma in gammas:
            sums = cf.semiprimitive_gauss_sums(p, j, gamma, N)
            t = build_tower(p, 1, 2 * j * gamma)
            for i in range(1, N):
                got = cyclotomy.gauss_sum_numeric(t, N, i)
                assert abs(got - sums[i - 1]) < 1e-6


def test_semiprimitive_periods_examples():
    special, idx, common = cf.semiprimitive_periods(3, 1, 2, 4)
    assert (special, idx, common) == (-7, 0, 2)
    special, idx, common = cf.semiprimitive_periods(3, 1, 1, 4)
    assert (special, idx, common) == (2, 2, -1)
    special, idx, common = cf.semiprimitive_periods(2, 1, 3, 3)
    assert (special, idx, common) == (5, 0, -3)
    assert cf.semiprimitive_periods(3, 1, 1, 4).as_list() == [-1, -1, 2, -1]


def test_semiprimitive_orders_one_and_two():
    # the formula holds below N = 3: N = 1 is the single period -1, and
    # N = 2 is the quadratic Gauss sum (thm18)
    for p in (3, 5, 7, 11, 13, 101, 103):
        for g in (1, 2, 3, 4):
            assert cf.semiprimitive_periods(p, 1, g, 1).as_list() == [-1]
            assert cf.semiprimitive_gauss_sums(p, 1, g, 1) == []
            assert cf.semiprimitive_gauss_sums(p, 1, g, 2) == \
                [cf.quadratic_gauss_sum(p, 2 * g).as_integer()]
            assert tuple(cf.semiprimitive_periods(p, 1, g, 2).as_list()) == \
                cf.periods_order2(p, 1, 2 * g)
    with pytest.raises(NotSemiprimitive):
        cf.semiprimitive_periods(2, 1, 1, 2)


def test_semiprimitive_periods_keep_the_dedicated_formulas():
    # reference: the dedicated formulas for thm18 and for the period roots
    # when p = -1 (mod 3) or (mod 4), each a semiprimitive case with j = 1
    for p in (p for p in range(3, 108) if numtheory.is_prime(p)):
        for d in range(2, 41, 2):
            root, odd = p ** (d // 2), (d // 2) % 2
            eta0 = (-1 + root) // 2 if p % 4 == 3 and odd else (-1 - root) // 2
            assert cf.periods_order2(p, 1, d) == (eta0, -1 - eta0)
            sign = 1 if odd else -1
            if p % 3 == 2:
                assert cf._roots_order3(p, d) == (
                    ((-1 + sign * 2 * root) // 3, 1), ((-1 - sign * root) // 3, 2))
            if p % 4 == 3:
                assert cf._roots_order4(p, d) == (
                    ((-1 + sign * 3 * root) // 4, 1), ((-1 - sign * root) // 4, 3))


def test_semiprimitive_periods_match_brute():
    for p, j, gamma, N in [(3, 1, 2, 4), (3, 1, 1, 4), (2, 1, 3, 3),
                           (2, 2, 1, 5), (2, 1, 2, 3), (5, 1, 1, 3)]:
        t = build_tower(p, 1, 2 * j * gamma)
        got = cyclotomy.gaussian_periods_exact(t, N).integer_values
        assert list(got) == cf.semiprimitive_periods(p, j, gamma, N).as_list()


def test_semiprimitive_periods_dft_gives_gauss_sums():
    for p, j, gamma, N in [(3, 1, 1, 4), (2, 1, 3, 3), (3, 1, 2, 4)]:
        periods = cf.semiprimitive_periods(p, j, gamma, N).as_list()
        sums = cf.semiprimitive_gauss_sums(p, j, gamma, N)
        for i in range(1, N):
            dft = sum(periods[k] * np.exp(2j * np.pi * i * k / N) for k in range(N))
            assert abs(dft - sums[i - 1]) < 1e-9


# -- index-two machinery


def test_index2_params_small():
    params = cf.index2_params(2, 7, 1, 1)
    assert (params.f, params.h, params.a, params.b) == (3, 1, -1, 1)
    assert [(g.half_x, g.half_y, g.D) for g in params.G] == [(0, 0, -7), (-2, 2, -7), (0, 0, -7)]
    g = params.gauss_sum(1)
    assert (g.half_x, g.half_y, g.D) == (-2, 2, -7)  # -1 + sqrt(-7)
    assert g.norm() == 8  # |G|^2 = r


def test_index2_params_lam2():
    params = cf.index2_params(2, 7, 2, 1)
    assert params.f == 21
    # G[1] = 2^7 (13 + 7 sqrt(-7))/2 and G[2] = 2^10 (-1 + sqrt(-7))/2, the
    # powers of (a + b sqrt(-7))/2 having norm 2^(h 7^(lam-t)) = 2^7 and 2
    assert [(g.half_x, g.half_y) for g in params.G] == [(0, 0), (1664, 896), (-1024, 1024), (0, 0)]
    assert (13**2 + 7 * 7**2) // 4 == 2 ** (params.h * 7) and params.h == 1
    for t in (1, 2):
        assert params.gauss_sum(t) is params.G[t]
        assert params.gauss_sum(t).norm() == 2**21  # every |G|^2 = r


def test_index2_rejections():
    with pytest.raises(NotIndexTwo):
        cf.index2_params(2, 5, 1, 1)  # 5 = 1 (mod 4)
    with pytest.raises(NotIndexTwo):
        cf.index2_params(3, 7, 1, 1)  # ord of 3 mod 7 is 6, not 3
    with pytest.raises(NotIndexTwo):
        cf.index2_params(7, 7, 1, 1)


def test_index2_periods_match_brute():
    params = cf.index2_params(2, 7, 1, 1)
    periods = cf.index2_periods(params)
    assert sum(periods) == -1
    t = build_tower(2, 1, 3)
    brute = cyclotomy.gaussian_periods_exact(t, 7).integer_values
    assert sorted(periods) == sorted(brute)


def test_index2_periods_lam1_bigger():
    # order 11 over GF(3^5): the other small index-two family
    params = cf.index2_params(3, 11, 1, 1)
    periods = cf.index2_periods(params)
    assert sum(periods) == -1
    t = build_tower(3, 1, 5)
    brute = cyclotomy.gaussian_periods_exact(t, 11).integer_values
    assert sorted(periods) == sorted(brute)


# -- the rule table at order N, against the enumeration oracle

# Every field up to 2^14.  A prime field takes only the N = 1 rule: every
# other rule needs its class order (2j, 3, 4 or f) to divide d = 1.
TABLE_FIELDS = [(p, d) for p in range(2, 1 << 14) if numtheory.is_prime(p)
                for d in range(1, 15) if p**d <= 1 << 14]


def test_closed_periods_match_oracle_at_every_order():
    seen = set()
    for p, d in TABLE_FIELDS:
        for N in numtheory.divisors(p**d - 1):
            found = cf.closed_periods(p, d, N)
            if found is None:
                continue
            tag, periods = found
            seen.add(tag)
            assert sum(mult for _, mult in periods) == N
            got = cyclotomy.gaussian_periods_exact(build_tower(p, 1, d), N).integer_values
            want = Counter(eta for eta, mult in periods for _ in range(mult))
            assert Counter(got) == want, (p, d, N, tag)
            if tag in ("thm16", "thm18", "thm24"):
                # runs in class order: at most three, even for thm24
                assert len(periods) <= 3
                want_list = [eta for eta, mult in periods for _ in range(mult)]
                assert list(got) == want_list, (p, d, N, tag)
            if tag in cf.ROOTS_ONLY:
                # the rule's roots are the polynomial's, solved at p^(d/3) or p^(d/2)
                poly = cf.period_poly_order3 if N == 3 else cf.period_poly_order4
                assert tuple(periods) == poly(p, 1, d).roots, (p, d, N, tag)
    assert seen == {"thm16", "thm18", "thm19", "thm21", "thm22", "thm24"}


@pytest.mark.xfail(strict=True, reason="thm22 labels residue and non-residue classes "
                   "the other way round from the oracle's primitive element")
def test_index2_periods_class_order():
    got = cyclotomy.gaussian_periods_exact(build_tower(2, 1, 6), 7).integer_values
    tag, periods = cf.closed_periods(2, 6, 7)
    assert tag == "thm22"
    assert list(got) == [eta for eta, _ in periods]


def test_period_poly_bad_order_has_the_code_params_text():
    with pytest.raises(NotADivisor, match=r"^N = 3 does not divide r - 1 = 7$"):
        cf.period_poly_order3(2, 1, 3)
    with pytest.raises(NotADivisor, match=r"^N = 4 does not divide r - 1 = 7$"):
        cf.period_poly_order4(2, 1, 3)


def test_closed_periods_rule_order_and_guard():
    assert cf.closed_periods(3, 62, 4)[0] == "thm24"   # order 4, p = 3 (mod 4)
    assert cf.closed_periods(3, 3, 2) is None         # odd degree: irrational
    assert cf.closed_periods(13, 1, 3) is None        # 3 does not divide d
    with pytest.raises(NotADivisor):
        cf.closed_periods(2, 4, 7)


def test_closed_periods_cache_hands_out_fresh_lists():
    first = cf.closed_periods(2, 6, 9)  # 2^3 = -1 (mod 9): thm24
    assert cf.closed_periods(2, 6, 9) == first
    tag, periods = first
    periods.append((0, 1))
    periods[0] = (12345, 1)
    assert cf.closed_periods(2, 6, 9) == (tag, [(7, 1), (-1, 8)])
    # the divisor gate runs outside the cache, whatever (p, d) it holds
    with pytest.raises(NotADivisor):
        cf.closed_periods(2, 6, 5)


def test_every_rule_output_passes_the_identity_gate():
    # every order N of a seeded half of the fields GF(p^d) with p < 60 and
    # r <= 2^64: _first_rule checks the sum and product rules on whatever a
    # rule hands out, so no call may raise
    fields = [(p, d) for p in range(2, 60) if numtheory.is_prime(p)
              for d in range(1, 65) if p**d <= 1 << 64]
    cf._first_rule.cache_clear()
    seen = Counter()
    for p, d in random.Random(18).sample(fields, len(fields) // 2):
        for N in numtheory.divisors(p**d - 1):
            found = cf.closed_periods(p, d, N)
            if found is not None:
                seen[found[0]] += 1
    assert set(seen) == {"thm16", "thm18", "thm24", "thm19", "thm21", "thm22"}


@pytest.mark.parametrize("tag,p,d,N", [
    ("thm16", 2, 4, 1),
    ("thm18", 3, 4, 2),
    ("thm24", 2, 4, 5),
    ("thm19", 7, 3, 3),
    ("thm21", 5, 4, 4),
    ("thm22", 2, 3, 7),
])
def test_identity_gate_refuses_a_shifted_period(monkeypatch, tag, p, d, N):
    assert cf.closed_periods(p, d, N)[0] == tag

    def shift_one(rule):
        def shifted(p, d, N):
            runs = rule(p, d, N)
            if runs is None:
                return None
            (eta, mult), *rest = runs
            return [(eta + 1, 1)] + ([(eta, mult - 1)] if mult > 1 else []) + rest
        return shifted

    rules = tuple((name, shift_one(rule) if name == tag else rule) for name, rule in cf._RULES)
    monkeypatch.setattr(cf, "_RULES", rules)
    cf._first_rule.cache_clear()
    try:
        with pytest.raises(AssertionError, match=f"^{tag}: order-{N} periods"):
            cf.closed_periods(p, d, N)
    finally:
        cf._first_rule.cache_clear()
