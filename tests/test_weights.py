import math
import pickle
import subprocess
import sys
import time
import types
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from irrcyclic import closed_forms, cyclotomy, numtheory, weights
from irrcyclic.errors import (
    NonIntegralWeight,
    NotADivisor,
    NotCoprime,
    NotIndexTwo,
    NotPrime,
    OrderNotPrimePower,
    Unsupported,
)
from irrcyclic.fields import build_tower


def test_code_params_examples():
    spec = weights.code_params(3, 1, 4, 2)
    assert (spec.q, spec.r, spec.n, spec.N1, spec.m0) == (3, 81, 40, 2, 4)
    assert spec.kernel_size == 1 and not spec.degenerate
    spec = weights.code_params(3, 2, 2, 16)
    assert (spec.q, spec.r, spec.n, spec.N1) == (9, 81, 5, 2)
    spec = weights.code_params(2, 1, 4, 15)
    assert (spec.n, spec.m0, spec.kernel_size) == (1, 1, 8)
    assert spec.degenerate


def test_code_params_rejections():
    with pytest.raises(NotPrime):
        weights.code_params(6, 1, 2, 1)
    with pytest.raises(NotADivisor):
        weights.code_params(2, 1, 4, 7)
    with pytest.raises(ValueError):
        weights.code_params(3, 0, 2, 1)


def test_weight_from_period():
    spec = weights.code_params(7, 1, 3, 6)
    assert weights.weight_from_period(spec, 2) == 48
    assert weights.weight_from_period(spec, 9) == 45
    assert weights.weight_from_period(spec, -12) == 54
    with pytest.raises(NonIntegralWeight) as exc:
        weights.weight_from_period(spec, 1)
    assert str(exc.value) == "period 1 gives weight 339/7 for CodeSpec(p=7, s=1, m=3, N=6)"
    # an integral weight past the length n = 57
    with pytest.raises(NonIntegralWeight) as exc:
        weights.weight_from_period(spec, -26)
    assert str(exc.value) == "period -26 gives weight 60 for CodeSpec(p=7, s=1, m=3, N=6)"


def test_index2_weight_refusal_text():
    # a stand-in whose class sum gives (q - 1)(r - 1)/(qN) = 7/14
    spec = weights.code_params(2, 1, 3, 7)
    params = types.SimpleNamespace(N1=7, class_sum=lambda i: 1)
    with pytest.raises(NonIntegralWeight) as exc:
        weights.index2_weight(spec, 3, params)
    assert str(exc.value) == "index-two class 3 gives weight 1/2 for CodeSpec(p=2, s=1, m=3, N=7)"
    params = types.SimpleNamespace(N1=7, class_sum=lambda i: -20)
    with pytest.raises(NonIntegralWeight) as exc:
        weights.index2_weight(spec, 0, params)
    assert str(exc.value) == "index-two class 0 gives weight 2 for CodeSpec(p=2, s=1, m=3, N=7)"


def test_divisor_and_bounds_are_derived_once_per_spec():
    for p, s, m in [(2, 1, 4), (3, 1, 4), (2, 2, 3), (5, 1, 3), (3, 2, 2)]:
        r = p ** (s * m)
        for N in (n for n in range(1, r) if (r - 1) % n == 0):
            spec = weights.code_params(p, s, m, N)
            q, N1 = spec.q, spec.N1
            radius = math.isqrt((N1 - 1) ** 2 * r)
            lo = math.ceil(Fraction((q - 1) * (r - radius), q * N))
            hi = math.floor(Fraction((q - 1) * (r + radius), q * N))
            assert weights.divisibility(spec) == (q - 1) // math.gcd(q - 1, N // N1)
            assert weights.bounds(spec) == (lo, hi)
            # a copy by pickle or by keywords derives the same values
            for twin in (pickle.loads(pickle.dumps(spec)),
                         weights.CodeSpec(**{f: getattr(spec, f) for f in spec._fields})):
                assert twin == spec
                assert weights.divisibility(twin) == weights.divisibility(spec)
                assert weights.bounds(twin) == weights.bounds(spec)
    # the derived values are not fields
    assert weights.CodeSpec._fields == ("p", "s", "m", "N", "q", "r", "n", "N1", "m0",
                                        "kernel_size")


def test_divisibility_and_bounds_examples():
    assert weights.bounds(weights.code_params(2, 1, 4, 3))[0] == 2
    assert weights.bounds(weights.code_params(2, 2, 4, 3)) == (64, 64)
    assert weights.bounds(weights.code_params(3, 1, 4, 2)) == (24, 30)
    assert weights.divisibility(weights.code_params(3, 1, 4, 2)) == 2
    assert weights.divisibility(weights.code_params(2, 2, 3, 9)) == 1


def test_is_constant_weight():
    assert weights.is_constant_weight(weights.code_params(2, 2, 2, 3))
    assert weights.is_constant_weight(weights.code_params(2, 1, 4, 15))
    assert not weights.is_constant_weight(weights.code_params(3, 1, 4, 2))


DISPATCH_CASES = [
    # (p, s, m, N) -> method, {weight: count}
    ((3, 1, 4, 2), "thm18", {24: 40, 30: 40}),
    ((3, 1, 4, 4), "thm24", {12: 60, 18: 20}),
    ((2, 2, 3, 9), "thm24", {4: 21, 6: 42}),
    ((2, 2, 2, 3), "thm16", {4: 15}),
    ((7, 1, 2, 12), "thm24", {2: 12, 4: 36}),
    ((7, 1, 3, 6), "thm19", {45: 114, 48: 114, 54: 114}),
    ((7, 1, 3, 18), "thm19", {15: 114, 16: 114, 18: 114}),
    ((5, 1, 4, 4), "thm21", {112: 156, 124: 156, 128: 156, 136: 156}),
    ((5, 1, 4, 16), "thm21", {28: 156, 31: 156, 32: 156, 34: 156}),
    ((3, 2, 2, 8), "thm18", {8: 40, 10: 40}),
    ((3, 2, 2, 16), "thm18", {4: 40, 5: 40}),
    ((2, 2, 6, 3), "thm24", {1008: 2730, 1056: 1365}),
    ((2, 2, 6, 9), "thm24", {336: 2730, 352: 1365}),
    ((2, 2, 3, 3), "thm24", {12: 21, 18: 42}),
    # degenerate index-two shape: three beta give the zero word, kernel 4
    ((2, 1, 3, 7), "thm22", {1: 1}),
    ((3, 1, 5, 11), "thm22", {12: 132, 18: 110}),
]


@pytest.mark.parametrize("args,method,want", DISPATCH_CASES)
def test_weight_distribution_closed(args, method, want):
    dist = weights.weight_distribution(weights.code_params(*args))
    assert dist.method == method
    assert dist.counts_by_weight() == want


def test_degenerate_distribution():
    spec = weights.code_params(2, 1, 4, 15)
    dist = weights.weight_distribution(spec)
    assert dist.counts_by_weight() == {1: 1}
    assert dist.total_nonzero() == spec.q**spec.m0 - 1


def test_unsupported_without_budget():
    spec = weights.code_params(3, 1, 4, 8)
    with pytest.raises(Unsupported):
        weights.weight_distribution(spec, "closed")
    with pytest.raises(Unsupported):
        weights.weight_distribution(spec, budget=16)


def test_brute_method_matches_closed():
    for args in [(3, 1, 4, 2), (3, 1, 4, 4), (2, 2, 3, 9), (7, 1, 2, 12)]:
        spec = weights.code_params(*args)
        closed = weights.weight_distribution(spec, "closed")
        brute = weights.weight_distribution(spec, "brute")
        assert brute.method == "brute"
        assert closed.entries == brute.entries


def test_enumerator_text():
    dist = weights.weight_distribution(weights.code_params(3, 1, 4, 2))
    assert dist.enumerator_text() == "1 + 40x^24 + 40x^30"
    ex15 = weights.weight_distribution(weights.code_params(2, 1, 42, 49))
    assert ex15.enumerator_text().startswith("1 + 89756051247x^44877307904 + ")


def test_minimum_distance_and_total():
    spec = weights.code_params(3, 1, 4, 4)
    dist = weights.weight_distribution(spec)
    assert dist.minimum_distance == 12
    assert dist.total_nonzero() == spec.r - 1


def test_index2_weight_big_code():
    # the 42-dimensional binary code of length (2^42 - 1) / 49
    spec = weights.code_params(2, 1, 42, 49)
    params = closed_forms.index2_params(2, 7, 2, 42 // 21)
    got = sorted({weights.index2_weight(spec, i, params) for i in range(49)})
    assert got == [
        44877307904,
        44877832192,
        44877979648,
        44878086144,
        44878356480,
    ]
    with pytest.raises(NotIndexTwo):
        weights.index2_weight(weights.code_params(2, 1, 3, 7), 0, params)


def test_index2_full_distribution_class_counts():
    spec = weights.code_params(2, 1, 42, 49)
    dist = weights.weight_distribution(spec)
    assert dist.method == "thm22"
    n = spec.n
    assert dist.entries == (
        (44877307904, 1 * n),
        (44877832192, 3 * n),
        (44877979648, 21 * n),
        (44878086144, 21 * n),
        (44878356480, 3 * n),
    )


def test_index2_wieferich_style_distribution():
    # 121 classes over GF(3^55); the order of 3 mod 121 is 5, yet the
    # half-phi degree still divides the extension degree
    spec = weights.code_params(3, 1, 55, 121)
    dist = weights.weight_distribution(spec)
    assert dist.method == "thm22"
    n = spec.n
    assert n == 1441729016604299000588186
    assert dist.entries == (
        (961152677733830625644778, 6 * n),
        (961152677735964537698190, 55 * n),
        (961152677736445713945528, 55 * n),
        (961152677738914357301436, 5 * n),
    )


def test_prime_power_distribution_examples():
    dist = weights.prime_power_distribution(4, 3, 3, 2)
    assert dist.counts_by_weight() == {3: 9, 6: 27, 9: 27}
    assert dist.method == "thm23"
    dist = weights.prime_power_distribution(4, 3, 1, 1)
    assert dist.counts_by_weight() == {3: 3}
    with pytest.raises(OrderNotPrimePower):
        weights.prime_power_distribution(2, 3, 2, 1)


def test_prime_power_distribution_order_without_factoring():
    # q = 1 (mod t^2) for t = 2^61 - 1: the order of q mod t^2 is 1, found by
    # powering, where factoring t^2 took longer than 20 s
    t = 2**61 - 1
    q = 138 * t * t + 1
    start = time.perf_counter()
    dist = weights.prime_power_distribution(q, t, 2, 1)
    assert time.perf_counter() - start < 1
    assert dist.spec.m == 1 and dist.entries == ((t, q - 1),)
    with pytest.raises(NotCoprime, match="^0 shares a factor with 9$"):
        weights.prime_power_distribution(9, 3, 2, 1)


def test_prime_power_distribution_order_matches_mult_order():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 19, 25, 27, 31, 37, 43, 49, 64, 81, 125):
        for t in (3, 5, 7):
            if q % t == 0:
                continue
            for ell in (1, 2, 3):
                order = numtheory.mult_order(q, t**ell)
                if t ** numtheory.valuation(order, t) != order:
                    with pytest.raises(OrderNotPrimePower):
                        weights.prime_power_distribution(q, t, ell, 1)
                    continue
                jj = min(ell, numtheory.valuation(order, t) + numtheory.valuation(q - 1, t))
                if jj >= 1:
                    assert weights.prime_power_distribution(q, t, ell, jj).spec.m == order


def test_prime_power_distribution_rejects_a_composite_q_unfactored():
    # a product of two Mersenne primes, which factorize does not split in
    # any useful time: q must be refused by the prime-power test alone
    q = (2**89 - 1) * (2**107 - 1)
    start = time.perf_counter()
    with pytest.raises(NotPrime, match=f"q = {q} is not a prime power"):
        weights.prime_power_distribution(q, 3, 1, 1)
    assert time.perf_counter() - start < 1


def test_check_period_properties():
    spec = weights.code_params(3, 1, 4, 2)
    check = weights.check_period_properties(spec, (-5, 4))
    assert check.integral and check.congruent and check.bounded
    assert check.all_pass
    bad = weights.check_period_properties(spec, (-5, 100))
    assert not bad.bounded


def test_check_period_properties_reads_a_period_set():
    spec = weights.code_params(3, 1, 4, 2)
    exact = cyclotomy.gaussian_periods_exact(build_tower(3, 1, 4), 2)
    assert weights.check_period_properties(spec, exact).all_pass
    # order-2 periods over GF(27) are irrational; order 4 has the wrong length
    irrational = cyclotomy.gaussian_periods_exact(build_tower(3, 1, 3), 2)
    assert weights.check_period_properties(spec, irrational) == weights.PeriodCheck(
        False, False, False)
    with pytest.raises(ValueError):
        weights.check_period_properties(spec, cyclotomy.gaussian_periods_exact(
            build_tower(3, 1, 4), 4))


def test_distribution_invariants_enforced():
    spec = weights.code_params(3, 1, 4, 2)
    with pytest.raises(AssertionError):
        weights.WeightDistribution(spec, ((24, 40), (30, 41)), "thm18")


def test_distribution_checks_hold_under_optimize():
    # 25 is within the bounds [24, 30] but not a multiple of the divisor 2
    code = (
        "from irrcyclic import weights\n"
        "spec = weights.code_params(3, 1, 4, 2)\n"
        "weights.WeightDistribution(spec, ((25, 40), (30, 40)), 'thm18')\n"
    )
    run = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert run.returncode != 0
    assert "AssertionError: weight violates the divisibility theorem" in run.stderr


@given(st.sampled_from([(2, 1, 4), (3, 1, 2), (3, 1, 4), (5, 1, 2), (2, 2, 2),
                        (7, 1, 2), (2, 1, 6), (3, 2, 2), (2, 3, 2), (5, 1, 3),
                        (13, 1, 2), (2, 1, 5), (11, 1, 2), (3, 1, 5)]),
       st.integers(0, 10**6))
def test_distribution_properties_random(tower_args, pick):
    p, s, m = tower_args
    r = p ** (s * m)
    divs = [d for d in range(1, r) if (r - 1) % d == 0]
    N = divs[pick % len(divs)]
    spec = weights.code_params(p, s, m, N)
    dist = weights.weight_distribution(spec)
    # invariants beyond the constructor's own checks
    lo, hi = weights.bounds(spec)
    div = weights.divisibility(spec)
    for w, count in dist.entries:
        assert lo <= w <= hi
        assert w % div == 0
        assert count > 0
    assert dist.total_nonzero() == spec.q**spec.m0 - 1
    if weights.is_constant_weight(spec):
        assert len(dist.entries) == 1
