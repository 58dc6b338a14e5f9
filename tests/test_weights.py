import math
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from irrcyclic import closed_forms, cyclotomy, weights
from irrcyclic.errors import (
    NonIntegralWeight,
    NotADivisor,
    NotPrime,
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
    # thm23, after the rule table: the length-9 code over GF(4) (t = 3,
    # ell = 3, jj = 2) has no period rule; the length-3 code is thm16's
    ((2, 2, 9, 29127), "thm23", {3: 9, 6: 27, 9: 27}),
    ((2, 2, 1, 1), "thm16", {3: 3}),
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


def test_index2_class_weights_big_code():
    # the 42-dimensional binary code of length (2^42 - 1) / 49: a class weight
    # is weight_from_period over the thm22 periods
    spec = weights.code_params(2, 1, 42, 49)
    params = closed_forms.index2_params(2, 7, 2, 42 // 21)
    got = sorted({weights.weight_from_period(spec, eta)
                  for eta in closed_forms.index2_periods(params)})
    assert got == [
        44877307904,
        44877832192,
        44877979648,
        44878086144,
        44878356480,
    ]


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
    # N1 = 1 is the classical constant-weight criterion; a one-dimensional
    # degenerate code is the multiples of a single word
    if spec.N1 == 1 or spec.m0 == 1:
        assert len(dist.entries) == 1
