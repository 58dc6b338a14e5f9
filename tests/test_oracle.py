import tracemalloc
from collections import Counter

import pytest

from irrcyclic import cyclotomy, oracle, weights
from irrcyclic.errors import SizeBudgetExceeded
from irrcyclic.fields import FieldTower, _Core, build_tower


def test_codeword_entries_and_weight():
    spec = weights.code_params(3, 1, 4, 2)
    t = build_tower(3, 1, 4)
    word = oracle.codeword(spec, t, t.one)
    assert len(word.entries) == spec.n
    assert word.weight == sum(1 for e in word.entries if not e.is_zero)
    assert all(e ** t.q == e for e in word.entries)  # entries live in GF(q)


def test_codeword_shift_property():
    # beta -> beta * theta rotates the codeword
    spec = weights.code_params(2, 2, 3, 9)
    t = build_tower(2, 2, 3)
    theta = t.alpha**spec.N
    beta = t.alpha**5
    a = oracle.codeword(spec, t, beta).entries
    b = oracle.codeword(spec, t, beta * theta).entries
    assert b == a[1:] + a[:1]


def test_codeword_scaling_keeps_weight():
    spec = weights.code_params(3, 1, 4, 4)
    t = build_tower(3, 1, 4)
    beta = t.alpha**7
    c = t.scalar(2)
    assert oracle.codeword(spec, t, beta).weight == \
        oracle.codeword(spec, t, c * beta).weight


def test_brute_matches_closed_battery():
    for args in [(3, 1, 4, 2), (3, 1, 4, 4), (2, 2, 3, 9), (2, 2, 2, 3),
                 (7, 1, 2, 12), (7, 1, 3, 6), (5, 1, 4, 16), (2, 1, 3, 7),
                 (3, 1, 5, 11)]:
        spec = weights.code_params(*args)
        closed = weights.weight_distribution(spec, "closed")
        brute = oracle.brute_weight_distribution(spec)
        assert brute.method == "brute"
        assert closed.entries == brute.entries, spec


def _literal_distribution(spec):
    """Reference: the weight of every codeword, built entry by entry."""
    tower = build_tower(spec.p, spec.s, spec.m)
    merged = Counter()
    beta = tower.one
    for _ in range(spec.r - 1):
        merged[oracle.codeword(spec, tower, beta).weight] += 1
        beta = beta * tower.alpha
    return weights.distribution_from_beta_weights(spec, sorted(merged.items()), "brute")


def test_literal_matches_class_mode():
    # N = 1, N = r - 1 (n = 1) and the degenerate (2, 1, 6, 9) among them
    for args in [(3, 1, 4, 2), (2, 2, 3, 9), (7, 1, 2, 12), (2, 1, 4, 15),
                 (2, 1, 3, 7), (3, 2, 2, 16), (3, 1, 4, 1), (3, 1, 4, 80), (2, 1, 6, 9)]:
        spec = weights.code_params(*args)
        fast = oracle.brute_weight_distribution(spec)
        slow = _literal_distribution(spec)
        assert fast.entries == slow.entries, spec


def test_budget_guard():
    spec = weights.code_params(3, 1, 4, 2)
    with pytest.raises(SizeBudgetExceeded):
        oracle.brute_weight_distribution(spec, budget=80)


def test_count_Z_example():
    spec = weights.code_params(3, 1, 4, 2)
    t = build_tower(3, 1, 4)
    assert oracle.count_Z(spec, t, t.one) == 21
    assert oracle.count_Z(spec, t, t.zero) == spec.r
    with pytest.raises(SizeBudgetExceeded):
        oracle.count_Z(spec, t, t.one, budget=80)


def test_count_Z_refuses_a_foreign_element():
    spec = weights.code_params(3, 1, 2, 2)
    t = build_tower(3, 1, 2)
    other = build_tower(2, 1, 4)
    for a in (other.alpha, other.zero):
        with pytest.raises(ValueError, match="element belongs to a different field"):
            oracle.count_Z(spec, t, a)


def test_oracle_refuses_a_tower_of_another_split():
    # GF(4)^2 is GF(16) too, but its trace-zero mask is that of another code:
    # the (2, 1, 4, 3) distribution is ((2, 10), (4, 5)), not ((4, 15),)
    spec = weights.code_params(2, 1, 4, 3)
    other = build_tower(2, 2, 2)
    with pytest.raises(ValueError, match="does not match"):
        oracle.brute_weight_distribution(spec, other)
    with pytest.raises(ValueError, match="does not match"):
        oracle.count_Z(spec, other, other.alpha)
    with pytest.raises(ValueError, match="does not match"):
        oracle.codeword(spec, other, other.one)
    own = build_tower(2, 1, 4)
    assert oracle.brute_weight_distribution(spec, own).entries == ((2, 10), (4, 5))


def test_count_Z_matches_direct():
    spec = weights.code_params(2, 2, 3, 9)
    t = build_tower(2, 2, 3)
    for k in (0, 1, 5, 17):
        a = t.alpha**k
        direct = sum(
            1 for x in t.elements() if t.trace(a * x**spec.N, "r->q").is_zero
        )
        assert oracle.count_Z(spec, t, a) == direct


def test_count_Z_period_identity():
    # q * Z(a) = q + r - 1 + (q-1) * N1 * eta_k with k the class of a mod N1
    for args in [(3, 1, 4, 2), (3, 1, 4, 4), (2, 2, 3, 9), (5, 1, 2, 4),
                 (2, 1, 4, 5), (7, 1, 2, 12), (2, 2, 2, 5), (3, 2, 2, 8)]:
        spec = weights.code_params(*args)
        t = build_tower(spec.p, spec.s, spec.m)
        periods = cyclotomy.gaussian_periods_exact(t, spec.N1).integer_values
        for k in range(spec.N1):
            a = t.alpha**k
            z = oracle.count_Z(spec, t, a)
            assert spec.q * z == spec.q + spec.r - 1 + \
                (spec.q - 1) * spec.N1 * periods[k]


def test_oracle_weight_equals_n_minus_zeros():
    # w(c_beta) = n - (Z(beta) - 1) / N restricted to the cyclic positions:
    # each codeword entry j is Tr(beta theta^j); zero entries correspond to
    # the N-fold cover of the zero set minus the origin
    spec = weights.code_params(3, 1, 4, 4)
    t = build_tower(3, 1, 4)
    for k in (0, 1, 2, 3, 9):
        beta = t.alpha**k
        z = oracle.count_Z(spec, t, beta)
        w = oracle.codeword(spec, t, beta).weight
        assert w == spec.n - (z - 1) // spec.N


def test_enumeration_peak_memory_per_element():
    # one byte of trace per element and a period histogram keyed block by
    # block: the oracle and the periods of a fresh field stay far below the
    # 17 bytes per element that int64 arrays and an r-length key array take.
    # For s > 1 the subfield trace-zero mask is ANDed in place, so building
    # it takes at most two booleans per element.
    for p, s, m, N in [(11, 1, 6, 35), (2, 2, 10, 33), (2, 10, 2, 25)]:
        spec = weights.code_params(p, s, m, N)
        tower = FieldTower(p, s, m, _Core(p, s * m))
        tower.core.trace_by_log()
        tracemalloc.start()
        try:
            tower.traceq_zero_by_log()
            mask_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mask_peak < 2.1 * spec.r, (p, s, m, mask_peak / spec.r)
        tower = FieldTower(p, s, m, _Core(p, s * m))
        tracemalloc.start()
        try:
            oracle.brute_weight_distribution(spec, tower)
            cyclotomy.gaussian_periods_exact(tower, spec.N1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * spec.r, (p, s, m, N, peak / spec.r)
