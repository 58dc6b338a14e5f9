import math
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from irrcyclic import closed_forms, cyclotomy, numtheory
from irrcyclic.errors import DEFAULT_ENUM_BUDGET, EvenPrime, NotADivisor, SizeBudgetExceeded
from irrcyclic.fields import FieldTower, _Core, build_tower


# -- exact root-of-unity sums


def _raw_eval(p, counts):
    z = np.exp(2j * np.pi / p)
    return sum(c * z**t for t, c in enumerate(counts))


@given(st.integers(0, 4), st.lists(st.integers(-9, 9), min_size=2, max_size=7))
def test_rous_canonical_matches_raw(seed, counts):
    p = [2, 3, 5, 7, 11][seed]
    counts = (counts + [0] * p)[:p]
    v = cyclotomy.RootOfUnitySum(p, tuple(counts))
    assert abs(v.evaluate() - _raw_eval(p, counts)) < 1e-9
    assert v.counts[p - 1] == 0  # canonical representative


def test_rous_integer_detection():
    one = cyclotomy.RootOfUnitySum(5, (3, 1, 1, 1, 1))
    # 3 + (zeta + ... + zeta^4) = 3 - 1 = 2
    assert one.is_integer and one.as_integer() == 2
    assert one == 2
    v = cyclotomy.RootOfUnitySum(5, (0, 1, 0, 0, 0))
    assert not v.is_integer


def test_rous_integer_test_copies_no_coordinates():
    # is_integer reads the p - 1 coordinates past the first in place, and
    # hash and the comparison with an int ask it: a slice of the tuple
    # would cost 8 bytes a coordinate, 8 MB here
    p = 1000003
    v = cyclotomy.RootOfUnitySum(p, [0, 2] + [0] * (p - 2))
    tracemalloc.start()
    try:
        irrational = not v.is_integer
        hash(v)
        assert v != 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert irrational
    assert peak < 1 << 20, peak


def test_rous_ring_ops():
    a = cyclotomy.RootOfUnitySum(7, (1, 2, 0, 0, 3, 0, 0))
    b = cyclotomy.RootOfUnitySum(7, (0, 0, 5, 0, 0, 1, 1))
    for x, y in ((a, b), (a, a), (b, a)):
        assert abs((x + y).evaluate() - (x.evaluate() + y.evaluate())) < 1e-9
        assert abs((x - y).evaluate() - (x.evaluate() - y.evaluate())) < 1e-9
        assert abs((x * y).evaluate() - (x.evaluate() * y.evaluate())) < 1e-9
    assert abs(a.rotate(3).evaluate() - (a.evaluate() * np.exp(6j * np.pi / 7))) < 1e-9


def test_rous_identities():
    a = cyclotomy.RootOfUnitySum(7, (1, 2, 0, 0, 3, 0, 0))
    b = cyclotomy.RootOfUnitySum(7, (0, 0, 5, 0, 0, 1, 1))
    zero = cyclotomy.RootOfUnitySum.from_integer(7, 0)
    assert a - b + b == a
    assert -a == zero - a and -a + a == 0
    assert 2 * a == a * 2 == a + a
    assert cyclotomy.RootOfUnitySum.from_integer(7, 3) == 3
    # equal values hash equal, whichever counts they were built from
    assert hash(a - b + b) == hash(a)
    assert hash(cyclotomy.RootOfUnitySum(7, (4, 1, 1, 1, 1, 1, 1))) == hash(
        cyclotomy.RootOfUnitySum.from_integer(7, 3))


def test_dlog_of_minus_one():
    assert cyclotomy.dlog_of_minus_one(2, 8) == 0
    assert cyclotomy.dlog_of_minus_one(3, 9) == 4
    assert cyclotomy.dlog_of_minus_one(5, 25) == 12


# -- cyclotomic numbers


def test_cyclotomic_numbers_gf9_order2():
    t = build_tower(3, 1, 2)
    table = cyclotomy.cyclotomic_numbers(t, 2)
    assert table[0, 0] == 1
    assert table[0, 1] == table[1, 0] == table[1, 1] == 2


def test_cyclotomic_numbers_diagonal_sums():
    # sum over u of (u, u+k) is n-1 for k = 0 and n otherwise
    for p, s, m, N in [(3, 1, 2, 2), (2, 1, 4, 3), (2, 1, 4, 5), (5, 1, 2, 4),
                       (3, 1, 4, 8), (7, 1, 2, 6), (2, 1, 6, 9)]:
        t = build_tower(p, s, m)
        n = (t.r - 1) // N
        table = cyclotomy.cyclotomic_numbers(t, N)
        for k in range(N):
            diag = sum(table[u, u + k] for u in range(N))
            assert diag == (n - 1 if k == 0 else n)
        assert sum(table[i, j] for i in range(N) for j in range(N)) == t.r - 2


def test_cyclotomic_table_is_its_count_matrix():
    for p, d in [(3, 2), (2, 4), (5, 2), (3, 3), (7, 2)]:
        t = build_tower(p, 1, d)
        # dlog(alpha^k + 1) element by element, None where alpha^k = -1
        ys = [t.alpha ** k + t.one for k in range(t.r - 1)]
        succ = [None if y.is_zero else t.discrete_log(y) for y in ys]
        for N in (N for N in range(1, 17) if (t.r - 1) % N == 0):
            table = cyclotomy.cyclotomic_numbers(t, N)
            assert table.counts.dtype == np.int64 and table.counts.shape == (N, N)
            assert not table.counts.flags.writeable
            want = np.zeros((N, N), dtype=np.int64)
            for k, j in enumerate(succ):
                if j is not None:
                    want[k % N, j % N] += 1
            assert (table.counts == want).all(), (p, d, N)
            for i in range(N):
                for j in range(N):
                    assert type(table[i, j]) is int and table[i, j] == want[i, j]


def _index_array_count(slog, N):
    """The (N, N) cyclotomic counts keyed one int64 pair per element: the
    reference the class histogram replaced."""
    k = np.arange(len(slog), dtype=np.int64)
    valid = slog >= 0
    key = (k[valid] % N) * N + (slog[valid] % N)
    return np.bincount(key, minlength=N * N).reshape(N, N)


def test_cyclotomic_numbers_match_the_index_array_count():
    # every field of criterion 5 (r <= 2^12) and every order N | r - 1 with
    # an (N, N) table of at most 2^14 entries
    tables = 0
    for r in range(2, 4097):
        fac = numtheory.factorize(r)
        if len(fac) != 1:
            continue
        (p, d), = fac.items()
        t = build_tower(p, 1, d)
        slog = t.core.succ_log()
        for N in numtheory.divisors(r - 1):
            if N * N > 1 << 14:
                break
            table = cyclotomy.cyclotomic_numbers(t, N)
            assert table.counts.dtype == np.int64, (r, N)
            assert (table.counts == _index_array_count(slog, N)).all(), (r, N)
            tables += 1
    assert tables > 3000


def test_cyclotomic_numbers_peak_memory():
    # with the successor logs built, the count reads them mod N (int32, 4
    # bytes per element) and the class histogram keys a block at a time:
    # no int64 whole-field key is made
    t = FieldTower(3, 1, 13, _Core(3, 13))
    t.core.succ_log()
    tracemalloc.start()
    try:
        table = cyclotomy.cyclotomic_numbers(t, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.counts.sum() == t.r - 2
    assert peak < 6 * t.r, peak / t.r


def test_cyclotomic_class_membership():
    t = build_tower(2, 1, 4)
    cls = list(cyclotomy.cyclotomic_class(t, 3, 1))
    assert len(cls) == 5
    assert all(t.discrete_log(x) % 3 == 1 for x in cls)


def test_subfield_scaling_multiset_law():
    # products y * C_i^(e1) for y in GF(q)* cover the coarser class
    # C_i^(g) with g = gcd((r-1)/(q-1), e1), each element hit
    # (q-1) g / e1 times
    for p, s, m, e1 in [(2, 2, 3, 9), (3, 2, 2, 8), (2, 2, 3, 21), (2, 3, 2, 7)]:
        t = build_tower(p, s, m)
        L = (t.r - 1) // (t.q - 1)
        g = math.gcd(L, e1)
        mult = (t.q - 1) * g // e1
        for i in (0, 1):
            a = np.arange((t.r - 1) // e1, dtype=np.int64)
            b = np.arange(t.q - 1, dtype=np.int64)
            prods = (i + e1 * a[:, None] + L * b[None, :]) % (t.r - 1)
            counts = np.bincount(prods.ravel(), minlength=t.r - 1)
            members = counts.nonzero()[0]
            assert (members % g == i % g).all()
            assert set(counts[members].tolist()) == {mult}
            assert len(members) == (t.r - 1) // g


# -- Gaussian periods


def test_periods_gf81_order2():
    t = build_tower(3, 1, 4)
    ps = cyclotomy.gaussian_periods_exact(t, 2)
    assert ps.integer_values == (-5, 4)
    assert ps.product_rule_checked


def test_periods_gf64_order3():
    t = build_tower(2, 1, 6)
    ps = cyclotomy.gaussian_periods_exact(t, 3)
    assert ps.integer_values == (5, -3, -3)


def test_periods_sum_rule_battery():
    for p, s, m in [(2, 1, 5), (3, 1, 3), (5, 1, 2), (7, 1, 2), (2, 2, 2)]:
        t = build_tower(p, s, m)
        for N in (d for d in range(1, t.r) if (t.r - 1) % d == 0 and d <= 16):
            ps = cyclotomy.gaussian_periods_exact(t, N)
            total = ps.values[0]
            for v in ps.values[1:]:
                total = total + v
            assert total == -1
            assert ps.product_rule_checked


def test_periods_non_integer_case():
    # order-2 periods over a field of odd degree are conjugate irrationals
    t = build_tower(3, 1, 3)
    ps = cyclotomy.gaussian_periods_exact(t, 2)
    assert ps.integer_values is None
    vals = ps.numeric()
    assert abs(vals[0] + vals[1] + 1) < 1e-9
    # quadratic: eta0 * eta1 should be rational
    prod = ps.values[0] * ps.values[1]
    assert prod.is_integer


def _trace_histogram(tower, N):
    """hist[i, c] = #{k : k = i (mod N), Tr(alpha^k) = c}, built elementwise."""
    hist = np.zeros((N, tower.p), dtype=np.int64)
    for k, c in enumerate(tower.core.trace_by_log().tolist()):
        hist[k % N, c] += 1
    return hist


def test_period_set_is_its_canonical_count_matrix():
    for p, s, m in [(2, 1, 6), (3, 1, 3), (3, 1, 4), (7, 1, 1), (13, 1, 1), (5, 1, 2), (2, 2, 3)]:
        t = build_tower(p, s, m)
        for N in (d for d in range(1, t.r) if (t.r - 1) % d == 0 and d <= 16):
            ps = cyclotomy.gaussian_periods_exact(t, N)
            hist = _trace_histogram(t, N)
            assert (ps.counts == hist - hist[:, -1:]).all(), (p, s, m, N)
            assert ps.counts.dtype == np.min_scalar_type(-((t.r - 1) // N) - 1)
            assert not ps.counts.flags.writeable
            with pytest.raises(ValueError):
                ps.counts[0, 0] = 1
            assert [v.counts for v in ps.values] == [tuple(row) for row in ps.counts.tolist()]
            assert all(v.counts[-1] == 0 for v in ps.values)
            # the CLI renders count rows through the formatter repr uses
            assert [repr(v) for v in ps.values] == [
                cyclotomy.root_sum_text(p, row) for row in ps.counts.tolist()
            ]
            integral = all(v.is_integer for v in ps.values)
            assert (ps.integer_values is None) == (not integral), (p, s, m, N)
            if integral:
                assert ps.integer_values == tuple(v.as_integer() for v in ps.values)
                assert all(type(v) is int for v in ps.integer_values)
            want = np.array([v.evaluate() for v in ps.values])
            assert np.abs(ps.numeric() - want).max() < 1e-9, (p, s, m, N)


def _move_one_count(hist):
    """hist with one count of row 0 moved to the next column: every row sum
    stays, the periods do not."""
    a = int(np.flatnonzero(hist[0])[0])
    bad = hist.copy()
    bad[0, a] -= 1
    bad[0, (a + 1) % hist.shape[1]] += 1
    return bad


def test_product_checks_catch_a_moved_count():
    t = build_tower(3, 1, 3)
    hist = _trace_histogram(t, 2)
    h = cyclotomy.dlog_of_minus_one(3, t.r) % 2
    cyclotomy._check_period_identities(hist, t.core, 2, h)
    with pytest.raises(AssertionError, match="period product identity failed"):
        cyclotomy._check_period_identities(_move_one_count(hist), t.core, 2, h)
    # odd p and N > 2 with irrational periods
    t = build_tower(7, 1, 2)
    assert cyclotomy.gaussian_periods_exact(t, 3).integer_values is None
    hist = _trace_histogram(t, 3)
    h = cyclotomy.dlog_of_minus_one(7, t.r) % 3
    cyclotomy._check_period_identities(hist, t.core, 3, h)
    with pytest.raises(AssertionError, match="period product identity failed"):
        cyclotomy._check_period_identities(_move_one_count(hist), t.core, 3, h)
    # a prime field, where the histogram is a class indicator
    t = build_tower(7, 1, 1)
    hist = _trace_histogram(t, 2)
    h = cyclotomy.dlog_of_minus_one(7, t.r) % 2
    cyclotomy._check_period_identities(hist, t.core, 2, h)
    with pytest.raises(AssertionError, match="period product identity failed"):
        cyclotomy._check_period_identities(_move_one_count(hist), t.core, 2, h)


def test_prime_field_check_catches_a_count_moved_between_classes():
    # column sums unchanged, so the histogram is still an indicator, but
    # one element now sits in the wrong class
    t = build_tower(13, 1, 1)
    hist = _trace_histogram(t, 4)
    c = int(np.flatnonzero(hist[0])[0])
    bad = hist.copy()
    bad[0, c], bad[1, c] = 0, 1
    assert (bad.sum(axis=0) == hist.sum(axis=0)).all()
    h = cyclotomy.dlog_of_minus_one(13, t.r) % 4
    cyclotomy._check_period_identities(hist, t.core, 4, h)
    with pytest.raises(AssertionError, match="period product identity failed"):
        cyclotomy._check_period_identities(bad, t.core, 4, h)


@pytest.mark.parametrize("block", [16, 64, 1 << 16])
@pytest.mark.parametrize("p,d,N", [(7, 4, 80), (13, 2, 12), (3, 7, 2186), (61, 2, 3720)])
def test_class_trace_histogram_blocks(monkeypatch, p, d, N, block):
    # blocks of classes and of rows, however small, add up to one bincount
    # over the whole trace sequence
    tr = build_tower(p, 1, d).core.trace_by_log()
    want = np.bincount(
        tr.astype(np.int64) + p * (np.arange(len(tr)) % N), minlength=N * p
    ).reshape(N, p)
    monkeypatch.setattr(cyclotomy, "SCRATCH_BLOCK", block)
    got = cyclotomy._class_histogram(tr, N, p)
    assert got.dtype == np.min_scalar_type(-(len(tr) // N) - 1) and (got == want).all()


def test_period_histogram_peak_memory():
    # the histogram is counted a block of classes at a time, so no int64
    # (N, p) array is ever alive beside the narrow matrix
    N, p = 2002, 2003
    tower = FieldTower(p, 1, 1, _Core(p, 1))
    tracemalloc.start()
    try:
        ps = cyclotomy.gaussian_periods_exact(tower, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ps.product_rule_checked
    assert peak < 1.25 * ps.counts.nbytes, peak / ps.counts.nbytes


@pytest.mark.parametrize("p,d,N,dtype", [
    (2, 7, 1, np.int8),  # n = 127
    (257, 1, 2, np.int16),  # n = 128
    (2, 15, 1, np.int16),  # n = 2^15 - 1
    (65537, 1, 2, np.int32),  # n = 2^15
])
def test_count_matrix_is_the_narrowest_dtype_that_holds_n(p, d, N, dtype):
    t = build_tower(p, 1, d)
    n = (t.r - 1) // N
    ps = cyclotomy.gaussian_periods_exact(t, N)
    assert ps.counts.dtype == dtype
    # the first signed type whose range [-max - 1, max] holds [-n, n]
    assert dtype == next(w for w in (np.int8, np.int16, np.int32) if np.iinfo(w).max >= n)
    ref = _trace_histogram(t, N)
    ref -= ref[:, -1:]
    assert (ps.counts == ref).all()
    integral = not ref[:, 1:].any()
    assert ps.integer_values == (tuple(ref[:, 0].tolist()) if integral else None)
    assert [v.counts for v in ps.values] == [tuple(row) for row in ref.tolist()]
    want = ref @ np.exp(2j * np.pi * np.arange(p) / p)
    assert np.abs(ps.numeric() - want).max() < 1e-6


def test_count_matrices_of_gf61_squared_fit_in_0_7_mib():
    # the 32 orders of GF(61^2) take 2.68 MiB as int32 matrices; most have
    # n < 128, so most are int8
    t = FieldTower(61, 1, 2, _Core(61, 2))
    orders = [N for N in range(1, t.r) if (t.r - 1) % N == 0]
    assert len(orders) == 32
    total = sum(cyclotomy.gaussian_periods_exact(t, N).counts.nbytes for N in orders)
    assert total <= 0.7 * 2**20, total


def _product_table(hist):
    """T[k, c] = sum_i sum_{a + b = c mod p} hist[i, a] * hist[(i + k) mod N, b],
    the double sum, as one product R_k = hist^T (hist rolled by k) per k, with
    R_k[a, b] summed over a + b = c.  Float64 is exact: every partial sum is
    an integer far below 2^53 at the sizes tested."""
    N, p = hist.shape
    h = hist.astype(np.float64)
    a = np.arange(p)
    b = (a[None, :] - a[:, None]) % p  # b[a, c] = c - a
    table = np.empty((N, p), dtype=np.int64)
    for k in range(N):
        table[k] = (h.T @ np.roll(h, -k, axis=0))[a[:, None], b].sum(axis=0)
    return table


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("p", [2, 3, 7])
def test_product_table_matches_the_double_sum(p, N):
    # the reference below, against the double sum written out, on every
    # entry of random histograms; odd and even N alike
    hist = np.random.default_rng(10 * p + N).integers(0, 9, size=(N, p)).astype(np.int32)
    want = np.zeros((N, p), dtype=np.int64)
    for k in range(N):
        for i in range(N):
            for a in range(p):
                for b in range(p):
                    want[k, (a + b) % p] += int(hist[i, a]) * int(hist[(i + k) % N, b])
    assert (_product_table(hist) == want).all()


def _moved_between_columns(hist):
    """hist with a count of row 0 moved from a nonzero column to another
    column that holds counts: every row sum stays."""
    p = hist.shape[1]
    a = int(np.flatnonzero(hist[0])[0])
    b = next(c for c in range(p) if c != a and hist[:, c].any())
    bad = hist.copy()
    bad[0, a] -= 1
    bad[0, b] += 1
    return bad


def _moved_between_rows(hist):
    """hist with a count of a nonzero column moved from row 0 to row 1:
    every column sum stays."""
    a = int(np.flatnonzero(hist[0])[0])
    bad = hist.copy()
    bad[0, a] -= 1
    bad[1, a] += 1
    return bad


@pytest.mark.parametrize(
    "p,d",
    [(3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (5, 2), (5, 3), (5, 4), (7, 2), (7, 3),
     (11, 2), (13, 2), (17, 2), (19, 2), (23, 2), (29, 2), (31, 2),
     (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (17, 1), (19, 1), (23, 1), (29, 1), (31, 1)],
)
def test_orbit_product_check_matches_the_reference(p, d):
    # every order N > 1 over GF(p^d), r <= 2^10, with integer, prime-field
    # and irrational periods alike: the double sum's canonical table is
    # (r theta_k - n, 0, ..., 0), the one check accepts the true histogram
    # and refuses each moved count
    t = build_tower(p, 1, d)
    tr = t.core.trace_by_log()
    orders = 0
    for N in (N for N in range(2, t.r) if (t.r - 1) % N == 0):
        hist = cyclotomy._class_histogram(tr, N, p)
        orders += 1
        h = cyclotomy.dlog_of_minus_one(p, t.r) % N
        table = _product_table(hist)
        table -= table[:, -1:]
        assert not table[:, 1:].any(), (p, d, N)
        theta = np.arange(N) == h
        assert (table[:, 0] == t.r * theta - (t.r - 1) // N).all(), (p, d, N)
        cyclotomy._check_period_identities(hist, t.core, N, h)
        for move in (_moved_between_columns, _moved_between_rows, _move_one_count):
            with pytest.raises(AssertionError, match="period product identity failed"):
                cyclotomy._check_period_identities(move(hist), t.core, N, h)
    assert orders


@pytest.mark.parametrize("d", [2, 3, 4, 6, 8, 9, 10])
def test_one_check_reads_the_period_sum(d):
    # over GF(2^d), a0 = 1 and the orbit law holds for any histogram, so a
    # count moved from column 0 to column 1 of a row keeps every row sum
    # and is caught by the period sum; one moved between rows is not
    t = build_tower(2, 1, d)
    tr = t.core.trace_by_log()
    for N in (N for N in range(1, t.r) if (t.r - 1) % N == 0):
        hist = cyclotomy._class_histogram(tr, N, 2)
        cyclotomy._check_period_identities(hist, t.core, N, 0)
        i = int(np.flatnonzero(hist[:, 0])[0])
        bad = hist.copy()
        bad[i, 0] -= 1
        bad[i, 1] += 1
        with pytest.raises(AssertionError, match="period sum identity failed"):
            cyclotomy._check_period_identities(bad, t.core, N, 0)
        if N > 1:
            with pytest.raises(AssertionError, match="period product identity failed"):
                cyclotomy._check_period_identities(_moved_between_rows(hist), t.core, N, 0)


def test_orbit_check_reads_the_row_sums():
    # one count moved three rows along the whole GF(13)* orbit of (2, 1):
    # the histogram still obeys the orbit law and the correlation identity
    # over GF(13^2) at N = 4, but two rows no longer sum to n
    t = build_tower(13, 1, 2)
    N, p = 4, 13
    hist = cyclotomy._class_histogram(t.core.trace_by_log(), N, p)
    g = (t.r - 1) // (p - 1)
    a0 = t.core.ring.pow(t.core.alpha, g)
    bad = hist.copy()
    for j in range(p - 1):
        i, c = (2 + g * j) % N, pow(a0, j, p)
        bad[i, c] -= 1
        bad[(i + 3) % N, c] += 1
    assert cyclotomy._orbit_invariant(bad, g % N, a0)
    assert (bad.sum(axis=1) != hist.sum(axis=1)).any()
    h = cyclotomy.dlog_of_minus_one(p, t.r) % N
    with pytest.raises(AssertionError, match="period product identity failed"):
        cyclotomy._check_period_identities(bad, t.core, N, h)


@pytest.mark.parametrize("p,d,N", [(7, 4, 80), (7, 4, 2400), (61, 2, 3720), (601, 2, 600)])
def test_table_product_check_catches_a_count_moved_between_nonzero_columns(p, d, N):
    t = build_tower(p, 1, d)
    hist = cyclotomy._class_histogram(t.core.trace_by_log(), N, p)
    h = cyclotomy.dlog_of_minus_one(p, t.r) % N
    cyclotomy._check_period_identities(hist, t.core, N, h)
    with pytest.raises(AssertionError, match="period product identity failed"):
        cyclotomy._check_period_identities(_moved_between_columns(hist), t.core, N, h)


def test_table_product_check_reads_every_column(monkeypatch):
    # an autocorrelation off by one at a single lag, k = 0 or not, of
    # either column must be caught
    t = build_tower(7, 1, 4)
    N, p = 80, 7
    hist = cyclotomy._class_histogram(t.core.trace_by_log(), N, p)
    h = cyclotomy.dlog_of_minus_one(p, t.r) % N
    good = cyclotomy._autocorrelation
    for column, k in [(0, 0), (0, 3), (1, 0), (1, 77)]:
        calls = []

        def off_by_one(x, column=column, k=k, calls=calls):
            out = good(x)
            if len(calls) == column:
                out[k] += 1
            calls.append(x)
            return out

        monkeypatch.setattr(cyclotomy, "_autocorrelation", off_by_one)
        with pytest.raises(AssertionError, match="period product identity failed"):
            cyclotomy._check_period_identities(hist, t.core, N, h)
        assert len(calls) == 2


@pytest.mark.parametrize("N", [1, 2, 5, 128, 129, 300, 1001])
def test_autocorrelation_is_exact(N):
    # the direct path up to DIRECT_CORRELATION, the transform past it, and
    # the direct path again for counts so large that C[0] passes the float
    # bound; each against Python ints
    rng = np.random.default_rng(N)
    for top in (50, 1 << 24):
        x = rng.integers(0, top, size=N).astype(np.int32)
        v = x.tolist()
        want = [sum(v[i] * v[(i + k) % N] for i in range(N)) for k in range(N)]
        got = cyclotomy._autocorrelation(x)
        assert got.dtype == np.int64 and got.tolist() == want, (N, top)


def test_smooth_length_is_the_least_5_smooth_bound():
    def smooth(n):
        for q in (2, 3, 5):
            while n % q == 0:
                n //= q
        return n == 1

    for m in range(1, 3000):
        assert cyclotomy._smooth_length(m) == next(n for n in range(m, 2 * m + 1) if smooth(n))


def test_table_product_check_peak_memory():
    # the orbit check compares a block of rows at a time and transforms two
    # columns, one at a time: past the narrow histogram (1 byte per entry on
    # the first and last shape, 2 on the others), the trace sequence and the
    # histogram's own scratch, it adds little.  On the last shape, where N
    # is large beside p, the two column transforms set the peak
    for p, d, N, bound in [
        (61, 2, 3720, 3.0), (601, 2, 300, 13.0), (601, 2, 600, 8.0), (3, 9, 19682, 19.0)
    ]:
        tower = FieldTower(p, 1, d, _Core(p, d))
        tracemalloc.start()
        try:
            ps = cyclotomy.gaussian_periods_exact(tower, N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ps.product_rule_checked and ps.integer_values is None
        assert peak < bound * N * p, (p, d, N, peak / (N * p))


def test_periods_invalid_order():
    t = build_tower(3, 1, 2)
    with pytest.raises(NotADivisor):
        cyclotomy.gaussian_periods_exact(t, 3)
    with pytest.raises(SizeBudgetExceeded):
        cyclotomy.gaussian_periods_exact(t, 2, budget=4)
    # within the budget, but its (N, p) count matrix is past TOWER_CAP entries
    with pytest.raises(SizeBudgetExceeded, match="65536 x 65537 counts, past the cap"):
        cyclotomy.gaussian_periods_exact(build_tower(65537, 1, 1), 65536)
    # cyclotomic numbers of an order whose (N, N) table is past TOWER_CAP
    # entries are refused before the successor-log table is built
    core = _Core(2, 14)
    with pytest.raises(SizeBudgetExceeded, match="16383 x 16383 counts, past the cap"):
        cyclotomy.cyclotomic_numbers(FieldTower(2, 1, 14, core), 16383)
    assert core._succ_log is None


def test_bad_order_has_the_code_params_text():
    with pytest.raises(NotADivisor, match=r"^N = 7 does not divide r - 1 = 80$"):
        cyclotomy.cyclotomic_numbers(build_tower(3, 1, 4), 7)


def test_product_table_cap():
    # irrational periods over GF(601^2) are checked on both sides of the
    # 2^18-entry cap the 2-D spectrum check stopped at
    t = build_tower(601, 1, 2)
    for N in (300, 600):
        ps = cyclotomy.gaussian_periods_exact(t, N)
        assert ps.integer_values is None and ps.product_rule_checked, N


@pytest.mark.parametrize(
    "d,N,budget",
    [(11, 177146, DEFAULT_ENUM_BUDGET), (15, 2, 1 << 26), (15, 22, 1 << 26), (15, 26, 1 << 26)],
)
def test_product_rule_checked_at_every_enumerable_size(d, N, budget):
    # past the old 2^18-entry cap (GF(3^11)) and the old 2^50 float guard
    # (GF(3^15)), promptly
    t = build_tower(3, 1, d)
    t.core.trace_by_log()
    start = time.perf_counter()
    ps = cyclotomy.gaussian_periods_exact(t, N, budget=budget)
    assert time.perf_counter() - start < 1.0
    assert ps.integer_values is None and ps.product_rule_checked


# -- numeric bridges


def _dft_gauss_sums(ps):
    """G(psi_j) = sum_k zeta_N^(jk) eta_k from exact periods, numerically."""
    vals = ps.numeric()
    N = ps.N
    j = np.arange(N)
    zeta = np.exp(2j * np.pi * np.outer(j, j) / N)
    return zeta @ vals


def test_gauss_sum_modulus_and_dft_inversion():
    for p, s, m, N in [(3, 1, 2, 4), (2, 1, 4, 5), (5, 1, 2, 6), (2, 2, 3, 7)]:
        t = build_tower(p, s, m)
        ps = cyclotomy.gaussian_periods_exact(t, N)
        G = _dft_gauss_sums(ps)
        # nontrivial characters all have |G| = sqrt(r)
        assert np.allclose(np.abs(G[1:]), math.sqrt(t.r), atol=1e-6)
        assert abs(G[0] + 1) < 1e-6
        # inverting the transform must recover the periods
        back = (np.conj(np.exp(2j * np.pi * np.outer(np.arange(N), np.arange(N)) / N)) @ G) / N
        assert np.allclose(back, ps.numeric(), atol=1e-6)


def test_gauss_sum_numeric_matches_dft():
    for p, s, m, N in [(3, 1, 2, 4), (2, 1, 4, 3), (5, 1, 2, 3)]:
        t = build_tower(p, s, m)
        ps = cyclotomy.gaussian_periods_exact(t, N)
        G = _dft_gauss_sums(ps)
        for j in range(N):
            direct = cyclotomy.gauss_sum_numeric(t, N, j)
            assert abs(direct - G[j]) < 1e-9


def test_quadratic_char_sum_is_quadratic_gauss_sum():
    for p, s, want in [(3, 2, 3), (5, 2, -5), (7, 2, 7)]:
        t = build_tower(p, 1, s)
        total = cyclotomy.quadratic_char_sum(t, t.one, t.zero, t.zero)
        assert total.is_integer and total.as_integer() == want
        exact = closed_forms.quadratic_gauss_sum(p, s)
        assert exact.is_rational and exact.as_integer() == want


def test_quadratic_char_sum_needs_odd_characteristic():
    t = build_tower(2, 1, 3)
    with pytest.raises(EvenPrime):
        cyclotomy.quadratic_char_sum(t, t.one, t.zero, t.zero)


def test_quadratic_char_sum_refuses_a_foreign_element():
    t = build_tower(3, 1, 2)
    other = build_tower(2, 1, 4)
    for args in [(other.alpha, t.zero, t.zero), (t.one, other.alpha, t.zero),
                 (t.one, other.zero, t.zero), (t.one, t.zero, other.alpha)]:
        with pytest.raises(ValueError, match="element belongs to a different field"):
            cyclotomy.quadratic_char_sum(t, *args)


def test_quadratic_char_sum_shifts():
    # completing the square: adding a linear term only rotates the sum
    t = build_tower(5, 1, 2)
    base = cyclotomy.quadratic_char_sum(t, t.one, t.zero, t.zero)
    shifted = cyclotomy.quadratic_char_sum(t, t.one, t.scalar(2), t.scalar(1))
    assert abs(abs(shifted.evaluate()) - abs(base.evaluate())) < 1e-9


def test_quadratic_char_sum_matches_elementwise():
    # a2 a square (1) and not (alpha); a1 and a0 zero and not, and outside
    # GF(p) past a prime field; 4 = 1 over GF(3); over GF(251) two trace
    # values sum past a byte
    for p, d in [(3, 1), (3, 3), (5, 2), (7, 2), (251, 1)]:
        t = build_tower(p, 1, d)
        cases = [(a2, a1, a0) for a2 in (t.one, t.alpha) for a1 in (t.zero, t.alpha**2)
                 for a0 in (t.zero, t.alpha)]
        if p == 251:
            cases.append((t.scalar(3), t.scalar(200), t.scalar(249)))
        for a2, a1, a0 in cases:
            hist = [0] * p
            for c in t.elements():
                hist[t.trace(a2 * c * c + a1 * c + a0, "r->p").coeffs[0]] += 1
            want = cyclotomy.RootOfUnitySum(p, hist)
            assert cyclotomy.quadratic_char_sum(t, a2, a1, a0) == want, (p, d, a2, a1, a0)


def test_quadratic_char_sum_peak_memory():
    # with t built, the sum reads the order-2 period set and enumerates no
    # whole-field array: under 1 byte per element
    t = build_tower(3, 1, 13)
    t.core.trace_by_log()
    tracemalloc.start()
    try:
        cyclotomy.quadratic_char_sum(t, t.alpha, t.alpha**2, t.one)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < t.r, peak / t.r


def test_period_checks_hold_under_optimize():
    # a count of GF(8)'s order-1 histogram moved from trace 0 to trace 1
    # breaks the sum identity; one of GF(64)'s order-3 histogram moved
    # between rows breaks the product identity of integer periods; a monic
    # cubic whose roots do not expand to it breaks the polynomial check; a
    # count of GF(27)'s order-2 histogram moved between traces breaks the
    # product identity of irrational periods
    code = (
        "from irrcyclic import closed_forms, cyclotomy, fields\n"
        "def moved(p, d, N, a, b):\n"
        "    tower = fields.build_tower(p, 1, d)\n"
        "    hist = cyclotomy._class_histogram(tower.core.trace_by_log(), N, p)\n"
        "    hist[a] -= 1\n"
        "    hist[b] += 1\n"
        "    h = cyclotomy.dlog_of_minus_one(p, tower.r) % N\n"
        "    return lambda: cyclotomy._check_period_identities(hist, tower.core, N, h)\n"
        "checks = [\n"
        "    moved(2, 3, 1, (0, 0), (0, 1)),\n"
        "    moved(2, 6, 3, (0, 1), (1, 1)),\n"
        "    lambda: closed_forms.PeriodPolynomial(3, 7, (0, 0, 0, 1), ((1, 3),)),\n"
        "    moved(3, 3, 2, (0, 1), (0, 2)),\n"
        "]\n"
        "for check in checks:\n"
        "    try:\n"
        "        check()\n"
        "    except AssertionError as exc:\n"
        "        print(exc)\n"
        "    else:\n"
        "        print('passed')\n"
    )
    run = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "period sum identity failed",
        "period product identity failed",
        "roots do not expand to the coefficients",
        "period product identity failed",
    ]
