"""End-to-end acceptance checks.

One test per criterion: golden weight distributions through both routes,
large-field quadratic-residue codes, oracle equivalence on GF(2^21), an
exhaustive small-field sweep, the cyclotomy property suite, closed-form
versus numeric Gauss sums, the published bound table, and period
polynomials against brute-force periods.  Each test enforces its stated
time budget and prints a one-line verdict.
"""

import math
import time
from collections import Counter

import numpy as np

from irrcyclic import (
    closed_forms,
    cyclotomy,
    fields,
    numtheory,
    oracle,
    weights,
)
from irrcyclic.cli import _TABLE1, table1_rows

# weight enumerators that must come out of both the dispatcher and the
# brute-force oracle, byte for byte
GOLDEN = [
    ((5, 1, 4, 4), "1 + 156x^112 + 156x^124 + 156x^128 + 156x^136"),
    ((3, 1, 4, 2), "1 + 40x^24 + 40x^30"),
    ((3, 2, 2, 8), "1 + 40x^8 + 40x^10"),
    ((3, 2, 2, 16), "1 + 40x^4 + 40x^5"),
    ((3, 1, 4, 4), "1 + 60x^12 + 20x^18"),
    ((7, 1, 3, 6), "1 + 114x^45 + 114x^48 + 114x^54"),
    ((7, 1, 3, 18), "1 + 114x^15 + 114x^16 + 114x^18"),
    ((2, 2, 6, 3), "1 + 2730x^1008 + 1365x^1056"),
    ((2, 2, 6, 9), "1 + 2730x^336 + 1365x^352"),
    ((2, 2, 3, 3), "1 + 21x^12 + 42x^18"),
    ((2, 2, 3, 9), "1 + 21x^4 + 42x^6"),
    ((5, 1, 4, 16), "1 + 156x^28 + 156x^31 + 156x^32 + 156x^34"),
    ((2, 2, 9, 29127), "1 + 9x^3 + 27x^6 + 27x^9"),
    ((7, 1, 2, 12), "1 + 12x^2 + 36x^4"),
]


def test_criterion_1_golden_suite():
    t0 = time.perf_counter()
    for args, want in GOLDEN:
        spec = weights.code_params(*args)
        closed = weights.weight_distribution(spec, "closed")
        brute = oracle.brute_weight_distribution(spec)
        assert closed.method != "brute"
        assert closed.entries == brute.entries, spec
        assert closed.enumerator_text() == want, spec
        assert brute.enumerator_text() == want, spec
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"criterion 1: PASS ({len(GOLDEN)} codes, both routes, {elapsed:.2f}s)")


def test_criterion_2_large_field_closed_forms():
    t0 = time.perf_counter()
    spec = weights.code_params(2, 1, 42, 49)
    dist = weights.weight_distribution(spec, "closed")
    n = (2**42 - 1) // 49
    assert spec.N1 == 49 and spec.n == n
    # published multiplicities are class counts; codeword counts carry
    # the extra factor n = (r-1)/N1
    published = [
        (44877307904, 1),
        (44877832192, 3),
        (44877979648, 21),
        (44878086144, 21),
        (44878356480, 3),
    ]
    assert dist.method == "thm22"
    assert dist.entries == tuple((w, c * n) for w, c in published)
    assert sum(c for _, c in published) == 49

    spec = weights.code_params(3, 1, 55, 121)
    dist = weights.weight_distribution(spec, "closed")
    n = (3**55 - 1) // 121
    assert n == 1441729016604299000588186
    published = [
        (961152677733830625644778, 6),
        (961152677735964537698190, 55),
        (961152677736445713945528, 55),
        (961152677738914357301436, 5),
    ]
    assert dist.method == "thm22"
    assert dist.entries == tuple((w, c * n) for w, c in published)
    # two class sums coincide at the lowest weight, so 1 + 5 classes
    # merge into the coefficient 6
    assert sum(c for _, c in published) == 121
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"criterion 2: PASS (class counts 1,3,21,21,3 and 6,55,55,5; "
          f"counts scale by n; {elapsed:.2f}s)")


def test_criterion_3_index_two_oracle_equivalence():
    t0 = time.perf_counter()
    spec = weights.code_params(2, 1, 21, 49)
    assert spec.r == 2**21
    closed = weights.weight_distribution(spec, "closed")
    brute = oracle.brute_weight_distribution(spec)
    assert closed.method == "thm22"
    assert closed.entries == brute.entries
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"criterion 3: PASS (r = 2097152 closed == brute, {elapsed:.2f}s)")


def test_criterion_4_exhaustive_small_field_sweep():
    t0 = time.perf_counter()
    instances = closed_hits = brute_only = 0
    for p in range(2, 16385):
        if not numtheory.is_prime(p):
            continue
        e, r = 1, p
        while r <= 16384:
            for m in numtheory.divisors(e):
                s = e // m
                tower = fields.build_tower(p, s, m)
                for N in numtheory.divisors(r - 1):
                    spec = weights.code_params(p, s, m, N)
                    auto = weights.weight_distribution(spec)
                    instances += 1
                    div = weights.divisibility(spec)
                    lo, hi = weights.bounds(spec)
                    for w, c in auto.entries:
                        assert w % div == 0, spec
                        assert lo <= w <= hi, spec
                    assert auto.total_nonzero() == spec.q**spec.m0 - 1, spec
                    if auto.method == "brute":
                        brute_only += 1
                        pset = cyclotomy.gaussian_periods_exact(tower, spec.N1)
                        chk = weights.check_period_properties(spec, pset)
                        assert chk.integral and chk.congruent and chk.bounded, spec
                    else:
                        closed_hits += 1
                        brute = oracle.brute_weight_distribution(spec, tower)
                        assert auto.entries == brute.entries, spec
            e += 1
            r *= p
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(f"criterion 4: PASS ({instances} instances, {closed_hits} closed vs "
          f"oracle, {brute_only} oracle-only with invariants, {elapsed:.1f}s)")


# every extension field below 2^12 is checked exactly; prime fields fall
# back to the structural argument once N*p outgrows the cap, matching the
# library's own prime-field product-rule path
EXACT_PERIOD_CAP = 1 << 14
NUMERIC_TIE_CAP = 1 << 14
PRODUCT_CAP = 1 << 19


def test_criterion_5_cyclotomy_property_suite():
    t0 = time.perf_counter()
    towers = []
    for p in range(2, 4097):
        if numtheory.is_prime(p):
            e, r = 1, p
            while r <= 4096:
                towers.append((p, e, r))
                e += 1
                r *= p

    instances = 0
    for p, e, r in towers:
        tower = fields.build_tower(p, 1, e)
        core = tower.core
        tr = core.trace_by_log()
        slog = core.succ_log()
        k = np.arange(r - 1, dtype=np.int64)
        valid = slog >= 0
        chi = np.exp(2j * np.pi * tr / p)
        sqr = math.sqrt(r)
        log = core.log_table()
        # dlog is a bijection on the nonzero elements; the prime-field
        # product rule and the scalar-multiple multiset law reduce to it
        assert (np.sort(log[1:]) == np.arange(r - 1)).all()
        for N in numtheory.divisors(r - 1):
            n = (r - 1) // N
            instances += 1
            # sum_u (u, u+k) = n - [k == 0] without building the N x N table
            offsets = np.bincount((slog[valid] - k[valid]) % N, minlength=N)
            expected = np.full(N, n, dtype=np.int64)
            expected[0] -= 1
            assert (offsets == expected).all(), (r, N)
            if e > 1 or N * p <= EXACT_PERIOD_CAP:
                pset = cyclotomy.gaussian_periods_exact(tower, N)
                assert pset.product_rule_checked, (r, N)
            else:
                # large-order prime-field periods: each nonzero element
                # sits in exactly one class of size n, which is all the
                # exact product rule consumes
                assert (np.bincount(log[1:] % N, minlength=N) == n).all()
            # class-folded character sums are the numeric periods
            eta = chi.reshape(n, N).sum(axis=0)
            if N * p <= NUMERIC_TIE_CAP:
                assert np.abs(pset.numeric() - eta).max() < 1e-9
            G = N * np.fft.ifft(eta)
            assert abs(G[0] + 1) < 1e-6, (r, N)
            if N > 1:
                assert np.abs(np.abs(G[1:]) - sqr).max() < 1e-6, (r, N)
            assert np.abs(np.fft.fft(G) / N - eta).max() < 1e-6, (r, N)

        for m in numtheory.divisors(e):
            s = e // m
            subtower = fields.build_tower(p, s, m)
            q = p**s
            kappa = (r - 1) // (q - 1)
            for N in numtheory.divisors(r - 1):
                spec = weights.code_params(p, s, m, N)
                pset = cyclotomy.gaussian_periods_exact(subtower, spec.N1)
                chk = weights.check_period_properties(spec, pset)
                assert chk.integral and chk.congruent and chk.bounded, spec
                n = (r - 1) // N
                g = math.gcd(kappa, N)
                if (q - 1) * n <= PRODUCT_CAP:
                    # scalar multiples of a class cover the coarser class
                    # uniformly: dlogs i + jN + t*kappa hit each residue
                    # of i mod g exactly (q-1)g/N times
                    i = 1 % N
                    xl = i + N * np.arange(n, dtype=np.int64)
                    yl = kappa * np.arange(q - 1, dtype=np.int64)
                    prod = (xl[:, None] + yl[None, :]).ravel() % (r - 1)
                    hist = np.bincount(prod, minlength=r - 1)
                    mult = (q - 1) * g // N
                    member = (np.arange(r - 1) % g) == (i % g)
                    assert (hist[member] == mult).all(), spec
                    assert not hist[~member].any(), spec
                else:
                    # q = r here, so y -> xy is one orbit of the verified
                    # dlog bijection and the law collapses to g = 1
                    assert m == 1 and g == 1 and (q - 1) % N == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 5: PASS ({instances} (r, N) instances, {elapsed:.1f}s)")


def test_criterion_6_gauss_sums_closed_vs_numeric():
    t0 = time.perf_counter()
    # quadratic sums over GF(9), GF(25), GF(49), exact
    for p, want in [(3, 3), (5, -5), (7, 7)]:
        tower = fields.build_tower(p, 1, 2)
        direct = cyclotomy.quadratic_char_sum(tower, tower.one, tower.zero, tower.zero)
        assert direct.is_integer and direct.as_integer() == want
        exact = closed_forms.quadratic_gauss_sum(p, 2)
        assert exact.is_rational and exact.as_integer() == want

    # two-valued (semiprimitive) sums against direct numeric summation
    for p, N, gammas in [(2, 3, (1, 2, 3)), (3, 4, (1, 2))]:
        j = numtheory.semiprimitive_j(p, N)
        for gamma in gammas:
            sums = closed_forms.semiprimitive_gauss_sums(p, j, gamma, N)
            tower = fields.build_tower(p, 1, 2 * j * gamma)
            for i in range(1, N):
                numeric = cyclotomy.gauss_sum_numeric(tower, N, i)
                assert abs(numeric - sums[i - 1]) < 1e-6, (p, N, gamma, i)

    # quadratic-residue-case sums on GF(8); every order-7 character takes
    # the depth-1 value or its conjugate, three of each
    params = closed_forms.index2_params(2, 7, 1, 1)
    value = params.gauss_sum(1).value()
    tower = fields.build_tower(2, 1, 3)
    straight = conjugate = 0
    for j in range(1, 7):
        numeric = cyclotomy.gauss_sum_numeric(tower, 7, j)
        if abs(numeric - value) < 1e-6:
            straight += 1
        elif abs(numeric - value.conjugate()) < 1e-6:
            conjugate += 1
    assert straight == 3 and conjugate == 3
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"criterion 6: PASS (exact quadratic, two-valued, and "
          f"quadratic-residue sums, {elapsed:.2f}s)")


def test_criterion_7_bound_table():
    t0 = time.perf_counter()
    rows = table1_rows()
    assert len(rows) == 8
    for row, (_, printed) in zip(rows, _TABLE1):
        n, k, d, q, _, residue = printed
        assert (row["n"], row["k"], row["d"], row["q"], row["residue"]) == (n, k, d, q, residue)
    agree = [row for row in rows if row["agree"]]
    assert len(agree) == 7
    off = next(row for row in rows if not row["agree"])
    assert off["n"] == 312
    assert off["computed_bound"] == 240
    assert off["printed_bound"] == 236
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"criterion 7: PASS (7/8 rows agree; n=312 flagged: computed 240 "
          f"vs printed 236, {elapsed:.2f}s)")


def _monic_from_roots(periods):
    coeffs = [1]
    for eta in periods:
        coeffs = [0] + coeffs
        coeffs = [c0 - eta * c1 for c0, c1 in zip(coeffs, coeffs[1:] + [0])]
    return tuple(coeffs)


PERIOD_POLY_FIELDS = {
    3: [(2, 1, 4), (2, 1, 6), (2, 1, 8), (7, 1, 3), (5, 1, 4)],
    4: [(3, 1, 4), (5, 1, 4), (3, 1, 6)],
}


def test_criterion_8_period_polynomials():
    t0 = time.perf_counter()
    seen = set()
    for N, specs in PERIOD_POLY_FIELDS.items():
        build = closed_forms.period_poly_order3 if N == 3 else closed_forms.period_poly_order4
        for p, s, m in specs:
            poly = build(p, s, m)
            tower = fields.build_tower(p, s, m)
            seen.add(tower.r)
            pset = cyclotomy.gaussian_periods_exact(tower, N)
            periods = pset.integer_values
            assert periods is not None, (p, s, m, N)
            assert _monic_from_roots(periods) == poly.coeffs, (p, s, m, N)
            assert poly.roots is not None
            assert dict(poly.roots) == dict(Counter(periods)), (p, s, m, N)
    assert seen == {16, 64, 81, 256, 343, 625, 729}
    elapsed = time.perf_counter() - t0
    print(f"criterion 8: PASS (degree-3 and degree-4 period polynomials over "
          f"7 fields, {elapsed:.2f}s)")
