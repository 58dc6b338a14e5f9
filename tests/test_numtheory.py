import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from irrcyclic import numtheory as nt
from irrcyclic.errors import BadDiscriminant, NoRepresentation, NotCoprime, NotPrime, Unsupported


def _sieve(limit):
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(flags[i * i :: i]))
    return [i for i in range(limit) if flags[i]]


PRIMES_1000 = _sieve(1000)


def test_is_prime_against_sieve():
    primes = set(_sieve(10**5))
    for n in range(10**5):
        assert nt.is_prime(n) == (n in primes)


def test_is_prime_large():
    assert nt.is_prime(2**61 - 1)
    assert not nt.is_prime(2**67 - 1)
    assert nt.is_prime(10**18 + 9)
    assert nt.is_prime(2**64 + 13)  # the first prime past 2^64
    assert nt.is_prime(2**127 - 1)
    assert nt.is_prime(2**521 - 1)
    assert not nt.is_prime((2**61 - 1) * (2**67 - 1))


# strong Lucas pseudoprimes for Selfridge's parameters (OEIS A217255)
STRONG_LUCAS_PSEUDOPRIMES = (
    5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439,
)


def test_is_prime_rejects_pseudoprimes():
    # a strong pseudoprime to all twelve Miller-Rabin bases up to 37, past 2^64
    n = 318665857834031151167461
    assert n == 399165290221 * 798330580441 and n > 2**64
    assert nt._strong_probable_prime(n, nt._MR_WITNESSES)
    assert not nt.is_prime(n)
    for n in STRONG_LUCAS_PSEUDOPRIMES:
        assert nt._strong_lucas_probable_prime(n) and not nt.is_prime(n)
        assert not nt._strong_probable_prime(n, (2,))


# Jaeschke's psi_k (Math. Comp. 1993), each with the largest k for which it is
# the least strong pseudoprime to the first k prime bases
JAESCHKE_PSEUDOPRIMES = (
    (2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4), (2152302898747, 5),
    (3474749660383, 6), (341550071728321, 8), (3825123056546413051, 11),
)


def test_is_prime_tiers_reject_jaeschke_pseudoprimes():
    # psi_k passes the first k witnesses and fails the next one, so a tier
    # that reached psi_k with k bases or fewer would call it prime
    for psi, k in JAESCHKE_PSEUDOPRIMES:
        assert nt._strong_probable_prime(psi, nt._MR_WITNESSES[:k])
        assert not nt._strong_probable_prime(psi, nt._MR_WITNESSES[: k + 1])
        assert not nt.is_prime(psi)


def test_baillie_psw_against_sieve():
    # the test that decides above 2^64, run where a sieve can check it: its
    # Lucas half passes exactly the listed composites, and with the
    # base-2 test it passes exactly the primes
    primes = set(_sieve(10**5))
    lucas = set()
    for n in range(5, 10**5, 2):
        if nt._strong_lucas_probable_prime(n):
            lucas.add(n)
        bpsw = nt._strong_probable_prime(n, (2,)) and nt._strong_lucas_probable_prime(n)
        assert bpsw == (n in primes), n
    assert lucas - primes == set(STRONG_LUCAS_PSEUDOPRIMES)


@given(st.integers(2, 10**9))
def test_factorize_roundtrip(n):
    fac = nt.factorize(n)
    prod = 1
    for p, e in fac.items():
        assert nt.is_prime(p)
        assert e >= 1
        prod *= p**e
    assert prod == n


def test_factorize_known():
    assert nt.factorize(2**42 - 1) == {3: 2, 7: 2, 43: 1, 127: 1, 337: 1, 5419: 1}
    assert nt.factorize(3**10) == {3: 10}


def test_factorize_hands_out_fresh_dicts():
    fac = nt.factorize(360)
    fac[2] = 99
    fac[7] = 1
    assert nt.factorize(360) == {2: 3, 3: 2, 5: 1}


def test_factorize_past_trial_division():
    # both factors lie past the trial-division bound, so Pollard rho splits them
    assert nt.factorize((2**31 - 1) * (2**61 - 1)) == {2**31 - 1: 1, 2**61 - 1: 1}
    assert nt.factorize((2**31 - 1) ** 2) == {2**31 - 1: 2}


def test_iroot_and_prime_power():
    for n in range(1, 3000):
        for e in range(1, 12):
            x = nt.iroot(n, e)
            assert x**e <= n < (x + 1) ** e
    for n in range(1, 3000):
        fac = nt.factorize(n)
        assert nt.prime_power(n) == (next(iter(fac.items())) if len(fac) == 1 else None)
    assert nt.prime_power(3**160) == (3, 160)
    # past the witness primes, where the root loop decides
    for k in range(1, 12):
        assert nt.prime_power(41**k) == (41, k)
    assert nt.prime_power(1031**2) == (1031, 2)
    assert nt.prime_power((2**61 - 1) ** 2) == (2**61 - 1, 2)
    for n in (41 * 43, 41**3 * 43, 1031 * 1033, (2**31 - 1) * (2**61 - 1)):
        assert nt.prime_power(n) is None
    assert nt.prime_power(2**127 - 1) == (2**127 - 1, 1)
    # a 250-bit n that factorize cannot finish on
    assert nt.prime_power((2**255 - 1) // 31) is None


def test_divisors():
    assert nt.divisors(1) == [1]
    assert nt.divisors(12) == [1, 2, 3, 4, 6, 12]
    assert nt.divisors(49) == [1, 7, 49]


def test_valuation():
    with pytest.raises(ValueError):
        nt.valuation(0, 3)
    assert nt.valuation(121, 11) == 2
    assert nt.valuation(11, 11) == 1
    assert nt.valuation(10, 11) == 0


def test_mult_order_basics():
    assert nt.mult_order(2, 7) == 3
    assert nt.mult_order(3, 7) == 6
    assert nt.mult_order(5, 1) == 1
    assert nt.mult_order(4, 85) == 4
    with pytest.raises(NotCoprime):
        nt.mult_order(6, 9)


def test_mult_order_minimal_exhaustive():
    for n in range(2, 200):
        phi = sum(1 for b in range(1, n) if math.gcd(b, n) == 1)
        for a in range(1, n):
            if math.gcd(a, n) != 1:
                continue
            k = nt.mult_order(a, n)
            assert pow(a, k, n) == 1
            assert all(pow(a, j, n) != 1 for j in range(1, k))
            # the same minimum from any known multiple of the order
            assert nt.mult_order(a, n, divisor_of=phi) == k
            assert nt.mult_order(a, n, divisor_of=6 * phi) == k


def test_mult_order_divisor_hint():
    # hint restricts the search to divisors of the given bound
    assert nt.mult_order(3, 40, divisor_of=4) == 4
    assert nt.mult_order(4, 21, divisor_of=6) == 3


def test_legendre():
    # every odd prime below 100, with a over two periods either side of zero,
    # so negative a and the multiples of p are covered
    for p in (q for q in range(3, 100) if nt.is_prime(q)):
        squares = {pow(a, 2, p) for a in range(1, p)}
        for a in range(-2 * p, 2 * p + 1):
            want = 0 if a % p == 0 else 1 if a % p in squares else -1
            assert nt.legendre(a, p) == want, (a, p)
        assert nt.legendre(p, p) == 0


def test_semiprimitive_j_examples():
    assert nt.semiprimitive_j(7, 12) is None
    assert nt.semiprimitive_j(2, 3) == 1
    assert nt.semiprimitive_j(3, 4) == 1
    assert nt.semiprimitive_j(2, 5) == 2
    assert nt.semiprimitive_j(5, 4) is None  # 5 = 1 (mod 4)


def test_semiprimitive_j_matches_definition():
    for p in (2, 3, 5, 7, 11, 13):
        for N in range(3, 80):
            if math.gcd(p, N) != 1:
                continue
            want = None
            for j in range(1, N + 1):
                if pow(p, j, N) == N - 1:
                    want = j
                    break
            assert nt.semiprimitive_j(p, N) == want


def _class_number_dirichlet(l):
    """h(-l) for prime l = 3 (mod 4), l > 3, from the residue-count formula."""
    squares = {pow(a, 2, l) for a in range(1, l)}
    half = [a for a in range(1, (l + 1) // 2)]
    R = sum(1 for a in half if a in squares)
    S = len(half) - R
    return (R - S) // (2 - nt.legendre(2, l))


def test_class_number_examples():
    assert nt.class_number(7) == 1
    assert nt.class_number(11) == 1
    assert nt.class_number(23) == 3
    # -3 and -l for l = 1 (mod 4) are outside the family
    for l in (3, 5, 13):
        with pytest.raises(BadDiscriminant):
            nt.class_number(l)


def test_class_number_against_residue_count():
    for l in PRIMES_1000:
        if l % 4 == 3 and l > 3:
            assert nt.class_number(l) == _class_number_dirichlet(l)


def test_solve_c27d_examples():
    assert tuple(nt.solve_c27d(7, 7)) == (1, 1)
    assert tuple(nt.solve_c27d(64, 2)) == (16, 0)
    # c = +7 also solves the norm equation but is divisible by p
    assert tuple(nt.solve_c27d(343, 7)) == (-20, 6)


def test_solve_c27d_equation_sweep():
    for p in (7, 13, 31, 61, 2, 5, 11):
        for k in (1, 2, 3):
            M = p**k
            if p % 3 == 2 and k % 2:
                continue  # no representation exists
            c, d = nt.solve_c27d(M, p)
            assert 4 * M == c * c + 27 * d * d
            assert c % 3 == 1
            assert d >= 0
            if p % 3 == 1:
                assert c % p != 0


def test_solve_c27d_no_representation():
    with pytest.raises(NoRepresentation):
        nt.solve_c27d(2, 2)


def test_solve_u4v_examples():
    assert tuple(nt.solve_u4v(81, 3)) == (9, 0)
    assert tuple(nt.solve_u4v(25, 5)) == (-3, 2)
    assert tuple(nt.solve_u4v(625, 5)) == (-7, 12)


def test_solve_u4v_equation_sweep():
    for p in (5, 13, 17, 29, 3, 7):
        for k in (1, 2, 3, 4):
            M = p**k
            if p % 4 == 3 and k % 2:
                continue
            u, v = nt.solve_u4v(M, p)
            assert M == u * u + 4 * v * v
            assert u % 4 == 1
            assert v >= 0
            if p % 4 == 1:
                assert u % p != 0


def test_solve_u4v_no_representation():
    with pytest.raises(NoRepresentation):
        nt.solve_u4v(3, 3)


def test_solve_alb_examples():
    assert tuple(nt.solve_alb(2, 7, 1)) == (-1, 1)
    assert tuple(nt.solve_alb(3, 11, 1)) == (1, 1)
    assert tuple(nt.solve_alb(2, 23, 3)) == (-3, 1)


def test_solve_alb_equation():
    for p, l in ((2, 7), (3, 11), (2, 23), (5, 23), (3, 23), (2, 31), (5, 31)):
        if nt.mult_order(p, l) != (l - 1) // 2:
            continue
        h = nt.class_number(l)
        a, b = nt.solve_alb(p, l, h)
        assert a * a + l * b * b == 4 * p**h
        assert b > 0
        assert a % l == (-2 * pow(p, (l - 1 + 2 * h) // 4, l)) % l


def test_norm_form_scan():
    # y ascending from the start, +x before -x, and x = 0 once
    tail = [(4, 3), (-4, 3), (3, 4), (-3, 4), (0, 5)]
    assert list(nt._norm_form_points(1, 25, 0)) == [(5, 0), (-5, 0), *tail]
    assert list(nt._norm_form_points(1, 25, 1)) == tail
    assert list(nt._norm_form_points(27, 28, 0)) == [(1, 1), (-1, 1)]
    assert list(nt._norm_form_points(7, 3, 0)) == []
    for D, M in ((1, 5**6), (4, 13**4), (27, 4 * 7**4), (23, 4 * 2**3)):
        top = math.isqrt(M)
        points = [(x, y) for y in range(top + 1) for x in range(-top, top + 1)
                  if x * x + D * y * y == M]
        want = sorted(points, key=lambda xy: (xy[1], -xy[0]))
        assert list(nt._norm_form_points(D, M, 0)) == want
    # a scan of NORM_SCAN_CAP candidates runs; one more is refused up front
    cap = nt.NORM_SCAN_CAP
    assert next(nt._norm_form_points(1, (cap - 1) ** 2, 0)) == (cap - 1, 0)
    with pytest.raises(Unsupported, match="past the cap"):
        next(nt._norm_form_points(1, cap * cap, 0))


def test_solvers_return_plain_tuples():
    for got in (nt.solve_c27d(7, 7), nt.solve_u4v(25, 5), nt.solve_alb(2, 7, 1)):
        assert type(got) is tuple and len(got) == 2


def test_not_prime_errors():
    with pytest.raises(NotPrime):
        nt.class_number(15)


def test_require_prime_is_memoized_and_still_refuses():
    nt.require_prime.cache_clear()
    for _ in range(3):
        nt.require_prime(65537)
    assert nt.require_prime.cache_info().hits == 2
    # a refusal is not cached: it raises, with the same text, every time
    for _ in range(2):
        with pytest.raises(NotPrime, match=r"^65535 is not prime$"):
            nt.require_prime(65535)
