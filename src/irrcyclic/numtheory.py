"""Elementary number theory used by the closed-form weight formulas.

Everything here is exact integer arithmetic.  The diophantine solvers return
the canonical representative demanded by the formulas that consume them
(sign congruences pin the solution down uniquely), as a plain (x, y) tuple;
all three filter one scan of x^2 + D*y^2 = M.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator

from .errors import BadDiscriminant, NoRepresentation, NotCoprime, NotPrime, Unsupported

# the most candidates y one norm-form scan tries.  The longest scan that
# answers a spec, `dist --p 13 --s 1 --m 24 --N 4` (thm21), tries 2,413,405
# in about a second; the shortest of the known hangs tries 407,865,361
NORM_SCAN_CAP = 1 << 22

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# (psi, k): below psi the first k witnesses prove primality, where psi is the
# least strong pseudoprime to those k bases (Jaeschke, Math. Comp. 1993)
_MR_TIERS = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
)


def is_prime(n: int) -> bool:
    """Primality: proven below 2^64, Baillie-PSW above.

    Miller-Rabin on the twelve primes up to 37 is deterministic below
    318665857834031151167461 > 2^64, a composite that passes all twelve
    (Sorenson & Webster, Math. Comp. 2017); below the bounds in _MR_TIERS a
    prefix of them already is.  Above 2^64 a strong base-2 test plus a strong
    Lucas test with Selfridge's parameters decides: no composite passing both
    is known (Baillie & Wagstaff, Math. Comp. 1980).
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True  # a composite has a prime factor of at most sqrt(n) < 41
    if n < 1 << 64:
        k = next((k for psi, k in _MR_TIERS if n < psi), len(_MR_WITNESSES))
        return _strong_probable_prime(n, _MR_WITNESSES[:k])
    return _strong_probable_prime(n, (2,)) and _strong_lucas_probable_prime(n)


@functools.lru_cache(maxsize=256)
def require_prime(n: int) -> None:
    """Refuse a parameter n that must be prime and is not.

    Memoized: a sweep asks about the same few primes once per instance, and
    a refusal is never cached, so it raises on every call."""
    if not is_prime(n):
        raise NotPrime(f"{n} is not prime")


def _strong_probable_prime(n: int, bases: tuple) -> bool:
    """Miller-Rabin for odd n > 2 and every base in bases."""
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a / n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test for odd n > 2 with Selfridge's parameters: the first
    D in 5, -7, 9, -11, ... with (D / n) = -1, P = 1 and Q = (1 - D) / 4."""
    if math.isqrt(n) ** 2 == n:
        return False  # no D would have (D / n) = -1
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False  # D shares a factor with n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d = n + 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x: int) -> int:
        # x / 2 mod n, n odd
        return (x + n if x & 1 else x) // 2 % n

    # U_k, V_k and Q^k mod n, from k = 1 up the bits of d; P = 1
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        # k -> 2k: U_2k = U_k V_k, V_2k = V_k^2 - 2 Q^k
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            # k -> k + 1: U = (P U + V) / 2, V = (D U + P V) / 2
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        # V_2k = V_k^2 - 2 Q^k
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    for c in range(1, 50):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed on {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}, a fresh dict on every call."""
    if n <= 0:
        raise ValueError("factorize needs a positive integer")
    return dict(_factorize(n))


@functools.lru_cache(maxsize=256)
def _factorize(n: int) -> dict[int, int]:
    # shared by every caller through the cache: factorize hands out copies
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 7
    # trial divide with a 2,4 wheel up to ~2**20, then rho for what remains
    step = 4
    while f * f <= n and f < (1 << 20):
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += step
        step = 6 - step
    while n > 1:
        if is_prime(n):
            out[n] = out.get(n, 0) + 1
            break
        d = _pollard_rho(n)
        while not is_prime(d):
            d = _pollard_rho(d)
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
    return out


def iroot(n: int, e: int) -> int:
    """Largest x with x**e <= n, for n >= 1 and e >= 1."""
    # Newton's iteration descends monotonically from any start above the root
    x = 1 << -(-n.bit_length() // e)
    while True:
        y = ((e - 1) * x + n // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


def prime_power(n: int) -> tuple[int, int] | None:
    """(t, e) with n = t**e for a prime t, or None; n is never factored.

    A witness prime that divides n settles it at once.  Otherwise every prime
    factor of n is at least 41, and a prime power has exactly one exponent e
    whose integer e-th root is prime, so trying every e up to log_41(n)
    settles it.
    """
    if n < 2:
        return None
    for t in _MR_WITNESSES:
        if n % t == 0:
            e = valuation(n, t)
            return (t, e) if t**e == n else None
    t, e = n, 1
    while t >= 41:
        if t**e == n and is_prime(t):
            return t, e
        e += 1
        t = iroot(n, e)
    return None


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def valuation(n: int, p: int) -> int:
    """Largest e with p**e dividing n; n must be nonzero."""
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def mult_order(a: int, modulus: int, *, divisor_of: int | None = None) -> int:
    """Multiplicative order of a modulo modulus.

    The search starts from a multiple D of the order, phi(modulus) by
    default, and divides D down prime by prime.  When the order is known to
    divide some D (for instance the degree of a field extension), pass
    divisor_of=D: only D is factored, never the modulus.
    """
    if modulus < 1:
        raise ValueError("modulus must be positive")
    if modulus == 1:
        return 1
    a %= modulus
    if math.gcd(a, modulus) != 1:
        raise NotCoprime(f"{a} shares a factor with {modulus}")
    order = divisor_of
    if order is None:
        order = 1
        for p, e in factorize(modulus).items():
            order *= (p - 1) * p ** (e - 1)
    if pow(a, order, modulus) != 1:
        raise ValueError(f"order of {a} mod {modulus} does not divide {divisor_of}")
    for p in factorize(order):
        while order % p == 0 and pow(a, order // p, modulus) == 1:
            order //= p
    return order


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for odd prime p: the Jacobi symbol of a prime."""
    return _jacobi(a, p)


def semiprimitive_j(p: int, N: int, *, divisor_of: int | None = None) -> int | None:
    """Least j with p**j = -1 (mod N), or None when no such j exists.

    Exists iff the order e of p mod N is even with p**(e/2) = -1; then j = e/2.
    divisor_of is passed to mult_order: a known multiple of the order, such as
    d when N divides p**d - 1, spares factoring N.
    """
    if N < 1 or math.gcd(p, N) > 1:
        # -1 is a unit mod N and p**j is not
        return None
    e = mult_order(p, N, divisor_of=divisor_of)
    if N <= 2:
        # -1 = 1 mod N, so j = order works; callers only use N >= 3
        return e
    if e % 2 == 0 and pow(p, e // 2, N) == N - 1:
        return e // 2
    return None


def class_number(l: int) -> int:
    """Class number h(-l) for a prime l = 3 (mod 4), l > 3.

    Counts reduced binary quadratic forms (A, B, C) of discriminant -l:
    B^2 - 4AC = -l with |B| <= A <= C, and B >= 0 when |B| = A or A = C.
    """
    require_prime(l)
    if l % 4 != 3 or l == 3:
        raise BadDiscriminant(f"-{l} is outside the supported family")
    h = 0
    b = 1
    while 3 * b * b <= l:
        m4 = b * b + l
        if m4 % 4 == 0:
            m = m4 // 4
            a = b
            while a * a <= m:
                if m % a == 0:
                    c = m // a
                    h += 1 if (a == b or a == c) else 2
                a += 1
        b += 2
    return h


def _norm_form_points(D: int, M: int, y: int) -> Iterator[tuple[int, int]]:
    """Every (x, y) with x^2 + D*y^2 = M from the given y up: y ascending,
    +x before -x, and x = 0 once.  The one O(sqrt(M/D)) scan behind the three
    solvers below, each of which filters it by its own admissibility rule.
    A scan of more than NORM_SCAN_CAP candidates is refused before it starts."""
    length = math.isqrt(M // D) - y + 1
    if length > NORM_SCAN_CAP:
        raise Unsupported(
            f"solving x^2 + {D} y^2 = M takes {length} candidates, past the cap {NORM_SCAN_CAP}"
        )
    while D * y * y <= M:
        rest = M - D * y * y
        x = math.isqrt(rest)
        if x * x == rest:
            yield x, y
            if x:
                yield -x, y
        y += 1


def solve_c27d(m: int, p: int) -> tuple[int, int]:
    """The unique (c, d) with 4m = c^2 + 27 d^2, c = 1 (mod 3), d >= 0.

    When p = 1 (mod 3) the solution with gcd(c, p) = 1 is selected.
    """
    hits = [
        (c, d) for c, d in _norm_form_points(27, 4 * m, 0)
        if c % 3 == 1 and (p % 3 != 1 or math.gcd(c, p) == 1)
    ]
    if len(hits) != 1:
        raise NoRepresentation(f"4*{m} = c^2 + 27 d^2 has {len(hits)} admissible solutions")
    return hits[0]


def solve_u4v(m: int, p: int) -> tuple[int, int]:
    """The unique (u, v) with m = u^2 + 4 v^2, u = 1 (mod 4), v >= 0.

    When p = 1 (mod 4) the solution with gcd(u, p) = 1 is selected.
    """
    hits = [
        (u, v) for u, v in _norm_form_points(4, m, 0)
        if u % 4 == 1 and (p % 4 != 1 or math.gcd(u, p) == 1)
    ]
    if len(hits) != 1:
        raise NoRepresentation(f"{m} = u^2 + 4 v^2 has {len(hits)} admissible solutions")
    return hits[0]


def solve_alb(p: int, l: int, h: int) -> tuple[int, int]:
    """(a, b) with a^2 + l b^2 = 4 p^h, a = -2 p^((l-1+2h)/4) (mod l), b > 0.

    The congruence fixes the sign of a; h is the class number of -l, which is
    odd for the primes l = 3 (mod 4) handled here, making the exponent integral.
    The first admissible solution, by ascending b, is returned.
    """
    if (l - 1 + 2 * h) % 4 != 0:
        raise NoRepresentation(f"(l-1+2h)/4 is not an integer for l={l}, h={h}")
    need = (-2 * pow(p, (l - 1 + 2 * h) // 4, l)) % l
    for a, b in _norm_form_points(l, 4 * p**h, 1):
        if a % l == need:
            return a, b
    raise NoRepresentation(f"a^2 + {l} b^2 = 4*{p}^{h} has no admissible solution")
