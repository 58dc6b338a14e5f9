"""Finite field towers GF(p) <= GF(q) <= GF(r) with exact arithmetic.

Elements are polynomial residues modulo a fixed irreducible polynomial over
the prime field.  Each tower fixes a distinguished primitive element alpha
of the top field; discrete logs, traces and whole-field enumeration are all
expressed relative to alpha.  Every whole-field array derives from one
sequence, t[k] = Tr(alpha^k) down to GF(p).  Two towers with the same
characteristic and top degree share the heavy per-field data (modulus,
alpha, trace sequence, log table) through a small cache, so sweeping over
subfield structures is cheap.  A tower holds alpha and its subfield
generator as coefficient tuples and builds the elements on access, so no
tower is in a reference cycle: a field the cache evicts is freed at once,
and the cache's size bound is a bound on memory.

Each whole-field array is stored at the width its values need: t in the
smallest unsigned type that holds p - 1 (one byte up to p = 256), the
subfield trace-zero masks as booleans, and only the log and successor-log
tables, whose entries reach r, in int64.  Arithmetic on t runs in wider
scratch blocks of SCRATCH_BLOCK entries, because sums and products of
narrow entries wrap: the sequence is built in the narrowest unsigned type
that holds d (p - 1)^2, and the period histograms key in int64.

Coefficient tuples are ascending: coeffs[i] multiplies x**i.  The integer
encoding of an element is sum(coeffs[i] * p**i), and "smallest" modulus or
primitive element always means smallest under that encoding.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator

import numpy as np

from . import numtheory
from .errors import DEFAULT_ENUM_BUDGET, ZeroHasNoLog, require_tower_size

# entries of a scratch block: the trace sequence is summed, and the period
# histograms in cyclotomy are keyed, this many elements at a time
SCRATCH_BLOCK = 1 << 16


# ---------------------------------------------------------------------------
# polynomial arithmetic over GF(p); residues are tuples of length d


def _pmul(a: tuple, b: tuple, modulus: tuple, p: int) -> tuple:
    d = len(a)
    if d == 1:
        return ((a[0] * b[0]) % p,)
    prod = [0] * (2 * d - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] += ai * bj
    for i in range(2 * d - 2, d - 1, -1):
        c = prod[i] % p
        if c:
            # x^i = -x^(i-d) * modulus[<d] since the modulus is monic
            for j in range(d):
                if modulus[j]:
                    prod[i - d + j] -= c * modulus[j]
        prod[i] = 0
    return tuple(v % p for v in prod[:d])


def _ppow(a: tuple, e: int, modulus: tuple, p: int) -> tuple:
    d = len(a)
    if d == 1:
        return (pow(a[0], e, p),)
    out = (1,) + (0,) * (d - 1)
    base = a
    while e:
        if e & 1:
            out = _pmul(out, base, modulus, p)
        base = _pmul(base, base, modulus, p)
        e >>= 1
    return out


def _pstrip(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pgcd_is_const(a: list, b: list, p: int) -> bool:
    """True when gcd(a, b) over GF(p) has degree zero."""
    a = _pstrip([x % p for x in a])
    b = _pstrip([x % p for x in b])
    while b:
        inv = pow(b[-1], p - 2, p)
        while len(a) >= len(b):
            top = a[-1] * inv % p
            off = len(a) - len(b)
            if top:
                for i, c in enumerate(b):
                    a[off + i] = (a[off + i] - top * c) % p
            else:
                a.pop()
                continue
            _pstrip(a)
        a, b = b, a
    return len(a) == 1


def _is_irreducible(modulus: tuple, p: int) -> bool:
    """Rabin's test for a monic polynomial given as its full coefficient tuple."""
    d = len(modulus) - 1
    if d == 1:
        return True
    x = (0, 1) + (0,) * (d - 2)
    checkpoints = {d // ell for ell in numtheory.factorize(d)}
    cur = x
    for k in range(1, d + 1):
        cur = _ppow(cur, p, modulus, p)
        if k in checkpoints:
            diff = [(cur[i] - x[i]) % p for i in range(d)]
            if not _pgcd_is_const(list(modulus), diff, p):
                return False
    return cur == x


def _unit_vectors(d: int) -> Iterator[tuple]:
    for j in range(d):
        yield tuple(1 if i == j else 0 for i in range(d))


def _digits(n: int, p: int, d: int) -> tuple:
    out = []
    for _ in range(d):
        out.append(n % p)
        n //= p
    return tuple(out)


def _find_modulus(p: int, d: int) -> tuple:
    """Smallest irreducible monic polynomial of degree d over GF(p)."""
    if d == 1:
        return (0, 1)
    for enc in range(p**d):
        if enc % p == 0:
            continue  # x divides it
        cand = _digits(enc, p, d) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise AssertionError("no irreducible polynomial found")  # impossible


# ---------------------------------------------------------------------------
# shared per-(p, degree) data


def _solve_mod(rows: list, rhs: list, p: int) -> list:
    """The x with rows @ x = rhs over GF(p); rows must be invertible."""
    n = len(rhs)
    aug = [[v % p for v in row] + [b % p] for row, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col]), None)
        if piv is None:
            raise AssertionError("trace sequence must have linear complexity d")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], p - 2, p)
        aug[col] = [v * inv % p for v in aug[col]]
        for i in range(n):
            f = aug[i][col]
            if i != col and f:
                aug[i] = [(v - f * w) % p for v, w in zip(aug[i], aug[col])]
    return [row[n] for row in aug]


class _Core:
    """Everything about GF(p^d) that does not depend on the subfield split.

    The one whole-field array is the trace m-sequence t[k] = Tr(alpha^k)
    down to GF(p).  The d-window (t[k], ..., t[k+d-1]) holds the coordinates
    of alpha^k in the basis trace-dual to 1, alpha, ..., alpha^(d-1), so the
    log and successor-log tables are read off windows of t.
    """

    def __init__(self, p: int, d: int, modulus: tuple | None = None):
        self.p = p
        self.d = d
        self.r = p**d
        self.modulus = tuple(c % p for c in modulus) if modulus else _find_modulus(p, d)
        if len(self.modulus) != d + 1 or self.modulus[d] != 1:
            raise ValueError("modulus must be monic of the tower degree")
        if modulus and not _is_irreducible(self.modulus, p):
            raise ValueError("modulus is reducible")
        self.alpha_coeffs = self._find_primitive()
        self.trace_form = self._trace_form()
        self._seq: np.ndarray | None = None
        self._trace_by_log: np.ndarray | None = None
        self._window_forms: np.ndarray | None = None
        self._log: np.ndarray | None = None
        self._succ_log: np.ndarray | None = None
        self.cache: dict = {}

    # -- construction helpers

    def _find_primitive(self) -> tuple:
        """Smallest primitive element under the integer encoding."""
        p, d, r = self.p, self.d, self.r
        one = (1,) + (0,) * (d - 1)
        if r == 2:
            return one
        checks = [(r - 1) // ell for ell in numtheory.factorize(r - 1)]
        # past GF(p) itself, encodings below p are GF(p), whose orders divide
        # p - 1 < r - 1; in GF(p), 0 and 1 are never primitive
        for enc in range(2 if d == 1 else p, r):
            cand = _digits(enc, p, d)
            if all(_ppow(cand, e, self.modulus, p) != one for e in checks):
                return cand
        raise AssertionError("no primitive element found")  # impossible

    def _frobenius_matrix(self) -> np.ndarray:
        cols = [_ppow(e, self.p, self.modulus, self.p) for e in _unit_vectors(self.d)]
        return np.array(cols, dtype=np.int64).T

    def _trace_form(self) -> np.ndarray:
        """Row vector w with Tr(x) = (w @ coeffs) mod p down to GF(p)."""
        frob = self._frobenius_matrix()
        acc = np.eye(self.d, dtype=np.int64)
        total = np.zeros((self.d, self.d), dtype=np.int64)
        for _ in range(self.d):
            total = (total + acc) % self.p
            acc = (frob @ acc) % self.p
        if total[1:].any():
            raise AssertionError("trace must land in the prime field")
        return total[0].copy()

    def _trace(self, coeffs: tuple) -> int:
        return int(self.trace_form @ np.array(coeffs, dtype=np.int64)) % self.p

    def _sequence(self) -> np.ndarray:
        """t[k] = Tr(alpha^k) for 0 <= k < r - 1 + d, by jump doubling.

        The first 2d terms fix the order-d recurrence alpha^d = sum c_i alpha^i.
        With alpha^n = sum a_i alpha^i (reduced by that recurrence), every
        known length n >= 2d extends by t[n + j] = sum a_i t[i + j] for
        j <= n - d, so each step takes the known length from n to 2n - (d - 1),
        and X^n follows by one squaring and one product with X^(1 - d).
        t has the dtype np.min_scalar_type(p - 1); each step sums
        SCRATCH_BLOCK terms at a time in the narrowest unsigned scratch type
        that holds d (p - 1)^2, where products and sums cannot wrap, and
        writes them back reduced mod p.
        """
        if self._seq is None:
            p, d = self.p, self.d
            total = self.r - 1 + d
            head = []
            x = (1,) + (0,) * (d - 1)
            for _ in range(2 * d):
                head.append(self._trace(x))
                x = _pmul(x, self.alpha_coeffs, self.modulus, p)
            c = _solve_mod([head[i : i + d] for i in range(d)], head[d:], p)
            minpoly = tuple(-ci % p for ci in c) + (1,)
            # the residue of X modulo the minimal polynomial of alpha
            gen = (0, 1) + (0,) * (d - 2) if d > 1 else (c[0],)
            t = np.empty(total, dtype=np.min_scalar_type(p - 1))
            t[: 2 * d] = head
            scratch = np.min_scalar_type(d * (p - 1) ** 2)
            width = min(SCRATCH_BLOCK, total)
            acc = np.empty(width, dtype=scratch)
            term = np.empty(width, dtype=scratch)
            n = 2 * d
            power = _ppow(gen, n, minpoly, p)
            back = _ppow(gen, self.r - d, minpoly, p)  # X^(1-d), as X^(r-1) = 1
            while n < total:
                take = min(n - d + 1, total - n)
                terms = [(i, a) for i, a in enumerate(power) if a]
                for lo in range(0, take, width):
                    size = min(width, take - lo)
                    # t[lo + i + j] for i < d and j < size lies below n, so is known
                    block, prod = acc[:size], term[:size]
                    block[:] = 0
                    for i, a in terms:
                        src = t[lo + i : lo + i + size]
                        block += src if a == 1 else np.multiply(src, a, out=prod, dtype=scratch)
                    block %= p
                    t[n + lo : n + lo + size] = block
                n += take
                if n < total:
                    power = _pmul(_pmul(power, power, minpoly, p), back, minpoly, p)
            if not (t[self.r - 1 :] == t[:d]).all():
                raise AssertionError("trace sequence must close with period r - 1")
            self._seq = t
        return self._seq

    def _window_codes(self, shift: np.ndarray) -> np.ndarray:
        """codes[k] = sum_i ((t[k+i] + shift[i]) mod p) * p^i for k < r - 1.

        By linearity of the trace this is the window encoding of
        alpha^k + y, where shift is the window of y.
        """
        t, n, p = self._sequence(), self.r - 1, self.p
        codes = np.zeros(n, dtype=np.int64)
        digit = np.empty(n, dtype=np.int64)
        for i in range(self.d - 1, -1, -1):
            codes *= p
            if shift[i]:
                np.add(t[i : i + n], shift[i], out=digit, dtype=np.int64)
                digit[digit >= p] -= p
                codes += digit
            else:
                codes += t[i : i + n]
        return codes

    def window_code(self, coeffs: tuple) -> int:
        """Window encoding sum_i Tr(alpha^i x) p^i of x given by its coefficients."""
        if self._window_forms is None:
            # row i is the linear form x -> Tr(alpha^i x) on coefficient columns
            mult = np.array(
                [_pmul(self.alpha_coeffs, e, self.modulus, self.p) for e in _unit_vectors(self.d)],
                dtype=np.int64,
            ).T
            rows = [self.trace_form]
            for _ in range(self.d - 1):
                rows.append(rows[-1] @ mult % self.p)
            self._window_forms = np.array(rows, dtype=np.int64)
        window = (self._window_forms @ np.array(coeffs, dtype=np.int64)) % self.p
        return int(window @ self.p ** np.arange(self.d, dtype=np.int64))

    # -- whole-field arrays, all lazy

    def trace_by_log(self) -> np.ndarray:
        """Absolute trace Tr(alpha^k) down to GF(p), indexed by k.

        The dtype is np.min_scalar_type(p - 1), so callers that add or
        multiply entries upcast first.
        """
        if self._trace_by_log is None:
            self._trace_by_log = self._sequence()[: self.r - 1]
        return self._trace_by_log

    def log_table(self) -> np.ndarray:
        """table[window_code(x)] = discrete log of x, -1 for zero.

        An r-entry array: callers have already passed an enumeration budget.
        """
        if self._log is None:
            table = np.full(self.r, -1, dtype=np.int64)
            table[self._window_codes(np.zeros(self.d, dtype=np.int64))] = np.arange(
                self.r - 1, dtype=np.int64
            )
            # r - 1 writes cover the r - 1 slots of log[1:] only if each
            # slot is written exactly once and zero is never hit
            if table[0] != -1 or (table[1:] < 0).any():
                raise AssertionError("trace windows must biject onto the nonzero codes")
            self._log = table
        return self._log

    def succ_log(self) -> np.ndarray:
        """dlog(alpha^k + 1) indexed by k, with -1 where alpha^k = -1."""
        if self._succ_log is None:
            # the window of 1 is (Tr(alpha^0), ..., Tr(alpha^(d-1)))
            self._succ_log = self.log_table()[self._window_codes(self._sequence()[: self.d])]
        return self._succ_log


@functools.lru_cache(maxsize=8)
def _field(p: int, d: int) -> tuple[_Core, dict]:
    """The shared core of GF(p^d) and its towers by subfield degree s."""
    return _Core(p, d), {}


# ---------------------------------------------------------------------------
# public element and tower types


class FieldElement:
    """An element of the top field of some tower."""

    __slots__ = ("tower", "coeffs")

    def __init__(self, tower: "FieldTower", coeffs: tuple):
        self.tower = tower
        self.coeffs = coeffs

    def _check(self, other: "FieldElement") -> None:
        if self.tower.core is not other.tower.core:
            raise ValueError("elements live in different fields")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        p = self.tower.p
        return FieldElement(self.tower, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        p = self.tower.p
        return FieldElement(self.tower, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "FieldElement":
        p = self.tower.p
        return FieldElement(self.tower, tuple(-a % p for a in self.coeffs))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        core = self.tower.core
        return FieldElement(self.tower, _pmul(self.coeffs, other.coeffs, core.modulus, core.p))

    def __pow__(self, e: int) -> "FieldElement":
        core = self.tower.core
        if e < 0:
            if self.is_zero:
                raise ZeroDivisionError("inverse of zero")
            e %= core.r - 1
        return FieldElement(self.tower, _ppow(self.coeffs, e, core.modulus, core.p))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElement)
            and self.tower.core is other.tower.core
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((id(self.tower.core), self.coeffs))

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    @property
    def encoding(self) -> int:
        enc = 0
        for c in reversed(self.coeffs):
            enc = enc * self.tower.p + c
        return enc

    def __repr__(self) -> str:
        if self.is_zero:
            body = "0"
        else:
            terms = []
            for i, c in enumerate(self.coeffs):
                if not c:
                    continue
                if i == 0:
                    terms.append(str(c))
                else:
                    head = "" if c == 1 else f"{c}*"
                    terms.append(f"{head}x" if i == 1 else f"{head}x^{i}")
            body = " + ".join(terms)
        return f"<{body} in GF({self.tower.p}^{self.tower.degree})>"


class FieldTower:
    """GF(p) <= GF(q) <= GF(r) with q = p^s and r = q^m."""

    def __init__(self, p: int, s: int, m: int, core: _Core):
        self.p = p
        self.s = s
        self.m = m
        self.q = p**s
        self.r = core.r
        self.degree = s * m
        self.core = core
        self.subfield_embedding = (self.r - 1) // (self.q - 1)
        self._traceq_zero: np.ndarray | None = None

    @property
    def alpha(self) -> FieldElement:
        """The distinguished primitive element of the top field."""
        return FieldElement(self, self.core.alpha_coeffs)

    @property
    def subfield_generator(self) -> FieldElement:
        """g = alpha^((r-1)/(q-1)): its powers give a GF(p)-basis of GF(q).

        Built on each read and never stored: an element points back at its
        tower, and that cycle would outlive the field cache's eviction."""
        return self.alpha**self.subfield_embedding

    # -- constructors

    def element(self, coeffs) -> FieldElement:
        coeffs = tuple(int(c) % self.p for c in coeffs)
        if len(coeffs) != self.degree:
            raise ValueError(f"need {self.degree} coefficients")
        return FieldElement(self, coeffs)

    def from_encoding(self, enc: int) -> FieldElement:
        if not 0 <= enc < self.r:
            raise ValueError("encoding out of range")
        return FieldElement(self, _digits(enc, self.p, self.degree))

    def scalar(self, c: int) -> FieldElement:
        return FieldElement(self, (c % self.p,) + (0,) * (self.degree - 1))

    @property
    def zero(self) -> FieldElement:
        return self.scalar(0)

    @property
    def one(self) -> FieldElement:
        return self.scalar(1)

    def elements(self) -> Iterator[FieldElement]:
        """All r elements, zero first then powers of alpha."""
        yield self.zero
        x, alpha = self.one, self.alpha
        for _ in range(self.r - 1):
            yield x
            x = x * alpha

    # -- traces and logs

    def frobenius(self, x: FieldElement, times: int = 1) -> FieldElement:
        return x ** (self.p**times)

    def trace(self, x: FieldElement, level: str = "r->q") -> FieldElement:
        if x.tower.core is not self.core:
            raise ValueError("element belongs to a different field")
        if level == "r->p":
            steps, power = self.degree, self.p
        elif level == "r->q":
            steps, power = self.m, self.q
        elif level == "q->p":
            if x ** self.q != x:
                raise ValueError("element is not in the middle field GF(q)")
            steps, power = self.s, self.p
        else:
            raise ValueError(f"unknown trace level {level!r}")
        acc = x
        cur = x
        for _ in range(steps - 1):
            cur = cur**power
            acc = acc + cur
        return acc

    def discrete_log(self, x: FieldElement) -> int:
        """The k with alpha^k = x: a table lookup within the default enumeration
        budget, baby-step giant-step above it, so no one-off log builds a
        whole-field table."""
        if x.is_zero:
            raise ZeroHasNoLog("zero is not a power of alpha")
        if self.r <= DEFAULT_ENUM_BUDGET:
            return int(self.core.log_table()[self.core.window_code(x.coeffs)])
        return self._bsgs(x)

    def _bsgs(self, x: FieldElement) -> int:
        n = self.r - 1
        step = math.isqrt(n - 1) + 1
        baby = {}
        cur, alpha = self.one, self.alpha
        for j in range(step):
            baby.setdefault(cur.coeffs, j)
            cur = cur * alpha
        giant = alpha ** (n - step)  # alpha^(-step)
        cur = x
        for i in range(step + 1):
            j = baby.get(cur.coeffs)
            if j is not None:
                return (i * step + j) % n
            cur = cur * giant
        raise AssertionError("discrete log search failed")  # impossible for x != 0

    # -- vectorized whole-field views

    def traceq_zero_by_log(self) -> np.ndarray:
        """Boolean array z with z[k] true iff Tr(alpha^k) to GF(q) is zero.

        With g = alpha^((r-1)/(q-1)), the powers 1, g, ..., g^(s-1) are a basis
        of GF(q) over GF(p), so Tr(x) to GF(q) vanishes iff Tr(g^i x) to GF(p)
        vanishes for every i < s.  The shifts are ANDed slice by slice into
        one mask, so at most two booleans per element are alive.
        """
        if self._traceq_zero is None:
            n = self.r - 1
            zero = self.core.trace_by_log() == 0
            mask = zero if self.s == 1 else zero.copy()
            for i in range(1, self.s):
                # mask[k] &= zero[(k + shift) mod n], the wrap as a second slice
                shift = i * self.subfield_embedding % n
                mask[: n - shift] &= zero[shift:]
                mask[n - shift :] &= zero[:shift]
            self._traceq_zero = mask
        return self._traceq_zero

    def __repr__(self) -> str:
        return f"FieldTower(GF({self.p}^{self.s})^{self.m}, r={self.r})"


def build_tower(p: int, s: int, m: int, *, modulus: tuple | None = None) -> FieldTower:
    """Construct (or fetch from cache) the tower GF(p) <= GF(p^s) <= GF(p^(s*m)).

    Fields larger than errors.TOWER_CAP are refused.

    The modulus override exists so independence tests can rebuild the same
    field on a different basis; overridden towers bypass the cache.
    """
    numtheory.require_prime(p)
    if s < 1 or m < 1:
        raise ValueError("s and m must be positive")
    d = s * m
    require_tower_size(p, d)
    if modulus is not None:
        return FieldTower(p, s, m, _Core(p, d, modulus))
    core, towers = _field(p, d)
    if s not in towers:
        towers[s] = FieldTower(p, s, m, core)
    return towers[s]
