"""Finite field towers GF(p) <= GF(q) <= GF(r) with exact arithmetic.

Elements are polynomial residues modulo a fixed irreducible polynomial over
the prime field.  Each tower fixes a distinguished primitive element alpha
of the top field; discrete logs, traces and whole-field enumeration are all
expressed relative to alpha.  A single discrete log is a baby-step giant-step
search; the log tables serve the whole-field enumerations alone.  Every
whole-field array derives from one sequence, t[k] = Tr(alpha^k) down to
GF(p), started from the d conjugates of alpha: their power sums are its
first terms and their product, the minimal polynomial of alpha, is its
recurrence.  Two towers with the same characteristic and top degree share
the heavy per-field data (modulus, alpha, trace sequence, log table)
through a small cache, so sweeping over subfield structures is cheap.  The
core holds alpha as a packed int and a tower builds its elements on access,
so no tower is in a reference cycle: a field the cache evicts is freed at
once, and the cache's size bound is a bound on memory.

Each whole-field array is stored at the width its values need: t in the
smallest unsigned type that holds p - 1 (one byte up to p = 256), the
subfield trace-zero masks as booleans, and the log and successor-log
tables, whose entries reach r <= TOWER_CAP < 2^31, in int32.  Arithmetic on
t runs in wider scratch blocks of SCRATCH_BLOCK entries, because sums and
products of narrow entries wrap: the sequence is built in the narrowest
unsigned type that holds d (p - 1)^2, and the period histograms key in
int64.

Coefficient tuples are ascending: coeffs[i] multiplies x**i.  The integer
encoding of an element is sum(coeffs[i] * p**i), and "smallest" modulus or
primitive element always means smallest under that encoding.

A residue, FieldElement and alpha included, is one packed int of its
field's ring, with one kernel per case; the coefficient tuple is only a
view.  For p = 2 bit i of the int is the coefficient of x^i, so the int is
the integer encoding itself, and products are shifts and XORs.  For odd p
coefficient i fills a slot of bits [i*W, (i+1)*W), with W the bit width of
2d(p-1)^2, so a product is one integer multiplication (Kronecker
substitution) followed by a fold of the high slots through the rows
x^(d+j) mod f and a reduction of each slot mod p.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator

import numpy as np

from . import numtheory
from .errors import ZeroHasNoLog, require_tower_size

# entries of a scratch block: the trace sequence is summed, and the period
# histograms in cyclotomy are keyed, this many elements at a time
SCRATCH_BLOCK = 1 << 16


# ---------------------------------------------------------------------------
# polynomial arithmetic over GF(p) on packed integers


# _SPREAD[b] holds bit i of the byte b at bit 2i: squaring over GF(2)
_SPREAD = tuple(sum(((b >> i) & 1) << (2 * i) for i in range(8)) for b in range(256))


class _Ring:
    """Residues modulo a monic f of degree d over GF(p), each packed into one
    int: coefficient i of the residue sits in bits [i*slot, (i+1)*slot)."""

    __slots__ = ("p", "d", "slot", "mask")

    def pack(self, coeffs) -> int:
        v = 0
        for c in reversed(coeffs):
            v = (v << self.slot) | c
        return v

    def unpack(self, a: int) -> tuple:
        slot, mask = self.slot, self.mask
        return tuple((a >> (i * slot)) & mask for i in range(self.d))

    def pow(self, a: int, e: int) -> int:
        if not e:
            return 1
        sqr, mul = self.sqr, self.mul
        out = a
        for bit in bin(e)[3:]:
            out = sqr(out)
            if bit == "1":
                out = mul(out, a)
        return out


class _Ring2(_Ring):
    """GF(2)[x] / (f): bit i of a residue is its coefficient of x^i, so a
    residue is its own integer encoding.  Products are shifts and XORs, a
    square spreads the bits by table, and f is XORed away from the top."""

    __slots__ = ("f",)

    def __init__(self, modulus: tuple):
        self.p, self.d, self.slot, self.mask = 2, len(modulus) - 1, 1, 1
        self.f = self.pack(modulus)

    def from_encoding(self, enc: int) -> int:
        return enc

    def _reduce(self, c: int) -> int:
        f, d = self.f, self.d
        n = c.bit_length()
        while n > d:
            c ^= f << (n - 1 - d)
            n = c.bit_length()
        return c

    def mul(self, a: int, b: int) -> int:
        if a.bit_count() < b.bit_count():
            a, b = b, a
        c = 0
        while b:
            low = b & -b
            c ^= a * low
            b ^= low
        return self._reduce(c)

    def sqr(self, a: int) -> int:
        c = shift = 0
        while a:
            c |= _SPREAD[a & 0xFF] << shift
            a >>= 8
            shift += 16
        return self._reduce(c)

    def sub(self, a: int, b: int) -> int:
        return a ^ b

    def sum(self, terms) -> int:
        total = 0
        for t in terms:
            total ^= t
        return total

    def coprime(self, a: int) -> bool:
        """True when gcd(f, a) has degree zero."""
        g, h = self.f, a
        while h:
            n = h.bit_length()
            m = g.bit_length()
            while m >= n:
                g ^= h << (m - n)
                m = g.bit_length()
            g, h = h, g
        return g == 1


class _RingP(_Ring):
    """GF(p)[x] / (f) for odd p, by Kronecker substitution: slot is the bit
    width of 2d(p-1)^2.  A product of residues has 2d - 1 slots of at most
    d(p-1)^2; its high slots, reduced mod p, fold back onto the low d through
    the rows x^(d+j) mod f, adding at most (d-1)(p-1)^2 to a slot, so no slot
    carries before the last step takes each one mod p."""

    __slots__ = ("modulus", "rows", "low", "shifts")

    def __init__(self, modulus: tuple, p: int):
        d = len(modulus) - 1
        self.p, self.d, self.modulus = p, d, modulus
        self.slot = (2 * d * (p - 1) ** 2).bit_length()
        self.mask = (1 << self.slot) - 1
        self.low = (1 << (d * self.slot)) - 1
        self.shifts = tuple(range((d - 1) * self.slot, -1, -self.slot))
        # row j is x^(d+j) mod f: x^d is minus the low part of f, and each
        # next row is x times the last, its top coefficient folded back
        # through x^d
        first = [-c % p for c in modulus[:d]]
        row, rows = first, []
        for _ in range(d - 1):
            rows.append(self.pack(row))
            top = row[-1]
            row = [(a + top * b) % p for a, b in zip([0] + row[:-1], first)]
        self.rows = rows

    def from_encoding(self, enc: int) -> int:
        v = shift = 0
        for _ in range(self.d):
            enc, c = divmod(enc, self.p)
            v |= c << shift
            shift += self.slot
        return v

    def _norm(self, v: int) -> int:
        """Each of the d slots of v taken mod p."""
        p, slot, mask = self.p, self.slot, self.mask
        out = 0
        for shift in self.shifts:
            out = (out << slot) | ((v >> shift) & mask) % p
        return out

    def mul(self, a: int, b: int) -> int:
        c = a * b
        low, high = c & self.low, c >> (self.d * self.slot)
        p, slot, mask = self.p, self.slot, self.mask
        for row in self.rows:
            if not high:
                break
            h = (high & mask) % p
            if h:
                low += h * row
            high >>= slot
        return self._norm(low)

    def sqr(self, a: int) -> int:
        return self.mul(a, a)

    def pow(self, a: int, e: int) -> int:
        if self.d == 1:
            return pow(a, e, self.p)
        return _Ring.pow(self, a, e)

    def sub(self, a: int, b: int) -> int:
        # adding p to every slot first keeps each slot nonnegative
        return self._norm(a + self.pack((self.p,) * self.d) - b)

    def sum(self, terms) -> int:
        # at most 2d(p-1) terms keep every slot below 2^slot
        return self._norm(sum(terms))

    def coprime(self, a: int) -> bool:
        """True when gcd(f, a) has degree zero."""
        return _pgcd_is_const(list(self.modulus), list(self.unpack(a)), self.p)


def _make_ring(modulus: tuple, p: int) -> _Ring:
    return _Ring2(modulus) if p == 2 else _RingP(modulus, p)


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


def _is_irreducible(ring: _Ring) -> bool:
    """Rabin's test for the modulus of ring."""
    d, p = ring.d, ring.p
    if d == 1:
        return True
    x = 1 << ring.slot
    checkpoints = {d // ell for ell in numtheory.factorize(d)}
    cur = x
    for k in range(1, d + 1):
        cur = ring.pow(cur, p)
        if k in checkpoints and not ring.coprime(ring.sub(cur, x)):
            return False
    return cur == x


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
        if _is_irreducible(_make_ring(cand, p)):
            return cand
    raise AssertionError("no irreducible polynomial found")  # impossible


# ---------------------------------------------------------------------------
# shared per-(p, degree) data


class _Core:
    """Everything about GF(p^d) that does not depend on the subfield split.

    The one whole-field array is the trace m-sequence t[k] = Tr(alpha^k)
    down to GF(p), whose head and recurrence come from the conjugates of
    alpha (see `_sequence`).  The d-window (t[k], ..., t[k+d-1]) holds the
    coordinates of alpha^k in the basis trace-dual to 1, alpha, ...,
    alpha^(d-1), so the log and successor-log tables are read off windows
    of t.
    """

    def __init__(self, p: int, d: int, modulus: tuple | None = None):
        self.p = p
        self.d = d
        self.r = p**d
        self.modulus = tuple(c % p for c in modulus) if modulus else _find_modulus(p, d)
        if len(self.modulus) != d + 1 or self.modulus[d] != 1:
            raise ValueError("modulus must be monic of the tower degree")
        self.ring = _make_ring(self.modulus, p)
        if modulus and not _is_irreducible(self.ring):
            raise ValueError("modulus is reducible")
        self.alpha = self._find_primitive()
        self._seq: np.ndarray | None = None
        self._trace_by_log: np.ndarray | None = None
        self._log: np.ndarray | None = None
        self._succ_log: np.ndarray | None = None
        self.cache: dict = {}

    # -- construction helpers

    def _find_primitive(self) -> int:
        """Smallest primitive element under the integer encoding, packed."""
        ring, p, d, r = self.ring, self.p, self.d, self.r
        if r == 2:
            return 1
        checks = [(r - 1) // ell for ell in numtheory.factorize(r - 1)]
        # past GF(p) itself, encodings below p are GF(p), whose orders divide
        # p - 1 < r - 1; in GF(p), 0 and 1 are never primitive
        for enc in range(2 if d == 1 else p, r):
            cand = ring.from_encoding(enc)
            if all(ring.pow(cand, e) != 1 for e in checks):
                return cand
        raise AssertionError("no primitive element found")  # impossible

    def _sequence(self) -> np.ndarray:
        """t[k] = Tr(alpha^k) for 0 <= k < r - 1 + d, by jump doubling.

        Both inputs come from the d conjugates alpha^(p^j) of alpha: their
        power sums are the first d terms, and their product
        prod_j (X - alpha^(p^j)) is the minimal polynomial of alpha, the
        order-d recurrence that extends those to 2d terms.  With
        alpha^n = sum a_i alpha^i (reduced by that recurrence), every known
        length n >= 2d extends by t[n + j] = sum a_i t[i + j] for j <= n - d,
        so each step takes the known length from n to 2n - (d - 1), and X^n
        follows by one squaring and one product with X^(1 - d).
        t has the dtype np.min_scalar_type(p - 1); each step sums
        SCRATCH_BLOCK terms at a time in the narrowest unsigned scratch type
        that holds d (p - 1)^2, where products and sums cannot wrap, and
        writes them back reduced mod p.
        """
        if self._seq is None:
            p, d, ring = self.p, self.d, self.ring
            total = self.r - 1 + d
            conj = [self.alpha]
            for _ in range(d - 1):
                conj.append(ring.pow(conj[-1], p))
            # alpha in a proper subfield repeats its conjugates, and its
            # sequence then obeys a shorter recurrence
            if len(set(conj)) < d:
                raise AssertionError("trace sequence must have linear complexity d")
            minpoly = [1]  # lowest coefficient first
            for y in conj:
                minpoly = [ring.sub(a, ring.mul(y, b)) for a, b in zip([0, *minpoly], [*minpoly, 0])]
            head, powers = [], [1] * d
            for _ in range(d):
                head.append(ring.sum(powers))
                powers = [ring.mul(a, y) for a, y in zip(powers, conj)]
            # a constant of the ring packs to itself
            if any(v >= p for v in head + minpoly):
                raise AssertionError("conjugate sums and products must lie in GF(p)")
            for k in range(d):  # t[k + d] = -sum_i minpoly[i] t[k + i]
                head.append(-sum(c * v for c, v in zip(minpoly, head[k:])) % p)
            mring = _make_ring(tuple(minpoly), p)
            # the residue of X modulo the minimal polynomial of alpha
            gen = 1 << mring.slot if d > 1 else self.alpha
            t = np.empty(total, dtype=np.min_scalar_type(p - 1))
            t[: 2 * d] = head
            scratch = np.min_scalar_type(d * (p - 1) ** 2)
            width = min(SCRATCH_BLOCK, total)
            acc = np.empty(width, dtype=scratch)
            term = np.empty(width, dtype=scratch)
            n = 2 * d
            power = mring.pow(gen, n)
            back = mring.pow(gen, self.r - d)  # X^(1-d), as X^(r-1) = 1
            while n < total:
                take = min(n - d + 1, total - n)
                # alpha^n is not zero, so it has a first nonzero coefficient
                (i0, a0), *terms = [(i, a) for i, a in enumerate(mring.unpack(power)) if a]
                for lo in range(0, take, width):
                    size = min(width, take - lo)
                    # t[lo + i + j] for i < d and j < size lies below n, so is known
                    block, prod = acc[:size], term[:size]
                    np.multiply(t[lo + i0 : lo + i0 + size], a0, out=block, dtype=scratch)
                    for i, a in terms:
                        src = t[lo + i : lo + i + size]
                        block += src if a == 1 else np.multiply(src, a, out=prod, dtype=scratch)
                    np.remainder(block, p, out=t[n + lo : n + lo + size], casting="unsafe")
                n += take
                if n < total:
                    power = mring.mul(mring.sqr(power), back)
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
        # a code is below r <= TOWER_CAP < 2^31
        codes = np.zeros(n, dtype=np.int32)
        digit = np.empty(n, dtype=np.int32)
        for i in range(self.d - 1, -1, -1):
            codes *= p
            if shift[i]:
                np.add(t[i : i + n], shift[i], out=digit, dtype=np.int32)
                digit[digit >= p] -= p
                codes += digit
            else:
                codes += t[i : i + n]
        return codes

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
        """table[c] = k where c = sum_i Tr(alpha^(k+i)) p^i is the window
        code of alpha^k, and -1 at c = 0, the code of zero.

        An r-entry array, read by `succ_log`: callers have already passed an
        enumeration budget.  A single discrete log never builds it.
        """
        if self._log is None:
            # a log is below r <= TOWER_CAP < 2^31
            table = np.full(self.r, -1, dtype=np.int32)
            table[self._window_codes(np.zeros(self.d, dtype=np.int64))] = np.arange(
                self.r - 1, dtype=np.int32
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
    """An element of the top field of some tower: value is its packed
    residue in the ring of the tower's core."""

    __slots__ = ("tower", "value")

    def __init__(self, tower: "FieldTower", value: int):
        self.tower = tower
        self.value = value

    def _new(self, value: int) -> "FieldElement":
        return FieldElement(self.tower, value)

    def __add__(self, other: "FieldElement") -> "FieldElement":
        return self._new(self.tower.core.ring.sum((self.value, self.tower._residue(other))))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return self._new(self.tower.core.ring.sub(self.value, self.tower._residue(other)))

    def __neg__(self) -> "FieldElement":
        return self._new(self.tower.core.ring.sub(0, self.value))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        return self._new(self.tower.core.ring.mul(self.value, self.tower._residue(other)))

    def __pow__(self, e: int) -> "FieldElement":
        core = self.tower.core
        if e < 0:
            if self.is_zero:
                raise ZeroDivisionError("inverse of zero")
            e %= core.r - 1
        return self._new(core.ring.pow(self.value, e))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElement)
            and self.tower.core is other.tower.core
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((id(self.tower.core), self.value))

    @property
    def is_zero(self) -> bool:
        return not self.value

    @property
    def coeffs(self) -> tuple:
        return self.tower.core.ring.unpack(self.value)

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
        return FieldElement(self, self.core.alpha)

    @property
    def subfield_generator(self) -> FieldElement:
        """g = alpha^((r-1)/(q-1)): its powers give a GF(p)-basis of GF(q).

        Built on each read and never stored: an element points back at its
        tower, and that cycle would outlive the field cache's eviction."""
        return self.alpha**self.subfield_embedding

    def _residue(self, x: FieldElement) -> int:
        """The packed residue of x, which must lie in this tower's field."""
        if x.tower.core is not self.core:
            raise ValueError("element belongs to a different field")
        return x.value

    # -- constructors

    def element(self, coeffs) -> FieldElement:
        coeffs = tuple(int(c) % self.p for c in coeffs)
        if len(coeffs) != self.degree:
            raise ValueError(f"need {self.degree} coefficients")
        return FieldElement(self, self.core.ring.pack(coeffs))

    def from_encoding(self, enc: int) -> FieldElement:
        if not 0 <= enc < self.r:
            raise ValueError("encoding out of range")
        return FieldElement(self, self.core.ring.from_encoding(enc))

    def scalar(self, c: int) -> FieldElement:
        # a constant fills slot 0 alone, so it packs to itself
        return FieldElement(self, c % self.p)

    @property
    def zero(self) -> FieldElement:
        return self.scalar(0)

    @property
    def one(self) -> FieldElement:
        return self.scalar(1)

    def elements(self) -> Iterator[FieldElement]:
        """All r elements, zero first then powers of alpha."""
        yield self.zero
        mul, alpha, x = self.core.ring.mul, self.core.alpha, 1
        for _ in range(self.r - 1):
            yield FieldElement(self, x)
            x = mul(x, alpha)

    # -- traces and logs

    def frobenius(self, x: FieldElement, times: int = 1) -> FieldElement:
        return x ** (self.p**times)

    def trace(self, x: FieldElement, level: str = "r->q") -> FieldElement:
        v, ring = self._residue(x), self.core.ring
        if level == "r->p":
            steps, power = self.degree, self.p
        elif level == "r->q":
            steps, power = self.m, self.q
        elif level == "q->p":
            if ring.pow(v, self.q) != v:
                raise ValueError("element is not in the middle field GF(q)")
            steps, power = self.s, self.p
        else:
            raise ValueError(f"unknown trace level {level!r}")
        conj = [v]
        for _ in range(steps - 1):
            conj.append(ring.pow(conj[-1], power))
        return FieldElement(self, ring.sum(conj))

    def discrete_log(self, x: FieldElement) -> int:
        """The k with alpha^k = x, by baby-step giant-step: O(sqrt(r))
        products and no whole-field table."""
        v = self._residue(x)
        if not v:
            raise ZeroHasNoLog("zero is not a power of alpha")
        mul, alpha, n = self.core.ring.mul, self.core.alpha, self.r - 1
        step = math.isqrt(n - 1) + 1
        baby, cur = {}, 1
        for j in range(step):
            baby.setdefault(cur, j)
            cur = mul(cur, alpha)
        giant = self.core.ring.pow(alpha, n - step)  # alpha^(-step)
        cur = v
        for i in range(step + 1):
            j = baby.get(cur)
            if j is not None:
                return (i * step + j) % n
            cur = mul(cur, giant)
        raise AssertionError("discrete log search failed")  # impossible for x != 0

    # -- vectorized whole-field views

    def traceq_zero_by_log(self) -> np.ndarray:
        """Boolean array z with z[k] true iff Tr(alpha^k) to GF(q) is zero.

        With g = alpha^((r-1)/(q-1)), the powers 1, g, ..., g^(s-1) are a basis
        of GF(q) over GF(p), so Tr(x) to GF(q) vanishes iff Tr(g^i x) to GF(p)
        vanishes for every i < s.  t == 0 is taken SCRATCH_BLOCK entries at a
        time and each block is ANDed into the one mask at every shift, so the
        mask is the only whole-field boolean array built.
        """
        if self._traceq_zero is None:
            n, t = self.r - 1, self.core.trace_by_log()
            mask = t == 0
            shifts = [i * self.subfield_embedding % n for i in range(1, self.s)]
            for lo in range(0, n if shifts else 0, SCRATCH_BLOCK):
                zero = t[lo : lo + SCRATCH_BLOCK] == 0
                for shift in shifts:
                    # mask[k] &= zero at k + shift mod n: the block lands at
                    # lo - shift mod n and wraps past n - 1 at most once
                    k = (lo - shift) % n
                    mask[k : k + len(zero)] &= zero[: n - k]
                    if k + len(zero) > n:
                        mask[: k + len(zero) - n] &= zero[n - k :]
                del zero  # else the next block is made beside it
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
