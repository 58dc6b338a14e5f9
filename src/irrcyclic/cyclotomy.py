"""Cyclotomic classes, cyclotomic numbers, and exact Gaussian periods.

Values living in Z[zeta_p] are carried as integer count vectors over the
p-th roots of unity, so everything here is exact; complex floats appear only
in the numeric cross-check helpers.  A period set of order N is one (N, p)
count matrix whose row k is period k in that canonical form, and a table of
cyclotomic numbers is likewise its (N, N) int64 count matrix.

Both tables are (class mod N, value) histograms of a whole-field
sequence, counted by one builder on blocks of it, never on one key per
field element.  The periods count the trace sequence, and the cyclotomic
numbers count the successor logs mod N, less the one entry of x = -1,
whose successor 0 has no log.  The trace sequence is narrow (one byte up
to p = 256), and so is the period count matrix: its entries lie in [-n, n]
with n = (r - 1)/N, so it has the narrowest signed dtype that holds them
(int8 for n < 2^7, int16 for n < 2^15, int32 otherwise).  Every sum of
squares, product or shifted sum over them is taken in int64 or as Python
ints.

Period sets verify two classical identities at construction time, on the
(class, trace) histogram before it is made canonical: the sum of all periods
is -1, and the shifted product sum equals r*theta_k - n.  One check covers
every GF(p^d) and every N, exactly, at every size.  GF(p)* moves classes and
traces together, and the check first verifies that the histogram respects
that action, a block of rows at a time.  On such a histogram the nonzero
columns have one total, so column 0's total fixes the period sum, and every
shifted product sum is rational, fixed by two length-N autocorrelations, of
columns 0 and 1: no (N, p) array is transformed.
"""

from __future__ import annotations

import cmath
import math
from functools import cached_property
from itertools import islice
from typing import Iterator

import numpy as np

from .errors import (
    DEFAULT_ENUM_BUDGET,
    TOWER_CAP,
    EvenPrime,
    SizeBudgetExceeded,
    _Record,
    require_divisor,
    require_enum_size,
)
from .fields import SCRATCH_BLOCK, FieldElement, FieldTower

# rows up to this length are correlated directly in integers: N^2 products
# cost less than a transform's fixed overhead
DIRECT_CORRELATION = 1 << 7


class RootOfUnitySum:
    """Integer combination sum(counts[t] * zeta_p**t), canonical counts[p-1] = 0.

    Canonicalization uses 1 + zeta + ... + zeta^(p-1) = 0, which makes the
    representation unique and equality meaningful.
    """

    __slots__ = ("p", "counts")

    def __init__(self, p: int, counts):
        if not hasattr(counts, "__getitem__"):
            counts = list(counts)  # an iterator, held for its length and last entry
        if len(counts) != p:
            raise ValueError(f"need exactly {p} coordinates")
        # the canonical tuple is the one copy of a sequence: over a wide prime
        # field, each p-length list is tens of MB
        last = int(counts[-1])
        self.p = p
        self.counts = tuple(int(c) - last for c in counts)

    @classmethod
    def from_integer(cls, p: int, n: int) -> "RootOfUnitySum":
        return cls(p, (n,) + (0,) * (p - 1))

    def _coerce(self, other) -> "RootOfUnitySum":
        if isinstance(other, int):
            return RootOfUnitySum.from_integer(self.p, other)
        if isinstance(other, RootOfUnitySum):
            if other.p != self.p:
                raise ValueError("mixed root orders")
            return other
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RootOfUnitySum(self.p, [a + b for a, b in zip(self.counts, other.counts)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RootOfUnitySum(self.p, [a - b for a, b in zip(self.counts, other.counts)])

    def __neg__(self):
        return RootOfUnitySum(self.p, [-a for a in self.counts])

    def __mul__(self, other):
        if isinstance(other, int):
            return RootOfUnitySum(self.p, [a * other for a in self.counts])
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        prod = [0] * self.p
        for i, a in enumerate(self.counts):
            if a:
                for j, b in enumerate(other.counts):
                    if b:
                        prod[(i + j) % self.p] += a * b
        return RootOfUnitySum(self.p, prod)

    __rmul__ = __mul__

    def rotate(self, t: int) -> "RootOfUnitySum":
        """Multiply by zeta_p**t."""
        t %= self.p
        return RootOfUnitySum(self.p, [self.counts[(i - t) % self.p] for i in range(self.p)])

    @property
    def is_integer(self) -> bool:
        # islice reads the coordinates in place, where a slice copies p - 1
        return not any(islice(self.counts, 1, None))

    def as_integer(self) -> int:
        if not self.is_integer:
            raise ValueError(f"{self!r} is not a rational integer")
        return self.counts[0]

    def evaluate(self) -> complex:
        return sum(
            c * cmath.exp(2j * cmath.pi * t / self.p) for t, c in enumerate(self.counts) if c
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, RootOfUnitySum) and self.p == other.p:
            return self.counts == other.counts
        if self.is_integer:
            # a rational value compares as the int it equals, whatever p
            return self.counts[0] == other
        return NotImplemented

    def __hash__(self) -> int:
        # an integer value equals that int, so it hashes as one
        return hash(self.counts[0] if self.is_integer else (self.p, self.counts))

    def __repr__(self) -> str:
        return root_sum_text(self.p, self.counts)


def root_sum_text(p: int, counts) -> str:
    """The one text form of sum(counts[t] * zeta_p**t), given canonical counts
    (counts[p-1] = 0) as a sequence of ints: what RootOfUnitySum prints."""
    if not any(counts[1:]):
        return f"RootOfUnitySum({p}, {counts[0]})"
    # a tuple's repr, spelled out so a list or a count-matrix row prints alike
    return f"RootOfUnitySum({p}, counts=({', '.join(map(str, counts))}))"


def dlog_of_minus_one(p: int, r: int) -> int:
    """Discrete log of -1 relative to any primitive element."""
    return 0 if p == 2 else (r - 1) // 2


def _frozen(cls, *fields):
    """A count-matrix record rebuilt from pickled or deep-copied fields, its
    counts made read-only again (the copies numpy makes are writeable)."""
    out = cls(*fields)
    out.counts.flags.writeable = False
    return out


class GaussianPeriodSet(_Record):
    """Exact Gaussian periods of order N over GF(r), indexed by class.

    counts is the read-only (N, p) canonical count matrix, in the narrowest
    signed dtype that holds n = (r - 1)/N: period k is
    sum_t counts[k, t] * zeta_p**t with counts[k, p-1] = 0.  Compared by
    identity; the __dict__ holds the cached properties.  Both identities
    are checked for every period set at every size, so the class attribute
    product_rule_checked is always True; it stays while the benchmark's
    sweep reads it (ROADMAP item 6).
    """

    __slots__ = ("r", "N", "p", "counts", "__dict__")
    __eq__ = object.__eq__
    __hash__ = object.__hash__
    product_rule_checked = True

    def __reduce__(self):
        return _frozen, (type(self), *self._values(self))

    def __len__(self) -> int:
        return self.N

    @cached_property
    def integer_values(self) -> tuple[int, ...] | None:
        """The periods as ints, or None when some period is irrational."""
        if self.counts[:, 1:].any():
            return None
        return tuple(self.counts[:, 0].tolist())

    @cached_property
    def values(self) -> tuple[RootOfUnitySum, ...]:
        """The periods as RootOfUnitySum objects, built on first read."""
        return tuple(RootOfUnitySum(self.p, row.tolist()) for row in self.counts)

    def numeric(self) -> np.ndarray:
        return self.counts @ np.exp(2j * np.pi * np.arange(self.p) / self.p)


def _smooth_length(m: int) -> int:
    """The least 2^a 3^b 5^c >= m: a transform length at most a few percent
    past m, where a power of two can be nearly twice it."""
    best = 1 << (m - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            # the least odd * 2^a >= m
            best = min(best, odd << max(0, (-(-m // odd) - 1).bit_length()))
            odd *= 3
        odd5 *= 5
    return best


def _autocorrelation(x: np.ndarray) -> np.ndarray:
    """C[k] = sum_i x[i] * x[(i + k) mod N] for a column of N counts, exactly,
    as int64.

    C[0] is computed in integers first and bounds every C[k], so a float
    correlation rounds exactly while C[0] (log2 L + 4) < 2^50.  That
    correlation pads x to the least L = 2^a 3^b 5^c >= 2N - 1, where the
    transform is fast whatever N factors into, and folds the linear lags
    onto the cyclic ones.  Short columns, and columns past the float bound
    (only N <= 2^7 for a field up to TOWER_CAP), are correlated directly in
    integers.
    """
    N = len(x)
    x = x.astype(np.int64)
    # L = 0 marks a column short enough for the direct path, which needs no L
    L = _smooth_length(2 * N - 1) if N > DIRECT_CORRELATION else 0
    if not L or int(np.dot(x, x)) * (math.log2(L) + 4) >= 2**50:
        # x wrapped once makes np.correlate's "valid" lags the cyclic ones
        return np.correlate(np.concatenate((x, x[:-1])), x)
    f = np.fft.rfft(x, L)
    del x
    # |F|^2 into the half spectrum in place, so no second spectrum is made
    re, im = f.real, f.imag
    re *= re
    im *= im
    re += im
    im[...] = 0
    lin = np.fft.irfft(f, L)
    del f, re, im  # the views hold the spectrum too
    # cyclic lag k is linear lag k plus linear lag k - N
    lin[1:N] += lin[L - N + 1 :]
    return np.rint(lin[:N]).astype(np.int64)


def _check_period_identities(hist: np.ndarray, core, N: int, h: int) -> None:
    """Exact check of the sum and product identities over any GF(p^d), N.

    a0 = alpha^g with g = (r - 1)/(p - 1) generates GF(p)* (a0 = alpha over
    a prime field, 1 for p = 2), and x -> a0 x sends class i to class i + g
    and trace t to a0 t, so a true histogram obeys hist[(i + g) mod N,
    a0 t mod p] = hist[i, t]; each row sums to n.  On such a histogram the
    nonzero columns share one total, r - 1 less column 0's, over p - 1, so
    the periods sum to -1 exactly when column 0 totals r/p - 1.  The product
    table T_k[c] = sum_i sum_{a+b=c} hist[i, a] hist[i+k, b] is likewise the
    same for every c != 0 and sums to N n^2 over c, so its canonical value
    is (p T_k[0] - N n^2) / (p - 1), and the identity p T_k[0] - N n^2 =
    (p - 1)(r theta_k - n), with theta_k = [k = h] for h = dlog(-1) mod N,
    solves to T_k[0] = n (r/p - 1) + (p - 1)(r/p) theta_k.  A nonzero trace
    a0^j reads column 1 shifted by g j rows, and -a0^j the same shifted by a
    further h, so T_k[0] = C0[k] + (p - 1) C1[k - h], where C0 and C1 are
    the cyclic autocorrelations of columns 0 and 1.
    """
    p, r = core.p, core.r
    n, g, q = (r - 1) // N, (r - 1) // (p - 1), r // p
    a0 = core.cache.get("a0")
    if a0 is None:
        a0 = core.cache["a0"] = core.ring.pow(core.alpha, g)
    # a constant of the ring packs to itself, so a0 < p iff a0 lies in GF(p)
    if not (a0 < p and _orbit_invariant(hist, g % N, a0) and (hist.sum(axis=1) == n).all()):
        raise AssertionError("period product identity failed")
    if hist[:, 0].sum() != q - 1:
        raise AssertionError("period sum identity failed")
    c = _autocorrelation(hist[:, 0])
    c1 = _autocorrelation(hist[:, 1])
    c1 *= p - 1
    c[h:] += c1[: N - h]
    c[:h] += c1[N - h :]
    c[h] -= (p - 1) * q
    if not (c == n * (q - 1)).all():
        raise AssertionError("period product identity failed")


def _orbit_invariant(hist: np.ndarray, g: int, a0: int) -> bool:
    """hist[(i + g) mod N, a0 t mod p] == hist[i, t] for every i and t.

    Rows are taken SCRATCH_BLOCK entries at a time: a block of rows i + g
    has its columns permuted and is compared with rows i, which wrap past
    row N - 1 at most once.
    """
    N, p = hist.shape
    cols = np.arange(p) * a0 % p
    step = max(1, SCRATCH_BLOCK // p)
    for lo in range(0, N, step):
        moved = hist[lo : lo + step].take(cols, axis=1)
        i, rows = (lo - g) % N, len(moved)
        head = min(rows, N - i)
        if not (
            (moved[:head] == hist[i : i + head]).all()
            and (moved[head:] == hist[: rows - head]).all()
        ):
            return False
    return True


def _class_histogram(x: np.ndarray, N: int, V: int) -> np.ndarray:
    """hist[c, v] = #{k : k = c (mod N), x[k] = v}, for values 0 <= x[k] < V,
    as an (N, V) matrix in the narrowest signed dtype that holds
    n = len(x) / N.  The periods count the trace sequence (V = p), the
    cyclotomic numbers the successor logs mod N (V = N).  Every entry, and
    every entry of the canonical form hist[c] - hist[c, V-1], lies in
    [-n, n]; n < r <= TOWER_CAP < 2^31, so int32 always suffices.

    Column c of x.reshape(-1, N) holds class c.  Blocks of columns are
    counted in turn, keyed x[k] + V * (class less the block's first), a
    block of rows at a time.  A block is sized so that neither the int64
    keys nor the int64 bincount output holds more bytes than the larger of
    hist and x, nor more than SCRATCH_BLOCK entries; blocks of fewer than
    SCRATCH_BLOCK / 16 entries are not worth a call, so that is the floor.
    The calls' total cost stays a small multiple of len(x) + N * V.
    """
    rows = x.reshape(-1, N)
    # -n - 1, not -n: int8 holds -128 but not 128
    hist = np.zeros(N * V, dtype=np.min_scalar_type(-len(rows) - 1))
    block = min(SCRATCH_BLOCK, max(SCRATCH_BLOCK >> 4, hist.nbytes // 8, x.nbytes // 8))
    width = max(1, block // V)
    for c in range(0, N, width):
        cols = rows[:, c : c + width]
        w = cols.shape[1]
        step = max(block, w * V) // w
        offsets = V * np.arange(w, dtype=np.int64)
        out = hist[c * V : (c + w) * V]
        for lo in range(0, len(rows), step):
            # offsets are int64, so narrow values are upcast here; the int64
            # counts are added in hist's dtype, which holds them and every
            # partial sum, as none exceeds n
            counts = np.bincount((cols[lo : lo + step] + offsets).ravel(), minlength=w * V)
            np.add(out, counts, out=out, dtype=hist.dtype)
            del counts  # else the next block's counts are made beside it
    return hist.reshape(N, V)


def gaussian_periods_exact(
    tower: FieldTower, N: int, *, budget: int = DEFAULT_ENUM_BUDGET
) -> GaussianPeriodSet:
    """All N Gaussian periods of order N over the top field, exactly.

    Period k is the character sum over the coset alpha^k * <alpha^N>.  The
    (N, p) count matrix is refused past TOWER_CAP entries, like a field.
    """
    r, p = tower.r, tower.p
    require_divisor(N, r)
    require_enum_size("period enumeration", r, budget)
    if N * p > TOWER_CAP:
        raise SizeBudgetExceeded(
            f"periods of order {N} over GF({r}) need {N} x {p} counts, past the cap {TOWER_CAP}"
        )
    core = tower.core
    key = ("periods", N)
    hit = core.cache.get(key)
    if hit is not None:
        return hit
    hist = _class_histogram(core.trace_by_log(), N, p)
    _check_period_identities(hist, core, N, dlog_of_minus_one(p, r) % N)
    # canonical form in place: a copy would double the largest array here,
    # and numpy makes one to resolve an overlap unless the column is copied.
    # The counts lie in [0, n], so the result lies in [-n, n] and cannot wrap
    hist -= hist[:, -1:].copy()
    hist.flags.writeable = False
    out = GaussianPeriodSet(r, N, p, hist)
    core.cache[key] = out
    return out


class CyclotomicTable(_Record):
    """Cyclotomic numbers (i, j) of order N: counts of x in C_i with x + 1 in C_j.

    counts is the read-only (N, N) int64 count matrix; indexing gives ints.
    Compared by identity.
    """

    __slots__ = ("r", "N", "counts")
    __eq__ = object.__eq__
    __hash__ = object.__hash__
    __reduce__ = GaussianPeriodSet.__reduce__

    def __getitem__(self, pair: tuple[int, int]) -> int:
        i, j = pair
        return int(self.counts[i % self.N, j % self.N])


def cyclotomic_numbers(
    tower: FieldTower, N: int, *, budget: int = DEFAULT_ENUM_BUDGET
) -> CyclotomicTable:
    r, p = tower.r, tower.p
    require_divisor(N, r)
    require_enum_size("cyclotomic table", r, budget)
    if N * N > TOWER_CAP:
        raise SizeBudgetExceeded(
            f"cyclotomic numbers of order {N} over GF({r}) need {N} x {N} counts, "
            f"past the cap {TOWER_CAP}"
        )
    h = dlog_of_minus_one(p, r) % N
    counts = _class_histogram(tower.core.succ_log() % N, N, N)
    # succ_log reads -1 at x = -1, which has no successor log: that one
    # entry, in class h, was counted as -1 % N = N - 1
    counts[h, N - 1] -= 1
    counts = counts.astype(np.int64)
    n = (r - 1) // N
    # every x of C_i has x + 1 nonzero, but -1 in C_h
    rows = counts.sum(axis=1)
    rows[h] += 1
    if not (rows == n).all():
        raise AssertionError("cyclotomic row sums failed")
    # y = x + 1 runs over every y but 0 and 1, and 1 lies in C_0
    cols = counts.sum(axis=0)
    cols[0] += 1
    if not (cols == n).all():
        raise AssertionError("cyclotomic column sums failed")
    counts.flags.writeable = False
    return CyclotomicTable(r, N, counts)


def cyclotomic_class(tower: FieldTower, N: int, i: int) -> Iterator[FieldElement]:
    """The coset alpha^i * <alpha^N>, lazily, as (r-1)/N field elements."""
    r = tower.r
    require_divisor(N, r)
    step = tower.alpha**N
    x = tower.alpha ** (i % (r - 1))
    for _ in range((r - 1) // N):
        yield x
        x = x * step


def gauss_sum_numeric(
    tower: FieldTower, N: int, j: int = 1, *, budget: int = DEFAULT_ENUM_BUDGET
) -> complex:
    """Float Gauss sum for the order-N multiplicative character to the power j.

    The character sends alpha^k to exp(2 pi i j k / N); the additive character
    is the canonical one through the absolute trace.
    """
    r, p = tower.r, tower.p
    require_divisor(N, r)
    require_enum_size("Gauss sum", r, budget)
    tr = tower.core.trace_by_log()
    k = np.arange(r - 1, dtype=np.int64)
    phase = 2 * np.pi * (((j % N) * k % N) / N + tr / p)
    return complex(np.exp(1j * phase).sum())


def quadratic_char_sum(
    tower: FieldTower,
    a2: FieldElement,
    a1: FieldElement,
    a0: FieldElement,
    *,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> RootOfUnitySum:
    """Exact character sum of a quadratic polynomial over the whole field:
    sum over c in GF(r) of zeta_p^Tr(a2 c^2 + a1 c + a0), with a2 nonzero.
    Completing the square makes it zeta_p^Tr(a0 - a1^2/(4 a2)) (eta_i - eta_(1-i)),
    on the order-2 periods eta, with i = 0 exactly when a2 is a square."""
    r, p = tower.r, tower.p
    if p == 2:
        raise EvenPrime("quadratic character sums need odd characteristic")
    if a2.is_zero:
        raise ValueError("leading coefficient must be nonzero")
    require_enum_size("character sum", r, budget)
    # an operand of another field raises here, as the scalar 4 is this field's
    b = a0 - a1 * a1 * (tower.scalar(4) * a2) ** -1
    t0 = int(tower.trace(b, "r->p").coeffs[0])
    i = 0 if a2 ** ((r - 1) // 2) == tower.one else 1
    counts = gaussian_periods_exact(tower, 2, budget=budget).counts
    # both rows lie in [-n, n], so their difference may not fit their dtype
    diff = np.subtract(counts[i], counts[1 - i], dtype=np.int64)
    return RootOfUnitySum(p, np.roll(diff, t0).tolist())
