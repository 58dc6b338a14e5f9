"""Exhaustive weight-distribution oracle, independent of the closed forms.

The fast path never touches period formulas: it marks which powers of alpha
have vanishing trace to GF(q) and sums those marks along each codeword's
index set {c + N*j}.  Two codewords built from beta with equal discrete log
mod N share that index set exactly, so one pass of length r - 1 yields every
codeword weight.
"""

from __future__ import annotations

import numpy as np

from .errors import DEFAULT_ENUM_BUDGET, _Record, require_enum_size
from .fields import FieldElement, FieldTower, build_tower
from .weights import CodeSpec, WeightDistribution, distribution_from_beta_weights


class Codeword(_Record):
    """One literal codeword: entries are traces of beta * theta^j down to GF(q)."""

    __slots__ = ("spec", "beta", "entries")

    @property
    def weight(self) -> int:
        return sum(1 for e in self.entries if not e.is_zero)


def _tower_of(spec: CodeSpec, tower: FieldTower | None) -> FieldTower:
    """spec's tower, built when none is given; a tower of another split is refused."""
    if tower is None:
        return build_tower(spec.p, spec.s, spec.m)
    if (tower.p, tower.s, tower.m) != (spec.p, spec.s, spec.m):
        raise ValueError(f"tower GF({tower.p}^{tower.s})^{tower.m} does not match"
                         f" the code's split GF({spec.p}^{spec.s})^{spec.m}")
    return tower


def codeword(spec: CodeSpec, tower: FieldTower, beta: FieldElement) -> Codeword:
    """Build the codeword of beta entry by entry; meant for small fields."""
    tower = _tower_of(spec, tower)
    theta = tower.alpha**spec.N
    entries = []
    x = beta
    for _ in range(spec.n):
        entries.append(tower.trace(x, "r->q"))
        x = x * theta
    return Codeword(spec, beta, tuple(entries))


def _class_weights(spec: CodeSpec, tower: FieldTower) -> np.ndarray:
    """weights[c] = weight of every codeword with dlog(beta) = c (mod N)."""
    zero = tower.traceq_zero_by_log()
    if spec.n >= 128 * spec.N:
        # a row sum runs its inner loop over rows only N long; N strided
        # counts win while their per-call cost stays small beside n
        zeros = np.array([np.count_nonzero(zero[c :: spec.N]) for c in range(spec.N)])
    else:
        zeros = zero.reshape(spec.n, spec.N).sum(axis=0, dtype=np.int64)
    weights = spec.n - zeros
    # scaling beta by GF(q)* and multiplying by theta only move the log by
    # multiples of N1, so weights must be constant on classes mod N1
    folded = weights.reshape(spec.N // spec.N1, spec.N1)
    if not (folded == folded[0]).all():
        raise AssertionError("weights must be constant on classes mod N1")
    return weights


def brute_weight_distribution(
    spec: CodeSpec,
    tower: FieldTower | None = None,
    *,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> WeightDistribution:
    """Exact distribution by enumerating the field, within the size budget."""
    require_enum_size("oracle", spec.r, budget)
    tower = _tower_of(spec, tower)
    # weights repeat with period N1, and each class mod N1 holds (r-1)/N1
    # values of beta; the sqrt(r) bound keeps the weight range short
    weights = _class_weights(spec, tower)[: spec.N1]
    lo = int(weights.min())
    per_class = (spec.r - 1) // spec.N1
    merged = np.bincount(weights - lo).tolist()
    pairs = [(lo + w, c * per_class) for w, c in enumerate(merged) if c]
    return distribution_from_beta_weights(spec, pairs, "brute")


def count_Z(
    spec: CodeSpec,
    tower: FieldTower,
    a: FieldElement,
    *,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> int:
    """Number of x in GF(r) with Tr(a * x^N) = 0 down to GF(q), by enumeration."""
    require_enum_size("solution count", spec.r, budget)
    tower = _tower_of(spec, tower)
    if a == tower.zero:  # discrete_log refuses a zero of another field
        return spec.r
    # a * x^N over nonzero x hits each log = da (mod N) exactly N times
    zero = tower.traceq_zero_by_log()
    da = tower.discrete_log(a)
    return 1 + spec.N * int(zero[da % spec.N :: spec.N].sum())
