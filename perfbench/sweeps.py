"""The two Tier-1 sweeps, run over a seeded sample of their fields.

dist_sweep follows acceptance criterion 4: every split and every divisor N
of each field, closed forms compared with the enumeration oracle, and
oracle-only instances put through the period-invariant checks.
periods_sweep follows criterion 5: exact and numeric Gaussian periods,
cyclotomic numbers and the Gauss-sum identities, then the period checks of
every split.  Both count an instance as one (field split, N) pair and time
each one from its first call to the end of its checks.
"""

from __future__ import annotations

import math
import time

import numpy as np

from irrcyclic import cyclotomy, fields, oracle, weights
from specs import divisors

# criterion 5's caps: exact periods of prime fields and the numeric tie-out
# stop at N * p = 2^14; the cyclotomic-number table is N x N Python ints, so
# it is built where N^2 stays under the same cap
EXACT_PERIOD_CAP = 1 << 14
NUMERIC_TIE_CAP = 1 << 14
CYCLOTOMIC_TABLE_CAP = 1 << 14


class InstanceFailed(Exception):
    """An instance produced a wrong answer."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise InstanceFailed(what)


class Tally:
    """Instances attempted, failures with their reasons, and latencies."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failures: list[str] = []

    def run(self, label, fn, *args) -> None:
        t0 = time.perf_counter()
        try:
            fn(*args)
        except Exception as exc:  # a wrong answer or a crash; both count as failed
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
        self.latencies.append(time.perf_counter() - t0)


def _dist_instance(tower, p, s, m, N) -> None:
    spec = weights.code_params(p, s, m, N)
    auto = weights.weight_distribution(spec)
    div = weights.divisibility(spec)
    lo, hi = weights.bounds(spec)
    for w, _ in auto.entries:
        _require(w % div == 0 and lo <= w <= hi, f"weight {w} breaks divisor/bounds")
    _require(auto.total_nonzero() == spec.q**spec.m0 - 1, "counts do not cover the code")
    if auto.method == "brute":
        pset = cyclotomy.gaussian_periods_exact(tower, spec.N1)
        chk = weights.check_period_properties(spec, pset)
        _require(chk.integral and chk.congruent and chk.bounded, f"period checks {chk}")
    else:
        brute = oracle.brute_weight_distribution(spec, tower)
        _require(auto.entries == brute.entries, f"{auto.method} differs from the oracle")


def dist_sweep(field_list, tally: Tally) -> None:
    for p, e in field_list:
        r = p**e
        for m in divisors(e):
            s = e // m
            tower = fields.build_tower(p, s, m)
            for N in divisors(r - 1):
                tally.run((p, s, m, N), _dist_instance, tower, p, s, m, N)


def _tower_instance(tower, p, e, r, N, arrays) -> None:
    tr, slog, chi = arrays
    n = (r - 1) // N
    k = np.arange(r - 1, dtype=np.int64)
    if N * N <= CYCLOTOMIC_TABLE_CAP:
        table = np.array(cyclotomy.cyclotomic_numbers(tower, N).counts, dtype=np.int64)
        # sum_u (u, u+k) over the table's diagonals
        offsets = np.array([np.trace(np.roll(table, -j, axis=1)) for j in range(N)])
    else:
        valid = slog >= 0
        offsets = np.bincount((slog[valid] - k[valid]) % N, minlength=N)
    expected = np.full(N, n, dtype=np.int64)
    expected[0] -= 1
    _require((offsets == expected).all(), "cyclotomic-number diagonal sums")
    pset = None
    if e > 1 or N * p <= EXACT_PERIOD_CAP:
        pset = cyclotomy.gaussian_periods_exact(tower, N)
        _require(pset.product_rule_checked, "product rule not checked")
    eta = chi.reshape(n, N).sum(axis=0)
    if pset is not None and N * p <= NUMERIC_TIE_CAP:
        _require(np.abs(pset.numeric() - eta).max() < 1e-9, "numeric periods")
    G = N * np.fft.ifft(eta)
    _require(abs(G[0] + 1) < 1e-6, "G(trivial) != -1")
    if N > 1:
        _require(np.abs(np.abs(G[1:]) - math.sqrt(r)).max() < 1e-6, "|G| != sqrt(r)")
    _require(np.abs(np.fft.fft(G) / N - eta).max() < 1e-6, "Gauss sums do not invert")


def _split_instance(subtower, p, s, m, N) -> None:
    spec = weights.code_params(p, s, m, N)
    pset = cyclotomy.gaussian_periods_exact(subtower, spec.N1)
    chk = weights.check_period_properties(spec, pset)
    _require(chk.integral and chk.congruent and chk.bounded, f"period checks {chk}")


def periods_sweep(field_list, tally: Tally) -> None:
    for p, e in field_list:
        r = p**e
        tower = fields.build_tower(p, 1, e)
        core = tower.core
        tr = core.trace_by_log()
        slog = core.succ_log()
        log = core.log_table()
        _require((np.sort(log[1:]) == np.arange(r - 1)).all(), "dlog is not a bijection")
        arrays = (tr, slog, np.exp(2j * np.pi * tr / p))
        for N in divisors(r - 1):
            tally.run((p, 1, e, N), _tower_instance, tower, p, e, r, N, arrays)
        for m in divisors(e):
            s = e // m
            subtower = fields.build_tower(p, s, m)
            for N in divisors(r - 1):
                tally.run((p, s, m, N), _split_instance, subtower, p, s, m, N)


SWEEPS = {"sweep-dist": dist_sweep, "sweep-periods": periods_sweep}
