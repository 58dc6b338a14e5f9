"""Seeded inputs of the four workloads.

Everything here is fixed data or arithmetic of the benchmark's own; none of
it calls the package, so a change to the package cannot change what it is
given.  The same (workload, seed) always yields the same inputs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("cli-verify", "cli-closed", "sweep-dist", "sweep-periods")

# -- cli-verify: one op per field class, the seed picks N.  Every N here has
# a closed form.  The fields sit at 2^20 <= r < 2^21, near the largest the
# oracle accepts (2^22) but small enough for four passes in a run.  N stays
# at 7 or more: the oracle's per-class column sums cost more when N is tiny,
# and a seed should not move the cost of a pass.
VERIFY_CLASSES = (
    # binary tower with small s > 1: the GF(4) trace-zero mask runs
    ("small-s", [(2, 2, 10, N) for N in (25, 33, 41, 75, 123, 205)]),
    # large s: the mask is an s x (r-1) array
    ("large-s", [(2, 10, 2, N) for N in (25, 41, 55, 123, 205, 451)]),
    # odd-p extension field
    ("odd-p", [(11, 1, 6, N) for N in (7, 9, 12, 35, 37)]),
    # a field of p^2 elements
    ("p2", [(1031, 1, 2, N) for N in (43, 129, 206, 344)]),
)

# -- cli-closed: specs with r far past every enumeration budget, by the
# closed form that answers `dist` ("none": no closed form, exit 3).
CLOSED_POOL_PATH = Path(__file__).with_name("closed_pool.json")
CLOSED_OPS_PER_STRATUM = 13
CLOSED_CMDS = ("dist", "bounds", "periods")
# ops with no bounded exit today: `dist` runs into the factorization of a
# large n, `periods` of order 4 into the period polynomial.  One runs per
# cli-closed run as a probe, killed at the op time limit and reported apart
# from the measured ops.
HANG_PROBES = (
    ("dist", (2, 1, 255, 31)),
    ("periods", (3, 1, 62, 4)),
)

# -- sweeps: every extension field plus a share of the larger prime fields
# of each bit length, so every seed draws the same mix of field sizes
SWEEP_LIMITS = {"sweep-dist": 1 << 14, "sweep-periods": 1 << 12}
PRIME_SHARE = 0.05


def divisors(n: int) -> list[int]:
    small = [d for d in range(1, int(n**0.5) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def primes_upto(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(n + 1) if sieve[i]]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def verify_ops(seed: int) -> list[dict]:
    rng = _rng("cli-verify", seed)
    return [{"cmd": "verify", "spec": list(rng.choice(specs)), "class": name}
            for name, specs in VERIFY_CLASSES]


def closed_pool() -> dict[str, list[list[int]]]:
    return json.loads(CLOSED_POOL_PATH.read_text())


def closed_ops(seed: int) -> list[dict]:
    rng = _rng("cli-closed", seed)
    ops = []
    for stratum, specs in closed_pool().items():
        pairs = [(cmd, spec) for spec in specs for cmd in CLOSED_CMDS]
        for cmd, spec in rng.sample(pairs, CLOSED_OPS_PER_STRATUM):
            ops.append({"cmd": cmd, "spec": spec, "class": stratum})
    rng.shuffle(ops)
    return ops


def hang_probe(seed: int) -> dict:
    cmd, spec = _rng("hang-probe", seed).choice(HANG_PROBES)
    return {"cmd": cmd, "spec": list(spec), "class": "hang-probe"}


def sweep_fields(workload: str, seed: int) -> list[tuple[int, int]]:
    """(p, e) of the sampled fields GF(p^e), in the order criterion 4 walks them.

    Every p that has an extension field below the limit comes with all its
    fields, so the walk through the extension fields, and the package's
    field caches along it, are the same for every seed; the larger primes
    are sampled by bit length.
    """
    limit = SWEEP_LIMITS[workload]
    rng = _rng(workload, seed)
    fields = []
    by_bits: dict[int, list[int]] = {}
    for p in primes_upto(limit):
        if p * p > limit:
            by_bits.setdefault(p.bit_length(), []).append(p)
            continue
        e, r = 1, p
        while r <= limit:
            fields.append((p, e))
            e, r = e + 1, r * p
    for bucket in by_bits.values():
        k = max(1, round(len(bucket) * PRIME_SHARE))
        fields += [(p, 1) for p in rng.sample(bucket, k)]
    return sorted(fields)


def generate(workload: str, seed: int):
    """The inputs of one run: CLI ops, or the field list of a sweep."""
    if workload == "cli-verify":
        return verify_ops(seed)
    if workload == "cli-closed":
        return closed_ops(seed)
    return sweep_fields(workload, seed)
