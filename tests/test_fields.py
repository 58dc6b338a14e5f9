import gc
import random
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from irrcyclic.errors import DEFAULT_ENUM_BUDGET, TOWER_CAP, SizeBudgetExceeded, ZeroHasNoLog
from irrcyclic.fields import FieldTower, _Core, build_tower
from irrcyclic import fields, numtheory


TOWERS = [(2, 2, 3), (3, 2, 2), (2, 3, 2), (5, 1, 3), (3, 1, 4), (2, 1, 6)]


def _prime_powers(limit):
    out = []
    for p in range(2, limit + 1):
        if numtheory.is_prime(p):
            d = 1
            while p**d <= limit:
                out.append((p, d))
                d += 1
    return out


# every field up to 2^10, the edge fields r = 2 and r = 3 among them
SMALL_FIELDS = _prime_powers(1 << 10)
# 251, 257 and 65537 are the primes next to the uint8/uint16/uint32 bounds of t;
# the sequence is built in scratch that holds d (p - 1)^2: uint8 for 3^8,
# uint16 for 11^6, uint32 for 1031^2 and uint64 for 65537, a prime field
LARGE_FIELDS = [(2, 16), (3, 10), (65521, 1), (251, 2), (257, 2), (65537, 1),
                (3, 8), (11, 6), (1031, 2)]


def _check_field(tower, ks):
    """Compare the whole-field arrays of tower's field with element-wise
    arithmetic at the logs ks, on every subfield split, and discrete_log with
    the log tables on a sample of ks.  The successor log at k reads the log
    table at the code of alpha^k + 1, so every nonzero code but that of 1 is
    checked at some k."""
    core, n = tower.core, tower.r - 1
    tr, log, succ = core.trace_by_log(), core.log_table(), core.succ_log()
    # t is as narrow as p allows; the log tables hold values up to r
    assert tr.dtype == np.min_scalar_type(tower.p - 1)
    assert log.dtype == succ.dtype == np.int32
    assert tr.shape == succ.shape == (n,)
    assert log.shape == (tower.r,) and log[0] == -1
    splits = [FieldTower(tower.p, s, tower.degree // s, core)
              for s in numtheory.divisors(tower.degree)]
    masks = [t.traceq_zero_by_log() for t in splits]
    ks = list(ks)
    sampled = set(ks[:: max(1, len(ks) // 16)])
    for k in ks:
        x = tower.alpha ** k
        assert tr[k] == tower.trace(x, "r->p").coeffs[0]
        for t, z in zip(splits, masks):
            assert z[k] == t.trace(x, "r->q").is_zero
        y = x + tower.one
        if succ[k] < 0:
            assert y.is_zero
        else:
            assert tower.alpha ** int(succ[k]) == y
        if k in sampled:
            assert tower.discrete_log(x) == k
            assert y.is_zero or tower.discrete_log(y) == succ[k]


def test_build_tower_embedding_example():
    t = build_tower(2, 2, 3)
    assert (t.q, t.r, t.degree) == (4, 64, 6)
    assert t.subfield_embedding == 21
    assert t.alpha ** 63 == t.one
    assert t.subfield_generator == t.alpha ** 21
    # the subfield generator really generates GF(4)
    g = t.subfield_generator
    assert g ** 4 == g and g ** 2 != g


def test_towers_are_cached():
    assert build_tower(3, 1, 4) is build_tower(3, 1, 4)
    # same core, different split
    a = build_tower(2, 2, 3)
    b = build_tower(2, 1, 6)
    assert a.core is b.core
    assert a is not b


def test_evicted_field_is_freed_without_gc():
    # towers hold packed ints, not elements that point back at them,
    # so a field the cache evicts goes by refcount alone
    fields._field.cache_clear()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        tower = build_tower(3, 1, 5)
        assert tower.subfield_generator == tower.alpha ** tower.subfield_embedding
        ref = weakref.ref(tower.core)
        del tower
        for d in range(2, 10):
            build_tower(2, 1, d)
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("p,s,m", TOWERS)
def test_trace_transitivity(p, s, m):
    t = build_tower(p, s, m)
    for x in t.elements():
        down = t.trace(t.trace(x, "r->q"), "q->p")
        assert down == t.trace(x, "r->p")


@pytest.mark.parametrize("p,s,m", TOWERS)
def test_trace_image_and_linearity(p, s, m):
    t = build_tower(p, s, m)
    elems = list(t.elements())
    for x in elems:
        tq = t.trace(x, "r->q")
        assert tq ** t.q == tq  # lands in GF(q)
    # additivity on a sample grid
    for x in elems[:: max(1, len(elems) // 12)]:
        for y in elems[:: max(1, len(elems) // 9)]:
            assert t.trace(x + y) == t.trace(x) + t.trace(y)
    # GF(q)-linearity
    c = t.subfield_generator
    for x in elems[:: max(1, len(elems) // 15)]:
        assert t.trace(c * x) == c * t.trace(x)


def test_trace_surjective_counts():
    # Tr to GF(q) takes every value equally often: r/q times
    for p, s, m in TOWERS:
        t = build_tower(p, s, m)
        seen = {}
        for x in t.elements():
            key = t.trace(x, "r->q").coeffs
            seen[key] = seen.get(key, 0) + 1
        assert len(seen) == t.q
        assert set(seen.values()) == {t.r // t.q}


def test_frobenius_fixed_points():
    t = build_tower(2, 2, 3)
    fixed = [x for x in t.elements() if t.frobenius(x, t.s) == x]
    assert len(fixed) == t.q


def test_trace_qp_rejects_outsiders():
    t = build_tower(2, 2, 3)
    with pytest.raises(ValueError):
        t.trace(t.alpha, "q->p")


def test_discrete_log_roundtrip():
    t = build_tower(2, 1, 6)
    for k in range(t.r - 1):
        assert t.discrete_log(t.alpha ** k) == k
    with pytest.raises(ZeroHasNoLog):
        t.discrete_log(t.zero)


def test_discrete_log_bsgs_matches_table():
    # baby-step giant-step agrees with the whole-field log table, read through
    # succ_log at the code of alpha^k + 1, and builds no table of its own
    t = FieldTower(3, 1, 4, _Core(3, 4))
    logs = [t.discrete_log(t.alpha ** k + t.one) if k != (t.r - 1) // 2 else -1
            for k in range(t.r - 1)]
    assert t.core._log is None
    assert logs == t.core.succ_log().tolist()


def test_discrete_log_past_the_budget_builds_no_table():
    # r = 3^14 is above the default enumeration budget, so the whole-field
    # log table is never built
    t = build_tower(3, 1, 14)
    assert t.r > DEFAULT_ENUM_BUDGET
    for k in (0, 1, 7, 45, 12345, t.r // 3, t.r - 2):
        assert t.discrete_log(t.alpha ** k) == k
    assert t.core._log is None


def test_element_arithmetic():
    t = build_tower(3, 1, 3)
    elems = list(t.elements())
    for x in elems[::3]:
        for y in elems[::5]:
            assert (x + y) - y == x
            assert x * y == y * x
    x = t.alpha + t.one
    assert x ** -1 * x == t.one
    assert x ** 0 == t.one
    with pytest.raises(ZeroDivisionError):
        t.zero ** -1


def test_element_encoding_roundtrip():
    t = build_tower(5, 1, 2)
    encs = {x.encoding for x in t.elements()}
    assert encs == set(range(t.r))
    for enc in range(t.r):
        assert t.from_encoding(enc).encoding == enc


def test_elements_cross_tower_guard():
    a = build_tower(2, 1, 3)
    b = build_tower(3, 1, 2)
    with pytest.raises(ValueError):
        _ = a.alpha + b.alpha
    # another characteristic, and GF(16) again on another modulus: neither
    # element is of t's field, a zero of another field included
    t = build_tower(2, 1, 4)
    rebased = build_tower(2, 1, 4, modulus=(1, 0, 0, 1, 1))
    for x in (b.alpha, rebased.alpha, rebased.zero):
        for op in (t.discrete_log, t.trace, lambda x: t.alpha + x, lambda x: t.alpha - x,
                   lambda x: t.alpha * x):
            with pytest.raises(ValueError, match="element belongs to a different field"):
                op(x)
    with pytest.raises(ValueError, match="unknown trace level 'p->r'"):
        t.trace(t.alpha, "p->r")
    # a tower of another subfield degree on the same core is the same field
    u = build_tower(2, 2, 2)
    assert u.core is t.core
    assert t.discrete_log(u.alpha) == 1
    assert t.trace(u.alpha, "r->p") == t.trace(t.alpha, "r->p")
    assert t.alpha * u.alpha == t.alpha ** 2


@pytest.mark.parametrize("p", [2, 3, 5, 251, 1031])
def test_element_api_matches_the_reference(p):
    # every field GF(p^d) with d <= 8 under the tower cap, against
    # coefficient-wise arithmetic mod p and the schoolbook products below
    rng = random.Random(p)
    for d in range(1, 9):
        if p**d > TOWER_CAP:
            break
        t = build_tower(p, 1, d)
        modulus, n = t.core.modulus, t.r - 1
        # the same field split as GF(p^d) over itself: another tower, one core
        twin = build_tower(p, d, 1)
        with pytest.raises(ValueError, match=f"need {d} coefficients"):
            t.element((1,) * (d + 1))
        for enc in (-1, p**d):
            with pytest.raises(ValueError, match="encoding out of range"):
                t.from_encoding(enc)
        for _ in range(6):
            # element reduces any integer coefficients mod p
            raw = [tuple(rng.randrange(-2 * p, 2 * p) for _ in range(d)) for _ in range(2)]
            a, b = (tuple(c % p for c in v) for v in raw)
            x, y = (t.element(v) for v in raw)
            assert (x.coeffs, y.coeffs) == (a, b)
            assert (x + y).coeffs == tuple((u + v) % p for u, v in zip(a, b))
            assert (x - y).coeffs == tuple((u - v) % p for u, v in zip(a, b))
            assert (-x).coeffs == tuple(-u % p for u in a)
            assert (x * y).coeffs == _ref_mul(a, b, modulus, p)
            for e in (0, 1, 2, p, rng.randrange(1 << 40)):
                assert (x**e).coeffs == _ref_pow(a, e, modulus, p)
            if not x.is_zero:
                e = rng.randrange(1, 1 << 40)
                assert (x**-e).coeffs == _ref_pow(a, -e % n, modulus, p)
                assert x**-e * x**e == t.one
            enc = sum(c * p**i for i, c in enumerate(a))
            assert x.encoding == enc
            assert t.from_encoding(enc) == x and t.from_encoding(enc).coeffs == a
            # equal elements of two towers on one core are one set member
            assert twin.element(a) == x and hash(twin.element(a)) == hash(x)
            assert len({x, twin.element(a), twin.from_encoding(enc)}) == 1


def test_traceq_zero_by_log_matches_trace():
    for p, s, m in [(2, 2, 3), (3, 2, 2), (5, 1, 3)]:
        t = build_tower(p, s, m)
        z = t.traceq_zero_by_log()
        assert z.shape == (t.r - 1,)
        for k in range(t.r - 1):
            assert z[k] == t.trace(t.alpha ** k, "r->q").is_zero


@pytest.mark.parametrize("block", [7, 64, 1 << 16])
def test_traceq_zero_mask_blocks(monkeypatch, block):
    # blocks of any size, wrapped runs included, AND to the whole-array mask
    monkeypatch.setattr(fields, "SCRATCH_BLOCK", block)
    for p, s, m in [(2, 2, 5), (2, 5, 2), (3, 3, 2), (5, 2, 2), (2, 4, 3)]:
        t = FieldTower(p, s, m, _Core(p, s * m))
        zero = t.core.trace_by_log() == 0
        n = t.r - 1
        want = np.logical_and.reduce(
            [np.roll(zero, -(i * t.subfield_embedding % n)) for i in range(s)]
        )
        assert (t.traceq_zero_by_log() == want).all(), (p, s, m, block)


def test_traceq_zero_mask_peak_memory():
    # the mask is the one whole-field array built: past t, its r - 1 bytes
    # and one SCRATCH_BLOCK of booleans
    for p, s, m in [(2, 2, 10), (2, 10, 2), (3, 3, 4), (5, 2, 4)]:
        t = FieldTower(p, s, m, _Core(p, s * m))
        t.core.trace_by_log()
        tracemalloc.start()
        try:
            t.traceq_zero_by_log()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < t.r - 1 + fields.SCRATCH_BLOCK + 4096, (p, s, m, peak - (t.r - 1))


def test_modulus_override_independence():
    # a different irreducible modulus must give an isomorphic field:
    # same trace-zero count and the same multiset of minimal polynomials
    default = build_tower(2, 1, 4)
    other = build_tower(2, 1, 4, modulus=(1, 0, 0, 1, 1))  # x^4 + x^3 + 1
    assert other.core.modulus != default.core.modulus
    for t in (default, other):
        zero_count = int(t.traceq_zero_by_log().sum())
        assert zero_count == t.r // t.p - 1


@pytest.mark.parametrize("p,d", SMALL_FIELDS, ids=[f"{p}-{d}" for p, d in SMALL_FIELDS])
def test_field_arrays_match_elementwise(p, d):
    _check_field(build_tower(p, 1, d), range(p**d - 1))


@pytest.mark.parametrize("p,d", LARGE_FIELDS, ids=[f"{p}-{d}" for p, d in LARGE_FIELDS])
def test_field_arrays_match_sampled(p, d):
    r = p**d
    ks = [0, 1, r - 2] + random.Random(r).sample(range(2, r - 2), 48)
    _check_field(build_tower(p, 1, d), ks)


@pytest.mark.parametrize("p,s,m,modulus", [
    (2, 2, 3, (1, 0, 0, 1, 0, 0, 1)),  # x^6 + x^3 + 1, where x is not primitive
    (3, 2, 2, (2, 0, 1, 0, 1)),  # x^4 + x^2 + 2
])
def test_field_arrays_with_modulus_override(p, s, m, modulus):
    tower = build_tower(p, s, m, modulus=modulus)
    assert tower.core.modulus == modulus
    _check_field(tower, range(tower.r - 1))


# ---------------------------------------------------------------------------
# an independent reference: schoolbook arithmetic on coefficient tuples


def _ref_mul(a, b, modulus, p):
    d = len(a)
    prod = [0] * (2 * d - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    for i in range(2 * d - 2, d - 1, -1):
        c = prod[i] % p
        # x^i = -x^(i-d) * modulus[<d] since the modulus is monic
        for j in range(d):
            prod[i - d + j] -= c * modulus[j]
        prod[i] = 0
    return tuple(v % p for v in prod[:d])


def _ref_pow(a, e, modulus, p):
    out = (1,) + (0,) * (len(a) - 1)
    for _ in range(e.bit_length()):
        if e & 1:
            out = _ref_mul(out, a, modulus, p)
        a = _ref_mul(a, a, modulus, p)
        e >>= 1
    return out


def _ref_gcd_degree(a, b, p):
    """Degree of gcd(a, b) over GF(p), on ascending coefficient lists."""
    def strip(v):
        v = [c % p for c in v]
        while v and not v[-1]:
            v.pop()
        return v

    a, b = strip(a), strip(b)
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            top, off = a[-1] * inv, len(a) - len(b)
            a = strip([c - top * b[i - off] if i >= off else c for i, c in enumerate(a)])
        a, b = b, a
    return len(a) - 1


def _reference_modulus(p, d):
    """The plain scan: the smallest monic f of degree d under the integer
    encoding with gcd(f, x^(p^k) - x) = 1 for every k <= d/2 (Ben-Or)."""
    if d == 1:
        return (0, 1)
    for enc in range(p**d):
        f = fields._digits(enc, p, d) + (1,)
        x = (0, 1) + (0,) * (d - 2)
        cur = x
        for _ in range(d // 2):
            cur = _ref_pow(cur, p, f, p)
            diff = [(c - y) % p for c, y in zip(cur, x)]
            if _ref_gcd_degree(list(f), diff, p) != 0:
                break
        else:
            return f
    raise AssertionError("no irreducible polynomial found")


def _reference_primitive(core):
    """The plain scan: smallest encoding from 2 up with no power (r-1)/ell equal to one."""
    one = (1,) + (0,) * (core.d - 1)
    if core.r == 2:
        return one
    checks = [(core.r - 1) // ell for ell in numtheory.factorize(core.r - 1)]
    for enc in range(2, core.r):
        cand = fields._digits(enc, core.p, core.d)
        if all(_ref_pow(cand, e, core.modulus, core.p) != one for e in checks):
            return cand
    raise AssertionError("no primitive element found")


def _reference_trace_form(core):
    """Tr(x^j) as the sum of the d Frobenius conjugates of x^j, each a constant."""
    p, d = core.p, core.d
    form = []
    for j in range(d):
        term = tuple(int(i == j) for i in range(d))
        total = [0] * d
        for _ in range(d):
            total = [(a + b) % p for a, b in zip(total, term)]
            term = _ref_pow(term, p, core.modulus, p)
        assert not any(total[1:])
        form.append(total[0])
    return tuple(form)


def _check_head(core):
    """The first 2d traces Tr(alpha^k) against sum_j w_j x_j, with w the
    reference trace form and x the coefficients of alpha^k."""
    p, d = core.p, core.d
    form, alpha = _reference_trace_form(core), core.ring.unpack(core.alpha)
    want = [sum(w * x for w, x in zip(form, _ref_pow(alpha, k, core.modulus, p))) % p
            for k in range(2 * d)]
    # GF(2) has a one-term sequence
    assert core.trace_by_log()[: 2 * d].tolist() == want[: core.r - 1]


def _check_searches(core):
    assert core.modulus == _reference_modulus(core.p, core.d)
    assert core.alpha == core.ring.pack(_reference_primitive(core))
    _check_head(core)


def test_tower_searches_match_the_reference():
    # every field up to 2^14: the fields of the criterion-4 sweep
    for p, d in _prime_powers(1 << 14):
        _check_searches(_Core(p, d))


@pytest.mark.parametrize("p,d", [(2, 20), (11, 6), (1031, 2)], ids=["2-20", "11-6", "1031-2"])
def test_tower_searches_match_the_reference_on_verify_fields(p, d):
    _check_searches(_Core(p, d))


def test_primitive_element_matches_the_plain_scan():
    cores = [_Core(2, 6, (1, 0, 0, 1, 0, 0, 1)), _Core(3, 4, (2, 0, 1, 0, 1)),
             _Core(2, 4, (1, 0, 0, 1, 1))]
    for core in cores:
        want = core.ring.pack(_reference_primitive(core))
        assert core.alpha == want, (core.p, core.d, core.modulus)
        _check_head(core)


@pytest.mark.parametrize("p", [2, 3, 5, 251, 1031, 65537])
def test_products_and_powers_match_the_reference(p):
    # any monic modulus will do, irreducible or not: both sides compute in
    # GF(p)[x] / (modulus)
    rng = random.Random(p)
    for d in range(1, 22):
        for _ in range(4):
            modulus = tuple(rng.randrange(p) for _ in range(d)) + (1,)
            ring = fields._make_ring(modulus, p)
            a, b = (tuple(rng.randrange(p) for _ in range(d)) for _ in range(2))
            pa, pb = ring.pack(a), ring.pack(b)
            assert ring.unpack(ring.mul(pa, pb)) == _ref_mul(a, b, modulus, p)
            for e in (0, 1, 2, p, rng.randrange(1 << 40)):
                assert ring.unpack(ring.pow(pa, e)) == _ref_pow(a, e, modulus, p)
        # the largest coefficients fill every slot of a product
        top = (p - 1,) * d
        modulus = top + (1,)
        ring = fields._make_ring(modulus, p)
        ptop = ring.pack(top)
        assert ring.unpack(ring.mul(ptop, ptop)) == _ref_mul(top, top, modulus, p)


def test_non_primitive_alpha_is_rejected():
    # x^3 has order 5 in GF(16) = GF(2)[x]/(x^4 + x + 1): its trace sequence
    # still closes with period 15, but its windows repeat
    core = _Core(2, 4)
    core.alpha = core.ring.pack((0, 0, 0, 1))
    with pytest.raises(AssertionError, match="biject"):
        core.log_table()
    # x^5 lies in GF(4), so its trace sequence has linear complexity 2 < 4
    core = _Core(2, 4)
    core.alpha = core.ring.pack((0, 1, 1, 0))
    with pytest.raises(AssertionError, match="linear complexity"):
        core.trace_by_log()


def test_conjugates_outside_a_field_are_rejected():
    # GF(2)[x] / (x+1)^3 is no field: x has the distinct "conjugates" x, x^2
    # and x^4 = 1, but their sum x^2 + x + 1 is no constant
    core = _Core(2, 3)
    core.ring = fields._make_ring((1, 1, 1, 1), 2)
    core.alpha = core.ring.pack((0, 1, 0))
    with pytest.raises(AssertionError, match="must lie in GF"):
        core.trace_by_log()


def test_field_checks_hold_under_optimize():
    code = (
        "from irrcyclic.fields import _Core\n"
        "core = _Core(2, 4)\n"
        "core.alpha = core.ring.pack((0, 0, 0, 1))\n"
        "core.log_table()\n"
    )
    run = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert run.returncode != 0
    assert "AssertionError: trace windows must biject" in run.stderr


def test_modulus_override_validated():
    with pytest.raises(ValueError):
        build_tower(2, 1, 4, modulus=(1, 0, 1, 0, 1))  # (x^2 + x + 1)^2
    with pytest.raises(ValueError):
        build_tower(2, 1, 2, modulus=(0, 1, 1, 1))  # wrong degree


def test_tower_budget():
    with pytest.raises(SizeBudgetExceeded):
        build_tower(2, 1, 40)


def test_element_repr():
    t = build_tower(3, 1, 4)
    assert repr(t.element((2, 1, 0, 2))) == "<2 + x + 2*x^3 in GF(3^4)>"
    assert repr(t.element((0, 0, 1, 0))) == "<x^2 in GF(3^4)>"
    assert repr(t.zero) == "<0 in GF(3^4)>"


def test_scalar_and_one():
    t = build_tower(7, 1, 2)
    assert t.scalar(3) + t.scalar(5) == t.scalar(1)
    assert t.one * t.alpha == t.alpha
