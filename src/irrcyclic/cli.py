"""Command line front end.

Subcommands: dist, verify, bounds, periods, table1.  Every run emits either
plain text or a single JSON record: one dict whose keys are `_SCHEMA`, in that
order, for every subcommand; values a command did not compute are null.  One
runner, `main`, reads the clock, builds the code's `CodeSpec` for the commands
that take the code flags, opens the record with its parameters and prints it
once the command returns.  Each `cmd_*` takes (args, spec, rec), stores a
value's JSON form in rec as it computes it, and returns its exit code and its
text lines.  Weight and count values inside the record are decimal strings so
that results beyond 64 bits survive any JSON reader.

Only the enumerations of `verify`, `dist` and `periods` load numpy, after their
size gates; a closed form or a size refusal never does.  Nor does a closed
form load `dataclasses` or rational arithmetic: it runs on integers alone.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import closed_forms, errors, weights
from .errors import DEFAULT_ENUM_BUDGET

_METHODS = ("auto", "closed", "brute")

# the keys of the JSON record, in output order
_SCHEMA = (
    "p", "s", "m", "N", "q", "r", "n", "N1", "m0", "method", "weights",
    "divisor", "bounds", "thm14", "verify", "periods", "table", "elapsed_ms",
)


def _weights_json(dist: weights.WeightDistribution) -> list[dict]:
    return [{"w": str(w), "count": str(c)} for w, c in dist.entries]


def _record_bounds(rec: dict, spec: weights.CodeSpec) -> tuple[int, int, int]:
    """Record the weight divisor and bounds of spec; return them."""
    divisor = rec["divisor"] = weights.divisibility(spec)
    lower, upper = weights.bounds(spec)
    rec["bounds"] = {"lower": lower, "upper": upper}
    return divisor, lower, upper


def _record_check(rec: dict, check: weights.PeriodCheck) -> str:
    """Record the three period checks; return their text line."""
    rec["thm14"] = {
        "integral": check.integral,
        "congruent": check.congruent,
        "bounded": check.bounded,
    }
    return " ".join(f"{key}={ok}" for key, ok in rec["thm14"].items())


def _finish(rec: dict, t0: float, fmt: str, lines: list[str]) -> None:
    extra = rec.keys() - _SCHEMA
    if extra:
        raise KeyError(f"keys outside the record schema: {sorted(extra)}")
    rec["elapsed_ms"] = round((time.perf_counter() - t0) * 1000.0, 3)
    if fmt == "json":
        # written as it is encoded: a long periods list is never held twice
        json.dump(rec, sys.stdout)
        sys.stdout.write("\n")
    else:
        for line in lines:
            print(line)


def _poly_text(coeffs: tuple[int, ...]) -> str:
    parts: list[str] = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        if k == 0:
            body = str(abs(c))
        else:
            x = "X" if k == 1 else f"X^{k}"
            body = x if abs(c) == 1 else f"{abs(c)}{x}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


def cmd_dist(args, spec, rec) -> tuple[int, list[str]]:
    dist = weights.weight_distribution(spec, args.method, budget=args.budget)
    rec["method"] = dist.method
    rec["weights"] = _weights_json(dist)
    _record_bounds(rec, spec)
    return 0, [dist.enumerator_text()]


def cmd_verify(args, spec, rec) -> tuple[int, list[str]]:
    # the oracle's own gates, in its order, before it loads numpy
    errors.require_enum_size("oracle", spec.r, args.budget)
    errors.require_tower_size(spec.p, spec.s * spec.m)
    from . import oracle

    divisor, lower, upper = _record_bounds(rec, spec)
    reference = oracle.brute_weight_distribution(spec, budget=args.budget)
    pset = weights.enumerated_periods(spec, spec.N1, budget=args.budget)
    check = weights.check_period_properties(spec, pset)
    check_line = (
        f"divisor = {divisor} | bounds = [{lower}, {upper}] | {_record_check(rec, check)}"
    )
    try:
        closed = weights.weight_distribution(spec, args.method, budget=args.budget)
    except errors.Unsupported as exc:
        rec["weights"] = _weights_json(reference)
        return 3, [
            f"no closed form applies ({exc}); oracle result:",
            reference.enumerator_text(),
            check_line,
        ]
    rec["method"] = closed.method
    rec["weights"] = _weights_json(closed)
    match = closed.entries == reference.entries
    rec["verify"] = {"match": match, "oracle_method": reference.method}
    if match:
        return 0, [
            f"MATCH: {closed.method} == {reference.method}",
            closed.enumerator_text(),
            check_line,
        ]
    return 4, [
        f"MISMATCH: {closed.method} != {reference.method}",
        f"closed: {closed.enumerator_text()}",
        f"oracle: {reference.enumerator_text()}",
        check_line,
    ]


def cmd_bounds(args, spec, rec) -> tuple[int, list[str]]:
    divisor, lower, upper = _record_bounds(rec, spec)
    return 0, [
        f"[n, k] = [{spec.n}, {spec.m0}] over GF({spec.q})",
        f"divisor = {divisor}",
        f"lower = {lower}",
        f"upper = {upper}",
    ]


def cmd_periods(args, spec, rec) -> tuple[int, list[str]]:
    p, N, d = spec.p, spec.N, spec.s * spec.m
    found = None if args.method == "brute" else closed_forms.closed_periods(p, d, N)
    if found is not None:
        # every class gets its own printed value: refuse an order too large
        # to list before expanding the runs
        if N > args.budget:
            raise errors.SizeBudgetExceeded(f"periods of order {N} exceed budget {args.budget}")
        method, periods = found
        values = [eta for eta, mult in periods for _ in range(mult)]
    elif args.method == "closed":
        raise errors.Unsupported(f"no closed form for periods of order {N} over GF({spec.r})")
    else:
        pset = weights.enumerated_periods(spec, N, budget=args.budget)
        method, values = "brute", pset.integer_values
    # the roots of a period polynomial carry no class labels
    by_class = method not in closed_forms.ROOTS_ONLY

    integral = values is not None
    if integral:
        texts = [str(v) for v in values]
    else:
        from . import cyclotomy

        # irrational periods are only printed, and each costs O(p) to
        # render: render each count row once, building no RootOfUnitySum
        texts = [cyclotomy.root_sum_text(p, row.tolist()) for row in pset.counts]
    rec["method"], rec["periods"] = method, texts
    text = args.format == "text"
    lines = []
    if text and by_class and integral:
        lines.append(", ".join(f"eta_{i} = {v}" for i, v in enumerate(texts)))
    elif text and by_class:
        lines.extend(f"eta_{i} = {v}" for i, v in enumerate(texts))
    if text and N in (3, 4):
        if integral:
            coeffs = closed_forms.expand_roots((v, 1) for v in values)
        else:
            # only an enumeration gives irrational periods, so r is within
            # budget and the polynomial's scan over r stays short
            build = closed_forms.period_poly_order3 if N == 3 else closed_forms.period_poly_order4
            coeffs = build(args.p, args.s, args.m).coeffs
        lines.append(f"polynomial: {_poly_text(coeffs)}")
        if not by_class:
            lines.append(
                "roots: {" + ", ".join(texts) + "} (class assignment not determined)"
            )
    if spec.N1 == N and integral:
        check = weights.check_period_properties(spec, values)
        lines.append(_record_check(rec, check))
    return 0, lines


# Printed reference table: (p, s, m, N) and the published row
# (n, k, d, q, lower bound, (r-1)/(q-1) mod N).
_TABLE1 = (
    ((2, 1, 4, 3), (5, 4, 2, 2, 2, 0)),
    ((2, 1, 6, 3), (21, 6, 8, 2, 8, 0)),
    ((2, 2, 3, 3), (21, 3, 12, 4, 12, 0)),
    ((2, 2, 4, 3), (85, 4, 64, 4, 64, 1)),
    ((3, 1, 3, 2), (13, 3, 9, 3, 9, 1)),
    ((3, 1, 4, 2), (40, 4, 24, 3, 24, 0)),
    ((3, 1, 5, 2), (121, 5, 81, 3, 81, 1)),
    ((5, 1, 4, 2), (312, 4, 240, 5, 236, 0)),
)


def table1_rows() -> list[dict]:
    rows = []
    for (p, s, m, N), printed in _TABLE1:
        spec = weights.code_params(p, s, m, N)
        dist = weights.weight_distribution(spec)
        lower, _ = weights.bounds(spec)
        residue = ((spec.r - 1) // (spec.q - 1)) % N
        rows.append({
            "n": spec.n,
            "k": spec.m0,
            "d": dist.minimum_distance,
            "q": spec.q,
            "computed_bound": lower,
            "printed_bound": printed[4],
            "residue": residue,
            "agree": lower == printed[4],
        })
    return rows


def cmd_table1(args, spec, rec) -> tuple[int, list[str]]:
    rows = rec["table"] = table1_rows()
    lines = ["  n  k    d  q  computed  printed  residue"]
    for row in rows:
        mark = "agree" if row["agree"] else "DISAGREE"
        lines.append(
            f"{row['n']:>3}  {row['k']}  {row['d']:>3}  {row['q']}"
            f"  {row['computed_bound']:>8}  {row['printed_bound']:>7}"
            f"  {row['residue']:>7}  {mark}"
        )
    return 0, lines


def _add_run_flags(sp, default_method: str | None) -> None:
    # fresh actions per subparser: argparse parents share action objects, so
    # a per-command default would leak into every sibling
    sp.add_argument("--format", choices=("text", "json"), default="text")
    if default_method is not None:
        sp.add_argument("--method", choices=_METHODS, default=default_method)
        sp.add_argument("--budget", type=int, default=DEFAULT_ENUM_BUDGET,
                        help="largest field size the enumeration paths accept")


def _add_param_flags(sp) -> None:
    sp.add_argument("--p", type=int, required=True, help="characteristic")
    sp.add_argument("--s", type=int, required=True,
                    help="alphabet field is GF(p**s)")
    sp.add_argument("--m", type=int, required=True,
                    help="extension degree, codewords live in GF(p**(s*m))")
    sp.add_argument("--N", type=int, required=True,
                    help="divisor of p**(s*m) - 1 selecting the code")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing never mutates it."""
    top = argparse.ArgumentParser(
        prog="irrcyclic",
        description="Exact weight distributions of irreducible cyclic codes.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    commands = (
        ("dist", cmd_dist, True, "auto", "weight distribution"),
        ("verify", cmd_verify, True, "closed",
         "closed form against the enumeration oracle"),
        ("bounds", cmd_bounds, True, None,
         "divisibility and weight bounds only"),
        ("periods", cmd_periods, True, "auto", "Gaussian periods of order N"),
        ("table1", cmd_table1, False, None,
         "recompute the published bound table"),
    )
    # default_method None: the command enumerates nothing, so it takes --format only
    for name, fn, takes_params, default_method, help_text in commands:
        sp = sub.add_parser(name, help=help_text)
        if takes_params:
            _add_param_flags(sp)
        _add_run_flags(sp, default_method)
        sp.set_defaults(fn=fn, takes_params=takes_params)
    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # a valid code may print numbers past Python's default 4300-digit limit;
    # lifted only after parsing, so an oversize argument is still refused
    saved = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        t0 = time.perf_counter()
        spec = None
        rec = dict.fromkeys(_SCHEMA)
        if args.takes_params:
            spec = weights.code_params(args.p, args.s, args.m, args.N)
            rec.update(p=spec.p, s=spec.s, m=spec.m, N=spec.N, q=spec.q, r=spec.r,
                       n=spec.n, N1=spec.N1, m0=spec.m0)
        # printed only once the command returns: one that raises prints no record
        status, lines = args.fn(args, spec, rec)
        _finish(rec, t0, args.format, lines)
        return status
    except (errors.Unsupported, errors.SizeBudgetExceeded) as exc:
        print(f"unsupported: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except errors.Error as exc:
        print(f"invalid parameters: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
