"""Checks on the output of one `irrcyclic` CLI op.

Every op is judged from its exit code and stdout alone, the way a user's
script would judge it.  The checks are written against the documented JSON
record, not against the package's own helpers, so a defect in those helpers
cannot hide here.  Ops whose output was recorded in golden.json must also
reproduce that output byte for byte, apart from the elapsed_ms value.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")

SCHEMA_KEYS = (
    "p", "s", "m", "N", "q", "r", "n", "N1", "m0", "method", "weights",
    "divisor", "bounds", "thm14", "verify", "periods", "table", "elapsed_ms",
)
CLOSED_TAGS = ("thm16", "thm18", "thm19", "thm21", "thm22", "thm23", "thm24")

_ELAPSED = re.compile(r'"elapsed_ms": [-+0-9.eE]+')


def argv(op: dict) -> list[str]:
    """CLI arguments of an op {"cmd": ..., "spec": [p, s, m, N]}."""
    p, s, m, N = op["spec"]
    return [op["cmd"], "--p", str(p), "--s", str(s), "--m", str(m),
            "--N", str(N), "--format", "json"]


def op_key(op: dict) -> str:
    return " ".join(argv(op))


def digest(rc: int, stdout: str) -> str:
    """Hash of the exit code and stdout with the timing value blanked."""
    text = f"{rc}\n" + _ELAPSED.sub('"elapsed_ms": null', stdout)
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def _weights_problem(rec: dict) -> str | None:
    q, m0 = rec["q"], rec["m0"]
    entries = [(int(e["w"]), int(e["count"])) for e in rec["weights"]]
    if [w for w, _ in entries] != sorted({w for w, _ in entries}):
        return "weights are not strictly ascending"
    if sum(c for _, c in entries) != q**m0 - 1:
        return "counts do not sum to q^m0 - 1"
    lo, hi = rec["bounds"]["lower"], rec["bounds"]["upper"]
    div = rec["divisor"]
    for w, c in entries:
        if c <= 0:
            return f"count {c} is not positive"
        if not lo <= w <= hi:
            return f"weight {w} outside bounds [{lo}, {hi}]"
        if w % div:
            return f"weight {w} not divisible by {div}"
    return None


def _record_problem(op: dict, rec: dict) -> str | None:
    if tuple(rec) != SCHEMA_KEYS:
        return f"key set {sorted(rec)} is not the schema"
    p, s, m, N = op["spec"]
    q, r = p**s, p ** (s * m)
    if (rec["p"], rec["s"], rec["m"], rec["N"]) != (p, s, m, N):
        return "record echoes other parameters"
    if (rec["q"], rec["r"], rec["n"]) != (q, r, (r - 1) // N):
        return "q, r or n is wrong"
    cmd = op["cmd"]
    if cmd in ("dist", "verify"):
        if rec["weights"] is None:
            return "no weights"
        problem = _weights_problem(rec)
        if problem:
            return problem
    if cmd == "bounds":
        lo, hi = rec["bounds"]["lower"], rec["bounds"]["upper"]
        if not lo <= hi or rec["divisor"] < 1:
            return "bounds or divisor malformed"
    if cmd == "periods":
        values = rec["periods"] or []
        if len(values) != N:
            return f"{len(values)} periods for order {N}"
        if all(re.fullmatch(r"-?\d+", v) for v in values):
            if sum(int(v) for v in values) != -1:
                return "integer periods do not sum to -1"
    return None


def check_op(op: dict, rc: int, stdout: str, golden: dict | None = None) -> str | None:
    """None when the op's output is correct, else the reason it is not.

    Expected exit codes: 0 everywhere; 3 ("no applicable method") for dist
    and periods past every closed form, and for verify when no closed form
    applies, in which case the record must still carry the oracle result.
    """
    cmd = op["cmd"]
    allowed = {"dist": (0, 3), "verify": (0, 3), "bounds": (0,), "periods": (0, 3)}
    if rc not in allowed[cmd]:
        return f"exit code {rc}"
    if golden is not None:
        want = golden.get(op_key(op))
        if want is not None and [rc, digest(rc, stdout)] != want:
            return "output differs from the recorded output"
    if rc == 3 and cmd != "verify":
        return None if stdout == "" else "exit 3 with output"
    lines = stdout.splitlines()
    if len(lines) != 1:
        return f"{len(lines)} lines of output"
    try:
        rec = json.loads(lines[0])
    except ValueError:
        return "output is not JSON"
    problem = _record_problem(op, rec)
    if problem:
        return problem
    if cmd == "dist" and rec["method"] not in CLOSED_TAGS + ("brute",):
        return f"unknown method {rec['method']!r}"
    if cmd == "verify":
        if rc == 0:
            if rec["verify"] != {"match": True, "oracle_method": "brute"}:
                return f"verify record {rec['verify']}"
            if rec["method"] not in CLOSED_TAGS:
                return f"closed method {rec['method']!r}"
        elif rec["verify"] is not None or rec["method"] is not None:
            return "exit 3 with a closed-form answer"
        if rec["thm14"] != {"integral": True, "congruent": True, "bounded": True}:
            return f"period checks {rec['thm14']}"
    return None

