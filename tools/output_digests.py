"""Digest every CLI output over a fixed grid, to show that a change moves no byte.

    python3 tools/output_digests.py OUT.json [--src DIR]
    python3 tools/output_digests.py --compare A.json B.json

The first form runs `irrcyclic.cli.main` in-process (imported from DIR,
default the `src` next to this script) on every op of the grid and writes
{command line: sha256 of exit code, stdout with elapsed_ms blanked, stderr}.
The grid is `dist` and `periods` in text and JSON under --method auto, closed
and brute, plus JSON `verify`, over every subfield split and every N of
every field with r <= 2^10 and of every GF(p) with p < 1100.  An op that
raises out of `main` is digested by its exception instead of an exit code.

The second form lists the command lines whose digests differ, or that only
one file has, and exits 1 if there are any.  To check a change, write one
file from each tree's `src` and compare the two.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import sys
import time
from pathlib import Path

FIELD_LIMIT = 1 << 10
PRIME_LIMIT = 1100
_ELAPSED = re.compile(r'"elapsed_ms": [-+0-9.eE]+')


# the grid is built without the package under test, so every tree digests
# the same ops
def _is_prime(n: int) -> bool:
    return n > 1 and all(n % k for k in range(2, int(n**0.5) + 1))


def _divisors(n: int) -> list[int]:
    return [k for k in range(1, n + 1) if n % k == 0]


def fields() -> list[tuple[int, int]]:
    """(p, degree) of every field with r <= FIELD_LIMIT or r = p < PRIME_LIMIT."""
    out = []
    for p in range(2, max(FIELD_LIMIT, PRIME_LIMIT)):
        if not _is_prime(p):
            continue
        d = 1
        while p**d <= FIELD_LIMIT or (d == 1 and p < PRIME_LIMIT):
            out.append((p, d))
            d += 1
    return out


def grid() -> list[list[str]]:
    ops = []
    for p, e in fields():
        r = p**e
        for m in _divisors(e):
            for N in _divisors(r - 1):
                spec = ["--p", str(p), "--s", str(e // m), "--m", str(m), "--N", str(N)]
                for cmd in ("dist", "periods"):
                    for fmt in ("text", "json"):
                        for method in ("auto", "closed", "brute"):
                            ops.append([cmd, *spec, "--format", fmt, "--method", method])
                ops.append(["verify", *spec, "--format", "json"])
    return ops


def digest(main, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = str(main(argv))
        except Exception as exc:  # an escaped exception is an output too
            status = f"raised {type(exc).__name__}: {exc}"
    text = "\n".join([status, _ELAPSED.sub('"elapsed_ms": null', out.getvalue()), err.getvalue()])
    return hashlib.sha256(text.encode()).hexdigest()


def record(src: Path, path: Path) -> None:
    sys.path.insert(0, str(src))
    from irrcyclic import cli

    t0 = time.perf_counter()
    digests = {" ".join(argv): digest(cli.main, argv) for argv in grid()}
    path.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests from {cli.__file__} in {time.perf_counter() - t0:.1f} s")


def compare(a: Path, b: Path) -> int:
    left, right = json.loads(a.read_text()), json.loads(b.read_text())
    differ = sorted(k for k in left.keys() | right.keys() if left.get(k) != right.get(k))
    for key in differ:
        side = "" if key in left and key in right else f" (only in {a if key in left else b})"
        print(f"{key}{side}")
    print(f"{len(differ)} of {len(left.keys() | right.keys())} ops differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", type=Path, help="digest file to write")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="directory holding the irrcyclic package to run")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two digest files instead of writing one")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.out is None:
        parser.error("give OUT or --compare A B")
    record(args.src, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
