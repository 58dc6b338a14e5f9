"""Record the output of every CLI op the benchmark can draw.

    PYTHONPATH=src python3 perfbench/record_golden.py

Runs each cli-verify and cli-closed op in-process through irrcyclic.cli.main
and writes perfbench/golden.json, mapping the op's command line to its exit
code and the digest of that code and its stdout with elapsed_ms blanked.
Record only from a commit whose outputs are known good: from then on the
benchmark fails any op whose output differs by a single byte.
"""

from __future__ import annotations

import contextlib
import io
import json

import check
import specs

from irrcyclic import cli


def record(op: dict) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(check.argv(op))
    problem = check.check_op(op, rc, out.getvalue())
    if problem:
        raise SystemExit(f"{check.op_key(op)}: {problem}")
    return [rc, check.digest(rc, out.getvalue())]


def main() -> None:
    ops = [{"cmd": "verify", "spec": list(spec)}
           for _, pool in specs.VERIFY_CLASSES for spec in pool]
    ops += [{"cmd": cmd, "spec": spec}
            for pool in specs.closed_pool().values()
            for spec in pool for cmd in specs.CLOSED_CMDS]
    golden = {check.op_key(op): record(op) for op in ops}
    check.GOLDEN_PATH.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} ops in {check.GOLDEN_PATH.name}")


if __name__ == "__main__":
    main()
