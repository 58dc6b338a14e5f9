"""Child process of the benchmark: one sweep pass, or one traced CLI op.

    python perfbench/worker.py sweep <workload> <seed> <trace 0|1>
    python perfbench/worker.py op '<op as JSON>'

The package must be importable (PYTHONPATH=src).  Prints one JSON object on
stdout.  A traced op makes the calls the CLI command makes, in a fresh
process so every cache starts cold; for `verify` it first calls
build_tower, trace_by_log and traceq_zero_by_log itself, so that each cold
cost lands in its own span instead of inside the oracle's.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def _trace_fields(tracer) -> dict:
    return {"spans": tracer.spans, "counts": tracer.counts, "bytes": tracer.array_bytes}


def sweep(workload: str, seed: int, trace: bool) -> dict:
    import specs
    import sweeps

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    tally = sweeps.Tally()
    t0 = time.perf_counter()
    try:
        sweeps.SWEEPS[workload](specs.sweep_fields(workload, seed), tally)
    except Exception as exc:  # a failed field-level check ends the pass
        tally.failures.append(f"{type(exc).__name__}: {exc}")
    out = {
        "sweep_s": time.perf_counter() - t0,
        "instances": len(tally.latencies),
        "failed": len(tally.failures),
        "failures": tally.failures[:10],
        "latencies": tally.latencies,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.uninstall()
        out.update(_trace_fields(tracer))
    return out


def traced_op(op: dict) -> dict:
    from check import argv
    from spans import Tracer

    from irrcyclic import cli, fields

    tracer = Tracer()
    tracer.install()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if op["cmd"] == "verify":
                p, s, m, _ = op["spec"]
                tower = fields.build_tower(p, s, m)
                tower.core.trace_by_log()
                tower.traceq_zero_by_log()
            rc = cli.main(argv(op))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # what an uncaught error would do to the CLI
            traceback.print_exc()
            rc = 1
    tracer.uninstall()
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:],
            **_trace_fields(tracer)}


def main(args: list[str]) -> None:
    if args[0] == "sweep":
        result = sweep(args[1], int(args[2]), args[3] == "1")
    elif args[0] == "op":
        result = traced_op(json.loads(args[1]))
    else:
        raise SystemExit(f"unknown job {args[0]!r}")
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
