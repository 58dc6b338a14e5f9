"""Layered benchmark of irrcyclic: the CLI as users run it, and the two Tier-1 sweeps.

Run from the repository root:

    python3 perfbench/run.py --workload cli-verify --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json for why each one is there):

    cli-verify     `verify --format json` on closed-form codes at r = 2^20..2^21
    cli-closed     short `dist`/`bounds`/`periods` ops far past every budget
    sweep-dist     a sample of acceptance criterion 4 in one worker process
    sweep-periods  a sample of acceptance criterion 5 in one worker process
    all            the four in turn

Load is one closed-loop client: ops run one after another, each in a fresh
`python -m irrcyclic.cli` (or worker) process, so at most this runner and
one child are alive.  A run repeats passes over its seeded inputs while a
further pass still fits in --seconds, always making at least one.  Every
child is killed at a per-op time limit and then counts as failed.

--trace 0 prints the end-to-end metrics.  --trace 1 makes one untraced pass
and one pass with spans around the package's public calls, and prints the
per-layer metrics.  Human-readable lines come first; the last line is one
JSON object {correct, attempted, failed, metrics}.  Each run also writes
.perfbench/<workload>-seed<n>-trace<t>.json with the environment stamp,
the samples and, when traced, every span.  Exit status: 0 when every output
checks out, 1 when any does not, 2 when the package source is missing.

Which end-to-end metric a layer metric should move:

    fields.trace_by_log, fields.traceq_zero_by_log   wall_s and peak_rss_mb on
        cli-verify, instances_per_s on sweep-dist, nothing on cli-closed
    oracle.*          instances_per_s on sweep-dist; under 1% of cli-verify
    cyclotomy.*, fields.log_table, fields.succ_log   instances_per_s on
        sweep-periods, almost nothing elsewhere
    weights.weight_distribution, cli.main, setup_s   op_s.* on cli-closed, a
        small share of sweep-dist
    fields.build_tower   1-2% of both sweeps

The ops of cli-closed that have no bounded exit today (ROADMAP item 5) are
not counted among its ops, which must all succeed; one of them runs per
cli-closed run as a probe, bounded like any op, and probe.killed reports it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple

import check
import specs

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKER = Path(__file__).with_name("worker.py")

SETUP_SAMPLES = 5
OP_LIMIT_S = {"cli-verify": 60.0, "cli-closed": 3.0}
SWEEP_LIMIT_S = 90.0


class Child(NamedTuple):
    """Outcome of one child process: exit code, output, wall time, peak RSS."""

    rc: int
    stdout: str
    stderr: str
    wall_s: float
    rss_mb: float
    killed: bool


def spawn(cmd: list[str], limit_s: float) -> Child:
    """Run cmd to completion or kill it at limit_s; time it from spawn to exit.

    The peak RSS comes from wait4 on this child alone: RUSAGE_CHILDREN
    would report the largest of all children so far.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        lock = threading.Lock()
        state = {"exited": False, "killed": False}

        def kill():
            with lock:
                if not state["exited"]:
                    os.kill(proc.pid, signal.SIGKILL)
                    state["killed"] = True

        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=env, cwd=ROOT)
        timer = threading.Timer(limit_s, kill)
        timer.start()
        # wait without reaping, so the pid cannot be reused before the timer
        # is disarmed
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - t0
        with lock:
            state["exited"] = True
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, out.read().decode(), err.read().decode(),
                     wall, usage.ru_maxrss / 1024.0, state["killed"])


def cli_command(op: dict) -> list[str]:
    return [sys.executable, "-m", "irrcyclic.cli", *check.argv(op)]


def measure_setup() -> list[float]:
    """Wall times of fresh interpreters importing irrcyclic.cli.

    One unmeasured import first writes the bytecode caches, which a user
    pays once, not on every run.
    """
    cmd = [sys.executable, "-c", "import irrcyclic.cli"]
    spawn(cmd, 60.0)
    times = []
    for _ in range(SETUP_SAMPLES):
        child = spawn(cmd, 60.0)
        if child.rc != 0:
            raise SystemExit(f"importing irrcyclic.cli failed:\n{child.stderr}")
        times.append(child.wall_s)
    return times


class Pass:
    """One pass over a run's inputs: its wall time and the latency of each op
    it completed (for a CLI pass, each op whose output checked out)."""

    def __init__(self):
        self.wall_s = 0.0
        self.latencies: list[float] = []
        self.busy_s = 0.0

    def rate(self) -> float:
        return len(self.latencies) / self.busy_s


class Samples:
    """What one run measured, pass by pass and op by op."""

    def __init__(self):
        self.passes: list[Pass] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.rss_mb = 0.0
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.array_bytes: dict[str, int] = {}

    def add_trace(self, result: dict) -> None:
        self.spans.append(result["spans"])
        for key, value in result["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + value
        for key, value in result["bytes"].items():
            self.array_bytes[key] = self.array_bytes.get(key, 0) + value


def cli_pass(workload: str, ops: list[dict], samples: Samples, traced: bool,
             golden: dict) -> None:
    limit = OP_LIMIT_S[workload]
    this = Pass()
    t0 = time.perf_counter()
    for op in ops:
        if traced:
            child = spawn([sys.executable, str(WORKER), "op", json.dumps(op)], limit)
            result = json.loads(child.stdout) if child.rc == 0 else None
            rc, stdout = (result["rc"], result["stdout"]) if result else (child.rc, "")
            if result:
                samples.add_trace(result)
        else:
            child = spawn(cli_command(op), limit)
            rc, stdout = child.rc, child.stdout
        samples.attempted += 1
        if child.killed:
            problem = f"killed at the {limit:g} s limit"
        else:
            problem = check.check_op(op, rc, stdout, golden)
        if problem:
            samples.failed += 1
            samples.failures.append(f"{check.op_key(op)}: {problem}")
        else:
            this.latencies.append(child.wall_s)
            this.busy_s += child.wall_s
        samples.rss_mb = max(samples.rss_mb, child.rss_mb)
    this.wall_s = time.perf_counter() - t0
    samples.passes.append(this)


def sweep_pass(workload: str, seed: int, samples: Samples, traced: bool) -> None:
    this = Pass()
    samples.passes.append(this)
    t0 = time.perf_counter()
    child = spawn([sys.executable, str(WORKER), "sweep", workload, str(seed),
                   "1" if traced else "0"], SWEEP_LIMIT_S)
    this.wall_s = time.perf_counter() - t0
    if child.rc != 0:
        why = "killed at the time limit" if child.killed else child.stderr[-500:]
        samples.attempted += 1
        samples.failed += 1
        samples.failures.append(f"sweep worker failed: {why}")
        return
    result = json.loads(child.stdout)
    samples.attempted += result["instances"]
    samples.failed += result["failed"]
    samples.failures += result["failures"]
    this.latencies = result["latencies"]
    this.busy_s = result["sweep_s"]
    samples.rss_mb = max(samples.rss_mb, result["maxrss_kb"] / 1024.0)
    if traced:
        samples.add_trace(result)


def run_passes(workload: str, seed: int, seconds: float, traced: bool, once: bool,
               golden: dict) -> Samples:
    samples = Samples()
    inputs = specs.generate(workload, seed)
    start = time.perf_counter()
    while True:
        if workload.startswith("cli-"):
            cli_pass(workload, inputs, samples, traced, golden)
        else:
            sweep_pass(workload, seed, samples, traced)
        elapsed = time.perf_counter() - start
        if once or elapsed + samples.passes[-1].wall_s > seconds:
            return samples


def run_probe(seed: int) -> dict:
    """One op of the known-hang family, bounded like every other op."""
    op = specs.hang_probe(seed)
    child = spawn(cli_command(op), OP_LIMIT_S["cli-closed"])
    return {"op": check.op_key(op), "killed": child.killed, "rc": child.rc,
            "wall_s": child.wall_s}


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile: with n samples, n - ceil(pct*n/100) lie beyond it."""
    ordered = sorted(values)
    rank = -(-pct * len(ordered) // 100)
    return ordered[max(rank, 1) - 1]


def end_to_end(setup: list[float], s: Samples) -> dict:
    """The user-visible metrics; each timing is the median of its per-pass values,
    so one pass slowed by the shared machine does not move it."""
    done = [p for p in s.passes if p.latencies]

    def per_pass(stat) -> float:
        return statistics.median(stat(p) for p in done) if done else 0.0

    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(p.wall_s for p in s.passes), "s"),
        "instances_per_s": (per_pass(Pass.rate), "1/s"),
        "op_s.p50": (per_pass(lambda p: statistics.median(p.latencies)), "s"),
        "op_s.p90": (per_pass(lambda p: percentile(p.latencies, 90)), "s"),
        "peak_rss_mb": (s.rss_mb, "MB"),
    }


def per_layer(plain: Samples, traced: Samples, probes: list[dict]) -> dict:
    from spans import summarize

    units = {"self_s": "s", "calls": "count", "bytes": "B"}
    out = {}
    for name, value in summarize(traced.spans, traced.counts, traced.array_bytes).items():
        stat = name.rsplit(".", 1)[1]
        out[name] = (value, units.get(stat, "ratio"))
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    out["trace.overhead_s"] = (traced.passes[0].wall_s - plain.passes[0].wall_s, "s")
    out["fail_frac"] = (failed / attempted if attempted else 0.0, "ratio")
    out["probe.killed"] = (sum(p["killed"] for p in probes), "count")
    return out


def stamp() -> dict:
    import numpy

    import irrcyclic

    digest = hashlib.sha256()
    for path in sorted((SRC / "irrcyclic").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "commit": commit or None,
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": getattr(irrcyclic, "BACKEND", None),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    golden = check.load_golden()
    setup = []
    if trace:
        runs = {"untraced": run_passes(workload, seed, seconds, False, True, golden),
                "traced": run_passes(workload, seed, seconds, True, True, golden)}
    else:
        # sample set-up before and after the passes, so that a short slowdown
        # of the shared machine moves at most half of the samples
        setup = measure_setup()
        runs = {"untraced": run_passes(workload, seed, seconds, False, False, golden)}
        setup += measure_setup()
    plain = runs["untraced"]
    probes = [run_probe(seed)] if workload == "cli-closed" else []
    if trace:
        metrics = per_layer(plain, runs["traced"], probes)
    else:
        metrics = end_to_end(setup, plain)
    failures = [f for s in runs.values() for f in s.failures]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "stamp": env, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": sum(s.attempted for s in runs.values()),
        "failed": sum(s.failed for s in runs.values()), "failures": failures,
        "probes": probes, "setup_samples": setup,
        "runs": {k: {"passes": [vars(p) for p in s.passes], "spans": s.spans}
                 for k, s in runs.items()},
    }
    path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record))
    counts = [len(p.latencies) for p in plain.passes]
    print(f"== {workload} seed={seed} trace={int(trace)} ops={plain.attempted}"
          f" passes={len(counts)} latency samples per pass={counts}"
          f" beyond p90={[n - -(-90 * n // 100) for n in counts]}")
    for name, (value, unit) in metrics.items():
        note = " (computed from nbytes)" if name.endswith(".bytes") else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    for probe in probes:
        verdict = "killed (no bounded exit)" if probe["killed"] else f"exit {probe['rc']}"
        print(f"hang probe {probe['op']}: {verdict} after {probe['wall_s']:.2f} s")
    for failure in failures[:10]:
        print(f"FAILED {failure}")
    print(f"record: {path.relative_to(ROOT)}")
    return record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=specs.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "irrcyclic" / "cli.py").is_file():
        print(f"no package source at {SRC}/irrcyclic; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    env = stamp()
    print("environment: " + json.dumps(env))
    workloads = specs.WORKLOADS if args.workload == "all" else (args.workload,)
    records = [run_workload(w, args.seed, args.seconds, bool(args.trace), env)
               for w in workloads]
    metrics = {}
    for rec in records:
        prefix = "" if len(records) == 1 else rec["workload"] + "/"
        metrics.update({prefix + k: v for k, v in rec["metrics"].items()})
    failed = sum(rec["failed"] for rec in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(rec["attempted"] for rec in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
