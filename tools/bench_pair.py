"""Benchmark a base revision against the working tree in alternating pairs.

    python3 tools/bench_pair.py --workload sweep-dist --seeds 1 2 3 \\
        --seconds 25 --metric op_s.p90 --tag sweep-dist [--base HEAD]

The base side is a `git archive` copy of --base in a temporary directory;
the change side is the working tree.  Pair i runs
`perfbench/run.py --workload W --seed S --seconds T --trace 0` once on each
side, each from its own root with its own perfbench, for the i-th seed: the
base first when i is even, the change first when i is odd.

Writes BENCH_<tag>.json next to BENCHMARK.json with every run's end-to-end
metrics, failure counts and environment stamp; each side's median and
quartiles per metric; and, for --metric, the pairs the change won, lost and
tied (ties count for neither side) and whether a gain may be claimed: the
change wins at least nine tenths of the pairs and the medians differ by more
than the base's interquartile range.  Which direction is better comes from
BENCHMARK.json.  The exit status is 1 when any run failed, else 0.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_LIMIT_S = 1800


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def archive(rev: str, dest: Path) -> None:
    """Unpack the files of rev into dest."""
    data = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run from root: its metrics, counts and stamp."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=RUN_LIMIT_S)
    lines = proc.stdout.splitlines()
    stamp = next((json.loads(line.split(": ", 1)[1]) for line in lines
                  if line.startswith("environment: ")), None)
    try:
        last = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"no result from {cmd} in {root}:\n{proc.stderr}") from None
    return {
        "rc": proc.returncode,
        "attempted": last["attempted"],
        "failed": last["failed"],
        "metrics": {name: m["value"] for name, m in last["metrics"].items()},
        "stamp": stamp,
    }


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of values."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], directions: dict) -> dict:
    out = {}
    for name in sorted(set(pairs[0]["base"]["metrics"]) & set(pairs[0]["change"]["metrics"])):
        out[name] = {
            "better": directions.get(name),
            "base": spread([p["base"]["metrics"][name] for p in pairs]),
            "change": spread([p["change"]["metrics"][name] for p in pairs]),
        }
    return out


def claim(pairs: list[dict], summary: dict, metric: str) -> dict:
    """Pairs won by the change on metric, and whether the gain rule holds."""
    better = summary[metric]["better"]
    sign = -1 if better == "lower" else 1
    diffs = [sign * (p["change"]["metrics"][metric] - p["base"]["metrics"][metric])
             for p in pairs]
    wins = sum(d > 0 for d in diffs)
    base = summary[metric]["base"]
    gain = sign * (summary[metric]["change"]["median"] - base["median"])
    iqr = base["q3"] - base["q1"]
    return {
        "metric": metric,
        "better": better,
        "pairs": len(pairs),
        "wins": wins,
        "losses": sum(d < 0 for d in diffs),
        "ties": sum(d == 0 for d in diffs),
        "median_gain": gain,
        "relative_gain": gain / base["median"] if base["median"] else None,
        "base_iqr": iqr,
        "holds": 10 * wins >= 9 * len(pairs) and gain > iqr,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--metric", required=True, help="the end-to-end metric to judge")
    ap.add_argument("--tag", required=True, help="names the output BENCH_<tag>.json")
    ap.add_argument("--base", default="HEAD", help="git revision of the base side")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}
    if args.metric not in directions:
        ap.error(f"--metric must be one of {sorted(directions)}")

    scratch = Path(tempfile.mkdtemp(prefix="bench_pair-"))
    try:
        base_root = scratch / "base"
        archive(args.base, base_root)
        sides = {"base": base_root, "change": ROOT}
        pairs = []
        for i, seed in enumerate(args.seeds):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(sides[side], args.workload, seed, args.seconds)
            pairs.append(pair)
            print(f"pair {i + 1}/{len(args.seeds)} seed {seed}: {args.metric} base "
                  f"{pair['base']['metrics'].get(args.metric)} change "
                  f"{pair['change']['metrics'].get(args.metric)}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    summary = summarize(pairs, directions)
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "seeds": args.seeds,
        "command": "perfbench/run.py --trace 0",
        "base": {"rev": args.base, "commit": _git("rev-parse", args.base)},
        "change": {"head": _git("rev-parse", "HEAD"),
                   "dirty": bool(_git("status", "--porcelain", "--untracked-files=no"))},
        "claim": claim(pairs, summary, args.metric),
        "summary": summary,
        "pairs": pairs,
    }
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record["claim"]))
    print(f"wrote {out.relative_to(ROOT)}")
    return 1 if any(p[s]["failed"] or p[s]["rc"] for p in pairs for s in ("base", "change")) else 0


if __name__ == "__main__":
    sys.exit(main())
