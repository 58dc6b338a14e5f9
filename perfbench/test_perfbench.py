"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest -q perfbench

They check that the generators are pure functions of the seed, that the
output checker rejects tampered output, that every printed metric is the
one BENCHMARK.json declares, and that the benchmark refuses to run without
the package source.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import check
import pytest
import specs

from irrcyclic import cli

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, "perfbench/run.py"]


def declared(kind: str) -> dict[str, str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def run_cli(op: dict) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(check.argv(op))
    return rc, out.getvalue()


@pytest.mark.parametrize("workload", specs.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert specs.generate(workload, 11) == specs.generate(workload, 11)
    assert any(specs.generate(workload, 11) != specs.generate(workload, s)
               for s in range(12, 16))


def test_every_drawable_op_has_a_recorded_output():
    golden = check.load_golden()
    for seed in range(30):
        for op in specs.verify_ops(seed) + specs.closed_ops(seed):
            assert check.op_key(op) in golden, op


def test_closed_ops_cover_every_stratum():
    ops = specs.closed_ops(3)
    assert len(ops) >= 100
    assert {op["class"] for op in ops} == {
        "thm16", "thm18", "thm19", "thm21", "thm22", "thm23", "thm24", "none"}


def _tamper_weight_count(text: str) -> str:
    rec = json.loads(text)
    rec["weights"][0]["count"] = str(int(rec["weights"][0]["count"]) + 1)
    return json.dumps(rec) + "\n"


def _tamper_weight(text: str) -> str:
    rec = json.loads(text)
    rec["weights"][-1]["w"] = str(rec["bounds"]["upper"] + 1)
    return json.dumps(rec) + "\n"


def _drop_key(text: str) -> str:
    rec = json.loads(text)
    del rec["thm14"]
    return json.dumps(rec) + "\n"


@pytest.mark.parametrize("tamper", [_tamper_weight_count, _tamper_weight, _drop_key])
def test_checker_rejects_tampered_dist(tamper):
    op = {"cmd": "dist", "spec": [2, 1, 27, 7]}
    rc, stdout = run_cli(op)
    golden = check.load_golden()
    assert check.check_op(op, rc, stdout, golden) is None
    bad = tamper(stdout)
    assert check.check_op(op, rc, bad, golden) is not None
    # the structural checks catch it without the recorded digest too
    assert check.check_op(op, rc, bad) is not None


def test_checker_rejects_tampered_verify_and_exit_codes():
    op = {"cmd": "verify", "spec": [2, 2, 4, 5]}
    rc, stdout = run_cli(op)
    assert rc == 0 and check.check_op(op, rc, stdout) is None
    rec = json.loads(stdout)
    rec["verify"]["match"] = False
    assert check.check_op(op, rc, json.dumps(rec) + "\n") is not None
    assert check.check_op(op, 4, stdout) is not None
    assert check.check_op({"cmd": "bounds", "spec": [2, 2, 4, 5]}, 3, "") is not None


def test_checker_accepts_oracle_result_without_closed_form():
    op = {"cmd": "verify", "spec": [2, 1, 12, 21]}
    rc, stdout = run_cli(op)
    assert rc == 3
    assert check.check_op(op, rc, stdout) is None
    assert check.check_op(op, rc, "") is not None


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_the_declared_ones(trace, kind):
    proc = subprocess.run(
        RUN + ["--workload", "sweep-periods", "--seed", "1", "--seconds", "1",
               "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == declared(kind)
    for name in units:
        assert f"{name} = " in proc.stdout


def test_refuses_to_run_without_the_package():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            RUN + ["--workload", "cli-closed", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
