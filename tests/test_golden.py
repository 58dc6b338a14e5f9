"""Byte identity: every op recorded in perfbench/golden.json reproduces.

Each recorded command line runs in-process through `cli.main`, and its exit
code and stdout are digested by the benchmark's own `check.digest`, read
from perfbench/check.py, so a change that moves one byte of one recorded
output fails here before the benchmark runs.  The replay runs once more in a
`python -O` process, where a check written as a bare assert would vanish.
"""

import contextlib
import importlib.util
import io
import json
import subprocess
import sys
from pathlib import Path

from irrcyclic import cli

_CHECK_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "check.py"


def _load_check():
    spec = importlib.util.spec_from_file_location("perfbench_check", _CHECK_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _moved_ops(check, golden) -> list[str]:
    """The recorded command lines whose exit code or stdout digest moved."""
    moved = []
    for line, want in sorted(golden.items()):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(line.split())
        if [rc, check.digest(rc, out.getvalue())] != want:
            moved.append(line)
    return moved


def test_golden_ops_reproduce():
    check = _load_check()
    golden = check.load_golden()
    assert len(golden) == 309
    moved = _moved_ops(check, golden)
    assert not moved, moved


def test_golden_ops_reproduce_under_optimize():
    # the same replay in one `python -O` process, which strips every bare
    # assert: the identity checks are explicit raises, so no byte moves
    code = (
        "import importlib.util, json, sys\n"
        f"spec = importlib.util.spec_from_file_location('golden', {__file__!r})\n"
        "golden = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(golden)\n"
        "check = golden._load_check()\n"
        "ops = check.load_golden()\n"
        "print(json.dumps([sys.flags.optimize, len(ops), golden._moved_ops(check, ops)]))\n"
    )
    run = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == [1, 309, []]


def test_cli_schema_is_the_checked_schema():
    assert cli._SCHEMA == _load_check().SCHEMA_KEYS
