"""Byte identity: every op recorded in perfbench/golden.json reproduces.

Each recorded command line runs in-process through `cli.main`, and its exit
code and stdout are digested by the benchmark's own `check.digest`, read
from perfbench/check.py, so a change that moves one byte of one recorded
output fails here before the benchmark runs.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

from irrcyclic import cli

_CHECK_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "check.py"


def _load_check():
    spec = importlib.util.spec_from_file_location("perfbench_check", _CHECK_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_ops_reproduce():
    check = _load_check()
    golden = check.load_golden()
    assert len(golden) == 309
    moved = []
    for line, want in sorted(golden.items()):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(line.split())
        if [rc, check.digest(rc, out.getvalue())] != want:
            moved.append(line)
    assert not moved, moved


def test_cli_schema_is_the_checked_schema():
    assert cli._SCHEMA == _load_check().SCHEMA_KEYS
