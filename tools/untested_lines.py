"""List the statements of the package that the test suite never runs.

    python3 tools/untested_lines.py [PYTEST ARGS...]

coverage is not a dependency, so this runs pytest in-process (default
arguments: the Tier-1 suite, `-q --continue-on-collection-errors`) under
`sys.settrace`, recording the lines run in frames whose code lives in
`src/irrcyclic`.  The pytest cache provider is off and no bytecode is
written, so the run leaves no files behind.  Code run only in subprocesses
(the CLI tests that spawn `python -m irrcyclic.cli`) is not seen.

It then prints `path:line: source` for each statement that never ran,
skipping docstrings and def, class and import statements, and a count.  A
statement counts as run when any of its own lines ran: every line of a
simple statement, the header lines of a compound one.  The exit status is
pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "irrcyclic"
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_SKIP = (*_DEFS, ast.Import, ast.ImportFrom)


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the expression statements that are docstrings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *_DEFS)) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                out.add(id(first))
    return out


def statements(source: str) -> list[tuple[int, range]]:
    """(first line, own lines) of every reported statement, in line order."""
    tree = ast.parse(source)
    docs = _docstrings(tree)
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _SKIP) or id(node) in docs:
            continue
        inner = [c.lineno for c in ast.iter_child_nodes(node) if isinstance(c, ast.stmt)]
        last = min(inner) - 1 if inner else node.end_lineno
        out.append((node.lineno, range(node.lineno, max(node.lineno, last) + 1)))
    return sorted(out)


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest in-process; return its exit code and the lines run per file."""
    prefix = str(PACKAGE) + os.sep
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hits.setdefault(name, set())
        return local

    sys.dont_write_bytecode = True
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    # subprocesses spawned by the tests import the same tree
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    sys.path.insert(0, str(SRC))
    import pytest

    os.chdir(ROOT)
    sys.settrace(on_call)
    try:
        status = pytest.main(["-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
    return int(status), hits


def main(argv: list[str]) -> int:
    status, hits = run_traced(argv or ["-q", "--continue-on-collection-errors"])
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        ran = hits.get(str(path), set())
        for first, own in statements(source):
            if ran.isdisjoint(own):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    print(f"{missed} statements never ran")
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
