"""The package namespace: lazy exports that resolve to their source objects."""

import importlib
import re
import subprocess
import sys
import types
from pathlib import Path

import irrcyclic


def test_every_export_resolves_to_its_source():
    listed = dir(irrcyclic)
    for name in irrcyclic.__all__:
        obj = getattr(irrcyclic, name)
        assert name in listed
        if isinstance(obj, types.ModuleType):
            assert obj is sys.modules[f"irrcyclic.{name}"]
        else:
            assert getattr(importlib.import_module(obj.__module__), name) is obj


def test_exports_load_on_first_use():
    code = (
        "import sys\n"
        "import irrcyclic\n"
        "print('numpy' in sys.modules)\n"
        "from irrcyclic import code_params, cyclotomy\n"
        "print('numpy' in sys.modules, cyclotomy is sys.modules['irrcyclic.cyclotomy'])\n"
        "print(code_params is sys.modules['irrcyclic.weights'].code_params)\n"
        "try:\n"
        "    irrcyclic.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "False",
        "True True",
        "True",
        "module 'irrcyclic' has no attribute 'no_such_name'",
    ]


def test_lazy_submodules_get_their_own_import_time_lines():
    run = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import irrcyclic.cli"],
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    timed = {line.rsplit("|", 1)[-1].strip() for line in run.stderr.splitlines()}
    for name in ("weights", "closed_forms", "numtheory"):
        assert f"irrcyclic.{name}" in timed


def test_readme_lists_every_export():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Library API", 1)[1]
    items = re.findall(r"^- `(\w+)`: (.*?)(?=^- |^$)", section, re.M | re.S)
    listed = {module: tuple(re.findall(r"`(\w+)`", names)) for module, names in items}
    assert listed == irrcyclic._EXPORTS
