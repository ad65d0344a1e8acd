"""Every public entry point imports on its own, and every import name resolves.

``repro.fleet`` imports ``repro.split`` submodules and ``repro.split.trainer``
imports ``repro.fleet``, so the order in which a program first touches the two
packages must not matter.  Each of those imports runs in its own subprocess
because an in-process import would find the modules already loaded by other
tests.

The name checks catch a stale name in tier-1, where ruff's F401/F822 may not
run: every ``__all__`` entry of every ``repro`` module, and every ``from
repro... import X`` in the example and benchmark scripts, must resolve.
"""
import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"


@pytest.mark.parametrize(
    "statement",
    [
        "import repro",
        "import repro.fleet",
        "import repro.split",
        "import repro.split.trainer",
        "import repro.experiments",
        "from repro.fleet.bank import StackedUEBank",
    ],
)
def test_entry_point_imports_in_a_fresh_interpreter(statement):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", statement],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr


def _resolves(module_name, name):
    module = importlib.import_module(module_name)
    if hasattr(module, name):
        return True
    try:
        importlib.import_module(f"{module_name}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_every_all_entry_resolves():
    import repro

    modules = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if not info.name.endswith(".__main__")
    ]
    missing = [
        f"{module_name}.{name}"
        for module_name in modules
        for name in getattr(importlib.import_module(module_name), "__all__", [])
        if not _resolves(module_name, name)
    ]
    assert missing == []


def test_example_and_benchmark_imports_resolve():
    scripts = sorted(ROOT.glob("examples/*.py")) + sorted(
        ROOT.glob("benchmarks/**/*.py")
    )
    missing = [
        f"{path.relative_to(ROOT)}: from {node.module} import {alias.name}"
        for path in scripts
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom)
        and node.level == 0
        and node.module.split(".")[0] == "repro"
        for alias in node.names
        if not _resolves(node.module, alias.name)
    ]
    assert missing == []
