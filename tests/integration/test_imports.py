"""Every public entry point imports on its own, in a fresh interpreter.

``repro.fleet`` imports ``repro.split`` submodules and ``repro.split.trainer``
imports ``repro.fleet``, so the order in which a program first touches the two
packages must not matter.  Each import runs in its own subprocess because an
in-process import would find the modules already loaded by other tests.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"


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
