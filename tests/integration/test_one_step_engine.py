"""Exactly one function under ``src/repro`` simulates a training step.

A training step charges the simulated compute time and records every
session's exchange.  A second function that does either is a second step
engine, whose accounting the tests would have to keep in sync with the first
one; this scan fails when one appears.  Uses inside the class that owns the
attribute (``TrainingConfig`` validating and summing its own fields,
``ArqSession.exchange`` recording its own bare exchange) are not steps.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: Attribute -> the class that owns it.  Only the training step may use these
#: outside their owner.
STEP_ATTRIBUTES = {
    "ue_compute_time_s": "TrainingConfig",
    "bs_compute_time_s": "TrainingConfig",
    "compute_time_per_step_s": "TrainingConfig",
    "record_exchange": "ArqSession",
}

#: The one training step of the library.
THE_STEP = "repro.fleet.trainer:joint_step"


class _StepScan(ast.NodeVisitor):
    """Collects ``module:qualname`` of every function that uses a step
    attribute outside the attribute's owner class."""

    def __init__(self, module: str):
        self.module = module
        self.scope: list = []
        self.classes: list = []
        self.found: set = set()

    def visit_ClassDef(self, node):
        self.scope.append(node.name)
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()
        self.scope.pop()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Attribute(self, node):
        owner = STEP_ATTRIBUTES.get(node.attr)
        if owner is not None and owner not in self.classes:
            self.found.add(f"{self.module}:{'.'.join(self.scope) or '<module>'}")
        self.generic_visit(node)


def step_functions(src: Path = SRC) -> set:
    found = set()
    for path in sorted((src / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        scan = _StepScan(module)
        scan.visit(ast.parse(path.read_text(), filename=str(path)))
        found |= scan.found
    return found


def test_one_function_simulates_a_training_step():
    assert step_functions() == {THE_STEP}, (
        "only the training step may charge compute time or record exchanges: "
        "route the new caller through it instead of writing a second step"
    )


def test_the_scan_sees_a_second_step(tmp_path):
    """The scan is not vacuous: a copy of the step elsewhere is caught."""
    package = tmp_path / "repro"
    package.mkdir()
    (package / "twin.py").write_text(
        "def twin_step(training, session, up, down):\n"
        "    session.record_exchange(up, down)\n"
        "    return training.ue_compute_time_s\n"
    )
    assert step_functions(tmp_path) == {"repro.twin:twin_step"}
