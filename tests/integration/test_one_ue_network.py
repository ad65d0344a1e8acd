"""Exactly one UE network under ``src/repro``: one forward, one backward.

The UE CNN and its pooling compressor run as one plan over stacked weights
(:mod:`repro.fleet.bank`): the training bank runs it at N members and
``UEClient`` at one.  A second function that calls the stacked conv kernels
is a second UE network, whose forward or buffer policy the tests would have
to keep in sync with the first; so is a ``Conv2D`` that computes.  This scan
fails when either appears.  The kernels' own module, :mod:`repro.nn.stacked`,
is not a caller.
"""
import ast
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[2] / "src"

#: Kernel -> the one function that may call it.
THE_CALLERS = {
    "stacked_conv2d_forward": "repro.fleet.bank:ue_forward",
    "stacked_conv2d_backward": "repro.fleet.bank:ue_backward",
}

KERNEL_MODULE = "repro.nn.stacked"


class _CallScan(ast.NodeVisitor):
    """Collects ``module:qualname`` of every function calling a kernel."""

    def __init__(self, module: str):
        self.module = module
        self.scope: list = []
        self.found: dict = {kernel: set() for kernel in THE_CALLERS}

    def visit_ClassDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in self.found:
            self.found[name].add(f"{self.module}:{'.'.join(self.scope) or '<module>'}")
        self.generic_visit(node)


def kernel_callers(src: Path = SRC) -> dict:
    found = {kernel: set() for kernel in THE_CALLERS}
    for path in sorted((src / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        if module == KERNEL_MODULE:
            continue
        scan = _CallScan(module)
        scan.visit(ast.parse(path.read_text(), filename=str(path)))
        for kernel, callers in scan.found.items():
            found[kernel] |= callers
    return found


def conv_methods(src: Path = SRC) -> set:
    """Methods ``Conv2D`` defines itself."""
    tree = ast.parse((src / "repro" / "nn" / "layers" / "conv.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "Conv2D":
            return {
                item.name
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
    raise AssertionError("Conv2D is gone from repro.nn.layers.conv")


def test_one_function_calls_each_stacked_conv_kernel():
    assert kernel_callers() == {
        kernel: {caller} for kernel, caller in THE_CALLERS.items()
    }, (
        "only the UE network's forward and backward may call the stacked conv "
        "kernels: route the new caller through ue_forward / ue_backward"
    )


def test_conv2d_only_holds_parameters():
    assert not conv_methods() & {"forward", "backward"}, (
        "Conv2D computes nothing: the UE network runs its parameters"
    )


def test_client_and_bank_run_the_same_forward(monkeypatch):
    from repro.fleet import bank
    from repro.split import ModelConfig, TrainingConfig
    from repro.split.ue import UEClient
    from repro.utils import parallel

    calls = []
    original = bank.ue_forward

    def counting(plan, weights, images, *args, **kwargs):
        calls.append(images.shape[:2])
        return original(plan, weights, images, *args, **kwargs)

    monkeypatch.setattr(bank, "ue_forward", counting)
    # One worker: the bank runs its three members in one pass.
    monkeypatch.setattr(parallel, "_available_cpus", lambda: 1)
    model = ModelConfig(
        image_height=8, image_width=8, pooling_height=4, pooling_width=4,
        cnn_channels=(2,), sequence_length=2,
    )
    clients = [UEClient(model, TrainingConfig(), seed=seed) for seed in range(3)]
    images = np.zeros((3, 5, 2, 8, 8))
    bank.StackedUEBank(clients).forward(images)
    clients[0].forward(images[0])
    clients[0].output_images(images[0, :, 0])
    clients[0].compressed_images(images[0, :, 0])
    assert calls == [(3, 10), (1, 10), (1, 5), (1, 5)]


def test_the_scan_sees_a_second_network(tmp_path):
    """The scan is not vacuous: a second caller, and a computing Conv2D, are
    caught."""
    package = tmp_path / "repro"
    (package / "nn" / "layers").mkdir(parents=True)
    (package / "twin.py").write_text(
        "from repro.nn import stacked\n"
        "class Twin:\n"
        "    def run(self, w, b, x):\n"
        "        return stacked.stacked_conv2d_forward(w, b, x)\n"
    )
    (package / "nn" / "layers" / "conv.py").write_text(
        "class Conv2D:\n"
        "    def forward(self, inputs):\n"
        "        return inputs\n"
    )
    assert kernel_callers(tmp_path) == {
        "stacked_conv2d_forward": {"repro.twin:Twin.run"},
        "stacked_conv2d_backward": set(),
    }
    assert conv_methods(tmp_path) == {"forward"}
