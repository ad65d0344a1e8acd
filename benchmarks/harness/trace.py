"""Outside-in span tracer for the benchmark harness.

The program has no spans of its own, so the tracer records them from the
outside: :meth:`Tracer.install` replaces each public callable listed in
:data:`TARGETS` with a wrapper that records a span around the call, and
:meth:`Tracer.uninstall` puts the original objects back.  Methods are patched
on the class that callers resolve them through (an inherited method gets a
class-local wrapper that uninstall deletes again).  Module-level functions
are patched in the namespace of the module that *calls* them, because their
callers bound the name at import time (``from ... import im2col``).

Each span records its name, start, end, parent span and op id; spans stay in
memory until :meth:`Tracer.dump` writes them out.  A span's self time is its
duration minus the durations of its direct children.  Every traced op runs
inside a root span named :data:`OP_SPAN`, whose self time is the part of the
op no traced layer covers.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

#: Root span wrapped around every traced op.
OP_SPAN = "op"

#: ``(span name, module, attribute)`` of every traced boundary.  The module
#: is where the attribute is looked up at call time: the defining module for
#: methods, the calling module for functions imported by name.  Several
#: targets may share a span name (one layer, several implementations).
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("nn.conv.forward", "repro.nn.layers.conv", "Conv2D.forward"),
    ("nn.conv.backward", "repro.nn.layers.conv", "Conv2D.backward"),
    ("nn.conv.im2col", "repro.nn.layers.conv", "im2col"),
    ("nn.conv.col2im", "repro.nn.layers.conv", "col2im"),
    ("nn.recurrent.forward", "repro.nn.layers.recurrent", "LSTM.forward"),
    ("nn.recurrent.forward", "repro.nn.layers.recurrent", "GRU.forward"),
    ("nn.recurrent.forward", "repro.nn.layers.recurrent", "SimpleRNN.forward"),
    ("nn.recurrent.backward", "repro.nn.layers.recurrent", "LSTM.backward"),
    ("nn.recurrent.backward", "repro.nn.layers.recurrent", "GRU.backward"),
    ("nn.recurrent.backward", "repro.nn.layers.recurrent", "SimpleRNN.backward"),
    ("nn.optim.step", "repro.nn.optim", "Optimizer.step"),
    ("nn.stacked.conv2d_forward", "repro.fleet.bank", "stacked_conv2d_forward"),
    ("nn.stacked.conv2d_backward", "repro.fleet.bank", "stacked_conv2d_backward"),
    ("nn.stacked.adam_update", "repro.fleet.bank", "stacked_adam_update"),
    ("fleet.bank.forward", "repro.fleet.bank", "StackedUEBank.forward"),
    ("fleet.bank.backward", "repro.fleet.bank", "StackedUEBank.backward"),
    ("fleet.bank.apply_updates", "repro.fleet.bank", "StackedUEBank.apply_updates"),
    ("fleet.bank.gather", "repro.fleet.bank", "StackedUEBank.gather"),
    ("fleet.bank.scatter", "repro.fleet.bank", "StackedUEBank.scatter"),
    ("fleet.scheduler.schedule", "repro.fleet.scheduler", "MediumScheduler.schedule"),
    (
        "fleet.fleet.average_ue_weights",
        "repro.fleet.fleet",
        "UEFleet.average_ue_weights",
    ),
    ("fleet.trainer.evaluate", "repro.fleet.trainer", "FleetTrainer.evaluate"),
    ("split.ue.forward", "repro.split.ue", "UEClient.forward"),
    ("split.ue.backward", "repro.split.ue", "UEClient.backward"),
    (
        "split.bs.compute_loss_and_gradients",
        "repro.split.bs",
        "BSServer.compute_loss_and_gradients",
    ),
    ("split.bs.predict", "repro.split.bs", "BSServer.predict"),
    (
        "split.protocol.training_step",
        "repro.split.protocol",
        "SplitTrainingProtocol.training_step",
    ),
    ("split.protocol.predict", "repro.split.protocol", "SplitTrainingProtocol.predict"),
    ("split.trainer.evaluate", "repro.split.trainer", "SplitTrainer.evaluate"),
    ("split.checkpoint.save", "repro.split.checkpoint", "Checkpoint.save"),
    ("split.checkpoint.load", "repro.split.checkpoint", "Checkpoint.load"),
    ("split.codecs.encode_decode", "repro.split.codecs", "IdentityCodec.encode_decode"),
    (
        "split.codecs.encode_decode",
        "repro.split.codecs",
        "UniformQuantizerCodec.encode_decode",
    ),
    ("split.codecs.encode_decode", "repro.split.codecs", "TopKCodec.encode_decode"),
    ("split.codecs.preview", "repro.split.codecs", "IdentityCodec.preview"),
    ("split.codecs.preview", "repro.split.codecs", "UniformQuantizerCodec.preview"),
    ("split.codecs.preview", "repro.split.codecs", "TopKCodec.preview"),
    (
        "split.codecs.encode_decode_stacked",
        "repro.fleet.trainer",
        "encode_decode_stacked",
    ),
    ("channel.arq.exchange", "repro.channel.arq", "ArqSession.exchange"),
    ("channel.arq.transmit_across", "repro.fleet.trainer", "transmit_uplink_across"),
    ("channel.arq.transmit_across", "repro.fleet.trainer", "transmit_downlink_across"),
    (
        "dataset.generator.generate",
        "repro.dataset.generator",
        "MmWaveDepthDatasetGenerator.generate",
    ),
    ("scene.camera.render", "repro.scene.camera", "DepthCamera.render"),
    (
        "mmwave.power.power_trace_dbm",
        "repro.mmwave.power",
        "ReceivedPowerModel.power_trace_dbm",
    ),
    ("dataset.cache.save_dataset", "repro.dataset.cache", "save_dataset"),
    ("dataset.cache.load_dataset", "repro.dataset.cache", "load_dataset"),
    (
        "privacy.leakage.evaluate",
        "repro.privacy.leakage",
        "PrivacyLeakageEvaluator.evaluate",
    ),
    ("experiments.pipeline.train", "repro.experiments.pipeline", "ExperimentPipeline.train"),
    ("experiments.sweep.run_sweep", "repro.experiments.sweep", "run_sweep"),
)

#: Layers whose call count is reported next to their self time.
COUNTED = (
    "nn.conv.forward",
    "nn.conv.backward",
    "fleet.scheduler.schedule",
    "split.ue.backward",
    "split.protocol.training_step",
    "split.checkpoint.save",
    "channel.arq.exchange",
    "scene.camera.render",
)

#: Layers whose return value is the path of a file they wrote; the tracer
#: sums the written sizes.
WRITES_FILE = ("split.checkpoint.save",)

_NOT_OWN = object()


def layer_names() -> List[str]:
    """Distinct span names of :data:`TARGETS`, in order."""
    return list(dict.fromkeys(name for name, _, _ in TARGETS))


def resolve(module_name: str, attribute: str) -> Tuple[object, str]:
    """The object that owns ``attribute`` (a class or module) and its name."""
    owner: object = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Records spans around patched callables while installed.

    Args:
        targets: ``(span name, module, attribute)`` triples to patch.
        clock: monotonic clock in seconds.
    """

    def __init__(
        self,
        targets: Sequence[Tuple[str, str, str]] = TARGETS,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.targets = tuple(targets)
        self.clock = clock
        # One [name, start, end, parent, op] list per span; lists rather than
        # objects keep the per-call cost of an open span low.
        self.spans: List[list] = []
        self.bytes_written: Dict[str, int] = {}
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._op = -1

    # -- patching ----------------------------------------------------------------
    def install(self) -> None:
        """Replace every target with a span-recording wrapper."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for name, module_name, attribute in self.targets:
            owner, attr = resolve(module_name, attribute)
            raw = inspect.getattr_static(owner, attr)
            original = vars(owner)[attr] if attr in vars(owner) else _NOT_OWN
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap_descriptor(name, raw))

    def uninstall(self) -> None:
        """Restore the original callables (inherited ones are un-shadowed)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _NOT_OWN:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _wrap_descriptor(self, name: str, raw: object) -> object:
        if isinstance(raw, classmethod):
            return classmethod(self.wrap(name, raw.__func__))
        if isinstance(raw, staticmethod):
            return staticmethod(self.wrap(name, raw.__func__))
        return self.wrap(name, raw)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that each call records a span called ``name``."""
        writes_file = name in WRITES_FILE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if writes_file:
                self.bytes_written[name] = self.bytes_written.get(
                    name, 0
                ) + os.path.getsize(result)
            return result

        return traced

    # -- spans -------------------------------------------------------------------
    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self._op])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()

    @contextmanager
    def op(self) -> Iterator[int]:
        """Run one traced op under a fresh op id and an :data:`OP_SPAN` root."""
        self._op += 1
        index = self._open(OP_SPAN)
        try:
            yield self._op
        finally:
            self._close(index)

    # -- reports -----------------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Summed self time (duration minus direct children) per span name."""
        children = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        totals: Dict[str, float] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start - children[index])
        return totals

    def call_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for name, *_ in self.spans:
            counts[name] = counts.get(name, 0) + 1
        return counts

    def op_wall_s(self) -> float:
        """Summed duration of the traced ops."""
        return sum(end - start for name, start, end, _, _ in self.spans if name == OP_SPAN)

    def dump(self, path: str | os.PathLike) -> Path:
        """Write every recorded span as JSON and return the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = [
            {"name": name, "start": start, "end": end, "parent": parent, "op": op}
            for name, start, end, parent, op in self.spans
        ]
        path.write_text(json.dumps({"spans": spans}) + "\n")
        return path
