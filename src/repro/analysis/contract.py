"""Runtime checkpoint-contract introspection (``CKP003``–``CKP005``).

The AST half of the checkpoint rules can only see that a ``state_dict``
method *exists*.  This pass instantiates registered classes, calls their
``state_dict()``, and diffs the live instance attributes against the captured
keys — catching the failure mode the AST cannot: a mutable attribute added in
``__init__`` (an RNG, a residual buffer, a slot list) that silently never
makes it into checkpoints, breaking bit-identical resume.

An attribute counts as **captured** when a state key matches it directly
(``attr``, underscore-stripped, as a key-path segment of ``a.b`` / ``a/b`` /
``a//b`` keys), when the spec maps it through an explicit alias, or when the
attribute is a dict whose own keys all appear as state keys (the
``Layer._params`` idiom).  Everything else must carry a **waiver** with a
reason — deliberate exclusions like the shared BS a protocol never stores.
Waivers and aliases that match nothing are themselves findings (``CKP004``),
so a refactor cannot leave stale exemptions behind.
"""
from __future__ import annotations

import inspect
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.findings import Finding

#: Key-path separators used across the repo's state dicts.
_KEY_SEPARATORS = (".", "/", "//")

#: Value types treated as immutable configuration (never run state).
_IMMUTABLE_TYPES = (type(None), bool, int, float, complex, str, bytes)


@dataclass(frozen=True)
class ContractSpec:
    """One class registered for runtime contract checking.

    Args:
        name: human-readable spec label (used in findings).
        factory: zero-argument callable building a representative instance.
        waived: attribute name -> reason; deliberate state_dict exclusions.
        aliases: attribute name -> state-key (or key prefix) capturing it
            under a different name.
    """

    name: str
    factory: Callable[[], object]
    waived: Dict[str, str] = field(default_factory=dict)
    aliases: Dict[str, str] = field(default_factory=dict)


def _is_immutable(value: object) -> bool:
    """Conservatively immutable values are configuration, not run state."""
    if isinstance(value, _IMMUTABLE_TYPES):
        return True
    if isinstance(value, (tuple, frozenset)):
        return all(_is_immutable(item) for item in value)
    params = getattr(type(value), "__dataclass_params__", None)
    if params is not None and params.frozen:
        return True
    return inspect.isfunction(value) or inspect.ismethod(value) or inspect.isclass(
        value
    )


def _key_segments(key: str) -> List[str]:
    """Split one state key on every separator the repo uses."""
    segments = [key]
    for separator in _KEY_SEPARATORS:
        segments = [part for segment in segments for part in segment.split(separator)]
    return [segment for segment in segments if segment]


def _is_captured(attribute: str, value: object, keys: List[str]) -> bool:
    names = {attribute, attribute.lstrip("_")}
    for key in keys:
        if key in names:
            return True
        if any(segment in names for segment in _key_segments(key)):
            return True
    if isinstance(value, dict) and value:
        key_set = set(keys)
        if all(str(inner) in key_set for inner in value):
            return True
    return False


def _alias_captured(alias: str, keys: List[str]) -> bool:
    return any(key == alias or key.startswith(alias) for key in keys)


def _class_location(obj: object) -> Tuple[str, int]:
    """(path, line) of the instance's class definition, cwd-relative."""
    cls = type(obj)
    try:
        source_file = inspect.getsourcefile(cls)
        _, line = inspect.getsourcelines(cls)
    except (OSError, TypeError):
        return f"<{cls.__module__}.{cls.__qualname__}>", 1
    path = source_file or f"<{cls.__module__}>"
    try:
        relative = os.path.relpath(path)
    except ValueError:  # different drive (windows); keep absolute
        return path, line
    return (relative if not relative.startswith("..") else path), line


def check_spec(spec: ContractSpec) -> List[Finding]:
    """All contract findings for one registered spec."""
    try:
        instance = spec.factory()
        state = instance.state_dict()
        keys = [str(key) for key in state]
    except Exception as error:  # introspection must report, not crash
        return [
            Finding(
                path=f"<contract:{spec.name}>",
                line=1,
                column=0,
                code="CKP005",
                message=f"spec {spec.name}: factory/state_dict failed: {error!r}",
            )
        ]
    path, line = _class_location(instance)
    findings: List[Finding] = []
    attributes = vars(instance) if hasattr(instance, "__dict__") else {}
    used_waivers = set()
    used_aliases = set()
    for attribute, value in sorted(attributes.items()):
        if _is_immutable(value):
            continue
        if attribute in spec.waived:
            used_waivers.add(attribute)
            continue
        if attribute in spec.aliases:
            if _alias_captured(spec.aliases[attribute], keys):
                used_aliases.add(attribute)
                continue
        elif _is_captured(attribute, value, keys):
            continue
        findings.append(
            Finding(
                path=path,
                line=line,
                column=0,
                code="CKP003",
                message=f"{spec.name}: mutable attribute {attribute!r} "
                f"({type(value).__name__}) is not captured by state_dict "
                f"(keys: {sorted(keys)[:8]}...); capture it, alias it, or "
                "waive it with a reason",
            )
        )
    for waiver in sorted(set(spec.waived) - used_waivers):
        findings.append(
            Finding(
                path=path,
                line=line,
                column=0,
                code="CKP004",
                message=f"{spec.name}: waiver for {waiver!r} matched no "
                "mutable attribute — stale exemption, remove it",
            )
        )
    for alias in sorted(set(spec.aliases) - used_aliases):
        if alias in attributes and not _is_immutable(attributes[alias]):
            findings.append(
                Finding(
                    path=path,
                    line=line,
                    column=0,
                    code="CKP004",
                    message=f"{spec.name}: alias {alias!r} -> "
                    f"{spec.aliases[alias]!r} matched no state key — stale "
                    "alias, fix or remove it",
                )
            )
        else:
            findings.append(
                Finding(
                    path=path,
                    line=line,
                    column=0,
                    code="CKP004",
                    message=f"{spec.name}: alias for {alias!r} matched no "
                    "mutable attribute — stale exemption, remove it",
                )
            )
    return findings


def default_specs() -> List[ContractSpec]:
    """The shipped registry: cheap-to-build stateful classes of the repo.

    Imports live inside the factories so ``repro.analysis`` stays importable
    without pulling the whole library, and so a broken module surfaces as a
    ``CKP005`` finding instead of an import error.
    """

    def fading_process():
        from repro.channel.fading import ExponentialFadingProcess

        return ExponentialFadingProcess(seed=0)

    def wireless_link():
        from repro.channel.link import WirelessLink
        from repro.channel.params import WirelessChannelParams

        return WirelessLink(params=WirelessChannelParams(), direction="uplink", seed=0)

    def arq_session():
        from repro.channel.arq import ArqSession
        from repro.channel.params import WirelessChannelParams

        return ArqSession(params=WirelessChannelParams(), seed=0)

    def arq_statistics():
        from repro.channel.arq import ArqStatistics

        return ArqStatistics()

    def dense_layer():
        import numpy as np

        from repro.nn.layers.dense import Dense

        # Exercise one forward/backward round trip so transient caches exist
        # on the instance — the snapshot should look like mid-training state.
        layer = Dense(4, 3, seed=0)
        outputs = layer(np.zeros((2, 4)))
        layer.backward(np.zeros_like(outputs))
        return layer

    def adam_optimizer():
        from repro.nn.layers.dense import Dense
        from repro.nn.optim import Adam

        return Adam(Dense(4, 3, seed=0).parameters(), 0.01)

    def quantizer_codec():
        from repro.split.codecs import UniformQuantizerCodec

        return UniformQuantizerCodec(bits=8)

    def topk_codec():
        from repro.split.codecs import TopKCodec

        return TopKCodec()

    def small_split_model(**overrides):
        from repro.split.config import ModelConfig

        return ModelConfig(
            image_height=8,
            image_width=8,
            pooling_height=4,
            pooling_width=4,
            cnn_channels=(2,),
            rnn_hidden_size=8,
            head_hidden_size=4,
            sequence_length=2,
            **overrides,
        )

    def stacked_ue_bank():
        import numpy as np

        from repro.fleet.bank import StackedUEBank
        from repro.split.config import TrainingConfig
        from repro.split.ue import UEClient

        model, training = small_split_model(), TrainingConfig()
        bank = StackedUEBank(
            [UEClient(model, training, seed=member) for member in range(2)]
        )
        # Exercise one masked round trip so transient caches and gradient
        # scratch exist — the snapshot should look like mid-training state.
        features = bank.forward(np.zeros((2, 1, 2, 8, 8)))
        bank.backward(np.zeros_like(features))
        bank.apply_updates(np.array([True, False]))
        return bank

    def split_training_protocol():
        import numpy as np

        from repro.split.config import ExperimentConfig
        from repro.split.protocol import SplitTrainingProtocol

        model = small_split_model(codec="topk")
        protocol = SplitTrainingProtocol(ExperimentConfig(model=model), seed=0)
        # One step builds the bank and the codec's error-feedback residuals.
        protocol.training_step(
            np.zeros((2, 2, 8, 8)), np.zeros((2, 2)), np.zeros(2)
        )
        return protocol

    layer_waivers = {
        "rng": "init-time entropy only: consumed during weight construction, "
        "never drawn from after __init__",
        "_params": "Parameter registry; values are the state_dict keys "
        "themselves",
        "_inputs": "forward-pass cache, transient compute state",
    }
    return [
        ContractSpec(name="ExponentialFadingProcess", factory=fading_process),
        ContractSpec(name="WirelessLink", factory=wireless_link),
        ContractSpec(name="ArqSession", factory=arq_session),
        ContractSpec(name="ArqStatistics", factory=arq_statistics),
        ContractSpec(name="Dense", factory=dense_layer, waived=dict(layer_waivers)),
        ContractSpec(
            name="Adam",
            factory=adam_optimizer,
            waived={
                "parameters": "references to externally owned Parameter "
                "objects; their values ride in the model's own state_dict",
            },
        ),
        ContractSpec(name="UniformQuantizerCodec", factory=quantizer_codec),
        ContractSpec(name="TopKCodec", factory=topk_codec),
        ContractSpec(
            name="StackedUEBank",
            factory=stacked_ue_bank,
            waived={
                "_clients": "references to externally owned UEClient objects; "
                "their state rides in the members' own checkpoints",
                "_param_refs": "references to externally owned Parameter "
                "objects, the scatter() targets",
                "_grads": "per-step gradient scratch, zeroed by every "
                "apply_updates call",
                "_passes": "per-batch-size, per-worker member slices and their "
                "forward-pass buffers, transient compute state",
            },
        ),
        ContractSpec(
            name="SplitTrainingProtocol",
            factory=split_training_protocol,
            waived={
                "bs": "the shared BS; the fleet stores it once, beside its "
                "members' protocols",
                "_bank": "one-member StackedUEBank derived from the UE: "
                "every step gathers from the client, which is captured",
            },
        ),
    ]


def run_contract_checks(
    specs: Optional[List[ContractSpec]] = None,
) -> Tuple[List[Finding], int]:
    """Run every spec; returns ``(findings, number_of_specs_checked)``."""
    resolved = default_specs() if specs is None else specs
    findings: List[Finding] = []
    for spec in resolved:
        findings.extend(check_spec(spec))
    return findings, len(resolved)


__all__ = [
    "ContractSpec",
    "check_spec",
    "default_specs",
    "run_contract_checks",
]
