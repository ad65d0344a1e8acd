"""Serialization-discipline rules (``SER0xx``).

Every artifact, parameter file and cache entry in the repo is written
atomically (temporary file + ``os.replace``) so a killed worker never leaves
a truncated archive for a concurrent reader — the sweep executor and the
checkpoint machinery both lean on that guarantee.  The atomic primitives live
in :mod:`repro.nn.serialization` (``atomic_savez`` / ``atomic_write_text``);
these rules flag direct writes that bypass them.

Exempt: ``repro/nn/serialization.py`` itself — the one module allowed to
touch the raw filesystem write APIs.
"""
from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.astutil import call_target, walk_calls
from repro.analysis.findings import Finding
from repro.analysis.registry import rule

#: The only module allowed to perform raw writes.
SERIALIZATION_MODULE = ("repro/nn/serialization.py",)

#: ``open`` modes that create or mutate a file.
_WRITE_MODE_CHARS = frozenset("wax+")


def _open_mode(call: ast.Call) -> Optional[str]:
    """Literal mode string of an ``open``/``io.open``/``Path.open`` call."""
    if len(call.args) >= 2 and isinstance(call.args[1], ast.Constant):
        value = call.args[1].value
        return value if isinstance(value, str) else None
    for keyword in call.keywords:
        if keyword.arg == "mode" and isinstance(keyword.value, ast.Constant):
            value = keyword.value.value
            return value if isinstance(value, str) else None
    return None


@rule(
    "SER001",
    "direct-savez",
    "np.savez outside nn.serialization (non-atomic archive write)",
)
def check_direct_savez(ctx) -> Iterator[Finding]:
    if ctx.in_module(*SERIALIZATION_MODULE):
        return
    for call in walk_calls(ctx.tree):
        target = call_target(call, ctx.imports)
        if target in ("numpy.savez", "numpy.savez_compressed"):
            yield ctx.finding(
                call,
                "SER001",
                f"direct {target.rpartition('.')[2]}() write; use "
                "repro.nn.serialization.atomic_savez (tmp + os.replace)",
            )


@rule(
    "SER002",
    "direct-json-dump",
    "json.dump to a stream outside nn.serialization",
)
def check_direct_json_dump(ctx) -> Iterator[Finding]:
    if ctx.in_module(*SERIALIZATION_MODULE):
        return
    for call in walk_calls(ctx.tree):
        if call_target(call, ctx.imports) == "json.dump":
            yield ctx.finding(
                call,
                "SER002",
                "json.dump() writes through a raw stream; json.dumps + "
                "repro.nn.serialization.atomic_write_text keeps it atomic",
            )


@rule(
    "SER003",
    "raw-file-write",
    "write-mode open()/write_text/write_bytes outside nn.serialization",
)
def check_raw_write(ctx) -> Iterator[Finding]:
    if ctx.in_module(*SERIALIZATION_MODULE):
        return
    for call in walk_calls(ctx.tree):
        target = call_target(call, ctx.imports)
        if target in ("open", "io.open"):
            mode = _open_mode(call)
            if mode is not None and (_WRITE_MODE_CHARS & set(mode)):
                yield ctx.finding(
                    call,
                    "SER003",
                    f"open(..., {mode!r}) writes in place; route the write "
                    "through repro.nn.serialization's atomic helpers",
                )
        elif isinstance(call.func, ast.Attribute) and call.func.attr in (
            "write_text",
            "write_bytes",
        ):
            yield ctx.finding(
                call,
                "SER003",
                f".{call.func.attr}() writes in place; route the write "
                "through repro.nn.serialization's atomic helpers",
            )
