"""Hygiene rules (``HYG0xx``) the invariant suite implicitly needs.

* ``HYG001`` — ``==``/``!=`` against a float literal is almost always a
  tolerance bug in numeric code.  Exact-zero/one guards (division guards,
  probability short-circuits) are legitimate and carry documented
  suppressions.  Test code is exempt: tests assert exact golden values on
  purpose.
* ``HYG002`` — a mutable default argument is shared across calls; with the
  repo's long-lived trainer/session objects that is cross-run state leakage.
* ``HYG003`` — a function or method named ``*_reference`` is a loop oracle
  of a vectorized kernel.  Oracles live with the tests that check against
  them (``tests/nn/kernel_oracles.py``, ``tests/channel/link_oracle.py``,
  ...), so the shipped package carries only the code the program runs.
"""
from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.registry import rule

#: Calls producing a fresh mutable object are fine at call time, not as
#: defaults evaluated once at definition time.
_MUTABLE_CONSTRUCTORS = frozenset({"list", "dict", "set", "bytearray", "deque"})


def _is_float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_float_literal(node.operand)
    return False


@rule(
    "HYG001",
    "float-equality",
    "== / != against a float literal outside tests",
)
def check_float_equality(ctx) -> Iterator[Finding]:
    if ctx.in_tests():
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for operator, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(operator, (ast.Eq, ast.NotEq)):
                continue
            if _is_float_literal(left) or _is_float_literal(right):
                yield ctx.finding(
                    node,
                    "HYG001",
                    "exact ==/!= against a float literal; compare with a "
                    "tolerance, or suppress if an exact guard is intended",
                )
                break


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, (ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_CONSTRUCTORS
    return False


@rule(
    "HYG002",
    "mutable-default-argument",
    "mutable default argument (shared across calls)",
)
def check_mutable_default(ctx) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        arguments = node.args
        defaults = list(arguments.defaults) + [
            default for default in arguments.kw_defaults if default is not None
        ]
        for default in defaults:
            if _is_mutable_default(default):
                yield ctx.finding(
                    default,
                    "HYG002",
                    "mutable default argument is evaluated once and shared "
                    "across calls; default to None and create inside",
                )


@rule(
    "HYG003",
    "oracle-outside-tests",
    "*_reference oracle defined outside tests",
)
def check_reference_oracle(ctx) -> Iterator[Finding]:
    if ctx.in_tests():
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
            node.name.endswith("_reference")
        ):
            yield ctx.finding(
                node,
                "HYG003",
                f"{node.name} is a test oracle; define it under tests/, next "
                f"to the tests that check against it",
            )
