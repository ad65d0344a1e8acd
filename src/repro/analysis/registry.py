"""Rule registry: stable codes, one check function per rule.

Rules register themselves at import time through the :func:`rule` decorator;
the engine imports the rule modules and iterates :func:`all_rules`.  Codes are
stable identifiers (they appear in ``# repro: noqa[CODE]`` suppressions and in
CI logs), so a rule may be retired but its code must never be reused for a
different check.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List

from repro.analysis.findings import Finding, validate_code

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.analysis.engine import ModuleContext

#: A check takes one parsed module and yields findings.
CheckFunction = Callable[["ModuleContext"], Iterable[Finding]]


@dataclass(frozen=True)
class Rule:
    """One registered rule: stable code, short name, summary, check function."""

    code: str
    name: str
    summary: str
    check: CheckFunction


_RULES: Dict[str, Rule] = {}

#: Codes emitted by the engine itself (parse errors, suppression bookkeeping)
#: and by the runtime contract pass — reserved so rule modules cannot take them.
ENGINE_CODES = {
    "AST001": "file does not parse (syntax error)",
    "NOQ001": "unused suppression (no finding on this line matched the code)",
    "NOQ002": "malformed `# repro: noqa[...]` comment",
    "CKP003": "state_dict omits a mutable attribute (runtime contract pass)",
    "CKP004": "unused contract waiver or alias (runtime contract pass)",
    "CKP005": "contract spec failed to instantiate or snapshot (runtime pass)",
}


def rule(
    code: str, name: str, summary: str
) -> Callable[[CheckFunction], CheckFunction]:
    """Register the decorated check function under ``code``.

    Raises:
        ValueError: on a malformed code or a code collision — both are
            programming errors in a rule module, not runtime conditions.
    """
    validate_code(code)
    if code in ENGINE_CODES:
        raise ValueError(f"rule code {code} is reserved by the engine")

    def decorate(check: CheckFunction) -> CheckFunction:
        if code in _RULES:
            raise ValueError(
                f"duplicate rule code {code}: {name!r} vs {_RULES[code].name!r}"
            )
        _RULES[code] = Rule(code=code, name=name, summary=summary, check=check)
        return check

    return decorate


def all_rules() -> List[Rule]:
    """Every registered rule, sorted by code (deterministic run order)."""
    _load_rule_modules()
    return [_RULES[code] for code in sorted(_RULES)]


def known_codes() -> List[str]:
    """All valid codes: registered rules plus the engine's reserved codes."""
    _load_rule_modules()
    return sorted(set(_RULES) | set(ENGINE_CODES))


def _load_rule_modules() -> None:
    """Import the built-in rule modules (idempotent; they self-register)."""
    from repro.analysis import (  # noqa: F401  (imported for side effects)
        rules_checkpoint,
        rules_hygiene,
        rules_rng,
        rules_serialization,
    )
