"""Type checks shared by the frozen configuration dataclasses."""
from __future__ import annotations

import operator
from dataclasses import fields


def integer(name: str, value) -> int:
    """``value`` as an ``int``: any integer but a ``bool``, else ``TypeError``.

    A float or a numpy integer stored as given would hash and serialize
    differently from the ``int`` it equals, so one configuration would get
    several cache keys.
    """
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def integer_fields(config) -> None:
    """Store every ``int`` field of the dataclass ``config`` (and every
    optional one that is not ``None``) as :func:`integer` returns it."""
    for spec in fields(config):
        value = getattr(config, spec.name)
        optional = spec.type in ("int | None", "Optional[int]")
        if spec.type == "int" or (optional and value is not None):
            object.__setattr__(config, spec.name, integer(spec.name, value))
