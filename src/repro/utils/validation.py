"""Type checks shared by the frozen configuration dataclasses."""
from __future__ import annotations

import numbers
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


def positive(name: str, value) -> None:
    """Raise unless ``value`` is a real number above zero.

    A ``bool`` or a non-number raises ``TypeError``; zero, a negative and
    NaN raise ``ValueError`` (NaN compares false with everything, so a bare
    ``value <= 0`` check lets it through).  Nothing is converted: the
    configs hash their fields as stored.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    if not value > 0:
        raise ValueError(f"{name} must be strictly positive, got {value!r}")


def integer_fields(config) -> None:
    """Store every ``int`` field of the dataclass ``config`` (and every
    optional one that is not ``None``) as :func:`integer` returns it."""
    for spec in fields(config):
        value = getattr(config, spec.name)
        optional = spec.type in ("int | None", "Optional[int]")
        if spec.type == "int" or (optional and value is not None):
            object.__setattr__(config, spec.name, integer(spec.name, value))
