"""Library-wide logging helpers.

The library never configures the root logger; it only attaches a
:class:`logging.NullHandler` to its own namespace so that importing ``repro``
stays silent unless the application attaches a handler of its own.
"""
from __future__ import annotations

import logging

LIBRARY_LOGGER_NAME = "repro"

logging.getLogger(LIBRARY_LOGGER_NAME).addHandler(logging.NullHandler())


def get_logger(name: str | None = None) -> logging.Logger:
    """Return a logger below the ``repro`` namespace.

    Args:
        name: dotted sub-name, e.g. ``"split.trainer"``.  ``None`` returns the
            library root logger.
    """
    if name is None:
        return logging.getLogger(LIBRARY_LOGGER_NAME)
    return logging.getLogger(f"{LIBRARY_LOGGER_NAME}.{name}")
