"""Library logging: namespaced, silent by default, one-call opt-in.

Every module logs through a child of the ``repro`` logger obtained from
:func:`get_logger`.  The package ships a ``NullHandler`` on the root
``repro`` logger, so library code can log unconditionally — warnings
about spilled-table rebuilds, resumed builds and swallowed cleanup
failures — without ever printing unless the application opts in
via :func:`configure_logging` (the CLI's ``--log-level``) or attaches
its own handlers.
"""

from __future__ import annotations

import logging
import sys
from typing import Optional, TextIO

__all__ = [
    "ROOT_LOGGER_NAME",
    "configure_logging",
    "get_logger",
]

#: All library loggers live under this namespace.
ROOT_LOGGER_NAME = "repro"

#: Format used by :func:`configure_logging`'s stream handler.
LOG_FORMAT = "%(asctime)s %(levelname)-7s %(name)s: %(message)s"

# Silence-by-default: without this, a library warning with no handlers
# configured would trigger logging's "no handlers could be found" noise.
logging.getLogger(ROOT_LOGGER_NAME).addHandler(logging.NullHandler())


def get_logger(name: str) -> logging.Logger:
    """A logger under the ``repro`` namespace.

    ``name`` may be a module ``__name__`` (already ``repro.*``) or a bare
    suffix like ``"doctor"``.
    """
    if name != ROOT_LOGGER_NAME and not name.startswith(
        ROOT_LOGGER_NAME + "."
    ):
        name = f"{ROOT_LOGGER_NAME}.{name}"
    return logging.getLogger(name)


def configure_logging(
    level: str = "info", stream: Optional[TextIO] = None
) -> logging.Logger:
    """Attach a stderr handler to the ``repro`` root at ``level``.

    Idempotent: calling again replaces the previously configured handler
    (so tests and repeated CLI invocations in one process do not stack
    duplicate lines).  Returns the root library logger.
    """
    numeric = logging.getLevelName(level.upper())
    if not isinstance(numeric, int):
        raise ValueError(f"unknown log level {level!r}")
    root = get_logger(ROOT_LOGGER_NAME)
    for handler in list(root.handlers):
        if getattr(handler, "_repro_obs_handler", False):
            root.removeHandler(handler)
    handler = logging.StreamHandler(stream or sys.stderr)
    handler.setFormatter(logging.Formatter(LOG_FORMAT))
    handler._repro_obs_handler = True  # type: ignore[attr-defined]
    root.addHandler(handler)
    root.setLevel(numeric)
    return root
