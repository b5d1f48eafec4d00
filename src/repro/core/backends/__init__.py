"""Pluggable kernel backends for the library's three summed-area-table loops.

The registry maps backend names to :class:`~repro.core.backends.base.
KernelBackend` instances.  Resolution order for the active backend:

1. an explicit :func:`set_backend` / :func:`use_backend` call,
2. the ``REPRO_BACKEND`` environment variable (how a subprocess
   inherits the choice),
3. the default, ``"numpy"``.

Selecting an unknown or unavailable backend raises
:class:`~repro.core.exceptions.BackendError` with the reason — never a
silent fallback, because a benchmark or experiment that quietly ran a
different backend than asked would be a lie.

All registered backends are certified bit-identical to the numpy
reference by the QA423 contract rule.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.core.backends.base import KernelBackend
from repro.core.backends.native import CNativeBackend
from repro.core.backends.numpy_backend import NumpyBackend
from repro.core.exceptions import BackendError

__all__ = [
    "BACKEND_ENV",
    "DEFAULT_BACKEND",
    "KernelBackend",
    "active_backend",
    "active_backend_name",
    "all_backends",
    "available_backends",
    "get_backend",
    "register_backend",
    "set_backend",
    "use_backend",
]

#: Environment variable carrying the backend choice across processes.
BACKEND_ENV = "REPRO_BACKEND"

#: The always-available bit-identical reference backend.
DEFAULT_BACKEND = "numpy"

_REGISTRY: Dict[str, KernelBackend] = {}

#: Explicit in-process override (set_backend / use_backend); beats env.
_ACTIVE: Optional[str] = None


def register_backend(backend: KernelBackend) -> KernelBackend:
    """Add ``backend`` to the registry (last registration wins)."""
    if not backend.name:
        raise BackendError("backend has no name")
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> KernelBackend:
    """Look up a backend by name; raise BackendError if it cannot run."""
    backend = _REGISTRY.get(name)
    if backend is None:
        known = ", ".join(sorted(_REGISTRY))
        raise BackendError(
            f"unknown backend {name!r} (registered: {known})"
        )
    reason = backend.unavailable_reason()
    if reason is not None:
        raise BackendError(
            f"backend {name!r} is unavailable: {reason}"
        )
    return backend


def all_backends() -> List[KernelBackend]:
    """Every registered backend, available or not, in name order."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def available_backends() -> List[KernelBackend]:
    """Every backend that can run in this process, in name order."""
    return [b for b in all_backends() if b.available()]


def active_backend_name() -> str:
    """The name the current process resolves to (without validating it)."""
    if _ACTIVE is not None:
        return _ACTIVE
    return os.environ.get(BACKEND_ENV) or DEFAULT_BACKEND


def active_backend() -> KernelBackend:
    """The backend every kernel call site dispatches through."""
    return get_backend(active_backend_name())


def set_backend(name: Optional[str]) -> None:
    """Set (or with ``None`` clear) the process-wide backend override.

    Validates eagerly so a bad ``--backend`` fails at startup, not at
    the first kernel call.
    """
    global _ACTIVE
    if name is not None:
        get_backend(name)
    _ACTIVE = name


@contextmanager
def use_backend(name: str) -> Iterator[KernelBackend]:
    """Temporarily run with ``name`` as the active backend."""
    global _ACTIVE
    backend = get_backend(name)
    previous = _ACTIVE
    _ACTIVE = name
    try:
        yield backend
    finally:
        _ACTIVE = previous


register_backend(NumpyBackend())
register_backend(CNativeBackend())
