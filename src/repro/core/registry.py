"""Name-based registry of declustering schemes.

The experiments, benchmarks, and CLI refer to schemes by short name
(``"dm"``, ``"fx-auto"``, ``"ecc"``, ``"hcam"``, ...).  The registry maps
each name to a zero-argument factory so every lookup returns a fresh scheme
instance.  Third-party schemes can be added with :func:`register_scheme`.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Dict, Iterator, List, Mapping

from repro.core.exceptions import UnknownSchemeError
from repro.schemes.base import DeclusteringScheme
from repro.schemes.baselines import RandomScheme, RoundRobinScheme
from repro.schemes.disk_modulo import (
    DiskModuloScheme,
    GeneralizedDiskModuloScheme,
)
from repro.schemes.ecc_scheme import ECCScheme
from repro.schemes.fieldwise_xor import AutoFXScheme, ExFXScheme, FXScheme
from repro.schemes.hilbert_scheme import (
    GrayCodeScheme,
    HCAMScheme,
    ZOrderScheme,
)

__all__ = [
    "PAPER_LABELS",
    "PAPER_SCHEMES",
    "SchemeFactory",
    "available_schemes",
    "get_scheme",
    "register_scheme",
    "registry_snapshot",
    "restore_registry",
    "scheme_factory",
    "scheme_label",
    "temporary_scheme",
    "unregister_scheme",
]

SchemeFactory = Callable[[], DeclusteringScheme]

_REGISTRY: Dict[str, SchemeFactory] = {}

#: Scheme names evaluated by the paper, in the order its figures list them.
PAPER_SCHEMES = ("dm", "fx-auto", "ecc", "hcam")

#: Display labels matching the paper's figure legends.
PAPER_LABELS = {
    "dm": "DM/CMD",
    "fx": "FX",
    "exfx": "ExFX",
    "fx-auto": "FX",
    "ecc": "ECC",
    "hcam": "HCAM",
    "gdm": "GDM",
    "zorder": "Z-order",
    "gray": "Gray",
    "random": "Random",
    "roundrobin": "RoundRobin",
    "cyclic": "RPHM",
    "cyclic-gfib": "GFIB",
    "cyclic-exh": "EXH",
    "lattice": "Lattice",
    "lattice-exh": "LatticeEXH",
}


def register_scheme(name: str, factory: SchemeFactory, replace: bool = False) -> None:
    """Register a scheme factory under ``name``.

    Raises ``ValueError`` if the name is taken and ``replace`` is false.
    """
    if not name:
        raise ValueError("scheme name must be non-empty")
    if name in _REGISTRY and not replace:
        raise ValueError(f"scheme {name!r} is already registered")
    _REGISTRY[name] = factory


def unregister_scheme(name: str) -> SchemeFactory:
    """Remove and return the factory registered under ``name``.

    Raises :class:`UnknownSchemeError` if the name is not registered.
    """
    try:
        return _REGISTRY.pop(name)
    except KeyError:
        raise UnknownSchemeError(
            f"unknown scheme {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


@contextlib.contextmanager
def temporary_scheme(
    name: str, factory: SchemeFactory, replace: bool = False
) -> Iterator[None]:
    """Register ``name`` for the duration of a ``with`` block.

    On exit the previous state is restored exactly: the name is removed
    again, or — when ``replace=True`` shadowed a builtin — the original
    factory is put back.  This is the supported way for tests and
    experiments to try a scheme variant without leaking registry state.
    """
    previous = _REGISTRY.get(name)
    register_scheme(name, factory, replace=replace)
    try:
        yield
    finally:
        if previous is None:
            _REGISTRY.pop(name, None)
        else:
            _REGISTRY[name] = previous


def registry_snapshot() -> Dict[str, SchemeFactory]:
    """A copy of the current name → factory mapping."""
    return dict(_REGISTRY)


def restore_registry(snapshot: Mapping[str, SchemeFactory]) -> None:
    """Reset the registry to a :func:`registry_snapshot` state."""
    _REGISTRY.clear()
    _REGISTRY.update(snapshot)


def scheme_factory(name: str) -> SchemeFactory:
    """The registered factory for ``name`` (without instantiating it)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownSchemeError(
            f"unknown scheme {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def get_scheme(name: str) -> DeclusteringScheme:
    """Construct a fresh scheme instance by registry name."""
    return scheme_factory(name)()


def available_schemes() -> List[str]:
    """Sorted list of registered scheme names."""
    return sorted(_REGISTRY)


def scheme_label(name: str) -> str:
    """Paper-style display label for a scheme name."""
    return PAPER_LABELS.get(name, name.upper())


def _register_builtins() -> None:
    from repro.schemes.cyclic import CyclicScheme
    from repro.schemes.lattice import LatticeScheme

    register_scheme("dm", DiskModuloScheme)
    register_scheme("gdm", GeneralizedDiskModuloScheme)
    register_scheme("fx", FXScheme)
    register_scheme("exfx", ExFXScheme)
    register_scheme("fx-auto", AutoFXScheme)
    register_scheme("ecc", ECCScheme)
    register_scheme("hcam", HCAMScheme)
    register_scheme("zorder", ZOrderScheme)
    register_scheme("gray", GrayCodeScheme)
    register_scheme("random", RandomScheme)
    register_scheme("roundrobin", RoundRobinScheme)
    register_scheme("cyclic", lambda: CyclicScheme(policy="rphm"))
    register_scheme("cyclic-gfib", lambda: CyclicScheme(policy="gfib"))
    register_scheme("cyclic-exh", lambda: CyclicScheme(policy="exh"))
    register_scheme("lattice", lambda: LatticeScheme(policy="power"))
    register_scheme("lattice-exh", lambda: LatticeScheme(policy="exh"))


_register_builtins()
