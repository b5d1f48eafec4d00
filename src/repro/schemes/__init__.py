"""Grid-based declustering schemes.

The four families evaluated by the paper — DM/CMD, FX/ExFX, ECC, HCAM — plus
GDM and the baseline/ablation schemes.  All share the
:class:`~repro.schemes.base.DeclusteringScheme` interface; use
:func:`repro.core.registry.get_scheme` to construct by name.
"""

from repro.schemes.base import DeclusteringScheme
from repro.schemes.baselines import RandomScheme, RoundRobinScheme
from repro.schemes.cyclic import (
    CyclicScheme,
    coprime_skips,
    exhaustive_coefficients,
    gfib_skip,
    rphm_skip,
)
from repro.schemes.disk_modulo import (
    DiskModuloScheme,
    GeneralizedDiskModuloScheme,
    LinearModScheme,
)
from repro.schemes.ecc_scheme import ECCScheme
from repro.schemes.fieldwise_xor import AutoFXScheme, ExFXScheme, FXScheme
from repro.schemes.hilbert_scheme import (
    GrayCodeScheme,
    HCAMScheme,
    ZOrderScheme,
)
from repro.schemes.lattice import LatticeScheme, power_coefficients

__all__ = [
    "DeclusteringScheme",
    "LinearModScheme",
    "DiskModuloScheme",
    "GeneralizedDiskModuloScheme",
    "FXScheme",
    "ExFXScheme",
    "AutoFXScheme",
    "ECCScheme",
    "HCAMScheme",
    "ZOrderScheme",
    "GrayCodeScheme",
    "RandomScheme",
    "RoundRobinScheme",
    "CyclicScheme",
    "coprime_skips",
    "rphm_skip",
    "gfib_skip",
    "exhaustive_coefficients",
    "LatticeScheme",
    "power_coefficients",
]
