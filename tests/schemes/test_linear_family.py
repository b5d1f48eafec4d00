"""DM, GDM, cyclic and lattice: one linear rule, coefficient policies.

Every linear-family registry name is pinned against the closed form
``(c_1 i_1 + ... + c_k i_k) mod M``, evaluated bucket by bucket in
python ints; the ``exh`` policies' coefficients are re-derived by a
brute-force search over the mean RT of every placement, in exact
fractions.
"""

import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest

from repro.core.exceptions import SchemeNotApplicableError
from repro.core.grid import Grid
from repro.core.registry import get_scheme
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
from repro.schemes.lattice import LatticeScheme, power_coefficients

GRIDS_2D = [(6, 6), (8, 5), (9, 4), (7, 7), (1, 6)]
GRIDS_3D = [(4, 4, 4), (5, 4, 3), (4, 3, 5)]
DISKS = [1, 2, 5, 6, 8, 12]


def _closed_form(coefficients, dims, num_disks):
    table = np.zeros(dims, dtype=np.int64)
    for bucket in itertools.product(*(range(d) for d in dims)):
        table[bucket] = sum(
            c * i for c, i in zip(coefficients, bucket)
        ) % num_disks
    return table


@functools.lru_cache(maxsize=None)
def _brute_force_pick(dims, num_disks):
    """The exhaustive search re-derived bucket by bucket, in exact fractions."""
    skips = coprime_skips(num_disks)
    shapes = [tuple(min(side, d) for d in dims) for side in (2, 3)]
    best, best_cost = None, None
    for tail in itertools.product(skips, repeat=len(dims) - 1):
        coefficients = (1,) + tail
        table = _closed_form(coefficients, dims, num_disks)
        cost = Fraction(0)
        for shape in shapes:
            origins = list(
                itertools.product(
                    *(range(d - s + 1) for d, s in zip(dims, shape))
                )
            )
            total = 0
            for origin in origins:
                box = tuple(
                    slice(o, o + s) for o, s in zip(origin, shape)
                )
                total += int(
                    np.bincount(
                        table[box].ravel(), minlength=num_disks
                    ).max()
                )
            cost += Fraction(total, len(origins))
        if best_cost is None or cost < best_cost:
            best, best_cost = coefficients, cost
    return best


def _expected_coefficients(name, dims, num_disks):
    if name.endswith("-exh"):
        return _brute_force_pick(dims, num_disks)
    return {
        "dm": (1,) * len(dims),
        "gdm": (1,) * len(dims),
        "cyclic": (1, rphm_skip(num_disks)),
        "cyclic-gfib": (1, gfib_skip(num_disks)),
        "lattice": power_coefficients(len(dims), num_disks),
    }[name]


LINEAR_NAMES = [
    "dm", "gdm", "cyclic", "cyclic-gfib", "cyclic-exh",
    "lattice", "lattice-exh",
]


@pytest.mark.parametrize("num_disks", DISKS)
@pytest.mark.parametrize("dims", GRIDS_2D + GRIDS_3D, ids=str)
@pytest.mark.parametrize("name", LINEAR_NAMES)
def test_registry_table_is_the_closed_form(name, dims, num_disks):
    grid = Grid(dims)
    scheme = get_scheme(name)
    if name.startswith("cyclic") and len(dims) != 2:
        with pytest.raises(SchemeNotApplicableError):
            scheme.allocate(grid, num_disks)
        return
    want = _closed_form(
        _expected_coefficients(name, dims, num_disks), dims, num_disks
    )
    assert np.array_equal(scheme.allocate(grid, num_disks).table, want)


@pytest.mark.parametrize("num_disks", range(1, 17))
@pytest.mark.parametrize("dims", GRIDS_2D + [(16, 16), (3, 11)], ids=str)
def test_cyclic_and_lattice_agree_on_2d(dims, num_disks):
    grid = Grid(dims)
    for cyclic, lattice in (("cyclic", "lattice"),
                            ("cyclic-exh", "lattice-exh")):
        assert np.array_equal(
            get_scheme(cyclic).allocate(grid, num_disks).table,
            get_scheme(lattice).allocate(grid, num_disks).table,
        ), (cyclic, lattice)


@pytest.mark.parametrize(
    "dims, num_disks",
    [
        ((6, 6), 5),
        ((8, 5), 7),
        ((9, 4), 8),
        ((7, 7), 12),
        ((4, 4, 4), 5),
        ((5, 4, 3), 4),
        ((4, 3, 5), 6),
    ],
)
def test_exhaustive_pick_matches_exact_brute_force(dims, num_disks):
    assert exhaustive_coefficients(
        Grid(dims), num_disks
    ) == _brute_force_pick(dims, num_disks)


@pytest.mark.parametrize(
    "cls",
    [DiskModuloScheme, GeneralizedDiskModuloScheme, CyclicScheme,
     LatticeScheme],
)
def test_policies_only_choose_coefficients(cls):
    assert issubclass(cls, LinearModScheme)
    for method in ("disk_of", "disk_array", "disk_array_block"):
        assert method not in vars(cls), (cls.__name__, method)


def test_skip_for_is_the_second_coefficient():
    grid = Grid((16, 16))
    for policy in ("rphm", "gfib", "exh"):
        scheme = CyclicScheme(policy)
        assert scheme.coefficients_for(grid, 8) == (
            1, scheme.skip_for(grid, 8)
        )


@pytest.mark.parametrize(
    "name, dims", [("cyclic-exh", (9, 7)), ("lattice-exh", (5, 4, 3))]
)
def test_exh_disk_of_searches_once_per_configuration(name, dims):
    """Scalar ``disk_of`` calls reuse one search per ``(dims, M)``."""
    from repro.schemes.cyclic import _exhaustive_search

    scheme, grid = get_scheme(name), Grid(dims)
    table = scheme.disk_array(grid, 7)
    _exhaustive_search.cache_clear()
    for bucket in grid.iter_buckets():
        assert scheme.disk_of(bucket, grid, 7) == table[bucket]
    assert _exhaustive_search.cache_info().misses == 1
    scheme.disk_of((0,) * len(dims), grid, 5)
    scheme.disk_of((0,) * len(dims), Grid((6,) + dims[1:]), 7)
    assert _exhaustive_search.cache_info().misses == 3
