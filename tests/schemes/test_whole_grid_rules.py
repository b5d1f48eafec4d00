"""The DM/GDM/FX whole-grid rules equal ``disk_of`` bucket for bucket.

Each arithmetic scheme has one rule over coordinate arrays that serves
both ``disk_array`` (the whole grid) and ``disk_array_block`` (a row
slab for the chunked SAT build).  Both are checked here against the
scalar ``disk_of``, in 1-D to 3-D, with negative GDM coefficients
exercising the modulo sign convention.
"""

import numpy as np
import pytest

from repro.core.grid import Grid
from repro.schemes.disk_modulo import (
    DiskModuloScheme,
    GeneralizedDiskModuloScheme,
)
from repro.schemes.fieldwise_xor import FXScheme

GRIDS = [(9,), (5, 7), (6, 4), (4, 3, 5)]
DISKS = [2, 3, 7]

SCHEMES = {
    "dm": lambda ndim: DiskModuloScheme(),
    "fx": lambda ndim: FXScheme(),
    "gdm-negative": lambda ndim: GeneralizedDiskModuloScheme(
        tuple((-1) ** (axis + 1) * (axis + 2) for axis in range(ndim))
    ),
    "gdm-mixed": lambda ndim: GeneralizedDiskModuloScheme(
        tuple((3, -5, 1)[:ndim])
    ),
}


def _scalar_table(scheme, grid, num_disks):
    table = np.empty(grid.dims, dtype=np.int64)
    for coords in grid.iter_buckets():
        table[coords] = scheme.disk_of(coords, grid, num_disks)
    return table


@pytest.mark.parametrize("num_disks", DISKS)
@pytest.mark.parametrize("dims", GRIDS, ids=str)
@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_disk_array_and_blocks_equal_disk_of(name, dims, num_disks):
    grid = Grid(dims)
    scheme = SCHEMES[name](grid.ndim)
    want = _scalar_table(scheme, grid, num_disks)
    assert want.min() >= 0 and want.max() < num_disks
    full = scheme.disk_array(grid, num_disks)
    assert full.dtype == np.int64
    assert np.array_equal(full, want)
    rows = grid.dims[0]
    for step in (1, 2, 3):
        for start in range(0, rows, step):
            stop = min(start + step, rows)
            assert np.array_equal(
                scheme.disk_array_block(grid, num_disks, start, stop),
                want[start:stop],
            ), (start, stop)

