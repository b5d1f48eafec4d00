"""Field-wise eXclusive-or (FX) declustering and its extension ExFX.

**FX** (Kim & Pramanik, SIGMOD 1988): write each bucket coordinate in binary
and XOR the fields together,

    disk(<i_1, ..., i_k>) = (i_1 XOR i_2 XOR ... XOR i_k) mod M.

FX was designed for efficient partial-match retrieval with ``M`` a power of
two; fixing all attributes but one makes the remaining coordinate sweep the
XOR through a permuted run of disk ids, which spreads the qualifying buckets
perfectly when the free field is at least ``log2 M`` bits wide.

**ExFX** — when some attribute has fewer partitions than disks
(``d_i < M``), a single field cannot reach every disk, so FX degrades.  The
published extension widens the per-field contribution by borrowing bits from
the other fields.  Our concrete (documented) realization: concatenate the
coordinate fields LSB-first into one bit-string, then fold it by XOR-ing
successive ``w``-bit chunks where ``w = ceil(log2 M)``, and take the result
mod M.  For fields that are already ``>= w`` bits this mixes more than plain
FX does, so — following the paper's own protocol — the automatic mode uses
plain FX when every ``d_i >= M`` and ExFX otherwise.
"""

from __future__ import annotations

from functools import reduce
from typing import Sequence

import numpy as np

from repro.core.exceptions import SchemeError
from repro.core.grid import Grid
from repro.schemes.base import DeclusteringScheme, block_coordinate_arrays

__all__ = [
    "AutoFXScheme",
    "ExFXScheme",
    "FXScheme",
    "concatenate_fields",
    "xor_fold",
]


def xor_fold(value: int, total_bits: int, chunk_bits: int) -> int:
    """XOR together the ``chunk_bits``-wide slices of ``value``.

    ``value`` is treated as a ``total_bits``-bit string (LSB-first) split
    from the bottom into chunks; short final chunks are zero-padded.
    """
    if chunk_bits <= 0:
        raise SchemeError(f"chunk width must be positive, got {chunk_bits}")
    folded = 0
    remaining = int(value)
    consumed = 0
    while consumed < max(total_bits, 1):
        folded ^= remaining & ((1 << chunk_bits) - 1)
        remaining >>= chunk_bits
        consumed += chunk_bits
    return folded


def concatenate_fields(coords: Sequence[int], widths: Sequence[int]) -> int:
    """Pack coordinate fields into one integer, field 0 in the low bits."""
    if len(coords) != len(widths):
        raise SchemeError(
            f"{len(coords)} coordinates but {len(widths)} field widths"
        )
    packed = 0
    shift = 0
    for value, width in zip(coords, widths):
        packed |= int(value) << shift
        shift += width
    return packed


class FXScheme(DeclusteringScheme):
    """FX: disk = (XOR of binary coordinate fields) mod M."""

    name = "fx"

    def disk_of(self, coords: Sequence[int], grid: Grid, num_disks: int) -> int:
        return reduce(lambda a, b: a ^ b, (int(c) for c in coords)) % num_disks

    def disk_array(self, grid: Grid, num_disks: int) -> np.ndarray:
        return self._xor_block(num_disks, grid.coordinate_arrays())

    def disk_array_block(
        self, grid: Grid, num_disks: int, start: int, stop: int
    ) -> np.ndarray:
        return self._xor_block(
            num_disks, block_coordinate_arrays(grid, start, stop)
        )

    @staticmethod
    def _xor_block(num_disks, coordinate_arrays):
        # As in linear_mod_disks, only the last XOR is table-sized.
        table = reduce(np.bitwise_xor, coordinate_arrays, np.int64(0))
        return np.remainder(table, num_disks, out=table)


class ExFXScheme(DeclusteringScheme):
    """ExFX: concatenate coordinate fields, XOR-fold in log2(M)-bit chunks."""

    name = "exfx"

    def disk_of(self, coords: Sequence[int], grid: Grid, num_disks: int) -> int:
        widths = grid.bits_per_axis()
        chunk = max(1, (num_disks - 1).bit_length())
        packed = concatenate_fields(coords, widths)
        folded = xor_fold(packed, sum(widths), chunk)
        return folded % num_disks

    def disk_array(self, grid: Grid, num_disks: int) -> np.ndarray:
        return self._fold_block(
            grid, num_disks, grid.coordinate_arrays()
        )

    def disk_array_block(
        self, grid: Grid, num_disks: int, start: int, stop: int
    ) -> np.ndarray:
        return self._fold_block(
            grid, num_disks, block_coordinate_arrays(grid, start, stop)
        )

    def _fold_block(self, grid, num_disks, coordinate_arrays):
        # Whole-grid form of concatenate_fields + xor_fold: pack every
        # bucket's fields LSB-first into one int64, then XOR the
        # chunk-wide slices — the same chunk walk as the scalar rule.
        widths = grid.bits_per_axis()
        chunk = max(1, (num_disks - 1).bit_length())
        total_bits = sum(widths)
        packed = np.zeros(
            np.broadcast_shapes(*(c.shape for c in coordinate_arrays)),
            dtype=np.int64,
        )
        shift = 0
        for width, axis_coords in zip(widths, coordinate_arrays):
            packed |= axis_coords << shift
            shift += width
        mask = (1 << chunk) - 1
        folded = np.zeros(packed.shape, dtype=np.int64)
        consumed = 0
        while consumed < max(total_bits, 1):
            np.bitwise_xor(folded, (packed >> consumed) & mask, out=folded)
            consumed += chunk
        return folded % num_disks


class AutoFXScheme(DeclusteringScheme):
    """The paper's protocol: FX when every d_i >= M, ExFX otherwise."""

    name = "fx-auto"

    def __init__(self):
        self._fx = FXScheme()
        self._exfx = ExFXScheme()

    def chooses_extended(self, grid: Grid, num_disks: int) -> bool:
        """Whether ExFX would be used for this configuration."""
        return any(d < num_disks for d in grid.dims)

    def _inner(self, grid: Grid, num_disks: int) -> DeclusteringScheme:
        if self.chooses_extended(grid, num_disks):
            return self._exfx
        return self._fx

    def disk_of(self, coords: Sequence[int], grid: Grid, num_disks: int) -> int:
        return self._inner(grid, num_disks).disk_of(coords, grid, num_disks)

    def disk_array(self, grid: Grid, num_disks: int) -> np.ndarray:
        return self._inner(grid, num_disks).disk_array(grid, num_disks)

    def disk_array_block(
        self, grid: Grid, num_disks: int, start: int, stop: int
    ) -> np.ndarray:
        return self._inner(grid, num_disks).disk_array_block(
            grid, num_disks, start, stop
        )
