"""Summed-area tables: in-RAM builds, chunked spilling builds, mmap.

The chunked build is the beyond-RAM path: the allocation is generated
slab by slab, prefix sums are carried across tiles, and the table lands
in a memory-mapped ``.npy`` file whose path is a complete, picklable
handle.  Everything here certifies that path against the in-RAM
reference build bit for bit, plus the budget arithmetic (`tile_rows` /
`tile_working_set`) the benchmarks and the CI gate rely on.
"""

import itertools
import os

import numpy as np
import pytest

from repro.core.engine import ResponseTimeEngine
from repro.core.exceptions import AllocationError, BackendError, QueryError
from repro.core.grid import Grid
from repro.core.query import QueryBatch, RangeQuery
from repro.core.registry import get_scheme
from repro.core.sat import (
    BYTE_BUDGET_ENV,
    DEFAULT_BYTE_BUDGET,
    SummedAreaTable,
    sat_byte_budget,
    sat_dtype,
)


def _queries(grid):
    dims = grid.dims
    return [
        RangeQuery((0,) * grid.ndim, tuple(d - 1 for d in dims)),
        RangeQuery((0,) * grid.ndim, (0,) * grid.ndim),
        RangeQuery(tuple(d - 1 for d in dims), tuple(d + 2 for d in dims)),
        RangeQuery(tuple(dims), tuple(d + 1 for d in dims)),
        RangeQuery(tuple(d // 2 for d in dims), tuple(d - 1 for d in dims)),
    ]


class TestByteBudget:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(BYTE_BUDGET_ENV, raising=False)
        assert sat_byte_budget() == DEFAULT_BYTE_BUDGET

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(BYTE_BUDGET_ENV, "4096")
        assert sat_byte_budget() == 4096

    def test_argument_wins(self, monkeypatch):
        monkeypatch.setenv(BYTE_BUDGET_ENV, "4096")
        assert sat_byte_budget(8192) == 8192

    def test_nonpositive_rejected(self):
        with pytest.raises(AllocationError):
            sat_byte_budget(0)

    def test_dtype_selection(self):
        assert sat_dtype(1024) == np.int32
        assert sat_dtype(2**31) == np.int64


class TestInRamBuild:
    def test_shape_and_totals(self):
        grid = Grid((6, 5))
        allocation = get_scheme("dm").allocate(grid, 3)
        sat = SummedAreaTable.build(allocation)
        # Disks are the last axis: one contiguous M-vector per corner.
        assert sat.array.shape == (7, 6, 3)
        assert not sat.is_mmap
        # The far corner counts every bucket, partitioned over disks.
        assert int(sat.array[-1, -1].sum()) == grid.num_buckets

    def test_shape_mismatch_rejected(self):
        grid = Grid((4, 4))
        with pytest.raises(AllocationError, match="does not match"):
            SummedAreaTable(np.zeros((2, 5, 5), dtype=np.int32), grid, 3)

    def test_cnative_queries_add_no_resident_copy(self):
        from repro.core.backends import use_backend

        allocation = get_scheme("fx").allocate(Grid((4, 4)), 2)
        engine = ResponseTimeEngine(allocation)
        try:
            with use_backend("cnative"):
                engine.batch_response_times(_queries(allocation.grid))
                engine.sliding_response_times((2, 2))
        except BackendError as exc:
            pytest.skip(str(exc))
        assert engine.sat.resident_nbytes() == engine.sat.array.nbytes

    def test_corner_counts_dimension_mismatch(self):
        sat = SummedAreaTable.build(
            get_scheme("dm").allocate(Grid((4, 4)), 2)
        )
        bad = np.zeros((1, 3), dtype=np.int64)
        with pytest.raises(QueryError):
            sat.corner_counts(bad, bad)


class TestTileArithmetic:
    def test_tile_rows_respects_budget(self):
        grid = Grid((64, 16, 16))
        rows = SummedAreaTable.tile_rows(grid, 4, 1 << 20)
        assert 1 <= rows <= 64
        assert (
            SummedAreaTable.tile_working_set(grid, 4, rows) <= 1 << 20
        )

    def test_tiny_budget_floors_at_one_row(self):
        grid = Grid((8, 8))
        assert SummedAreaTable.tile_rows(grid, 2, 1) == 1

    def test_huge_budget_caps_at_grid(self):
        grid = Grid((8, 8))
        assert SummedAreaTable.tile_rows(grid, 2, 1 << 30) == 8


@pytest.mark.parametrize(
    "scheme,dims,m",
    [
        ("dm", (9, 7), 3),
        ("gdm", (8, 6), 4),
        ("fx", (8, 8), 4),
        ("dm", (6, 5, 4), 5),
        ("fx", (4, 4, 4), 2),
        ("random", (5, 5), 3),
        ("cyclic", (9, 7), 5),
        ("cyclic-exh", (8, 6), 7),
        ("lattice", (6, 5, 4), 7),
        ("lattice-exh", (5, 4, 3), 6),
    ],
)
class TestChunkedBuild:
    def test_bit_identical_to_in_ram(self, scheme, dims, m, tmp_path):
        grid = Grid(dims)
        scheme_obj = get_scheme(scheme)
        reference = SummedAreaTable.build(scheme_obj.allocate(grid, m))
        # 512 bytes forces many single-digit-row tiles.
        chunked = SummedAreaTable.build_chunked(
            scheme_obj, grid, m, byte_budget=512,
            path=tmp_path / "sat.npy",
        )
        try:
            assert chunked.is_mmap
            assert np.array_equal(np.asarray(chunked.array), reference.array)
        finally:
            chunked.close()

    def test_query_identity_via_engines(self, scheme, dims, m, tmp_path):
        grid = Grid(dims)
        scheme_obj = get_scheme(scheme)
        in_ram = ResponseTimeEngine(scheme_obj.allocate(grid, m))
        chunked = ResponseTimeEngine.open_chunked(
            scheme_obj, grid, m, byte_budget=1024,
            path=tmp_path / "sat.npy",
        )
        try:
            queries = _queries(grid)
            assert np.array_equal(
                chunked.batch_response_times(queries),
                in_ram.batch_response_times(queries),
            )
            assert np.array_equal(
                chunked.batch_disk_counts(queries),
                in_ram.batch_disk_counts(queries),
            )
        finally:
            chunked.sat.close()


class TestTileLayoutInvariance:
    """The spilled file's bytes must not depend on how it was tiled."""

    @pytest.mark.parametrize("scheme_name", ["dm", "fx"])
    @pytest.mark.parametrize("dims", [(9, 7), (6, 5, 4)])
    def test_file_bytes_independent_of_budget(
        self, tmp_path, scheme_name, dims
    ):
        from repro.core.integrity import file_sha256

        grid = Grid(dims)
        scheme = get_scheme(scheme_name)
        in_ram = SummedAreaTable.build(scheme.allocate(grid, 3))
        digests = set()
        # One-row tiles, a few rows per tile, and the whole grid at once.
        for budget in (1, 600, 1 << 20):
            built = SummedAreaTable.build_chunked(
                scheme, grid, 3, byte_budget=budget,
                path=tmp_path / f"sat-{budget}.npy",
            )
            # One tile kernel for both drivers: the file holds exactly
            # the in-RAM array, disks last.
            assert built.array.shape[-1] == 3
            assert np.array_equal(np.asarray(built.array), in_ram.array)
            built.close()
            digests.add(file_sha256(built.path))
        assert len(digests) == 1


@pytest.mark.parametrize(
    "scheme_name,dims",
    [("dm", (9, 7)), ("fx", (8, 4)), ("dm", (6, 5, 4)), ("gdm", (5, 4, 6))],
)
class TestMappedWindowSweep:
    """Window sweeps over a multi-tile mapped table equal the in-RAM ones."""

    def _tables(self, scheme_name, dims, tmp_path):
        grid = Grid(dims)
        scheme = get_scheme(scheme_name)
        in_ram = SummedAreaTable.build(scheme.allocate(grid, 3))
        mapped = SummedAreaTable.build_chunked(
            scheme, grid, 3, byte_budget=600, path=tmp_path / "sat.npy",
        )
        return in_ram, mapped

    def test_every_backend_every_shape(self, scheme_name, dims, tmp_path):
        from repro.core.backends import available_backends, get_backend

        in_ram, mapped = self._tables(scheme_name, dims, tmp_path)
        reference = get_backend("numpy")
        try:
            for shape in itertools.product(*(range(1, d + 1) for d in dims)):
                want = reference.window_response_times(in_ram, shape)
                for backend in available_backends():
                    assert np.array_equal(
                        backend.window_response_times(mapped, shape), want
                    ), (backend.name, shape)
        finally:
            mapped.close()


class TestMmapRoundTrip:
    def test_open_mmap_recovers_grid_and_disks(self, tmp_path):
        grid = Grid((7, 6))
        path = tmp_path / "sat.npy"
        built = SummedAreaTable.build_chunked(
            get_scheme("dm"), grid, 3, byte_budget=1024, path=path
        )
        built.close()
        reopened = SummedAreaTable.open_mmap(path)
        try:
            assert reopened.dims == (7, 6)
            assert reopened.num_disks == 3
            assert reopened.array.shape == (8, 7, 3)
            assert reopened.is_mmap
            assert reopened.resident_nbytes() == 0
        finally:
            reopened.close()

    def test_close_is_idempotent(self, tmp_path):
        built = SummedAreaTable.build_chunked(
            get_scheme("dm"), Grid((4, 4)), 2,
            byte_budget=1024, path=tmp_path / "sat.npy",
        )
        built.close()
        built.close()

    def test_open_mmap_rejects_non_sat_files(self, tmp_path):
        path = tmp_path / "flat.npy"
        np.save(path, np.arange(5))
        # Without a manifest the open is refused before the shape check;
        # ``off`` skips verification so the shape check itself runs.
        with pytest.raises(AllocationError):
            SummedAreaTable.open_mmap(path, verify="off")

    def test_engine_from_mmap_has_no_allocation(self, tmp_path):
        path = tmp_path / "sat.npy"
        SummedAreaTable.build_chunked(
            get_scheme("dm"), Grid((5, 5)), 2, byte_budget=1024, path=path
        ).close()
        engine = ResponseTimeEngine.open_mmap(path)
        try:
            assert engine.num_disks == 2
            assert engine.grid.dims == (5, 5)
            with pytest.raises(AllocationError):
                engine.allocation
        finally:
            engine.sat.close()


class TestQueryBatchIntegration:
    def test_prebuilt_batch_matches_query_list(self):
        grid = Grid((8, 8))
        engine = ResponseTimeEngine(get_scheme("fx").allocate(grid, 4))
        queries = _queries(grid)
        batch = QueryBatch.from_queries(queries, grid)
        assert len(batch) == len(queries)
        assert np.array_equal(
            engine.batch_response_times(batch),
            engine.batch_response_times(queries),
        )

    def test_dims_mismatch_rejected(self):
        grid = Grid((8, 8))
        other = Grid((4, 4))
        engine = ResponseTimeEngine(get_scheme("dm").allocate(grid, 2))
        batch = QueryBatch.from_queries(_queries(other), other)
        with pytest.raises(QueryError):
            engine.batch_response_times(batch)


class TestRetiredParameters:
    def test_workers_parameter_is_gone(self, tmp_path):
        with pytest.raises(TypeError, match="workers"):
            SummedAreaTable.build_chunked(
                get_scheme("dm"), Grid((4, 4)), 2,
                path=tmp_path / "sat.npy", workers=2,
            )
