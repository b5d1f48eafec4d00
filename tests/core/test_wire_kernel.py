"""The fused served-batch call: ``wire_response_times`` on every backend.

A served ``batch_response_times`` request is answered by one backend
call that reads the request's inclusive ``(2, N, k)`` bounds in place,
checks ``0 <= lower <= upper``, clips each row as
:meth:`~repro.core.query.QueryBatch.clip` does and writes the answers
into the reply body.  The numpy backend's version is the reference; the
compiled backend must match it and the scalar
:func:`~repro.core.cost.response_time` bit for bit.
"""

import numpy as np
import pytest

from repro.core.backends import available_backends, get_backend, use_backend
from repro.core.backends.base import WIRE_BOUNDS_MESSAGE
from repro.core.cost import response_time
from repro.core.engine import ResponseTimeEngine
from repro.core.exceptions import QueryError
from repro.core.grid import Grid
from repro.core.query import QueryBatch, RangeQuery
from repro.core.registry import get_scheme
from repro.core.sat import SummedAreaTable

BACKENDS = available_backends()
BACKEND_IDS = [backend.name for backend in BACKENDS]
INT64_MAX = np.iinfo(np.int64).max

#: One grid per arity k = 1..4, small enough for a scalar oracle.
GRIDS = [(11,), (9, 6), (5, 4, 6), (3, 4, 2, 5)]
NUM_DISKS = 5


def _wire_bounds(dims, count=60, seed=0):
    """Inclusive ``(2, N, k)`` rows: inside, overhanging, wholly outside,
    whole-grid, and upper bounds at ``2**63 - 1``."""
    rng = np.random.default_rng(seed)
    extents = np.asarray(dims, dtype=np.int64)
    lower = rng.integers(0, extents + 3, size=(count, len(dims)))
    upper = lower + rng.integers(0, extents + 3, size=lower.shape)
    upper[::5] = INT64_MAX
    lower[1] = extents
    upper[1] = extents + 2  # wholly outside the grid
    lower[2] = 0
    upper[2] = extents - 1  # the whole grid
    lower[3] = extents - 1
    upper[3] = INT64_MAX  # the far corner bucket only
    return np.stack([lower, upper]).astype(np.int64)


def _scalar_times(allocation, bounds):
    return np.array(
        [
            response_time(allocation, RangeQuery(tuple(lo), tuple(up)))
            for lo, up in zip(bounds[0].tolist(), bounds[1].tolist())
        ],
        dtype=np.int64,
    ).reshape(-1)


def _answer(backend, sat, bounds):
    out = np.full(bounds.shape[1], -1, dtype=np.int64)
    backend.wire_response_times(sat, bounds, out)
    return out


def _tables(allocation, tmp_path):
    """The allocation's SAT in RAM (int32 and int64) and mapped."""
    sat = SummedAreaTable.build(allocation)
    assert sat.array.dtype == np.int32
    wide = SummedAreaTable(
        sat.array.astype(np.int64), allocation.grid, allocation.num_disks
    )
    path = tmp_path / "sat.npy"
    SummedAreaTable.build_chunked(
        get_scheme("dm"), allocation.grid, allocation.num_disks,
        byte_budget=256, path=path,
    ).close()
    mapped = SummedAreaTable.open_mmap(path)
    return {"int32": sat, "int64": wide, "mapped": mapped}


@pytest.fixture
def compiled_only(monkeypatch):
    """Fail any test in which cnative falls back to the reference."""
    backend = get_backend("cnative")
    if not backend.available():
        pytest.skip(backend.unavailable_reason())

    def refuse(*args, **kwargs):
        raise AssertionError("cnative delegated to the numpy reference")

    monkeypatch.setattr(backend._reference, "wire_response_times", refuse)
    monkeypatch.setattr(backend._reference, "batch_response_times", refuse)
    return backend


class TestAgreement:
    @pytest.mark.parametrize("dims", GRIDS, ids=str)
    def test_backends_match_the_scalar_oracle(self, dims, tmp_path):
        grid = Grid(dims)
        allocation = get_scheme("dm").allocate(grid, NUM_DISKS)
        bounds = _wire_bounds(dims, seed=len(dims))
        want = _scalar_times(allocation, bounds)
        tables = _tables(allocation, tmp_path)
        try:
            for kind, sat in tables.items():
                for backend in BACKENDS:
                    got = _answer(backend, sat, bounds)
                    assert np.array_equal(got, want), (backend.name, kind)
        finally:
            tables["mapped"].close()

    @pytest.mark.parametrize("dims", GRIDS, ids=str)
    def test_compiled_call_answers_without_the_reference(
        self, dims, compiled_only, tmp_path
    ):
        grid = Grid(dims)
        allocation = get_scheme("dm").allocate(grid, NUM_DISKS)
        bounds = _wire_bounds(dims, seed=10 + len(dims))
        want = _scalar_times(allocation, bounds)
        tables = _tables(allocation, tmp_path)
        try:
            for kind, sat in tables.items():
                got = _answer(compiled_only, sat, bounds)
                assert np.array_equal(got, want), kind
        finally:
            tables["mapped"].close()

    @pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
    def test_empty_batch(self, backend):
        grid = Grid((6, 6))
        sat = SummedAreaTable.build(get_scheme("dm").allocate(grid, 3))
        bounds = np.zeros((2, 0, 2), dtype=np.int64)
        out = np.zeros(0, dtype=np.int64)
        backend.wire_response_times(sat, bounds, out)
        assert out.shape == (0,)

    @pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
    def test_read_only_wire_view_is_never_written(self, backend):
        grid = Grid((9, 6))
        sat = SummedAreaTable.build(get_scheme("hcam").allocate(grid, 4))
        bounds = _wire_bounds(grid.dims, seed=3)
        body = bounds.tobytes()
        view = np.frombuffer(body, dtype=np.int64).reshape(bounds.shape)
        assert not view.flags.writeable
        got = _answer(backend, sat, view)
        assert body == bounds.tobytes()
        batch = QueryBatch.clip(bounds[0], bounds[1], grid.dims)
        assert np.array_equal(
            got, get_backend("numpy").batch_response_times(
                sat, batch.lo, batch.hi
            )
        )


class TestRejections:
    @pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
    @pytest.mark.parametrize(
        "row, side, value",
        [(0, 0, -1), (7, 0, -5), (59, 1, 0)],
        ids=["first-negative", "middle-negative", "last-inverted"],
    )
    def test_invalid_row_raises_the_one_message(
        self, backend, row, side, value
    ):
        grid = Grid((9, 6))
        sat = SummedAreaTable.build(get_scheme("dm").allocate(grid, 4))
        bounds = _wire_bounds(grid.dims, seed=4)
        bounds[0, row, side] = 3 if side else value
        if side:
            bounds[1, row, side] = 2  # lower 3 > upper 2
        with pytest.raises(QueryError) as info:
            _answer(backend, sat, bounds)
        assert str(info.value) == WIRE_BOUNDS_MESSAGE

    @pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
    @pytest.mark.parametrize(
        "case",
        ["wrong arity", "short output", "int32 output", "strided output",
         "0-d output", "int32 bounds"],
    )
    def test_arrays_that_do_not_fit_the_table_raise(self, backend, case):
        grid = Grid((9, 6))
        sat = SummedAreaTable.build(get_scheme("dm").allocate(grid, 4))
        bounds = _wire_bounds(grid.dims, count=8)
        out = np.empty(8, dtype=np.int64)
        if case == "wrong arity":
            bounds = bounds[:, :, :1].copy()
        elif case == "short output":
            out = out[:7]
        elif case == "int32 output":
            out = out.astype(np.int32)
        elif case == "strided output":
            out = np.empty(16, dtype=np.int64)[::2]
        elif case == "0-d output":
            out = np.zeros((), dtype=np.int64)
        else:
            bounds = bounds.astype(np.int32)
        with pytest.raises(QueryError, match="do not fit"):
            backend.wire_response_times(sat, bounds, out)


class TestEngine:
    @pytest.mark.parametrize("backend", BACKEND_IDS)
    def test_engine_call_equals_the_clipped_batch(self, backend):
        grid = Grid((64, 64))
        engine = ResponseTimeEngine(get_scheme("hcam").allocate(grid, 16))
        bounds = _wire_bounds(grid.dims, count=256, seed=9)
        out = np.empty(256, dtype=np.int64)
        with use_backend(backend):
            engine.wire_response_times(bounds, out)
            want = engine.batch_response_times(
                QueryBatch.clip(bounds[0], bounds[1], grid.dims)
            )
        assert np.array_equal(out, want)

    def test_upper_at_int64_max_is_not_a_zero_extent_box(self):
        # upper + 1 used to wrap to INT64_MIN, clipping the row to
        # nothing: the batch answered 0 where the scalar path says 256.
        grid = Grid((64, 64))
        allocation = get_scheme("hcam").allocate(grid, 16)
        engine = ResponseTimeEngine(allocation)
        query = RangeQuery((0, 0), (INT64_MAX, INT64_MAX))
        assert response_time(allocation, query) == 256
        assert engine.batch_response_times([query]).tolist() == [256]
        bounds = np.array([[[0, 0]], [[INT64_MAX, INT64_MAX]]], np.int64)
        for backend in BACKENDS:
            assert _answer(backend, engine.sat, bounds).tolist() == [256]

