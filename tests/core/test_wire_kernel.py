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



class TestPreparedCall:
    """``wire_call``: the served batch's call, prepared once per buffer."""

    @pytest.mark.parametrize("backend", BACKEND_IDS)
    def test_refilled_bounds_are_answered_on_every_call(self, backend):
        grid = Grid((9, 6))
        allocation = get_scheme("dm").allocate(grid, NUM_DISKS)
        engine = ResponseTimeEngine(allocation)
        bounds = np.empty((2, 60, 2), dtype=np.int64)
        out = np.empty(60, dtype=np.int64)
        with use_backend(backend):
            answer = engine.wire_call(bounds, out)
        for seed in range(4):
            bounds[...] = _wire_bounds(grid.dims, seed=seed)
            answer()
            assert np.array_equal(out, _scalar_times(allocation, bounds))

    @pytest.mark.parametrize("kind", ["int32", "int64", "mapped"])
    def test_compiled_call_reads_every_table_layout(
        self, kind, compiled_only, tmp_path
    ):
        dims = (5, 4, 6)
        allocation = get_scheme("dm").allocate(Grid(dims), NUM_DISKS)
        tables = _tables(allocation, tmp_path)
        try:
            bounds = _wire_bounds(dims, seed=21)
            out = np.full(bounds.shape[1], -1, dtype=np.int64)
            compiled_only.wire_call(tables[kind], bounds, out)()
            assert np.array_equal(out, _scalar_times(allocation, bounds))
        finally:
            tables["mapped"].close()

    @pytest.mark.parametrize("backend", BACKEND_IDS)
    def test_bad_row_raises_and_the_next_call_answers(self, backend):
        grid = Grid((9, 6))
        allocation = get_scheme("dm").allocate(grid, NUM_DISKS)
        sat = SummedAreaTable.build(allocation)
        bounds = _wire_bounds(grid.dims, count=8, seed=3)
        good = bounds.copy()
        out = np.empty(8, dtype=np.int64)
        answer = get_backend(backend).wire_call(sat, bounds, out)
        bounds[0, 5, 1] = -1
        with pytest.raises(QueryError, match=WIRE_BOUNDS_MESSAGE):
            answer()
        bounds[...] = good
        answer()
        assert np.array_equal(out, _scalar_times(allocation, good))

    def test_unaligned_bounds_are_answered_through_a_copy(
        self, compiled_only
    ):
        grid = Grid((9, 6))
        allocation = get_scheme("dm").allocate(grid, NUM_DISKS)
        sat = SummedAreaTable.build(allocation)
        want = _wire_bounds(grid.dims, count=12, seed=4)
        raw = np.zeros(want.nbytes + 1, dtype=np.uint8)
        bounds = raw[1:].view(np.int64).reshape(want.shape)
        assert not bounds.flags.aligned
        bounds[...] = want
        out = np.empty(12, dtype=np.int64)
        # Copied per call by wire_response_times; the compiled kernel
        # still answers it.
        compiled_only.wire_call(sat, bounds, out)()
        assert np.array_equal(out, _scalar_times(allocation, want))


class TestConcurrentCalls:
    """ctypes releases the GIL: concurrent calls must share no scratch."""

    THREADS = 4
    ROUNDS = 12

    def _run(self, ask):
        import sys
        import threading

        errors = []
        barrier = threading.Barrier(self.THREADS)

        def worker(index):
            try:
                barrier.wait(30)
                ask(index)
            except BaseException as exc:  # reported by the test thread
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(self.THREADS)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        if errors:
            raise errors[0]

    def _case(self):
        grid = Grid((64, 64))
        engine = ResponseTimeEngine(get_scheme("hcam").allocate(grid, 16))
        batches = [
            _wire_bounds(grid.dims, count=20000, seed=100 + i)
            for i in range(self.THREADS)
        ]
        with use_backend("numpy"):
            want = []
            for bounds in batches:
                out = np.empty(bounds.shape[1], dtype=np.int64)
                engine.wire_response_times(bounds, out)
                want.append(out)
        return engine, batches, want

    def test_threads_sharing_one_engine_get_the_reference(
        self, compiled_only
    ):
        engine, batches, want = self._case()

        def ask(index):
            out = np.empty(len(want[index]), dtype=np.int64)
            for _ in range(self.ROUNDS):
                out[...] = -1
                engine.wire_response_times(batches[index], out)
                assert np.array_equal(out, want[index]), index

        with use_backend("cnative"):
            self._run(ask)

    def test_threads_with_their_own_prepared_calls(self, compiled_only):
        engine, batches, want = self._case()

        def ask(index):
            out = np.empty(len(want[index]), dtype=np.int64)
            answer = engine.wire_call(batches[index], out)
            for _ in range(self.ROUNDS):
                out[...] = -1
                answer()
                assert np.array_equal(out, want[index]), index

        with use_backend("cnative"):
            self._run(ask)
