"""The kernel-backend registry and its bit-identity contract.

The registry (``repro.core.backends``) resolves names to
:class:`~repro.core.backends.base.KernelBackend` instances; numpy is the
always-available reference and every other backend must match it bit for
bit on both summed-area-table kernels — the batched 2^k-corner gather
and the sliding-window sweep.  Tests
for compiled backends parametrize over whatever is available in the
environment (cnative needs a C compiler) and skip gracefully otherwise.
"""

import ctypes
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backends import (
    BACKEND_ENV,
    DEFAULT_BACKEND,
    active_backend,
    active_backend_name,
    all_backends,
    available_backends,
    get_backend,
    set_backend,
    use_backend,
)
from repro.core.backends.numpy_backend import NumpyBackend
from repro.core.cost import buckets_per_disk, response_time
from repro.core.engine import ResponseTimeEngine
from repro.core.exceptions import BackendError
from repro.core.grid import Grid
from repro.core.query import QueryBatch, RangeQuery, all_placements
from repro.core.registry import get_scheme
from repro.core.sat import SummedAreaTable

REFERENCE = NumpyBackend()

#: Non-numpy backends usable in this environment; parametrized tests
#: over this list simply do not run when only numpy is available.
NON_NUMPY = [b for b in available_backends() if b.name != "numpy"]
NON_NUMPY_IDS = [b.name for b in NON_NUMPY]


def _mixed_queries(grid):
    """Interior, boundary-clipped, zero-bucket, and whole-grid queries."""
    dims = grid.dims
    queries = [
        RangeQuery((0,) * grid.ndim, tuple(d - 1 for d in dims)),
        RangeQuery((0,) * grid.ndim, (0,) * grid.ndim),
        RangeQuery(tuple(d - 1 for d in dims), tuple(d + 3 for d in dims)),
        RangeQuery(tuple(dims), tuple(d + 1 for d in dims)),  # outside
        RangeQuery(
            tuple(d // 2 for d in dims), tuple(max(d - 1, 0) for d in dims)
        ),
    ]
    return queries


def _sat_for(scheme_name, dims, num_disks):
    grid = Grid(dims)
    allocation = get_scheme(scheme_name).allocate(grid, num_disks)
    return grid, SummedAreaTable.build(allocation)


class TestRegistry:
    def test_numpy_always_registered_and_available(self):
        backend = get_backend("numpy")
        assert backend.name == "numpy"
        assert backend.available()
        assert backend.unavailable_reason() is None

    def test_all_backends_sorted_by_name(self):
        names = [b.name for b in all_backends()]
        assert names == sorted(names)
        assert "numpy" in names and "cnative" in names

    def test_unknown_backend_raises(self):
        with pytest.raises(BackendError, match="unknown backend"):
            get_backend("does-not-exist")

    def test_default_resolution_is_numpy(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        set_backend(None)
        assert active_backend_name() == DEFAULT_BACKEND
        assert isinstance(active_backend(), NumpyBackend)

    def test_env_var_selects_backend(self, monkeypatch):
        set_backend(None)
        monkeypatch.setenv(BACKEND_ENV, "numpy")
        assert active_backend_name() == "numpy"

    def test_set_backend_overrides_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "does-not-exist")
        set_backend("numpy")
        try:
            assert active_backend_name() == "numpy"
        finally:
            set_backend(None)

    def test_set_backend_validates_eagerly(self):
        with pytest.raises(BackendError):
            set_backend("does-not-exist")
        assert active_backend_name() != "does-not-exist"

    def test_use_backend_restores_previous(self):
        before = active_backend_name()
        with use_backend("numpy") as backend:
            assert backend.name == "numpy"
            assert active_backend_name() == "numpy"
        assert active_backend_name() == before

    def test_native_is_an_unknown_backend(self):
        with pytest.raises(BackendError, match="unknown backend 'native'"):
            get_backend("native")


class TestEngineDispatch:
    def test_engine_follows_active_backend(self):
        grid, _ = _sat_for("dm", (6, 5), 3)
        allocation = get_scheme("dm").allocate(grid, 3)
        engine = ResponseTimeEngine(allocation)
        queries = _mixed_queries(grid)
        with use_backend("numpy"):
            reference = engine.batch_response_times(queries)
        for backend in NON_NUMPY:
            with use_backend(backend.name):
                assert np.array_equal(
                    engine.batch_response_times(queries), reference
                )


@pytest.mark.parametrize("backend", NON_NUMPY, ids=NON_NUMPY_IDS)
class TestBitIdentity:
    """Every compiled backend against the numpy reference."""

    CASES = [
        ("dm", (7, 5), 3),
        ("gdm", (6, 6), 4),
        ("fx", (8, 8), 4),
        ("dm", (5, 4, 3), 5),
        ("fx", (4, 4, 4), 2),
        ("hcam", (8, 8), 4),
        ("random", (3, 3, 3, 3), 3),
    ]

    @pytest.mark.parametrize("scheme,dims,m", CASES)
    def test_batch_kernels(self, backend, scheme, dims, m):
        grid, sat = _sat_for(scheme, dims, m)
        batch = QueryBatch.from_queries(_mixed_queries(grid), grid)
        assert np.array_equal(
            backend.batch_disk_counts(sat, batch.lo, batch.hi),
            REFERENCE.batch_disk_counts(sat, batch.lo, batch.hi),
        )
        assert np.array_equal(
            backend.batch_response_times(sat, batch.lo, batch.hi),
            REFERENCE.batch_response_times(sat, batch.lo, batch.hi),
        )

    @pytest.mark.parametrize("scheme,dims,m", CASES[:5])
    def test_window_kernel(self, backend, scheme, dims, m):
        grid, sat = _sat_for(scheme, dims, m)
        for shape in [
            (1,) * grid.ndim,
            tuple(min(2, d) for d in dims),
            dims,  # whole grid
        ]:
            assert np.array_equal(
                backend.window_response_times(sat, shape),
                REFERENCE.window_response_times(sat, shape),
            )

    def test_zero_query_batch(self, backend):
        grid, sat = _sat_for("dm", (4, 4), 2)
        lo = np.zeros((0, 2), dtype=np.int64)
        hi = np.zeros((0, 2), dtype=np.int64)
        assert backend.batch_response_times(sat, lo, hi).shape == (0,)


# ---------------------------------------------------------------------
# Property sweep: backends x schemes x {2-D, 3-D} grids
# ---------------------------------------------------------------------

_dims_2d = st.tuples(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=2, max_value=8),
)
_dims_3d = st.tuples(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=2, max_value=5),
)
_pow2_dims = st.sampled_from([(4, 4), (8, 4), (2, 8), (4, 4, 4), (8, 2, 4)])


@st.composite
def _backend_case(draw):
    """A (scheme, grid, M, queries) tuple every backend must agree on.

    dm/gdm apply to arbitrary grids; fx needs power-of-two extents, so
    its grids are drawn from a fixed power-of-two pool.
    """
    scheme_name = draw(st.sampled_from(["dm", "gdm", "fx", "random"]))
    if scheme_name == "fx":
        dims = draw(_pow2_dims)
    else:
        dims = draw(st.one_of(_dims_2d, _dims_3d))
    num_disks = draw(st.integers(min_value=1, max_value=6))
    grid = Grid(dims)
    queries = list(_mixed_queries(grid))
    lower = tuple(draw(st.integers(0, d - 1)) for d in dims)
    upper = tuple(
        draw(st.integers(lo, d + 1)) for lo, d in zip(lower, dims)
    )
    queries.append(RangeQuery(lower, upper))
    return scheme_name, grid, num_disks, queries


@pytest.mark.parametrize(
    "backend", available_backends(), ids=lambda b: b.name
)
@settings(max_examples=25, deadline=None)
@given(case=_backend_case(), mapped=st.booleans())
def test_property_backend_bit_identity(backend, case, mapped):
    """Every backend, in-RAM or mapped table, equals the scalar oracle."""
    scheme_name, grid, num_disks, queries = case
    scheme = get_scheme(scheme_name)
    allocation = scheme.allocate(grid, num_disks)
    assert np.array_equal(
        allocation.table, scheme.allocate(grid, num_disks).table
    )
    batch = QueryBatch.from_queries(queries, grid)
    with tempfile.TemporaryDirectory() as tmp:
        if mapped:
            # A tiny budget spreads even small grids over several tiles.
            sat = SummedAreaTable.build_chunked(
                scheme, grid, num_disks, byte_budget=256,
                path=os.path.join(tmp, "sat.npy"),
            )
        else:
            sat = SummedAreaTable.build(allocation)
        try:
            times = backend.batch_response_times(sat, batch.lo, batch.hi)
            counts = backend.batch_disk_counts(sat, batch.lo, batch.hi)
        finally:
            sat.close()
    assert times.tolist() == [response_time(allocation, q) for q in queries]
    assert counts.tolist() == [
        buckets_per_disk(allocation, q).tolist() for q in queries
    ]


@settings(max_examples=25, deadline=None)
@given(case=_backend_case())
def test_property_disk_array_block_consistency(case):
    """disk_array_block tiles reassemble the full disk_array exactly."""
    scheme_name, grid, num_disks, _ = case
    scheme = get_scheme(scheme_name)
    full = scheme.disk_array(grid, num_disks)
    rows = grid.dims[0]
    for step in (1, 2, rows):
        blocks = [
            scheme.disk_array_block(
                grid, num_disks, start, min(start + step, rows)
            )
            for start in range(0, rows, step)
        ]
        assert np.array_equal(np.concatenate(blocks, axis=0), full)


class TestBackendIndependentCache:
    def test_one_entry_serves_every_backend(self):
        from repro.core.cache import AllocationCache

        cache = AllocationCache()
        grid = Grid((6, 6))
        queries = [RangeQuery((0, 0), (2, 3)), RangeQuery((1, 2), (5, 5))]
        with use_backend("numpy"):
            engine = cache.engine("dm", grid, 3)
            expected = engine.batch_response_times(queries)
            window = engine.sliding_response_times((2, 3))
        assert cache.stats().misses == 1
        for backend in NON_NUMPY:
            with use_backend(backend.name):
                shared = cache.engine("dm", grid, 3)
                assert shared is engine
                assert np.array_equal(
                    shared.batch_response_times(queries), expected
                )
                assert np.array_equal(
                    shared.sliding_response_times((2, 3)), window
                )
        assert cache.stats().misses == 1
        assert len(cache) == 1


class TestLargeDiskCount:
    """M above any fixed accumulator size still runs the C kernels."""

    DIMS = (5, 4)
    DISKS = 5000

    @pytest.fixture
    def cnative(self, monkeypatch):
        backend = get_backend("cnative")
        if not backend.available():
            pytest.skip(backend.unavailable_reason())

        def refuse(*args, **kwargs):
            raise AssertionError("cnative delegated to the numpy reference")

        for name in (
            "batch_disk_counts",
            "batch_response_times",
            "window_response_times",
        ):
            monkeypatch.setattr(backend._reference, name, refuse)
        return backend

    def _sats(self, tmp_path):
        grid = Grid(self.DIMS)
        scheme = get_scheme("random")
        in_ram = SummedAreaTable.build(scheme.allocate(grid, self.DISKS))
        mapped = SummedAreaTable.build_chunked(
            scheme, grid, self.DISKS, byte_budget=1 << 16,
            path=tmp_path / "sat.npy",
        )
        return grid, in_ram, mapped

    def test_in_ram_and_mapped_match_numpy(self, cnative, tmp_path):
        from repro.obs.metrics import global_registry

        grid, in_ram, mapped = self._sats(tmp_path)
        batch = QueryBatch.from_queries(_mixed_queries(grid), grid)
        want_counts = REFERENCE.batch_disk_counts(in_ram, batch.lo, batch.hi)
        want_rts = REFERENCE.batch_response_times(
            in_ram, batch.lo, batch.hi
        )
        want_windows = REFERENCE.window_response_times(in_ram, (2, 3))
        fallbacks = global_registry().counter("backend.reference_fallbacks")
        try:
            for sat in (in_ram, mapped):
                assert np.array_equal(
                    cnative.batch_disk_counts(sat, batch.lo, batch.hi),
                    want_counts,
                )
                assert np.array_equal(
                    cnative.batch_response_times(sat, batch.lo, batch.hi),
                    want_rts,
                )
                assert np.array_equal(
                    cnative.window_response_times(sat, (2, 3)),
                    want_windows,
                )
        finally:
            mapped.close()
        assert (
            global_registry().counter("backend.reference_fallbacks")
            == fallbacks
        )


class TestPreparedCalls:
    """cnative's per-table call arguments, and the bounds it accepts."""

    GRID = Grid((12, 9))
    DISKS = 5

    @pytest.fixture
    def cnative(self, monkeypatch):
        backend = get_backend("cnative")
        if not backend.available():
            pytest.skip(backend.unavailable_reason())

        def refuse(*args, **kwargs):
            raise AssertionError("cnative delegated to the numpy reference")

        for name in ("batch_disk_counts", "batch_response_times"):
            monkeypatch.setattr(backend._reference, name, refuse)
        return backend

    def _batch(self):
        rng = np.random.default_rng(17)
        queries = _mixed_queries(self.GRID)
        for _ in range(40):
            lower = [int(rng.integers(0, d)) for d in self.GRID.dims]
            queries.append(RangeQuery(
                lower, [c + int(rng.integers(0, 6)) for c in lower]
            ))
        return QueryBatch.from_queries(queries, self.GRID)

    @staticmethod
    def _layouts(bounds):
        """The same values as read-only, unaligned and strided arrays."""
        read_only = bounds.copy()
        read_only.setflags(write=False)
        raw = bytearray(bounds.nbytes + 1)
        unaligned = np.frombuffer(
            raw, dtype=np.int64, count=bounds.size, offset=1
        ).reshape(bounds.shape)
        unaligned[...] = bounds
        assert not unaligned.flags.aligned
        wide = np.zeros((bounds.shape[0], 2 * bounds.shape[1]), np.int64)
        wide[:, ::2] = bounds
        strided = wide[:, ::2]
        assert not strided.flags.c_contiguous
        return {
            "read-only": read_only,
            "unaligned": unaligned,
            "strided": strided,
            "fortran": np.asfortranarray(bounds),
            "int32": bounds.astype(np.int32),
        }

    def test_bounds_layouts_match_numpy(self, cnative):
        sat = SummedAreaTable.build(
            get_scheme("hcam").allocate(self.GRID, self.DISKS)
        )
        batch = self._batch()
        want_rts = NumpyBackend().batch_response_times(
            sat, batch.lo, batch.hi
        )
        want_counts = NumpyBackend().batch_disk_counts(
            sat, batch.lo, batch.hi
        )
        los, his = self._layouts(batch.lo), self._layouts(batch.hi)
        for name in los:
            lo, hi = los[name], his[name]
            assert np.array_equal(
                cnative.batch_response_times(sat, lo, hi), want_rts
            ), name
            assert np.array_equal(
                cnative.batch_disk_counts(sat, lo, hi), want_counts
            ), name
            assert np.array_equal(lo, batch.lo), name  # never written

    def test_call_arguments_are_computed_once(self):
        sat = SummedAreaTable.build(
            get_scheme("dm").allocate(self.GRID, self.DISKS)
        )
        assert sat.data_address == sat.array.ctypes.data
        strides = (ctypes.c_int64 * 2).from_address(sat.strides_address)
        assert list(strides) == [10 * self.DISKS, self.DISKS]

    def test_disk_axis_view_takes_the_reference_path(self):
        # A table whose disk axis is not contiguous has no kernel call
        # arguments; cnative answers it through the numpy reference.
        cnative = get_backend("cnative")
        allocation = get_scheme("fx").allocate(self.GRID, self.DISKS)
        sat = SummedAreaTable.build(allocation)
        view = SummedAreaTable(
            np.asfortranarray(sat.array), self.GRID, self.DISKS
        )
        assert view.data_address is None
        batch = self._batch()
        assert np.array_equal(
            cnative.batch_response_times(view, batch.lo, batch.hi),
            REFERENCE.batch_response_times(sat, batch.lo, batch.hi),
        )

    def test_mapped_table_closed_and_reopened(self, cnative, tmp_path):
        scheme = get_scheme("ecc")
        grid = Grid((16, 8))
        path = tmp_path / "sat.npy"
        want_sat = SummedAreaTable.build(scheme.allocate(grid, 4))
        batch = QueryBatch.from_queries(_mixed_queries(grid), grid)
        want = REFERENCE.batch_response_times(want_sat, batch.lo, batch.hi)
        sat = SummedAreaTable.build_chunked(
            scheme, grid, 4, byte_budget=512, path=path
        )
        for _ in range(3):
            assert np.array_equal(
                cnative.batch_response_times(sat, batch.lo, batch.hi), want
            )
            sat.close()
            assert sat.array is None
            assert sat.data_address is None
            assert sat.strides_address is None
            sat = SummedAreaTable.open_mmap(path)
        sat.close()


class TestWindowAccumulator:
    """The numpy sweep accumulates in the SAT dtype; wraparound is exact."""

    def test_int32_partial_sums_wrap_but_counts_are_exact(self):
        grid = Grid((7, 6))
        allocation = get_scheme("dm").allocate(grid, 3)
        sat = SummedAreaTable.build(allocation)
        assert sat.dtype == np.int32
        # Add +-2e9 by leading-axis parity.  A term that depends on one
        # axis only cancels in every window's inclusion-exclusion, but
        # an odd-height window's first two corners (+2e9 minus -2e9)
        # overflow int32 on the way.
        offset = np.where(
            np.arange(grid.dims[0] + 1) % 2 == 1, 2_000_000_000,
            -2_000_000_000,
        ).astype(np.int32)
        skewed = (sat.array + offset[:, np.newaxis, np.newaxis]).astype(
            np.int32
        )
        assert int(skewed.max()) + 2_000_000_000 > np.iinfo(np.int32).max
        wrapped = SummedAreaTable(skewed, grid, 3)
        for shape in [(1, 1), (3, 2), (5, 6), (7, 6)]:
            assert np.array_equal(
                REFERENCE._window_counts(wrapped, shape),
                REFERENCE._window_counts(sat, shape),
            )
            times = REFERENCE.window_response_times(wrapped, shape)
            for query in all_placements(grid, shape):
                assert times[tuple(query.lower)] == response_time(
                    allocation, query
                )


class TestCNativeCompileCache:
    def test_compile_cache_is_reused(self, monkeypatch, tmp_path):
        cnative = get_backend("cnative")
        if not cnative.available():
            pytest.skip(cnative.unavailable_reason())
        from repro.core.backends.native import CNativeBackend

        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        first = CNativeBackend()
        assert first.available()
        libraries = list(tmp_path.glob("*.so"))
        assert len(libraries) == 1
        mtime = libraries[0].stat().st_mtime_ns
        second = CNativeBackend()
        assert second.available()
        assert libraries[0].stat().st_mtime_ns == mtime


@pytest.fixture(autouse=True)
def _reset_active_backend():
    yield
    set_backend(None)
    os.environ.pop(BACKEND_ENV, None)
