"""Unit tests for :mod:`repro.core.cache` — the allocation + SAT cache."""

import numpy as np
import pytest

from repro.core.cache import (
    AllocationCache,
    global_cache,
    reset_global_cache,
)
from repro.core.engine import ResponseTimeEngine
from repro.core.evaluator import SchemeEvaluator
from repro.core.grid import Grid
from repro.core.registry import get_scheme, temporary_scheme
from repro.schemes.base import DeclusteringScheme


class TestHitsAndMisses:
    def test_hit_returns_identical_allocation(self):
        cache = AllocationCache(maxsize=8)
        grid = Grid((8, 8))
        first = cache.allocation("dm", grid, 4)
        second = cache.allocation("dm", grid, 4)
        assert second is first
        assert first == get_scheme("dm").allocate(grid, 4)
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)

    def test_distinct_triples_are_distinct_entries(self):
        cache = AllocationCache(maxsize=8)
        grid = Grid((8, 8))
        cache.allocation("dm", grid, 4)
        cache.allocation("dm", grid, 8)
        cache.allocation("fx", grid, 4)
        cache.allocation("dm", Grid((4, 4)), 4)
        assert len(cache) == 4
        assert cache.stats().misses == 4

    def test_engine_cached_and_consistent(self):
        cache = AllocationCache(maxsize=8)
        grid = Grid((8, 8))
        engine = cache.engine("dm", grid, 4)
        assert isinstance(engine, ResponseTimeEngine)
        assert cache.engine("dm", grid, 4) is engine
        assert engine.allocation is cache.allocation("dm", grid, 4)


class TestEviction:
    def test_entry_count_stays_bounded(self):
        cache = AllocationCache(maxsize=3)
        grid = Grid((8, 8))
        for disks in (2, 4, 8, 16, 32):
            cache.allocation("dm", grid, disks)
        assert len(cache) == 3
        assert cache.stats().evictions == 2

    def test_lru_order_evicts_oldest(self):
        cache = AllocationCache(maxsize=2)
        grid = Grid((8, 8))
        cache.allocation("dm", grid, 2)
        cache.allocation("dm", grid, 4)
        cache.allocation("dm", grid, 2)  # refresh M=2
        cache.allocation("dm", grid, 8)  # evicts M=4
        cache.allocation("dm", grid, 2)
        assert cache.stats().hits == 2

    def test_maxsize_must_be_positive(self):
        with pytest.raises(ValueError):
            AllocationCache(maxsize=0)

    def test_clear_preserves_counters(self):
        cache = AllocationCache(maxsize=4)
        cache.allocation("dm", Grid((4, 4)), 2)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().misses == 1


class TestReRegistrationSafety:
    def test_same_name_different_factory_misses(self):
        cache = AllocationCache(maxsize=8)
        grid = Grid((4, 4))
        with temporary_scheme("tmp-scheme", lambda: get_scheme("dm")):
            a = cache.allocation("tmp-scheme", grid, 2)
        with temporary_scheme("tmp-scheme", lambda: get_scheme("roundrobin")):
            b = cache.allocation("tmp-scheme", grid, 2)
        # Two registrations under one name must never share an entry.
        assert cache.stats().misses == 2
        assert not np.array_equal(a.table, b.table)


class TestStatsRendering:
    def test_render_mentions_counters(self):
        cache = AllocationCache(maxsize=4)
        cache.allocation("dm", Grid((4, 4)), 2)
        cache.allocation("dm", Grid((4, 4)), 2)
        text = cache.stats().render()
        assert "1 hit(s)" in text and "1 miss(es)" in text

    def test_report_dict_fields(self):
        cache = AllocationCache(maxsize=4)
        cache.allocation("dm", Grid((4, 4)), 2)
        report = cache.as_report_dict()
        assert report["misses"] == 1
        assert report["hit_rate"] == 0.0
        assert report["maxsize"] == 4

    def test_hit_rate_zero_when_unused(self):
        assert AllocationCache().stats().hit_rate == 0.0


class TestGlobalCache:
    def test_evaluators_share_the_global_cache(self):
        cache = reset_global_cache(maxsize=16)
        try:
            grid = Grid((8, 8))
            first = SchemeEvaluator(grid, 4, ["dm"]).allocation("dm")
            second = SchemeEvaluator(grid, 4, ["dm"]).allocation("dm")
            assert second is first
            assert global_cache().stats().hits == 1
        finally:
            reset_global_cache()

    def test_injected_cache_wins(self):
        private = AllocationCache(maxsize=4)
        evaluator = SchemeEvaluator(Grid((8, 8)), 4, ["dm"], cache=private)
        assert evaluator.cache is private
        evaluator.allocation("dm")
        assert private.stats().misses == 1


class _CountingScheme(DeclusteringScheme):
    """Scheme that counts allocate calls — for cache-amortization tests."""

    name = "counting"
    calls = 0

    def disk_of(self, coords, grid, num_disks):
        return sum(coords) % num_disks

    def allocate(self, grid, num_disks):
        type(self).calls += 1
        return super().allocate(grid, num_disks)


class TestAmortization:
    def test_allocation_materialized_once_across_evaluators(self):
        _CountingScheme.calls = 0
        cache = AllocationCache(maxsize=8)
        grid = Grid((4, 4))
        with temporary_scheme("counting", _CountingScheme):
            for _ in range(5):
                SchemeEvaluator(
                    grid, 2, ["counting"], cache=cache
                ).evaluate_shapes([(2, 2)])
        assert _CountingScheme.calls == 1


class TestMmapEngineMemo:
    """Spilled-SAT engines: memoized handles, rebuilds, sharing."""

    @staticmethod
    def _spill(cache, tmp_path, name="repro-sat-m.npy"):
        path = str(tmp_path / name)
        from repro.core.sat import SummedAreaTable

        SummedAreaTable.build_chunked(
            get_scheme("dm"), Grid((8, 5)), 2, path=path
        ).close()
        return path

    def test_repeat_lookup_reuses_open_handle(self, tmp_path):
        cache = AllocationCache(maxsize=4)
        path = self._spill(cache, tmp_path)
        first = cache.mmap_engine("dm", Grid((8, 5)), 2, path)
        second = cache.mmap_engine("dm", Grid((8, 5)), 2, path)
        assert second is first
        stats = cache.stats()
        assert stats.mmap_hits == 1

    def test_closed_handle_is_reopened_not_served(self, tmp_path):
        cache = AllocationCache(maxsize=4)
        path = self._spill(cache, tmp_path)
        first = cache.mmap_engine("dm", Grid((8, 5)), 2, path)
        first.sat.close()
        second = cache.mmap_engine("dm", Grid((8, 5)), 2, path)
        assert second is not first
        assert second.sat.array is not None
        assert cache.stats().mmap_hits == 0

    def test_corrupt_spill_rebuilt_in_place(self, tmp_path):
        import os

        cache = AllocationCache(maxsize=4)
        path = self._spill(cache, tmp_path)
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 64)
        engine = cache.mmap_engine("dm", Grid((8, 5)), 2, path)
        assert engine.sat.array is not None
        assert cache.stats().rebuilds == 1
        reference = ResponseTimeEngine(
            get_scheme("dm").allocate(Grid((8, 5)), 2)
        )
        assert np.array_equal(
            engine.sliding_response_times((2, 2)),
            reference.sliding_response_times((2, 2)),
        )

    def test_stats_and_report_carry_mmap_counters(self, tmp_path):
        cache = AllocationCache(maxsize=4)
        path = self._spill(cache, tmp_path)
        cache.mmap_engine("dm", Grid((8, 5)), 2, path)
        cache.mmap_engine("dm", Grid((8, 5)), 2, path)
        report = cache.as_report_dict()
        assert report["mmap_hits"] == 1


class TestEntryReportResidency:
    """Mapped-vs-resident accounting in ``entry_report``."""

    def test_resident_probe_bounds(self):
        from repro.core.cache import resident_nbytes

        empty = np.empty(0, dtype=np.int64)
        assert resident_nbytes(empty) == 0
        touched = np.arange(4096, dtype=np.int64)
        touched.sum()  # force the pages in
        resident = resident_nbytes(touched)
        if resident is None:
            pytest.skip("mincore probe unavailable on this platform")
        assert 0 <= resident <= touched.nbytes

    def test_table_rows_report_mapped_equals_resident(self):
        cache = AllocationCache(maxsize=4)
        cache.engine("dm", Grid((8, 5)), 2)
        rows = cache.entry_report()
        assert rows, "one cached entry expected"
        row = rows[0]
        assert row["kind"] == "table"
        assert row["mapped_nbytes"] >= row["table_nbytes"]
        # Fully materialized tables: no mapped/resident gap to report.
        assert row["resident_nbytes"] == row["mapped_nbytes"]

    def test_mmap_rows_appear_with_residency(self, tmp_path):
        from repro.core.sat import SummedAreaTable

        path = str(tmp_path / "repro-sat-rep.npy")
        SummedAreaTable.build_chunked(
            get_scheme("dm"), Grid((8, 5)), 2, path=path
        ).close()
        cache = AllocationCache(maxsize=4)
        cache.mmap_engine("dm", Grid((8, 5)), 2, path)
        rows = [
            row for row in cache.entry_report()
            if row["kind"] == "mmap-sat"
        ]
        assert len(rows) == 1
        row = rows[0]
        assert row["path"] == path
        assert row["mapped_nbytes"] == row["table_nbytes"] > 0
        resident = row["resident_nbytes"]
        assert resident is None or 0 <= resident <= row["mapped_nbytes"]
