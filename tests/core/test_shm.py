"""Tests for zero-copy allocation sharing (:mod:`repro.core.shm`)."""

import numpy as np
import pytest

from repro.core import shm
from repro.core.allocation import DiskAllocation, table_dtype
from repro.core.cache import AllocationCache
from repro.core.grid import Grid
from repro.core.registry import get_scheme


@pytest.fixture
def arena():
    arena = shm.SharedAllocationArena.try_create()
    if arena is None:
        pytest.skip("shared memory / managers unavailable here")
    yield arena
    arena.close()
    shm.detach_all()


@pytest.fixture
def allocation() -> DiskAllocation:
    return get_scheme("hcam").allocate(Grid((8, 8)), 5)


class TestShareAttach:
    def test_round_trip_is_bit_identical(self, allocation):
        handle = shm.share_allocation(allocation)
        try:
            attached = shm.attach_allocation(handle)
            assert np.array_equal(attached.table, allocation.table)
            assert attached.table.dtype == table_dtype(5)
            assert attached.grid.dims == allocation.grid.dims
            assert attached.num_disks == allocation.num_disks
        finally:
            del attached
            assert shm.unlink_segment(handle.name)

    def test_attached_table_is_read_only_view(self, allocation):
        handle = shm.share_allocation(allocation)
        try:
            attached = shm.attach_allocation(handle)
            assert not attached.table.flags.writeable
            assert not attached.table.flags.owndata
        finally:
            del attached
            shm.unlink_segment(handle.name)

    def test_handle_reports_table_bytes(self, allocation):
        handle = shm.share_allocation(allocation)
        try:
            assert handle.nbytes == allocation.nbytes == 64
        finally:
            shm.unlink_segment(handle.name)

    def test_attach_missing_segment_raises(self):
        handle = shm.SharedTableHandle(
            name="repro-shm-test-nonexistent", dims=(4, 4), num_disks=2
        )
        with pytest.raises(FileNotFoundError):
            shm.attach_allocation(handle)

    def test_unlink_missing_segment_is_false(self):
        assert not shm.unlink_segment("repro-shm-test-nonexistent")

    def test_segments_show_up_as_strays_until_unlinked(self, allocation):
        handle = shm.share_allocation(allocation)
        try:
            assert handle.name in shm.stray_segments()
        finally:
            shm.unlink_segment(handle.name)
        assert handle.name not in shm.stray_segments()


class TestBroker:
    def test_get_before_publish_is_none(self, arena):
        assert arena.broker.get("dm", Grid((4, 4)), 2) is None

    def test_publish_then_get(self, arena, allocation):
        grid = allocation.grid
        published = arena.broker.publish("hcam", grid, 5, allocation)
        assert np.array_equal(published.table, allocation.table)
        fetched = arena.broker.get("hcam", grid, 5)
        assert fetched is not None
        assert np.array_equal(fetched.table, allocation.table)

    def test_keys_are_per_configuration(self, arena, allocation):
        grid = allocation.grid
        arena.broker.publish("hcam", grid, 5, allocation)
        assert arena.broker.get("hcam", grid, 4) is None
        assert arena.broker.get("dm", grid, 5) is None
        assert arena.broker.get("hcam", Grid((8, 4)), 5) is None

    def test_duplicate_publish_keeps_first_and_unlinks_loser(
        self, arena, allocation
    ):
        grid = allocation.grid
        first = arena.broker.publish("hcam", grid, 5, allocation)
        names_after_first = set(shm.stray_segments())
        second = arena.broker.publish("hcam", grid, 5, allocation)
        assert np.array_equal(first.table, second.table)
        # The loser's duplicate segment did not survive.
        assert set(shm.stray_segments()) == names_after_first

    def test_close_unlinks_everything(self, allocation):
        arena = shm.SharedAllocationArena.try_create()
        if arena is None:
            pytest.skip("shared memory / managers unavailable here")
        arena.broker.publish("hcam", allocation.grid, 5, allocation)
        names = arena.broker.segment_names()
        assert names
        shm.detach_all()
        arena.close()
        for name in names:
            assert name not in shm.stray_segments()
        # close is idempotent.
        arena.close()


class TestCacheIntegration:
    def test_miss_publishes_then_peer_attaches(self, arena):
        grid = Grid((8, 8))
        first = AllocationCache(broker=arena.broker)
        second = AllocationCache(broker=arena.broker)
        built = first.allocation("fx", grid, 4)
        attached = second.allocation("fx", grid, 4)
        assert np.array_equal(built.table, attached.table)
        assert first.stats().publishes == 1
        assert first.stats().shared_hits == 0
        assert second.stats().shared_hits == 1
        assert second.stats().publishes == 0
        # Both entries report shared residency.
        assert all(
            entry["shared"] for entry in first.entry_report()
        )
        assert all(
            entry["shared"] for entry in second.entry_report()
        )

    def test_shared_table_matches_direct_allocate(self, arena):
        grid = Grid((8, 8))
        cache = AllocationCache(broker=arena.broker)
        via_cache = cache.allocation("ecc", grid, 4)
        direct = get_scheme("ecc").allocate(grid, 4)
        assert np.array_equal(via_cache.table, direct.table)

    def test_engine_builds_on_shared_table(self, arena):
        grid = Grid((8, 8))
        cache = AllocationCache(broker=arena.broker)
        engine = cache.engine("dm", grid, 4)
        reference = get_scheme("dm").allocate(grid, 4)
        ref_engine_times = engine.sliding_response_times((2, 2))
        from repro.core.cost import sliding_response_times

        assert np.array_equal(
            ref_engine_times, sliding_response_times(reference, (2, 2))
        )
        (entry,) = cache.entry_report()
        assert entry["engine_built"]
        assert isinstance(entry["engine_nbytes"], int)
        assert entry["engine_nbytes"] > 0

    def test_without_broker_nothing_is_shared(self):
        cache = AllocationCache()
        cache.allocation("dm", Grid((4, 4)), 2)
        stats = cache.stats()
        assert stats.shared_hits == 0
        assert stats.publishes == 0
        assert not any(
            entry["shared"] for entry in cache.entry_report()
        )

    def test_render_mentions_sharing_only_when_used(self, arena):
        plain = AllocationCache()
        plain.allocation("dm", Grid((4, 4)), 2)
        assert "shared" not in plain.stats().render()
        shared = AllocationCache(broker=arena.broker)
        shared.allocation("dm", Grid((4, 4)), 2)
        assert "publish(es)" in shared.stats().render()


class _ExplodingRegistry(dict):
    """A broker registry whose manager connection is gone."""

    def setdefault(self, key, value):  # noqa: ARG002
        raise ConnectionRefusedError("manager process is gone")


class _DeadManager:
    def shutdown(self):
        raise OSError("manager already dead")


@pytest.fixture
def obs_registry():
    from repro.obs.metrics import reset_global_registry

    registry = reset_global_registry()
    yield registry
    reset_global_registry()


class TestObservableFailures:
    """Regression: shm failure swallows are logged and counted.

    ``broker.publish`` falling back to a private table and
    ``SharedAllocationArena.try_create`` returning None used to be
    silent ``except Exception: pass`` blocks — invisible both to logs
    and to metrics.  They now route through :mod:`repro.obs`.
    """

    def test_publish_fallback_logged_and_counted(
        self, allocation, obs_registry, caplog
    ):
        import logging

        broker = shm.SharedAllocationBroker(
            _ExplodingRegistry(), [],
            prefix=f"{shm.SHM_NAME_PREFIX}-obstest-{id(self)}",
        )
        try:
            with caplog.at_level(logging.WARNING, logger="repro.core.shm"):
                published = broker.publish(
                    "hcam", allocation.grid, 5, allocation
                )
            # The private allocation is the documented fallback result.
            assert published is allocation
            assert obs_registry.counter("shm.publish_fallbacks") == 1
            assert any(
                "fell back to a private table" in record.message
                for record in caplog.records
            )
        finally:
            broker.unlink_all()
            shm.detach_all()

    def test_arena_failure_logged_and_counted(
        self, obs_registry, monkeypatch, caplog
    ):
        import logging
        import multiprocessing

        def refuse():
            raise RuntimeError("no managers on this platform")

        monkeypatch.setattr(multiprocessing, "Manager", refuse)
        with caplog.at_level(logging.WARNING, logger="repro.core.shm"):
            arena = shm.SharedAllocationArena.try_create()
        assert arena is None
        assert obs_registry.counter("shm.arena_failures") == 1
        assert "arena unavailable" in caplog.text

    def test_teardown_error_logged_counted_once(
        self, obs_registry, caplog
    ):
        import logging

        broker = shm.SharedAllocationBroker(
            {}, [], prefix=f"{shm.SHM_NAME_PREFIX}-obstest-{id(self)}"
        )
        arena = shm.SharedAllocationArena(_DeadManager(), broker)
        with caplog.at_level(logging.WARNING, logger="repro.core.shm"):
            arena.close()
        assert obs_registry.counter("shm.teardown_errors") == 1
        assert "manager shutdown failed" in caplog.text
        arena.close()  # idempotent: the dead manager is not re-counted
        assert obs_registry.counter("shm.teardown_errors") == 1


def _spill_sat(tmp_path, name="repro-sat-h.npy"):
    from repro.core.sat import SummedAreaTable

    path = str(tmp_path / name)
    SummedAreaTable.build_chunked(
        get_scheme("dm"), Grid((8, 5)), 2, path=path
    ).close()
    return path


class TestSpilledSatSharing:
    def test_handle_attach_round_trip(self, tmp_path):
        path = _spill_sat(tmp_path)
        handle = shm.MmapSatHandle(path=path)
        sat = handle.attach()
        try:
            assert sat.is_mmap
            assert handle.nbytes == sat.array.nbytes or handle.nbytes > 0
        finally:
            sat.close()
        engine = handle.attach_engine()
        try:
            assert engine.sat.is_mmap
        finally:
            engine.sat.close()

    def test_get_before_publish_is_none(self, arena, tmp_path):
        assert arena.broker.get_sat("dm", Grid((8, 5)), 2) is None

    def test_publish_then_get(self, arena, tmp_path):
        path = _spill_sat(tmp_path)
        published = arena.broker.publish_sat("dm", Grid((8, 5)), 2, path)
        assert published.path == path
        fetched = arena.broker.get_sat("dm", Grid((8, 5)), 2)
        assert fetched is not None
        assert fetched.path == path
        # Distinct triples stay distinct.
        assert arena.broker.get_sat("dm", Grid((8, 5)), 3) is None

    def test_first_writer_wins(self, arena, tmp_path):
        first = _spill_sat(tmp_path, "repro-sat-a.npy")
        second = _spill_sat(tmp_path, "repro-sat-b.npy")
        arena.broker.publish_sat("dm", Grid((8, 5)), 2, first)
        winner = arena.broker.publish_sat("dm", Grid((8, 5)), 2, second)
        assert winner.path == first

    def test_deleted_backing_file_is_a_miss(self, arena, tmp_path):
        import os

        path = _spill_sat(tmp_path)
        arena.broker.publish_sat("dm", Grid((8, 5)), 2, path)
        os.unlink(path)
        assert arena.broker.get_sat("dm", Grid((8, 5)), 2) is None

    def test_publish_counter_increments(self, arena, tmp_path):
        from repro.obs.metrics import global_registry

        before = global_registry().aggregate_counters().get(
            "shm.sat_publishes", 0
        )
        arena.broker.publish_sat(
            "dm", Grid((8, 5)), 2, _spill_sat(tmp_path)
        )
        after = global_registry().aggregate_counters().get(
            "shm.sat_publishes", 0
        )
        assert after == before + 1


class TestSpilledSatCacheIntegration:
    def test_peer_cache_attaches_published_engine(self, arena, tmp_path):
        grid = Grid((8, 5))
        path = _spill_sat(tmp_path)
        first = AllocationCache(broker=arena.broker)
        second = AllocationCache(broker=arena.broker)
        built = first.mmap_engine("dm", grid, 2, path)
        shared = second.shared_mmap_engine("dm", grid, 2)
        assert shared is not None
        assert np.array_equal(
            built.sliding_response_times((2, 2)),
            shared.sliding_response_times((2, 2)),
        )
        assert first.stats().mmap_shared_hits == 0
        assert second.stats().mmap_shared_hits == 1
        # A repeat shared lookup is a plain memo hit.
        again = second.shared_mmap_engine("dm", grid, 2)
        assert again is shared
        assert second.stats().mmap_hits == 1

    def test_unpublished_triple_returns_none(self, arena):
        cache = AllocationCache(broker=arena.broker)
        assert cache.shared_mmap_engine("dm", Grid((9, 9)), 2) is None


class TestAttachFaultAtCache:
    """An ``shm.attach`` failure degrades the cache to a private table."""

    def test_injected_fault_rebuilds_privately_and_counts(
        self, arena, monkeypatch
    ):
        from repro.core.cache import global_cache, reset_global_cache
        from repro.faults.io import IO_FAULTS_ENV, IO_FAULTS_STATE_ENV
        from repro.obs.metrics import global_registry

        grid = Grid((8, 8))
        reference = get_scheme("hcam").allocate(grid, 5)
        arena.broker.publish("hcam", grid, 5, reference)
        # Drop this process's mapping so the cache must attach afresh.
        shm.detach_all()
        reset_global_cache()
        global_cache().set_broker(arena.broker)
        monkeypatch.delenv(IO_FAULTS_STATE_ENV, raising=False)
        monkeypatch.setenv(IO_FAULTS_ENV, "shm.attach")
        before = global_registry().counter("shm.attach_faults")
        try:
            rebuilt = global_cache().allocation("hcam", grid, 5)
            assert np.array_equal(rebuilt.table, reference.table)
            assert rebuilt.table.flags.owndata  # private, not a view
            (entry,) = global_cache().entry_report()
            assert entry["shared"] is False
            assert global_cache().stats().shared_hits == 0
            # One failed attach on the lookup, one on the re-publish.
            assert global_registry().counter("shm.attach_faults") >= (
                before + 1
            )
        finally:
            monkeypatch.delenv(IO_FAULTS_ENV, raising=False)
            reset_global_cache()


class TestServerSegments:
    def test_owner_pid_parses_only_explicit_srv_tags(self):
        prefix = shm.SHM_NAME_PREFIX
        assert shm.segment_owner_pid(f"{prefix}-srv1234-abcd") == 1234
        assert shm.segment_owner_pid(f"{prefix}-abcd1234") is None
        # A name that merely contains digits is not an owner tag.
        assert shm.segment_owner_pid(f"{prefix}-crashed-999") is None

    def test_server_prefix_carries_pid(self):
        import os

        assert shm.server_segment_prefix().endswith(f"srv{os.getpid()}")
        assert shm.server_segment_prefix(42).endswith("srv42")

    def test_reap_collects_dead_owner_spares_live(self):
        import os
        from multiprocessing import shared_memory

        try:
            dead = shared_memory.SharedMemory(
                name=f"{shm.SHM_NAME_PREFIX}-srv999999-reaptest",
                create=True,
                size=64,
            )
            live = shared_memory.SharedMemory(
                name=f"{shm.SHM_NAME_PREFIX}-srv{os.getpid()}-reaptest",
                create=True,
                size=64,
            )
        except (OSError, FileNotFoundError):
            pytest.skip("shared memory unavailable here")
        try:
            reaped = shm.reap_stale_server_segments()
            assert dead.name.lstrip("/") in [
                name.lstrip("/") for name in reaped
            ]
            # The live server's segment must survive the sweep.
            survivor = shared_memory.SharedMemory(name=live.name)
            survivor.close()
        finally:
            dead.close()
            live.close()
            try:
                live.unlink()
            except FileNotFoundError:
                pass
            try:
                dead.unlink()
            except FileNotFoundError:
                pass

    def test_server_owned_arena_close_is_idempotent(self):
        arena = shm.SharedAllocationArena.try_create(server_owned=True)
        if arena is None:
            pytest.skip("shared memory / managers unavailable here")
        cache = AllocationCache(broker=arena.broker)
        cache.allocation("hcam", Grid((8, 8)), 5)
        assert arena.broker.segment_names()
        arena.close()
        arena.close()  # second teardown is a no-op, not an error
        assert shm.stray_segments(arena._prefix) == []
