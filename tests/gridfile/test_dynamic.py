"""Unit and integration tests for the dynamic grid file."""

import zlib

import numpy as np
import pytest

from repro.core.exceptions import GridFileError
from repro.gridfile.dynamic import DynamicGridFile
from repro.workloads.datasets import gaussian_dataset, uniform_dataset


def make_file(**kwargs) -> DynamicGridFile:
    defaults = {
        "domains": [(0.0, 1.0), (0.0, 1.0)],
        "num_disks": 4,
        "scheme": "hcam",
        "bucket_capacity": 8,
    }
    defaults.update(kwargs)
    return DynamicGridFile(**defaults)


class TestConstruction:
    def test_starts_as_single_bucket(self):
        gf = make_file()
        assert gf.grid.dims == (1, 1)
        assert gf.num_records == 0

    def test_invalid_domain_rejected(self):
        with pytest.raises(GridFileError):
            make_file(domains=[(1.0, 1.0), (0.0, 1.0)])

    def test_no_domains_rejected(self):
        with pytest.raises(GridFileError):
            make_file(domains=[])

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(GridFileError):
            make_file(bucket_capacity=0)


class TestInsertion:
    def test_insert_returns_bucket(self):
        gf = make_file()
        coords = gf.insert((0.3, 0.7))
        assert coords == (0, 0)
        assert gf.num_records == 1

    def test_record_out_of_domain_rejected(self):
        gf = make_file()
        with pytest.raises(GridFileError):
            gf.insert((1.5, 0.5))

    def test_wrong_arity_rejected(self):
        gf = make_file()
        with pytest.raises(GridFileError):
            gf.insert((0.5,))

    def test_capacity_triggers_split(self):
        gf = make_file(bucket_capacity=4)
        rng = np.random.default_rng(1)
        for _ in range(5):
            gf.insert(rng.uniform(0, 1, size=2))
        assert gf.stats()["num_splits"] >= 1
        assert gf.grid.num_buckets >= 2

    def test_no_bucket_exceeds_capacity_on_distinct_data(self):
        gf = make_file(bucket_capacity=8)
        data = uniform_dataset(400, 2, seed=3)
        gf.insert_many(data.values)
        assert gf.bucket_occupancy().max() <= 8

    def test_occupancy_sums_to_records(self):
        gf = make_file()
        data = uniform_dataset(200, 2, seed=4)
        gf.insert_many(data.values)
        assert gf.bucket_occupancy().sum() == 200
        assert gf.records_per_disk().sum() == 200

    def test_duplicate_heavy_data_allows_overflow(self):
        # All-identical records cannot be separated by any boundary; the
        # file must degrade gracefully (overflow) instead of looping.
        gf = make_file(bucket_capacity=2)
        for _ in range(10):
            gf.insert((0.5, 0.5))
        assert gf.num_records == 10

    def test_records_stay_findable_across_splits(self):
        gf = make_file(bucket_capacity=4)
        rng = np.random.default_rng(7)
        records = rng.uniform(0, 1, size=(100, 2))
        gf.insert_many(records)
        occupancy = gf.bucket_occupancy()
        # Re-derive each record's bucket; it must hold a record.
        for record in records[:20]:
            coords = gf.bucket_of(record)
            assert occupancy[coords] > 0

    def test_skewed_data_splits_the_hot_region(self):
        gf = make_file(bucket_capacity=8)
        data = gaussian_dataset(600, 2, mean=0.5, std=0.08, seed=5)
        gf.insert_many(data.values)
        partitioners = gf.partitioners()
        # Median splits concentrate boundaries around the hot spot.
        centre_widths = []
        edge_widths = []
        for p in partitioners:
            widths = np.diff(p.boundaries)
            centre_widths.append(
                widths[p.partition_of(0.5)]
            )
            edge_widths.append(widths[0])
        assert np.mean(centre_widths) < np.mean(edge_widths)


class TestQueries:
    @pytest.fixture
    def loaded(self):
        gf = make_file(num_disks=8, bucket_capacity=8)
        gf.insert_many(uniform_dataset(500, 2, seed=9).values)
        return gf

    def test_range_query_translation(self, loaded):
        query = loaded.range_query([(0.0, 0.5), (0.0, 0.5)])
        assert query.fits_in(loaded.grid)

    def test_execute_is_consistent_with_core_model(self, loaded):
        from repro.core.cost import response_time

        query = loaded.range_query([(0.1, 0.6), (0.2, 0.7)])
        execution = loaded.execute(query)
        assert execution.response_time == response_time(
            loaded.allocation, query
        )
        assert execution.response_time >= execution.optimal

    def test_range_arity_rejected(self, loaded):
        with pytest.raises(GridFileError):
            loaded.range_query([(0.0, 1.0)])


class TestMigrationAccounting:
    def test_counters_start_at_zero(self):
        gf = make_file()
        stats = gf.stats()
        assert stats["buckets_migrated"] == 0
        assert stats["records_migrated"] == 0

    def test_splits_cause_migrations(self):
        gf = make_file(bucket_capacity=4, scheme="dm", num_disks=4)
        gf.insert_many(uniform_dataset(200, 2, seed=11).values)
        stats = gf.stats()
        assert stats["num_splits"] > 0
        assert stats["buckets_migrated"] > 0

    def test_migration_counts_are_scheme_dependent(self):
        data = uniform_dataset(600, 2, seed=13)
        migrated = {}
        for scheme in ("dm", "hcam"):
            gf = make_file(
                bucket_capacity=8, scheme=scheme, num_disks=8
            )
            gf.insert_many(data.values)
            migrated[scheme] = gf.stats()["records_migrated"]
        # Identical data and split sequence; only the scheme differs.
        assert migrated["dm"] != migrated["hcam"]

    def test_three_attributes_supported(self):
        gf = DynamicGridFile(
            [(0.0, 1.0)] * 3, num_disks=4, bucket_capacity=8
        )
        gf.insert_many(uniform_dataset(300, 3, seed=15).values)
        assert gf.grid.ndim == 3
        assert gf.bucket_occupancy().sum() == 300


# -- differential oracle -------------------------------------------------


class ScalarGridFile:
    """The original per-record / per-bucket grid file, as an oracle.

    Records live in a dict of per-bucket lists; every split re-buckets
    them one at a time and prices migration by re-locating each record
    and each new bucket centre under the pre-split boundaries.  Slow
    and obviously correct: :class:`DynamicGridFile` must match it
    counter for counter.
    """

    def __init__(self, domains, num_disks, scheme, bucket_capacity):
        from repro.core.registry import get_scheme

        self.domains = [(float(lo), float(hi)) for lo, hi in domains]
        self.boundaries = [[lo, hi] for lo, hi in self.domains]
        self.scheme = get_scheme(scheme)
        self.num_disks = num_disks
        self.capacity = bucket_capacity
        self.records = {}
        self.counters = dict.fromkeys(
            ("num_records", "num_splits", "buckets_migrated",
             "records_migrated"), 0,
        )
        self.allocation = self.scheme.allocate(self.grid, num_disks)

    @property
    def grid(self):
        from repro.core.grid import Grid

        return Grid(tuple(len(b) - 1 for b in self.boundaries))

    @staticmethod
    def locate(boundaries, values):
        return tuple(
            min(max(int(np.searchsorted(b, v, side="right")) - 1, 0),
                len(b) - 2)
            for b, v in zip(boundaries, values)
        )

    def insert(self, record):
        record = np.asarray(record, dtype=np.float64)
        coords = self.locate(self.boundaries, record)
        self.records.setdefault(coords, []).append(record)
        self.counters["num_records"] += 1
        while len(self.records.get(coords, ())) > self.capacity:
            if not self.split(coords):
                break
            coords = self.locate(self.boundaries, record)
        return coords

    def split(self, coords):
        relative = [
            (self.boundaries[a][c + 1] - self.boundaries[a][c])
            / (self.domains[a][1] - self.domains[a][0])
            for a, c in enumerate(coords)
        ]
        axis = int(np.argmax(relative))
        cell = coords[axis]
        low, high = self.boundaries[axis][cell : cell + 2]
        cut = float(np.median([r[axis] for r in self.records[coords]]))
        if not low < cut < high:
            cut = (low + high) / 2.0
        if not low < cut < high:
            return False
        old_boundaries = [list(b) for b in self.boundaries]
        old_allocation = self.allocation
        self.boundaries[axis].insert(cell + 1, cut)
        self.counters["num_splits"] += 1
        moved = {}
        for bucket in self.records.values():
            for record in bucket:
                key = self.locate(self.boundaries, record)
                moved.setdefault(key, []).append(record)
        self.records = moved
        self.allocation = self.scheme.allocate(self.grid, self.num_disks)
        for new in self.grid.iter_buckets():
            centre = [
                (self.boundaries[a][c] + self.boundaries[a][c + 1]) / 2
                for a, c in enumerate(new)
            ]
            old = self.locate(old_boundaries, centre)
            if self.allocation.disk_of(new) != old_allocation.disk_of(old):
                self.counters["buckets_migrated"] += 1
        for new, bucket in self.records.items():
            for record in bucket:
                old = self.locate(old_boundaries, record)
                if self.allocation.disk_of(new) != old_allocation.disk_of(
                    old
                ):
                    self.counters["records_migrated"] += 1
        return True

    def stats(self):
        return {**self.counters, "num_buckets": self.grid.num_buckets}

    def bucket_occupancy(self):
        occupancy = np.zeros(self.grid.dims, dtype=np.int64)
        for coords, bucket in self.records.items():
            occupancy[coords] = len(bucket)
        return occupancy

    def records_per_disk(self):
        loads = np.zeros(self.num_disks, dtype=np.int64)
        for coords, bucket in self.records.items():
            loads[self.allocation.disk_of(coords)] += len(bucket)
        return loads


def _stream(kind, dims, capacity, seed, reference):
    """Yield a seeded record stream; ``boundary`` reads the live file."""
    rng = np.random.default_rng(seed)
    count = 24 + 6 * capacity
    if kind == "uniform":
        yield from rng.uniform(0.0, 1.0, size=(count, dims))
    elif kind == "gaussian":
        yield from np.clip(rng.normal(0.5, 0.12, (count, dims)), 0.0, 1.0)
    elif kind == "duplicates":
        # Six values per attribute, so every attribute is full of ties;
        # each distinct point repeats up to the bucket capacity (more
        # copies than that can never be split apart).
        lattice = np.arange(1, 7) / 7.0
        picks = rng.choice(6**dims, min(count // 2, 6**dims), replace=False)
        points = lattice[np.stack(np.unravel_index(picks, (6,) * dims), 1)]
        stream = np.repeat(points, min(capacity, 3), axis=0)
        yield from stream[rng.permutation(len(stream))]
    elif kind == "upper":
        values = rng.uniform(0.0, 1.0, size=(count, dims))
        values[::3, 0] = 1.0
        values[1::3, dims - 1] = 1.0
        values[-1] = 1.0
        yield from values
    else:  # "boundary": half the records sit on an interior boundary
        for index in range(count):
            record = rng.uniform(0.0, 1.0, size=dims)
            interior = reference.boundaries[index % dims][1:-1]
            if index % 2 and interior:
                record[index % dims] = interior[rng.integers(len(interior))]
            yield record


def _assert_same(fast, slow):
    assert fast.stats() == slow.stats()
    assert fast.grid.dims == slow.grid.dims
    assert [p.boundaries.tolist() for p in fast.partitioners()] == (
        slow.boundaries
    )
    assert np.array_equal(fast.bucket_occupancy(), slow.bucket_occupancy())
    assert np.array_equal(fast.records_per_disk(), slow.records_per_disk())
    assert np.array_equal(fast.allocation.table, slow.allocation.table)


class TestScalarOracle:
    """Every counter and structure matches the scalar reference."""

    @pytest.mark.parametrize(
        "kind", ["uniform", "gaussian", "duplicates", "upper", "boundary"]
    )
    @pytest.mark.parametrize("scheme", ["dm", "fx-auto", "hcam", "roundrobin"])
    @pytest.mark.parametrize("capacity", [1, 2, 4, 16])
    @pytest.mark.parametrize("dims", [2, 3])
    def test_matches_after_every_insert(self, dims, capacity, scheme, kind):
        args = ([(0.0, 1.0)] * dims, 8, scheme, capacity)
        fast = DynamicGridFile(*args)
        slow = ScalarGridFile(*args)
        seed = zlib.crc32(f"{dims}/{capacity}/{scheme}/{kind}".encode())
        for record in _stream(kind, dims, capacity, seed, slow):
            assert fast.insert(record) == slow.insert(record)
            _assert_same(fast, slow)
        assert fast.stats()["num_splits"] > 0

    def test_unsplittable_overflow_matches(self):
        # More identical records than the capacity: the file halves the
        # bucket down to adjacent floats, then gives up and overflows.
        args = ([(0.0, 1.0)], 4, "dm", 2)
        fast = DynamicGridFile(*args)
        slow = ScalarGridFile(*args)
        for record in [(0.2,), (0.7,)] + [(0.5,)] * 4:
            assert fast.insert(record) == slow.insert(record)
            _assert_same(fast, slow)
        assert fast.bucket_occupancy().max() == 4


class TestInsertManyErrors:
    """``insert_many`` validates up front but keeps row-by-row semantics."""

    @pytest.mark.parametrize(
        "bad", [(1.5, 0.5), (0.5, -0.1), (float("nan"), 0.5)]
    )
    def test_prefix_inserted_then_insert_error(self, bad):
        rows = uniform_dataset(30, 2, seed=21).values
        batch = np.vstack([rows[:7], [bad], rows[7:]])
        gf = make_file(bucket_capacity=4)
        with pytest.raises(GridFileError) as batch_error:
            gf.insert_many(batch)
        reference = make_file(bucket_capacity=4)
        for row in rows[:7]:
            reference.insert(row)
        with pytest.raises(GridFileError) as single_error:
            reference.insert(bad)
        assert str(batch_error.value) == str(single_error.value)
        assert gf.stats() == reference.stats()
        assert np.array_equal(
            gf.bucket_occupancy(), reference.bucket_occupancy()
        )

    def test_bad_first_row_inserts_nothing(self):
        gf = make_file()
        with pytest.raises(GridFileError, match="outside domain"):
            gf.insert_many([(2.0, 0.5), (0.5, 0.5)])
        assert gf.num_records == 0

    def test_wrong_arity_raises_insert_message(self):
        gf = make_file()
        with pytest.raises(GridFileError) as batch_error:
            gf.insert_many(np.full((3, 3), 0.5))
        with pytest.raises(GridFileError) as single_error:
            make_file().insert((0.5, 0.5, 0.5))
        assert str(batch_error.value) == str(single_error.value)
        assert gf.num_records == 0

    def test_flat_batch_rejected_like_insert(self):
        with pytest.raises(GridFileError, match=r"shape \(\)"):
            make_file().insert_many([0.5, 0.5])

    @pytest.mark.parametrize("empty", [np.empty((0, 2)), np.empty((0, 5)), []])
    def test_empty_batch_is_a_no_op(self, empty):
        gf = make_file()
        gf.insert_many(empty)
        assert gf.stats() == make_file().stats()
        assert gf.records_per_disk().sum() == 0

    def test_batch_equals_row_by_row(self):
        rows = gaussian_dataset(300, 2, std=0.1, seed=22).values
        batch = make_file(bucket_capacity=4, scheme="dm")
        batch.insert_many(rows)
        single = make_file(bucket_capacity=4, scheme="dm")
        for row in rows:
            single.insert(row)
        assert batch.stats() == single.stats()
        assert np.array_equal(
            batch.allocation.table, single.allocation.table
        )
