"""Unit tests for fault models and the seeded fault injector."""

import numpy as np
import pytest

from repro.core.exceptions import FaultError
from repro.faults.models import (
    FailStop,
    FaultInjector,
    FaultScenario,
    Slowdown,
)


class TestFailStop:
    def test_single_int_normalized_to_tuple(self):
        assert FailStop(3).disks == (3,)

    def test_iterable_sorted_and_deduplicated(self):
        assert FailStop([4, 1, 4, 2]).disks == (1, 2, 4)

    def test_empty_rejected(self):
        with pytest.raises(FaultError):
            FailStop([])

    def test_negative_disk_rejected(self):
        with pytest.raises(FaultError):
            FailStop(-1)

    def test_immutable(self):
        fault = FailStop(0)
        with pytest.raises(AttributeError):
            fault.disks = (1,)


class TestSlowdown:
    def test_factor_must_exceed_one(self):
        with pytest.raises(FaultError):
            Slowdown(0, 1.0)
        with pytest.raises(FaultError):
            Slowdown(0, 0.5)

    def test_negative_disk_rejected(self):
        with pytest.raises(FaultError):
            Slowdown(-2, 2.0)

    def test_values_coerced(self):
        fault = Slowdown("1", "2.5")
        assert fault.disk == 1
        assert fault.factor == 2.5


class TestFaultScenario:
    def test_healthy_has_no_faults(self):
        scenario = FaultScenario.healthy(4)
        assert scenario.is_healthy
        assert scenario.failed == frozenset()
        assert scenario.surviving() == (0, 1, 2, 3)
        assert scenario.describe() == "healthy"

    def test_merges_fail_stops_and_slowdowns(self):
        scenario = FaultScenario(
            4, [FailStop(1), Slowdown(2, 3.0)]
        )
        assert scenario.failed == frozenset({1})
        assert scenario.is_failed(1)
        assert not scenario.is_failed(2)
        assert scenario.factor(2) == 3.0
        assert scenario.surviving() == (0, 2, 3)
        assert scenario.num_failed == 1
        assert not scenario.is_healthy

    def test_fail_stop_dominates_slowdown(self):
        scenario = FaultScenario(
            4, [Slowdown(1, 5.0), FailStop(1)]
        )
        assert scenario.is_failed(1)
        assert scenario.factor(1) == 1.0

    def test_repeated_slowdowns_compound(self):
        scenario = FaultScenario(
            4, [Slowdown(0, 2.0), Slowdown(0, 3.0)]
        )
        assert scenario.factor(0) == 6.0

    def test_factors_vector_read_only(self):
        scenario = FaultScenario(3, [Slowdown(1, 2.0)])
        assert scenario.factors.shape == (3,)
        with pytest.raises(ValueError):
            scenario.factors[0] = 9.0

    def test_disk_outside_array_rejected(self):
        with pytest.raises(FaultError):
            FaultScenario(4, [FailStop(4)])
        with pytest.raises(FaultError):
            FaultScenario(4, [Slowdown(7, 2.0)])

    def test_non_positive_array_rejected(self):
        with pytest.raises(FaultError):
            FaultScenario(0)

    def test_unknown_fault_type_rejected(self):
        with pytest.raises(FaultError):
            FaultScenario(4, ["disk-on-fire"])

    def test_equality_and_hash(self):
        a = FaultScenario(4, [FailStop(1), Slowdown(2, 2.0)])
        b = FaultScenario(4, [Slowdown(2, 2.0), FailStop(1)])
        c = FaultScenario(4, [FailStop(2)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_describe_mentions_each_fault(self):
        scenario = FaultScenario(
            4, [FailStop([0, 3]), Slowdown(1, 2.5)]
        )
        text = scenario.describe()
        assert "failed=0,3" in text
        assert "1x2.5" in text


def _reference_capacity(scenario, disk, time):
    """The scalar float-product rule, one step at a time."""
    if scenario.is_failed(disk) or time <= 0:
        return 0
    factor = scenario.factor(disk)
    load = int(time / factor)
    while (load + 1) * factor <= time:
        load += 1
    while load > 0 and load * factor > time:
        load -= 1
    return load


class TestCapacities:
    """``capacities`` is the one capacity rule; ``capacity`` reads it."""

    FACTORS = (4 / 3, 1.1, 1.7, 1 + 1e-10, 3.0, 0.1 * 13)

    def _times(self, rng, scenario):
        products = [
            load * factor
            for factor in scenario.factors.tolist()
            for load in range(0, 40)
        ]
        exact = np.array(products)
        return np.concatenate([
            exact,
            np.nextafter(exact, 0),
            np.nextafter(exact, np.inf),
            rng.uniform(-2.0, 60.0, size=64),
            [0.0, -1.0, 1.0, 2.0],
        ])

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_scalar_rule_elementwise(self, seed):
        rng = np.random.default_rng(seed)
        num_disks = int(rng.integers(2, 7))
        faults = [
            Slowdown(
                int(rng.integers(0, num_disks)),
                self.FACTORS[int(rng.integers(0, len(self.FACTORS)))],
            )
            for _ in range(int(rng.integers(1, 4)))
        ]
        if seed % 3:
            faults.append(FailStop(int(rng.integers(0, num_disks))))
        scenario = FaultScenario(num_disks, faults)
        times = self._times(rng, scenario)
        table = scenario.capacities(times)
        assert table.shape == (times.size, num_disks)
        assert table.dtype == np.int64
        for row, time in enumerate(times.tolist()):
            for disk in range(num_disks):
                expected = _reference_capacity(scenario, disk, time)
                assert table[row, disk] == expected
                assert scenario.capacity(disk, time) == expected

    def test_exact_products_and_their_neighbours(self):
        scenario = FaultScenario(2, [Slowdown(1, 1 + 1e-10)])
        factor = scenario.factor(1)
        loads = np.arange(1, 500)
        products = loads * factor
        assert scenario.capacities(products)[:, 1].tolist() == (
            loads.tolist()
        )
        assert scenario.capacities(np.nextafter(products, 0))[
            :, 1
        ].tolist() == (loads - 1).tolist()

    def test_failed_disks_and_non_positive_times_are_zero(self):
        scenario = FaultScenario(3, [FailStop(2), Slowdown(1, 2.0)])
        assert scenario.capacities([7.0, 0.0, -3.0]).tolist() == [
            [7, 3, 0],
            [0, 0, 0],
            [0, 0, 0],
        ]


class TestFaultInjector:
    def test_same_seed_replays_exactly(self):
        first = FaultInjector(seed=7).scenarios(8, 2, 5)
        second = FaultInjector(seed=7).scenarios(8, 2, 5)
        assert first == second

    def test_different_seeds_differ(self):
        a = FaultInjector(seed=0).scenarios(16, 3, 8)
        b = FaultInjector(seed=1).scenarios(16, 3, 8)
        assert a != b

    def test_fail_stop_counts_respected(self):
        scenario = FaultInjector(seed=3).fail_stop(8, num_failures=3)
        assert scenario.num_failed == 3
        assert all(0 <= d < 8 for d in scenario.failed)

    def test_zero_failures_is_healthy(self):
        assert FaultInjector(seed=0).fail_stop(4, 0).is_healthy

    def test_cannot_fail_whole_array(self):
        with pytest.raises(FaultError):
            FaultInjector(seed=0).fail_stop(4, 4)
        with pytest.raises(FaultError):
            FaultInjector(seed=0).fail_stop(4, -1)

    def test_slowdown_factors_within_range(self):
        scenario = FaultInjector(seed=5).slowdown(
            8, num_slow=3, factor_range=(1.5, 4.0)
        )
        slowed = [
            d for d in range(8) if scenario.factor(d) > 1.0
        ]
        assert len(slowed) == 3
        assert all(
            1.5 <= scenario.factor(d) <= 4.0 for d in slowed
        )
        assert not scenario.failed

    def test_slowdown_range_validated(self):
        with pytest.raises(FaultError):
            FaultInjector(seed=0).slowdown(4, 1, factor_range=(0.5, 2.0))
        with pytest.raises(FaultError):
            FaultInjector(seed=0).slowdown(4, 5)

    def test_scenario_count_validated(self):
        with pytest.raises(FaultError):
            FaultInjector(seed=0).scenarios(4, 1, -1)
        assert FaultInjector(seed=0).scenarios(4, 1, 0) == []

    def test_factors_are_plain_numpy_vector(self):
        scenario = FaultInjector(seed=2).slowdown(6, 2)
        assert isinstance(scenario.factors, np.ndarray)
        assert scenario.factors.dtype == np.float64
