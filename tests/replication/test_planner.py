"""Unit tests for the replica-choice query planner."""

import numpy as np
import pytest

from repro.core.cost import optimal_response_time, response_time
from repro.core.exceptions import QueryError
from repro.core.grid import Grid
from repro.core.query import (
    QueryBatch,
    RangeQuery,
    all_placements,
    placement_batch,
    query_at,
)
from repro.core.registry import get_scheme
from repro.faults.degraded import degraded_optimal_response_time
from repro.faults.models import FailStop, FaultScenario, Slowdown
from repro.replication import (
    chained_replication,
    degraded_replicated_response_time,
    orthogonal_replication,
    plan_batch,
    plan_query,
    replicated_response_time,
    replication_speedup,
)


@pytest.fixture
def grid():
    return Grid((16, 16))


@pytest.fixture
def chained_dm(grid):
    return chained_replication(get_scheme("dm").allocate(grid, 8))


class TestPlanValidity:
    @pytest.mark.parametrize("method", ["flow", "greedy"])
    def test_assignment_uses_only_the_two_replicas(
        self, chained_dm, method
    ):
        plan = plan_query(
            chained_dm, query_at((3, 3), (3, 4)), method=method
        )
        for coords, disk in plan.assignment.items():
            assert disk in chained_dm.disks_of(coords)

    @pytest.mark.parametrize("method", ["flow", "greedy"])
    def test_every_bucket_assigned_once(self, chained_dm, method):
        query = query_at((0, 0), (4, 4))
        plan = plan_query(chained_dm, query, method=method)
        assert plan.num_buckets == 16
        assert plan.loads.sum() == 16

    def test_loads_match_assignment(self, chained_dm):
        plan = plan_query(chained_dm, query_at((2, 2), (3, 3)))
        recounted = np.zeros(chained_dm.num_disks, dtype=np.int64)
        for disk in plan.assignment.values():
            recounted[disk] += 1
        assert np.array_equal(plan.loads, recounted)

    def test_query_outside_grid_is_empty_plan(self, chained_dm):
        plan = plan_query(chained_dm, RangeQuery((40, 40), (42, 42)))
        assert plan.num_buckets == 0
        assert plan.response_time == 0

    def test_overhanging_query_clipped(self, chained_dm):
        inside = plan_query(chained_dm, query_at((14, 14), (2, 2)))
        overhang = plan_query(
            chained_dm, RangeQuery((14, 14), (20, 20))
        )
        assert overhang.num_buckets == inside.num_buckets

    def test_unknown_method_rejected(self, chained_dm):
        with pytest.raises(QueryError):
            plan_query(chained_dm, query_at((0, 0), (2, 2)), method="magic")

    def test_dimension_mismatch_rejected(self, chained_dm):
        with pytest.raises(QueryError):
            plan_query(chained_dm, RangeQuery((0,), (1,)))


class TestOptimality:
    def test_flow_never_worse_than_greedy(self, chained_dm):
        for query in all_placements(chained_dm.grid, (3, 3)):
            flow_rt = replicated_response_time(
                chained_dm, query, "flow"
            )
            greedy_rt = replicated_response_time(
                chained_dm, query, "greedy"
            )
            assert flow_rt <= greedy_rt

    def test_flow_never_below_information_bound(self, chained_dm):
        for query in all_placements(chained_dm.grid, (4, 2)):
            rt = replicated_response_time(chained_dm, query, "flow")
            assert rt >= optimal_response_time(
                query.num_buckets, chained_dm.num_disks
            )

    def test_replication_never_hurts(self, chained_dm):
        for query in all_placements(chained_dm.grid, (2, 2)):
            replicated = replicated_response_time(
                chained_dm, query, "flow"
            )
            primary_only = response_time(chained_dm.primary, query)
            assert replicated <= primary_only

    def test_chained_fixes_dm_small_squares(self, chained_dm):
        # The headline: DM + one chained copy answers every 2x2 at the
        # optimum (DM alone is 2x optimal on all of them).
        for query in all_placements(chained_dm.grid, (2, 2)):
            assert replicated_response_time(
                chained_dm, query, "flow"
            ) == 1

    def test_flow_exactness_by_brute_force(self):
        # Exhaustively check the flow planner against all 2^|Q| replica
        # choices on small queries.
        import itertools

        grid = Grid((6, 6))
        replicated = chained_replication(
            get_scheme("dm").allocate(grid, 3)
        )
        for query in [
            query_at((0, 0), (2, 2)),
            query_at((1, 2), (2, 3)),
            query_at((3, 0), (3, 2)),
        ]:
            buckets = list(query.iter_buckets())
            pairs = [replicated.disks_of(b) for b in buckets]
            best = None
            for choice in itertools.product((0, 1), repeat=len(pairs)):
                loads = np.zeros(3, dtype=np.int64)
                for pick, pair in zip(choice, pairs):
                    loads[pair[pick]] += 1
                cost = int(loads.max())
                best = cost if best is None else min(best, cost)
            assert replicated_response_time(
                replicated, query, "flow"
            ) == best

    def test_speedup_at_least_one(self, chained_dm):
        for query in all_placements(chained_dm.grid, (3, 3)):
            assert replication_speedup(chained_dm, query) >= 1.0

    def test_speedup_two_on_dm_2x2(self, chained_dm):
        assert replication_speedup(
            chained_dm, query_at((4, 4), (2, 2))
        ) == pytest.approx(2.0)


class TestDegradedModePerformance:
    def test_degraded_rt_bounded_by_double(self):
        # Chained: a failed disk's work moves to one neighbour, so any
        # query's degraded RT is at most twice its healthy RT.
        grid = Grid((16, 16))
        replicated = chained_replication(
            get_scheme("hcam").allocate(grid, 8)
        )
        survivor = replicated.surviving_allocation(3)
        for query in all_placements(grid, (3, 3)):
            healthy = response_time(replicated.primary, query)
            degraded = response_time(survivor, query)
            assert degraded <= 2 * healthy

    def test_degraded_remains_complete(self):
        grid = Grid((8, 8))
        replicated = chained_replication(
            get_scheme("dm").allocate(grid, 4)
        )
        survivor = replicated.surviving_allocation(0)
        # Every query still reads all its buckets.
        query = query_at((1, 1), (4, 4))
        from repro.core.cost import buckets_per_disk

        assert buckets_per_disk(survivor, query).sum() == 16

    def test_mean_degradation_is_moderate(self):
        # Averaged over placements, losing 1 of 8 disks costs well under
        # the 2x worst case.
        grid = Grid((16, 16))
        replicated = chained_replication(
            get_scheme("hcam").allocate(grid, 8)
        )
        survivor = replicated.surviving_allocation(2)
        from repro.core.cost import average_response_time

        healthy = average_response_time(replicated.primary, (4, 4))
        degraded = average_response_time(survivor, (4, 4))
        assert healthy <= degraded <= 1.6 * healthy


class TestOrthogonalPlanning:
    def test_orthogonal_copies_cover_both_weaknesses(self):
        grid = Grid((16, 16))
        replicated = orthogonal_replication(grid, 8, "dm", "hcam")
        # Square query: DM primary is bad, HCAM backup fixes it.
        square = query_at((3, 3), (2, 2))
        assert replicated_response_time(replicated, square, "flow") == 1
        # Row query: DM primary is already optimal.
        row = query_at((5, 0), (1, 16))
        assert replicated_response_time(
            replicated, row, "flow"
        ) == optimal_response_time(16, 8)


class TestDegradedPlanning:
    """plan_query with a FaultScenario: routing around failures."""

    @pytest.fixture
    def chained_small(self):
        grid = Grid((6, 6))
        return chained_replication(get_scheme("dm").allocate(grid, 3))

    @pytest.mark.parametrize("method", ["flow", "greedy"])
    def test_failed_disk_never_assigned(self, chained_dm, method):
        scenario = FaultScenario(8, [FailStop(3)])
        for query in all_placements(chained_dm.grid, (3, 3)):
            plan = plan_query(
                chained_dm, query, method=method, scenario=scenario
            )
            assert 3 not in plan.assignment.values()
            assert plan.loads[3] == 0

    def test_single_failure_keeps_plans_complete(self, chained_dm):
        scenario = FaultScenario(8, [FailStop(5)])
        for query in all_placements(chained_dm.grid, (4, 4)):
            plan = plan_query(chained_dm, query, scenario=scenario)
            assert plan.is_complete
            assert plan.num_lost == 0
            assert plan.loads.sum() == query.num_buckets

    def test_healthy_scenario_takes_the_healthy_path(self, chained_dm):
        query = query_at((2, 3), (3, 3))
        plain = plan_query(chained_dm, query)
        via_scenario = plan_query(
            chained_dm, query, scenario=FaultScenario.healthy(8)
        )
        assert via_scenario.assignment == plain.assignment
        assert via_scenario.factors is None
        assert via_scenario.completion_time == plain.response_time

    def test_lost_buckets_recorded(self, chained_small):
        # Adjacent failures {0, 1} on offset-1 chaining kill every
        # bucket whose copies are exactly (0, 1).
        scenario = FaultScenario(3, [FailStop([0, 1])])
        query = query_at((0, 0), (3, 3))
        plan = plan_query(chained_small, query, scenario=scenario)
        expected_lost = {
            coords
            for coords in query.iter_buckets()
            if chained_small.disks_of(coords) == (0, 1)
        }
        assert set(plan.lost) == expected_lost
        assert plan.num_lost == len(expected_lost)
        assert not plan.is_complete
        assert plan.loads.sum() == query.num_buckets - plan.num_lost

    def test_completion_time_is_weighted_busiest_disk(self, chained_dm):
        scenario = FaultScenario(
            8, [FailStop(0), Slowdown(1, 2.5)]
        )
        plan = plan_query(
            chained_dm, query_at((1, 1), (4, 4)), scenario=scenario
        )
        expected = (plan.loads * scenario.factors).max()
        assert plan.completion_time == pytest.approx(expected)

    def test_flow_never_worse_than_greedy_degraded(self, chained_small):
        scenario = FaultScenario(3, [FailStop(2), Slowdown(0, 2.0)])
        for query in all_placements(chained_small.grid, (2, 3)):
            flow = degraded_replicated_response_time(
                chained_small, query, scenario, "flow"
            )
            greedy = degraded_replicated_response_time(
                chained_small, query, scenario, "greedy"
            )
            assert flow <= greedy + 1e-9

    def test_flow_never_below_degraded_optimum(self, chained_dm):
        scenario = FaultScenario(8, [FailStop([2, 6])])
        for query in all_placements(chained_dm.grid, (4, 2)):
            plan = plan_query(chained_dm, query, scenario=scenario)
            served = query.num_buckets - plan.num_lost
            assert plan.completion_time >= degraded_optimal_response_time(
                served, scenario
            ) - 1e-9

    def test_degraded_flow_exactness_by_brute_force(self, chained_small):
        # Exhaustively check every surviving replica choice, including
        # straggler weighting, against the flow planner's completion.
        import itertools

        scenario = FaultScenario(
            3, [FailStop(1), Slowdown(2, 2.0)]
        )
        for query in [
            query_at((0, 0), (2, 2)),
            query_at((1, 2), (2, 3)),
            query_at((3, 0), (3, 2)),
        ]:
            choices = []
            for coords in query.iter_buckets():
                alive = [
                    d
                    for d in chained_small.disks_of(coords)
                    if not scenario.is_failed(d)
                ]
                choices.append(alive)
            best = None
            for picks in itertools.product(*choices):
                loads = np.zeros(3, dtype=np.int64)
                for disk in picks:
                    loads[disk] += 1
                cost = float((loads * scenario.factors).max())
                best = cost if best is None else min(best, cost)
            planned = degraded_replicated_response_time(
                chained_small, query, scenario, "flow"
            )
            assert planned == pytest.approx(best)

    def test_scenario_disk_count_must_match(self, chained_dm):
        with pytest.raises(QueryError):
            plan_query(
                chained_dm,
                query_at((0, 0), (2, 2)),
                scenario=FaultScenario.healthy(4),
            )

    def test_empty_degraded_plan(self, chained_dm):
        plan = plan_query(
            chained_dm,
            RangeQuery((40, 40), (42, 42)),
            scenario=FaultScenario(8, [FailStop(0)]),
        )
        assert plan.num_buckets == 0
        assert plan.completion_time == 0.0
        assert plan.is_complete


def _random_replicated(rng, style):
    """A seeded chained or orthogonal replicated allocation, M in 2..6."""
    from repro.core.allocation import DiskAllocation
    from repro.replication import ReplicatedAllocation

    num_disks = int(rng.integers(2, 7))
    dims = tuple(int(side) for side in rng.integers(2, 7, size=2))
    grid = Grid(dims)
    primary = rng.integers(0, num_disks, size=dims)
    if style == "chained":
        return chained_replication(
            DiskAllocation(grid, num_disks, primary),
            offset=int(rng.integers(1, num_disks)),
        )
    backup = rng.integers(0, num_disks, size=dims)
    clash = backup == primary
    backup[clash] = (backup[clash] + 1) % num_disks
    return ReplicatedAllocation(
        DiskAllocation(grid, num_disks, primary),
        DiskAllocation(grid, num_disks, backup),
    )


def _random_small_query(rng, grid, max_buckets=12):
    """A seeded query of at most ``max_buckets`` buckets inside ``grid``."""
    origin = tuple(int(rng.integers(0, side)) for side in grid.dims)
    shape = [
        int(rng.integers(1, side - start + 1))
        for start, side in zip(origin, grid.dims)
    ]
    while int(np.prod(shape)) > max_buckets:
        axis = int(np.argmax(shape))
        shape[axis] -= 1
    return query_at(origin, shape)


_ORACLE_FACTORS = (4 / 3, 1.1, 1.7, 1 + 1e-10, 3.0)


def _random_scenario(rng, num_disks):
    """FailStop and Slowdown faults drawn from the oracle factor set."""
    faults = []
    num_failed = int(rng.integers(0, num_disks))
    if num_failed:
        faults.append(
            FailStop(
                int(d)
                for d in rng.choice(num_disks, num_failed, replace=False)
            )
        )
    for _ in range(int(rng.integers(0, 3))):
        factor = _ORACLE_FACTORS[int(rng.integers(0, len(_ORACLE_FACTORS)))]
        faults.append(Slowdown(int(rng.integers(0, num_disks)), factor))
    return FaultScenario(num_disks, faults)


def _brute_force_completion(replicated, query, scenario):
    """Best weighted completion over every surviving replica choice."""
    num_disks = replicated.num_disks
    factors = scenario.factors if scenario is not None else np.ones(
        num_disks
    )
    forced = np.zeros(num_disks, dtype=np.int64)
    pairs = []
    for coords in query.iter_buckets():
        alive = [
            disk
            for disk in replicated.disks_of(coords)
            if scenario is None or not scenario.is_failed(disk)
        ]
        if len(alive) == 2:
            pairs.append(alive)
        elif alive:
            forced[alive[0]] += 1
    if not pairs:
        return float((forced * factors).max())
    pairs = np.array(pairs)
    picks = (
        np.arange(1 << len(pairs))[:, None] >> np.arange(len(pairs))
    ) & 1
    chosen = pairs[np.arange(len(pairs)), picks]
    loads = forced + np.stack(
        [(chosen == disk).sum(axis=1) for disk in range(num_disks)], axis=1
    )
    return float((loads * factors).max(axis=1).min())


class TestRandomOptimalityOracle:
    """Exact planner vs brute force on seeded random small instances."""

    @pytest.mark.parametrize("style", ["chained", "orthogonal"])
    @pytest.mark.parametrize("seed", range(25))
    def test_healthy_matches_brute_force(self, style, seed):
        rng = np.random.default_rng(1000 + seed)
        replicated = _random_replicated(rng, style)
        for _ in range(4):
            query = _random_small_query(rng, replicated.grid)
            plan = plan_query(replicated, query)
            assert plan.response_time == _brute_force_completion(
                replicated, query, None
            )
            self._check_plan(replicated, query, plan, None)

    @pytest.mark.parametrize("style", ["chained", "orthogonal"])
    @pytest.mark.parametrize("seed", range(25))
    def test_degraded_matches_brute_force(self, style, seed):
        rng = np.random.default_rng(2000 + seed)
        replicated = _random_replicated(rng, style)
        for _ in range(4):
            query = _random_small_query(rng, replicated.grid)
            scenario = _random_scenario(rng, replicated.num_disks)
            plan = plan_query(replicated, query, scenario=scenario)
            assert plan.completion_time == _brute_force_completion(
                replicated, query, scenario
            )
            self._check_plan(replicated, query, plan, scenario)

    @staticmethod
    def _check_plan(replicated, query, plan, scenario):
        def dead(disk):
            return scenario is not None and scenario.is_failed(disk)

        expected_lost = [
            coords
            for coords in query.iter_buckets()
            if all(dead(disk) for disk in replicated.disks_of(coords))
        ]
        assert list(plan.lost) == expected_lost
        for coords, disk in plan.assignment.items():
            assert disk in replicated.disks_of(coords)
            assert not dead(disk)
        assert len(plan.assignment) + plan.num_lost == query.num_buckets
        assert np.array_equal(
            plan.loads,
            np.bincount(
                list(plan.assignment.values()),
                minlength=replicated.num_disks,
            ),
        )
        again = plan_query(replicated, query, scenario=scenario)
        assert again.assignment == plan.assignment
        assert again.lost == plan.lost


def _networkx_completion(replicated, query, scenario):
    """Reference optimum: binary search over per-bucket max-flow graphs."""
    nx = pytest.importorskip("networkx")
    num_disks = replicated.num_disks
    factors = scenario.factors.tolist() if scenario else [1.0] * num_disks
    choices = [
        [
            disk
            for disk in replicated.disks_of(coords)
            if scenario is None or not scenario.is_failed(disk)
        ]
        for coords in query.iter_buckets()
    ]
    choices = [alive for alive in choices if alive]
    alive_disks = {disk for alive in choices for disk in alive}
    candidates = sorted(
        {
            load * factors[disk]
            for disk in alive_disks
            for load in range(1, len(choices) + 1)
        }
    )

    def feasible(time):
        graph = nx.DiGraph()
        for index, alive in enumerate(choices):
            graph.add_edge("s", ("b", index), capacity=1)
            for disk in alive:
                graph.add_edge(("b", index), ("d", disk), capacity=1)
        for disk in alive_disks:
            capacity = 0
            while (capacity + 1) * factors[disk] <= time:
                capacity += 1
            graph.add_edge(("d", disk), "t", capacity=capacity)
        return nx.maximum_flow_value(graph, "s", "t") == len(choices)

    low, high = 0, len(candidates) - 1
    while low < high:
        middle = (low + high) // 2
        if feasible(candidates[middle]):
            high = middle
        else:
            low = middle + 1
    return candidates[low]


class TestNetworkxDifferential:
    """Larger instances (50-200 buckets) against a networkx max-flow."""

    @pytest.mark.parametrize("seed", range(8))
    def test_optimum_matches_networkx(self, seed):
        pytest.importorskip("networkx")
        rng = np.random.default_rng(3000 + seed)
        num_disks = int(rng.integers(3, 13))
        grid = Grid((20, 20))
        style = "chained" if seed % 2 else "orthogonal"
        if style == "chained":
            replicated = chained_replication(
                get_scheme("hcam").allocate(grid, num_disks),
                offset=int(rng.integers(1, num_disks)),
            )
        else:
            replicated = orthogonal_replication(
                grid, num_disks, "dm", "hcam"
            )
        rows = int(rng.integers(5, 15))
        cols = int(rng.integers(-(-50 // rows), min(200 // rows, 20) + 1))
        query = query_at(
            (int(rng.integers(0, 21 - rows)), int(rng.integers(0, 21 - cols))),
            (rows, cols),
        )
        assert 50 <= query.num_buckets <= 200
        healthy = plan_query(replicated, query)
        assert healthy.response_time == _networkx_completion(
            replicated, query, None
        )
        scenario = _random_scenario(rng, num_disks)
        degraded = plan_query(replicated, query, scenario=scenario)
        assert degraded.completion_time == _networkx_completion(
            replicated, query, scenario
        )
        times, _ = plan_batch(replicated, [query], scenarios=[None, scenario])
        assert times.tolist() == [
            [healthy.completion_time], [degraded.completion_time]
        ]


def _random_layout(rng, ndim, num_disks, style):
    """A seeded chained or random orthogonal layout on a 1-3-D grid."""
    from repro.core.allocation import DiskAllocation
    from repro.replication import ReplicatedAllocation

    low, high = {1: (4, 30), 2: (3, 9), 3: (2, 5)}[ndim]
    grid = Grid(tuple(int(s) for s in rng.integers(low, high, size=ndim)))
    primary = rng.integers(0, num_disks, size=grid.dims)
    if style == "chained":
        return chained_replication(
            DiskAllocation(grid, num_disks, primary),
            offset=int(rng.integers(1, num_disks)),
        )
    backup = rng.integers(0, num_disks, size=grid.dims)
    clash = backup == primary
    backup[clash] = (backup[clash] + 1) % num_disks
    return ReplicatedAllocation(
        DiskAllocation(grid, num_disks, primary),
        DiskAllocation(grid, num_disks, backup),
    )


def _random_batch(rng, grid, count=10):
    """Queries inside, overhanging, and wholly outside ``grid``."""
    queries = []
    for _ in range(count):
        lower = [int(rng.integers(0, side + 2)) for side in grid.dims]
        upper = [
            low + int(rng.integers(0, side + 1))
            for low, side in zip(lower, grid.dims)
        ]
        queries.append(RangeQuery(tuple(lower), tuple(upper)))
    queries.append(RangeQuery(grid.dims, tuple(d + 2 for d in grid.dims)))
    queries.append(
        RangeQuery((0,) * grid.ndim, tuple(d + 3 for d in grid.dims))
    )
    return queries


def _batch_scenarios(rng, num_disks):
    """Healthy, fail-stop (up to all but one disk) and straggler cases."""
    failed = rng.choice(
        num_disks, int(rng.integers(1, num_disks)), replace=False
    )
    return [
        None,
        FaultScenario.healthy(num_disks),
        FaultScenario(num_disks, [FailStop(failed.tolist())]),
        FaultScenario(num_disks, [Slowdown(0, 1 + 1e-10)]),
        _random_scenario(rng, num_disks),
        _random_scenario(rng, num_disks),
    ]


def _assert_batch_matches(replicated, queries, scenarios, method="flow"):
    times, lost = plan_batch(replicated, queries, method, scenarios)
    assert times.shape == lost.shape == (len(scenarios), len(queries))
    assert times.dtype == np.float64 and lost.dtype == np.int64
    for k, scenario in enumerate(scenarios):
        for i, query in enumerate(queries):
            plan = plan_query(replicated, query, method, scenario)
            assert times[k, i] == plan.completion_time, (k, i)
            assert lost[k, i] == plan.num_lost, (k, i)


def _batch_paths(replicated, queries, **kwargs):
    """The ``path`` attribute of every ``planner.batch`` span of a call."""
    from repro.obs.trace import global_tracer

    tracer = global_tracer()
    was_enabled = tracer.enabled
    tracer.enable()
    try:
        before = len(tracer.spans())
        plan_batch(replicated, queries, **kwargs)
        spans = tracer.spans()[before:]
    finally:
        if not was_enabled:
            tracer.disable()
            tracer.clear()
    return [
        (span["attrs"]["path"], span["attrs"]["num_queries"],
         span["attrs"]["num_disks"])
        for span in spans
        if span["name"] == "planner.batch"
    ]


class TestBatchPlanner:
    """``plan_batch`` equals per-query ``plan_query``, exactly."""

    @pytest.mark.parametrize("num_disks", range(2, 13))
    @pytest.mark.parametrize("style", ["chained", "orthogonal"])
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_hall_path_matches_plan_query(self, ndim, style, num_disks):
        rng = np.random.default_rng(
            4000 + 100 * ndim + 10 * num_disks + (style == "chained")
        )
        replicated = _random_layout(rng, ndim, num_disks, style)
        queries = _random_batch(rng, replicated.grid)
        assert _batch_paths(replicated, queries) == [
            ("hall", len(queries), num_disks)
        ]
        _assert_batch_matches(
            replicated, queries, _batch_scenarios(rng, num_disks)
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_paper_layouts_match_plan_query(self, seed):
        rng = np.random.default_rng(5000 + seed)
        num_disks = int(rng.integers(3, 13))
        grid = Grid((16, 16))
        replicated = (
            chained_replication(get_scheme("dm").allocate(grid, num_disks))
            if seed % 2
            else orthogonal_replication(grid, num_disks, "dm", "hcam")
        )
        queries = [
            query_at(origin, (side, side))
            for side in (2, 4, 7)
            for origin in ((0, 0), (3, 5), (11, 9), (15, 15))
        ]
        _assert_batch_matches(
            replicated, queries, _batch_scenarios(rng, num_disks)
        )

    def test_many_disks_take_the_per_query_path(self):
        rng = np.random.default_rng(6000)
        replicated = _random_layout(rng, 2, 13, "orthogonal")
        queries = _random_batch(rng, replicated.grid, count=6)
        assert _batch_paths(replicated, queries) == [
            ("per_query", len(queries), 13)
        ]
        _assert_batch_matches(replicated, queries, _batch_scenarios(rng, 13))

    def test_class_table_over_budget_takes_the_per_query_path(
        self, chained_dm, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SAT_BUDGET", "1024")
        queries = [query_at((1, 2), (4, 4)), query_at((9, 0), (7, 3))]
        assert _batch_paths(chained_dm, queries) == [("per_query", 2, 8)]
        _assert_batch_matches(
            chained_dm, queries, [None, FaultScenario(8, [FailStop(3)])]
        )

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_greedy_matches_plan_query(self, ndim):
        rng = np.random.default_rng(7000 + ndim)
        replicated = _random_layout(rng, ndim, 5, "orthogonal")
        queries = _random_batch(rng, replicated.grid, count=6)
        assert _batch_paths(replicated, queries, method="greedy") == [
            ("per_query", len(queries), 5)
        ]
        _assert_batch_matches(
            replicated, queries, _batch_scenarios(rng, 5), method="greedy"
        )

    @pytest.mark.parametrize("method", ["flow", "greedy"])
    def test_empty_batch(self, chained_dm, method):
        times, lost = plan_batch(
            chained_dm, [], method, [None, FaultScenario(8, [FailStop(1)])]
        )
        assert times.shape == lost.shape == (2, 0)

    def test_outside_and_overhanging_queries(self, chained_dm):
        queries = [
            RangeQuery((40, 40), (42, 42)),
            RangeQuery((14, 14), (20, 20)),
            RangeQuery((0, 0), (30, 30)),
        ]
        times, lost = plan_batch(chained_dm, queries)
        assert times[0, 0] == 0.0 and lost[0, 0] == 0
        _assert_batch_matches(
            chained_dm, queries, [None, FaultScenario(8, [FailStop([0, 1])])]
        )

    def test_one_span_per_call(self, chained_dm):
        queries = [query_at((0, 0), (2, 2))] * 50
        assert _batch_paths(
            chained_dm, queries, scenarios=[None] * 3
        ) == [("hall", 50, 8)]

    @pytest.mark.parametrize(
        "num_disks, method",
        [(5, "flow"), (13, "flow"), (5, "greedy")],
    )
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_batch_input_matches_the_list(self, ndim, num_disks, method):
        # The per-query fallback (greedy, or more than 12 disks) reads
        # rows from the batch, rows clipped to nothing included.
        rng = np.random.default_rng(8000 + 10 * ndim + num_disks)
        replicated = _random_layout(rng, ndim, num_disks, "orthogonal")
        queries = _random_batch(rng, replicated.grid, count=6)
        batch = QueryBatch.from_queries(queries, replicated.grid)
        scenarios = _batch_scenarios(rng, num_disks)
        from_batch = plan_batch(replicated, batch, method, scenarios)
        from_list = plan_batch(replicated, queries, method, scenarios)
        for ours, theirs in zip(from_batch, from_list):
            np.testing.assert_array_equal(ours, theirs)
        _assert_batch_matches(replicated, queries, scenarios, method)

    def test_batch_for_another_grid_rejected(self, chained_dm):
        batch = placement_batch(Grid((8, 8)), (2, 2))
        with pytest.raises(QueryError, match="does not match"):
            plan_batch(chained_dm, batch)

    def test_invalid_arguments_rejected(self, chained_dm):
        query = query_at((0, 0), (2, 2))
        with pytest.raises(QueryError, match="unknown planning method"):
            plan_batch(chained_dm, [query], "astar")
        with pytest.raises(QueryError, match="scenario covers"):
            plan_batch(chained_dm, [query], scenarios=[FaultScenario(4)])
        with pytest.raises(QueryError, match="does not match"):
            plan_batch(chained_dm, [RangeQuery((0,), (1,))])


def _primary_unless_backup_less_loaded(replicated, buckets):
    """The healthy greedy rule: primary unless the backup is strictly
    less loaded so far."""
    loads = np.zeros(replicated.num_disks, dtype=np.int64)
    assignment = {}
    for coords in buckets:
        primary, backup = replicated.disks_of(coords)
        choice = primary if loads[primary] <= loads[backup] else backup
        assignment[coords] = choice
        loads[choice] += 1
    return assignment


class TestHealthyGreedyRule:
    @pytest.mark.parametrize("style", ["chained", "orthogonal"])
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_healthy_greedy_is_primary_unless_backup_less_loaded(
        self, style, ndim
    ):
        rng = np.random.default_rng(8000 + ndim)
        for num_disks in (2, 3, 5, 8):
            replicated = _random_layout(rng, ndim, num_disks, style)
            for query in _random_batch(rng, replicated.grid):
                clipped = query.clip_to(replicated.grid)
                buckets = (
                    list(clipped.iter_buckets()) if clipped else []
                )
                want = _primary_unless_backup_less_loaded(
                    replicated, buckets
                )
                for scenario in (None, FaultScenario.healthy(num_disks)):
                    plan = plan_query(replicated, query, "greedy", scenario)
                    assert plan.assignment == want
                    assert plan.lost == ()


class TestExactCapacities:
    """Regressions: capacities decided on the float products themselves."""

    @pytest.fixture
    def tiny(self):
        from repro.core.allocation import DiskAllocation
        from repro.replication import ReplicatedAllocation

        grid = Grid((3,))
        return ReplicatedAllocation(
            DiskAllocation(grid, 2, np.array([0, 1, 1])),
            DiskAllocation(grid, 2, np.array([1, 0, 0])),
        )

    def test_planner_reaches_the_true_optimum(self, tiny):
        # Two buckets on the healthy disk finish at exactly 2.0; putting
        # two on the barely-slow disk finishes at 2.0000000002.  An
        # epsilon-padded capacity let the planner accept the latter.
        scenario = FaultScenario(2, [Slowdown(1, 1 + 1e-10)])
        plan = plan_query(tiny, RangeQuery((0,), (3,)), scenario=scenario)
        assert plan.completion_time == 2.0
        assert plan.loads.tolist() == [2, 1]

    def test_degraded_optimum_is_reachable(self):
        # Disk 1 cannot finish a bucket by time 1.0, so two buckets need
        # 1.0000000001 — not the 1.0 an epsilon-padded capacity claimed.
        scenario = FaultScenario(2, [Slowdown(1, 1 + 1e-10)])
        assert degraded_optimal_response_time(2, scenario) == (
            scenario.factor(1)
        )
        assert degraded_optimal_response_time(2, scenario) > 1.0

    @pytest.mark.parametrize("factor", _ORACLE_FACTORS + (0.1 * 13,))
    def test_capacity_is_exact_at_the_product(self, factor):
        scenario = FaultScenario(3, [FailStop(2), Slowdown(1, factor)])
        for load in range(1, 200):
            time = load * factor
            assert scenario.capacity(1, time) == load
            assert scenario.capacity(1, np.nextafter(time, 0)) == load - 1
        assert scenario.capacity(0, 7.0) == 7
        assert scenario.capacity(2, 7.0) == 0
        assert scenario.capacity(0, 0.0) == 0


class TestWithoutNetworkx:
    """A clean install (numpy only) runs every planner consumer."""

    @pytest.fixture(autouse=True)
    def no_networkx(self, monkeypatch):
        import sys

        monkeypatch.setitem(sys.modules, "networkx", None)

    def test_plans_without_networkx(self, chained_dm):
        query = query_at((2, 2), (4, 4))
        # DM + chained answers every 4x4 in 3 (X4 in the full report).
        assert plan_query(chained_dm, query).response_time == 3
        degraded = plan_query(
            chained_dm, query, scenario=FaultScenario(8, [FailStop(1)])
        )
        assert degraded.is_complete
        assert degraded.loads[1] == 0

    def test_experiments_without_networkx(self):
        from repro.experiments import exp_degraded, exp_replication

        replication = exp_replication.run(
            grid_dims=(8, 8), num_disks=4, sides=(2, 3), max_placements=6
        )
        assert replication.experiment_id == "X4"
        rt, availability = exp_degraded.run(
            grid_dims=(8, 8),
            num_disks=4,
            side=2,
            failure_counts=(0, 1),
            num_scenarios=2,
            max_placements=6,
        )
        assert (rt.experiment_id, availability.experiment_id) == (
            "X7a",
            "X7b",
        )
