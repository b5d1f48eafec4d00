"""Unit tests for the existence search — the paper's impossibility theorem."""

import pytest

from repro.core.exceptions import GridError, SearchBudgetExceeded
from repro.core.grid import Grid
from repro.theory.optimality import verify_strict_optimality
from repro.theory.search import (
    impossibility_frontier,
    search_strictly_optimal,
)


class TestExistence:
    @pytest.mark.parametrize("num_disks", [1, 2, 3, 5])
    def test_exists_for_small_disk_counts(self, num_disks):
        side = max(num_disks, 2)
        result = search_strictly_optimal(Grid((side, side)), num_disks)
        assert result.exists
        assert result.allocation is not None

    @pytest.mark.parametrize("num_disks", [1, 2, 3, 5])
    def test_found_allocations_verify(self, num_disks):
        side = max(num_disks, 2)
        result = search_strictly_optimal(Grid((side, side)), num_disks)
        report = verify_strict_optimality(result.allocation)
        assert report.strictly_optimal

    def test_exists_on_larger_grid_for_five_disks(self):
        result = search_strictly_optimal(Grid((7, 7)), 5)
        assert result.exists
        assert verify_strict_optimality(result.allocation).strictly_optimal


class TestImpossibility:
    @pytest.mark.parametrize("num_disks", [6, 7])
    def test_paper_theorem_disks_above_five(self, num_disks):
        """The paper's theorem: no strictly optimal method for M > 5."""
        grid = Grid((num_disks, num_disks))
        result = search_strictly_optimal(grid, num_disks)
        assert not result.exists
        assert result.allocation is None

    def test_four_disks_also_impossible(self):
        # Not claimed by the paper but true (and found by the search):
        # M = 4 has no strictly optimal allocation of a 4x4 grid.
        result = search_strictly_optimal(Grid((4, 4)), 4)
        assert not result.exists

    def test_impossibility_persists_on_larger_grid(self):
        # A strictly optimal allocation of a larger grid would restrict
        # to one of the 6x6 corner — so this must stay UNSAT.
        result = search_strictly_optimal(Grid((7, 7)), 6)
        assert not result.exists

    def test_small_grids_can_be_trivially_satisfiable(self):
        # On a grid so small that every query is nearly partial-match,
        # strict optimality is achievable even for M = 6: impossibility
        # is a statement about sufficiently large grids.
        result = search_strictly_optimal(Grid((2, 3)), 6)
        assert result.exists


class TestSearchMechanics:
    def test_node_budget_enforced(self):
        with pytest.raises(SearchBudgetExceeded):
            search_strictly_optimal(Grid((6, 6)), 6, node_budget=10)

    def test_nodes_explored_reported(self):
        result = search_strictly_optimal(Grid((3, 3)), 3)
        assert result.nodes_explored > 0

    def test_non_2d_grid_rejected(self):
        with pytest.raises(GridError):
            search_strictly_optimal(Grid((2, 2, 2)), 2)

    def test_nonpositive_disks_rejected(self):
        with pytest.raises(GridError):
            search_strictly_optimal(Grid((3, 3)), 0)

    def test_first_cell_canonical(self):
        # Symmetry breaking pins bucket (0,0) to disk 0.
        result = search_strictly_optimal(Grid((5, 5)), 5)
        assert result.allocation.disk_of((0, 0)) == 0


class TestEnumeration:
    def test_counts_match_known_values(self):
        from repro.theory.search import count_strictly_optimal

        counts = [
            count_strictly_optimal(
                Grid((max(m, 2), max(m, 2))), m, limit=100
            )
            for m in range(1, 7)
        ]
        # M=3 and M=5 each have exactly the two mirror-image lattices;
        # M=4 and M=6 have none (the impossibility results).
        assert counts == [1, 1, 2, 0, 2, 0]

    def test_enumerated_solutions_all_verify(self):
        from repro.theory.search import enumerate_strictly_optimal

        solutions = enumerate_strictly_optimal(Grid((5, 5)), 5)
        assert len(solutions) == 2
        for allocation in solutions:
            assert verify_strict_optimality(allocation).strictly_optimal

    def test_five_disk_solutions_are_the_two_lattices(self):
        from repro.schemes.disk_modulo import GeneralizedDiskModuloScheme
        from repro.theory.search import enumerate_strictly_optimal

        solutions = {
            s.canonicalized().table.tobytes()
            for s in enumerate_strictly_optimal(Grid((5, 5)), 5)
        }
        lattices = {
            GeneralizedDiskModuloScheme((1, skip))
            .allocate(Grid((5, 5)), 5)
            .canonicalized()
            .table.tobytes()
            for skip in (2, 3)
        }
        assert solutions == lattices

    def test_limit_truncates(self):
        from repro.theory.search import enumerate_strictly_optimal

        solutions = enumerate_strictly_optimal(Grid((5, 5)), 5, limit=1)
        assert len(solutions) == 1

    def test_invalid_limit_rejected(self):
        from repro.theory.search import enumerate_strictly_optimal

        with pytest.raises(GridError):
            enumerate_strictly_optimal(Grid((3, 3)), 3, limit=0)

    def test_budget_enforced(self):
        from repro.theory.search import enumerate_strictly_optimal

        with pytest.raises(SearchBudgetExceeded):
            enumerate_strictly_optimal(
                Grid((5, 5)), 5, node_budget=10
            )


class TestMinimalWitness:
    def test_achievable_disk_counts_have_no_witness(self):
        from repro.theory.search import minimal_impossible_grid

        for m in (1, 2, 3, 5):
            assert minimal_impossible_grid(m, max_side=6) is None

    def test_minimal_witnesses_are_tiny(self):
        from repro.theory.search import minimal_impossible_grid

        assert minimal_impossible_grid(4, max_side=6) == (3, 3)
        assert minimal_impossible_grid(6, max_side=6) == (3, 3)
        assert minimal_impossible_grid(7, max_side=6) == (3, 4)
        assert minimal_impossible_grid(8, max_side=6) == (3, 5)

    def test_witness_really_is_impossible_and_smaller_ones_possible(self):
        from repro.theory.search import (
            minimal_impossible_grid,
            search_strictly_optimal,
        )

        witness = minimal_impossible_grid(6, max_side=6)
        assert not search_strictly_optimal(Grid(witness), 6).exists
        # Every strictly smaller-area grid must still be satisfiable.
        area = witness[0] * witness[1]
        for a in range(1, 7):
            for b in range(a, 7):
                if a * b < area:
                    assert search_strictly_optimal(
                        Grid((a, b)), 6
                    ).exists

    def test_invalid_disk_count_rejected(self):
        from repro.theory.search import minimal_impossible_grid

        with pytest.raises(GridError):
            minimal_impossible_grid(0)


class TestFrontier:
    def test_frontier_matches_known_truth(self):
        results = impossibility_frontier(max_disks=6)
        exists = [r.exists for r in results]
        #        M=1   M=2   M=3   M=4    M=5   M=6
        assert exists == [True, True, True, False, True, False]

    def test_frontier_with_fixed_side(self):
        results = impossibility_frontier(max_disks=3, grid_side=6)
        assert all(r.exists for r in results)
        for r in results:
            assert verify_strict_optimality(r.allocation).strictly_optimal
