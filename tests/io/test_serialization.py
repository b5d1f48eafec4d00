"""Unit tests for allocation / result serialization."""

import json

import numpy as np
import pytest

from repro.core.exceptions import AllocationError
from repro.core.grid import Grid
from repro.core.registry import get_scheme
from repro.experiments import exp_query_size
from repro.io import (
    allocation_from_dict,
    allocation_to_dict,
    load_allocation,
    load_replicated,
    load_result,
    result_from_dict,
    save_allocation,
    save_replicated,
    save_result,
)
from repro.replication import chained_replication


@pytest.fixture
def allocation():
    return get_scheme("hcam").allocate(Grid((8, 8)), 4)


class TestAllocationRoundTrip:
    def test_dict_round_trip(self, allocation):
        loaded = allocation_from_dict(allocation_to_dict(allocation))
        assert loaded == allocation

    def test_file_round_trip(self, allocation, tmp_path):
        path = tmp_path / "alloc.json"
        save_allocation(allocation, path)
        assert load_allocation(path) == allocation

    def test_document_is_plain_json(self, allocation, tmp_path):
        path = tmp_path / "alloc.json"
        save_allocation(allocation, path)
        document = json.loads(path.read_text())
        assert document["grid"] == [8, 8]
        assert document["num_disks"] == 4

    def test_tampering_detected(self, allocation, tmp_path):
        path = tmp_path / "alloc.json"
        save_allocation(allocation, path)
        document = json.loads(path.read_text())
        document["table"][0][0] = (document["table"][0][0] + 1) % 4
        path.write_text(json.dumps(document))
        with pytest.raises(AllocationError, match="checksum"):
            load_allocation(path)

    def test_wrong_format_rejected(self):
        with pytest.raises(AllocationError):
            allocation_from_dict({"format": "something-else"})

    def test_wrong_version_rejected(self, allocation):
        document = allocation_to_dict(allocation)
        document["version"] = 99
        with pytest.raises(AllocationError):
            allocation_from_dict(document)

    def test_three_dimensional(self, tmp_path):
        allocation = get_scheme("dm").allocate(Grid((3, 4, 5)), 6)
        path = tmp_path / "alloc3d.json"
        save_allocation(allocation, path)
        assert load_allocation(path) == allocation


class TestReplicatedRoundTrip:
    def test_file_round_trip(self, tmp_path):
        replicated = chained_replication(
            get_scheme("dm").allocate(Grid((8, 8)), 4)
        )
        path = tmp_path / "replicated.json"
        save_replicated(replicated, path)
        loaded = load_replicated(path)
        assert loaded.primary == replicated.primary
        assert loaded.backup == replicated.backup

    def test_wrong_format_rejected(self, tmp_path, allocation):
        path = tmp_path / "notreplicated.json"
        save_allocation(allocation, path)
        with pytest.raises(AllocationError):
            load_replicated(path)


class TestResultRoundTrip:
    @pytest.fixture(scope="class")
    def result(self):
        return exp_query_size.run(
            grid_dims=(8, 8), num_disks=4, areas=(1, 4, 16)
        )

    def test_file_round_trip(self, result, tmp_path):
        path = tmp_path / "result.json"
        save_result(result, path)
        loaded = load_result(path)
        assert loaded.experiment_id == result.experiment_id
        assert loaded.x_values == result.x_values
        assert loaded.series == result.series
        assert loaded.optimal == result.optimal

    def test_config_tuples_become_lists(self, result):
        from repro.io import result_to_dict

        document = result_to_dict(result)
        json.dumps(document)  # must be JSON-serializable as-is
        assert document["config"]["areas"] == [1, 4, 16]

    def test_wrong_format_rejected(self):
        with pytest.raises(AllocationError):
            result_from_dict({"format": "nope"})

    def test_loaded_result_renders(self, result, tmp_path):
        from repro.experiments.reporting import render_table

        path = tmp_path / "result.json"
        save_result(result, path)
        text = render_table(load_result(path))
        assert "[E1]" in text


class TestCostInvariance:
    def test_loaded_allocation_costs_identically(
        self, allocation, tmp_path
    ):
        from repro.core.cost import sliding_response_times

        path = tmp_path / "alloc.json"
        save_allocation(allocation, path)
        loaded = load_allocation(path)
        assert np.array_equal(
            sliding_response_times(allocation, (2, 2)),
            sliding_response_times(loaded, (2, 2)),
        )
