"""X4, X5, X7 and EPM build their workloads as query batches."""

import pytest

from repro.core.query import RangeQuery
from repro.experiments.runner import run_experiment


@pytest.mark.parametrize("key", ["X4", "X5", "X7", "EPM"])
def test_experiment_constructs_no_range_query(key, monkeypatch):
    made = []
    original = RangeQuery.__post_init__

    def counted(self):
        made.append(self)
        original(self)

    monkeypatch.setattr(RangeQuery, "__post_init__", counted)
    result = run_experiment(key, quick=True)
    assert result is not None
    assert made == []
