"""Property-based tests for grid-file record estimation."""

from hypothesis import given, settings
from hypothesis import strategies as st


class TestEstimationProperties:
    @given(
        seed=st.integers(0, 200),
        lo1=st.floats(0.0, 0.8),
        lo2=st.floats(0.0, 0.8),
        width=st.floats(0.05, 0.2),
    )
    @settings(max_examples=30, deadline=None)
    def test_estimate_bounded_by_dataset(self, seed, lo1, lo2, width):
        from repro.gridfile.file import DeclusteredGridFile
        from repro.workloads.datasets import uniform_dataset

        data = uniform_dataset(500, 2, seed=seed)
        gridfile = DeclusteredGridFile.from_dataset(
            data, dims=(8, 8), num_disks=4, scheme="dm"
        )
        ranges = [
            (lo1, min(lo1 + width, 1.0)),
            (lo2, min(lo2 + width, 1.0)),
        ]
        estimate = gridfile.estimate_records(ranges)
        assert 0.0 <= estimate <= 500.0
        exact = gridfile.count_records(ranges)
        # The estimate must bound the truth within the touched buckets'
        # total occupancy.
        region = gridfile.bucket_occupancy()[
            gridfile.range_query(ranges).slices()
        ]
        assert estimate <= region.sum() + 1e-9
        assert exact <= region.sum()
