"""Workload generation: query streams and synthetic record datasets."""

from repro.workloads.datasets import (
    Dataset,
    correlated_dataset,
    gaussian_dataset,
    uniform_dataset,
    zipf_grid_dataset,
)
from repro.workloads.queries import (
    aspect_ratio_shapes,
    exhaustive_workload,
    partial_match_batch,
    random_partial_match_queries,
    random_queries_of_shape,
    random_range_queries,
    random_shape_batch,
    square_shape,
    zipf_placed_queries,
)

__all__ = [
    "square_shape",
    "aspect_ratio_shapes",
    "exhaustive_workload",
    "random_range_queries",
    "random_queries_of_shape",
    "random_shape_batch",
    "random_partial_match_queries",
    "partial_match_batch",
    "zipf_placed_queries",
    "Dataset",
    "uniform_dataset",
    "gaussian_dataset",
    "zipf_grid_dataset",
    "correlated_dataset",
]
