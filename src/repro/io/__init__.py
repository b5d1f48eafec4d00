"""Persistence: JSON round-trips for allocations and experiment results."""

from repro.io.serialization import (
    allocation_from_dict,
    allocation_to_dict,
    load_allocation,
    load_replicated,
    load_result,
    result_from_dict,
    result_to_dict,
    save_allocation,
    save_replicated,
    save_result,
)

__all__ = [
    "allocation_to_dict",
    "allocation_from_dict",
    "save_allocation",
    "load_allocation",
    "save_replicated",
    "load_replicated",
    "result_to_dict",
    "result_from_dict",
    "save_result",
    "load_result",
]
