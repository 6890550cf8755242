"""Numpy-vectorized kernels and memoisation for the repro pipeline.

This package is the pipeline's one kernel path: CSR/CSC adjacency built
once per graph, vectorized gather/apply/accounting kernels, and
content-keyed caches for proxy profiling.  Every kernel here is
required to be **bit-identical** to its scalar reference twin, which
lives only in ``tests/equivalence/reference.py`` (see DESIGN.md §11).
"""

from __future__ import annotations

from repro.kernels.backend import active_backend
from repro.kernels.cache import (
    LRUCache,
    cache_stats,
    clear_all_caches,
    graph_fingerprint,
)
from repro.kernels.csr import CSRAdjacency, concat_ranges, stable_machine_order

__all__ = [
    "active_backend",
    "LRUCache",
    "cache_stats",
    "clear_all_caches",
    "graph_fingerprint",
    "CSRAdjacency",
    "concat_ranges",
    "stable_machine_order",
]
