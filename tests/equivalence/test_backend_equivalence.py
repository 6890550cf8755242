"""Differential equivalence: scalar reference kernels vs production.

The kernel contract (DESIGN.md §11): every artefact the library emits —
partition assignments, ExecutionTrace canonical JSON, CCR estimates,
experiment rows — must be **bit-identical** under the production kernels
and under the test-only scalar references (:mod:`.reference`).  These
tests run the full pipeline twice, once per path, and compare bytes,
over every app × partitioner combination and a set of degenerate graphs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.registry import DEFAULT_APPS, make_app
from repro.cluster.cluster import Cluster
from repro.cluster.machine import MachineSpec
from repro.core.profiler import ProxyProfiler
from repro.core.proxy import ProxySet
from repro.engine.distributed_graph import DistributedGraph
from repro.graph.digraph import DiGraph
from repro.kernels.cache import assignment_cache, clear_all_caches
from repro.partition import make_partitioner
from repro.powerlaw.generator import generate_power_law_graph
from tests.equivalence.reference import (
    KERNEL_PATHS,
    SEAMS,
    kernel_path,
    reference_kernels,
)

PARTITIONERS = ("random_hash", "grid", "oblivious", "hybrid", "ginger")
#: Deliberately non-uniform: exercises the weighted paths of every
#: partitioner and the heterogeneity-aware balance terms.
WEIGHTS = (1.0, 2.0, 1.5, 0.5)
NUM_MACHINES = 4


@pytest.fixture(scope="module")
def pl_graph() -> DiGraph:
    return generate_power_law_graph(num_vertices=300, alpha=2.0, seed=11)


def _edge_case_graphs():
    empty = np.empty(0, dtype=np.int64)
    return {
        "no_edges": DiGraph(5, empty, empty),
        "single_vertex": DiGraph(1, empty, empty),
        # Two triangles plus isolated vertices 6-8.
        "disconnected": DiGraph.from_edges(
            [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)], num_vertices=9
        ),
        # Parallel edges, reciprocal pair and self loops.
        "duplicates": DiGraph.from_edges(
            [(0, 0), (0, 1), (0, 1), (1, 0), (2, 2), (1, 2), (1, 2), (3, 1)],
            num_vertices=4,
        ),
    }


def _run_pipeline(app_name, partitioner_name, graph, backend):
    """Partition + execute on one kernel path, from cold caches."""
    clear_all_caches()
    with kernel_path(backend):
        part = make_partitioner(partitioner_name, seed=3)
        res = part.partition(graph, NUM_MACHINES, np.array(WEIGHTS))
        dgraph = DistributedGraph(res)
        trace = make_app(app_name).execute(dgraph)
    return res.assignment.copy(), trace.canonical_json()


@pytest.mark.parametrize("partitioner_name", PARTITIONERS)
@pytest.mark.parametrize("app_name", DEFAULT_APPS)
def test_trace_bit_identical(app_name, partitioner_name, pl_graph):
    """Every app × partitioner: same assignment bytes, same trace JSON."""
    a_scalar, t_scalar = _run_pipeline(
        app_name, partitioner_name, pl_graph, "scalar"
    )
    a_vec, t_vec = _run_pipeline(
        app_name, partitioner_name, pl_graph, "vectorized"
    )
    assert np.array_equal(a_scalar, a_vec)
    assert t_scalar == t_vec


@pytest.mark.parametrize("partitioner_name", ("random_hash", "ginger"))
@pytest.mark.parametrize("app_name", DEFAULT_APPS)
@pytest.mark.parametrize("graph_name", sorted(_edge_case_graphs()))
def test_edge_case_graphs_bit_identical(app_name, partitioner_name, graph_name):
    """Degenerate graphs (no edges, singleton, disconnected, duplicates)."""
    graph = _edge_case_graphs()[graph_name]
    a_scalar, t_scalar = _run_pipeline(
        app_name, partitioner_name, graph, "scalar"
    )
    a_vec, t_vec = _run_pipeline(
        app_name, partitioner_name, graph, "vectorized"
    )
    assert np.array_equal(a_scalar, a_vec)
    assert t_scalar == t_vec


def test_profiler_ccr_identical():
    """Proxy-profiled CCR pools match to the last bit across paths."""
    slow = MachineSpec("slow", hw_threads=4, freq_ghz=2.0, mem_bw_gbs=8.0,
                       llc_mb=4.0)
    fast = MachineSpec("fast", hw_threads=8, freq_ghz=3.2, mem_bw_gbs=20.0,
                       llc_mb=12.0)
    pools = {}
    for backend in KERNEL_PATHS:
        clear_all_caches()
        with kernel_path(backend):
            profiler = ProxyProfiler(
                proxies=ProxySet(num_vertices=400, seed=5),
                apps=("pagerank", "connected_components"),
            )
            report = profiler.profile(Cluster([slow, fast]))
            pools[backend] = {
                app: report.pool.get(app).as_dict()
                for app in report.pool.apps()
            }
    assert pools["scalar"] == pools["vectorized"]


def test_fig8a_rows_identical():
    """A whole experiment driver produces identical rows on both paths."""
    from repro.experiments.fig8 import run_fig8a

    rows = {}
    for backend in KERNEL_PATHS:
        clear_all_caches()
        with kernel_path(backend):
            result = run_fig8a(scale=0.002, apps=("pagerank",), seed=100)
            rows[backend] = result.rows()
    assert rows["scalar"] == rows["vectorized"]


def test_vectorized_cache_hits_preserve_results(pl_graph):
    """A warm-cache rerun returns the bytes the cold run produced."""
    clear_all_caches()
    outputs = []
    for _ in range(2):
        part = make_partitioner("hybrid", seed=3)
        res = part.partition(pl_graph, NUM_MACHINES, np.array(WEIGHTS))
        trace = make_app("coloring").execute(DistributedGraph(res))
        outputs.append((res.assignment.copy(), trace.canonical_json()))
    assert assignment_cache.hits >= 1  # the rerun actually hit
    assert np.array_equal(outputs[0][0], outputs[1][0])
    assert outputs[0][1] == outputs[1][1]


def _repro_bindings(func):
    """(module, attribute) pairs binding ``func`` in loaded repro modules."""
    import sys

    return sorted(
        (name, attr)
        for name, module in list(sys.modules.items())
        if module is not None and name.split(".")[0] == "repro"
        for attr, value in list(vars(module).items())
        if value is func
    )


def test_reference_kernels_swap_every_binding():
    """Every binding of a production kernel is swapped inside the block
    (its defining module included) and restored on exit."""
    before = {ref: _repro_bindings(prod) for prod, ref in SEAMS}
    for prod, ref in SEAMS:
        assert (prod.__module__, prod.__name__) in before[ref]
    with reference_kernels():
        for prod, ref in SEAMS:
            assert _repro_bindings(prod) == []
            assert _repro_bindings(ref) == before[ref]
    for prod, ref in SEAMS:
        assert _repro_bindings(prod) == before[ref]


def test_local_edges_are_the_assigned_edges(pl_graph):
    """``local_src``/``local_dst`` are the per-machine endpoint gathers.

    The layout builds them as slices of one machine-sorted gather; no
    kernel seam covers that branch, so it is pinned against the plain
    per-machine fancy index directly.
    """
    src, dst = pl_graph.edges()
    for name in PARTITIONERS:
        res = make_partitioner(name, seed=3).partition(
            pl_graph, NUM_MACHINES, np.array(WEIGHTS)
        )
        dgraph = DistributedGraph(res)
        for m in range(NUM_MACHINES):
            ids = dgraph.edge_ids[m]
            assert np.array_equal(ids, np.nonzero(res.assignment == m)[0])
            assert np.array_equal(dgraph.local_src[m], src[ids])
            assert np.array_equal(dgraph.local_dst[m], dst[ids])
            assert dgraph.local_src[m].dtype == src.dtype


def test_every_reference_runs(pl_graph, monkeypatch):
    """A reference pipeline calls every scalar twin, so no seam is dead."""
    from tests.equivalence import reference

    calls = {}

    def counted(ref):
        def wrapper(*args, **kwargs):
            calls[ref.__name__] = calls.get(ref.__name__, 0) + 1
            return ref(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        reference, "SEAMS", tuple((p, counted(r)) for p, r in SEAMS)
    )
    for app_name in DEFAULT_APPS:
        _run_pipeline(app_name, "ginger", pl_graph, "scalar")
    assert sorted(calls) == sorted(ref.__name__ for _, ref in SEAMS)
