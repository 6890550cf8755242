"""Profile-cache semantics and the fig2/fig8 duplicate-profiling fix.

Before PR 4 the fig2, fig8a and fig8b drivers each re-executed the same
(app, graph) profiling sets from scratch — identical graph *content*
loaded independently per driver.  The content-keyed profile caches
deduplicate them; these tests pin the exact execution counts.
"""

from __future__ import annotations

import pytest

from repro.engine.runtime import GraphProcessingSystem
from repro.experiments.fig2 import run_fig2
from repro.experiments.fig8 import run_fig8a, run_fig8b
from repro.kernels.cache import cache_stats, clear_all_caches
from tests.equivalence.reference import reference_kernels

#: One profiling execution per unique graph: 4 real datasets + 3 proxies.
UNIQUE_GRAPHS = 7
SCALE = 0.002


@pytest.fixture
def count_profile_runs(monkeypatch):
    calls = {"n": 0}
    original = GraphProcessingSystem.run_single_machine

    def counting(self, app, graph):
        calls["n"] += 1
        return original(self, app, graph)

    monkeypatch.setattr(GraphProcessingSystem, "run_single_machine", counting)
    return calls


def test_fig_drivers_deduplicate_profiling(count_profile_runs):
    """fig8a profiles each unique graph once; fig8b and fig2 add nothing."""
    clear_all_caches()
    run_fig8a(scale=SCALE, apps=("pagerank",), seed=100)
    assert count_profile_runs["n"] == UNIQUE_GRAPHS

    # Same graph content, freshly loaded, different machine ladder:
    # every trace comes from the content-keyed cache.
    run_fig8b(scale=SCALE, apps=("pagerank",), seed=100)
    assert count_profile_runs["n"] == UNIQUE_GRAPHS

    # fig2 re-runs the whole fig8a ladder: fully deduplicated too.
    run_fig2(scale=SCALE, apps=("pagerank",), seed=100)
    assert count_profile_runs["n"] == UNIQUE_GRAPHS

    stats = cache_stats()
    assert stats["profile_trace"]["hits"] > 0
    assert stats["machine_time"]["hits"] > 0


def test_reference_kernels_reprofile_every_time(count_profile_runs):
    """The uncached reference path re-profiles every driver's graphs."""
    clear_all_caches()
    with reference_kernels():
        run_fig8a(scale=SCALE, apps=("pagerank",), seed=100)
        assert count_profile_runs["n"] == UNIQUE_GRAPHS
        run_fig8b(scale=SCALE, apps=("pagerank",), seed=100)
        assert count_profile_runs["n"] == 2 * UNIQUE_GRAPHS


def test_estimate_and_profiler_share_one_trace_entry(powerlaw_graph):
    """The service projection and the profiler store one single-machine
    trace per (app, graph): the second lookup hits the first's entry."""
    from repro.cluster.catalog import get_machine
    from repro.cluster.cluster import Cluster
    from repro.core.profiler import ProxyProfiler
    from repro.kernels.cache import profile_trace_cache
    from repro.service.estimate import projected_seconds

    cluster = Cluster([get_machine("m4.2xlarge"), get_machine("c4.2xlarge")])
    clear_all_caches()
    projected_seconds(cluster, "pagerank", powerlaw_graph)
    ProxyProfiler._single_machine_trace("pagerank", powerlaw_graph, cluster)
    stats = profile_trace_cache.stats()
    assert (stats["misses"], stats["hits"]) == (1, 1)
