"""Graph Coloring (asynchronous greedy, Jones–Plassmann style).

PowerGraph colors directed graphs with an *asynchronous* engine: vertices
grab edge-consistent locks and greedily pick the smallest colour unused by
their neighbours.  The execution pattern that emerges — waves of vertices
that are local priority maxima colouring concurrently, conflicts resolved
in later waves — is the Jones–Plassmann schedule, which is what this
implementation runs explicitly:

* round ``r``: every uncoloured vertex that has the highest priority
  (degree, then hash) among its uncoloured neighbours picks the minimum
  colour excluded by its already-coloured neighbours;
* rounds repeat until no vertex is uncoloured.

The result is a valid proper colouring and the colour count the
application reports.

Cost calibration: the asynchronous engine's fine-grained locking
serialises a larger share of the work than the synchronous engines
(bigger ``serial_flops_per_superstep``) and issues many more small
messages (higher ``sync_rounds``) — the paper calls this out as the reason
Coloring benefits least from re-balancing (Section V-B.1).
"""

from __future__ import annotations

import numpy as np

from repro.engine.accounting import AppCostModel
from repro.engine.distributed_graph import DistributedGraph
from repro.engine.trace import ExecutionTrace
from repro.engine.vertex_program import GraphApplication
from repro.errors import EngineError
from repro.graph.digraph import DiGraph
from repro.apps.triangle_count import undirected_simple_edges
from repro.kernels.accounting import coloring_trace
from repro.utils.rng import hash_to_unit, mix64

__all__ = ["GraphColoring"]


class GraphColoring(GraphApplication):
    """Asynchronous greedy colouring with priority waves.

    Parameters
    ----------
    seed:
        Priority tie-break hash stream.
    max_rounds:
        Safety bound; Jones–Plassmann terminates in O(log n) rounds with
        high probability on bounded-degree orderings.
    """

    name = "coloring"

    cost = AppCostModel(
        flops_per_edge_op=10.0,
        stream_bytes_per_edge_op=3.0,
        cacheable_bytes_per_edge_op=2.0,
        flops_per_vertex_op=10.0,
        stream_bytes_per_vertex_op=16.0,
        serial_fraction=0.008,
        serial_flops_per_superstep=2e4,
        value_bytes=8,
        sync_rounds=6,
    )

    def __init__(self, seed: int = 0, max_rounds: int = 500):
        if max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
        self.seed = seed
        self.max_rounds = max_rounds

    # ------------------------------------------------------------------ #

    def color(self, graph: DiGraph):
        """Colour the undirected simple skeleton.

        Returns
        -------
        (colors, rounds_log)
            ``colors`` — int array, -1 never occurs on return;
            ``rounds_log`` — list of per-round colored-vertex masks (used
            for work accounting).
        """
        n = graph.num_vertices
        u, v = undirected_simple_edges(graph)
        deg = (np.bincount(u, minlength=n) + np.bincount(v, minlength=n)).astype(
            np.int64
        )

        colors = np.full(n, -1, dtype=np.int64)
        # Isolated vertices trivially take colour 0.
        colors[deg == 0] = 0

        # Priority: degree first (hubs colour early, keeping the palette
        # small), hash tie-break for uniqueness.
        priority = deg.astype(np.float64) + hash_to_unit(
            mix64(np.arange(n, dtype=np.int64), seed=self.seed)
        )

        rounds_log = []
        max_color = 0
        for _ in range(self.max_rounds):
            uncolored = colors < 0
            if not np.any(uncolored):
                break
            # Edges whose endpoints are both uncoloured suppress the lower
            # priority side from this wave.
            is_max = uncolored.copy()
            both = uncolored[u] & uncolored[v]
            bu, bv = u[both], v[both]
            u_lower = priority[bu] < priority[bv]
            is_max[bu[u_lower]] = False
            is_max[bv[~u_lower]] = False

            winners = np.nonzero(is_max)[0]
            if winners.size == 0:
                raise EngineError(
                    "colouring wave stalled: no priority maxima found"
                )

            # Minimum excluded colour per winner, over coloured neighbours.
            width = max_color + 2
            used = np.zeros((winners.size, width), dtype=bool)
            widx = np.full(n, -1, dtype=np.int64)
            widx[winners] = np.arange(winners.size)
            for a, b in ((u, v), (v, u)):
                sel = (widx[a] >= 0) & (colors[b] >= 0)
                used[widx[a[sel]], colors[b[sel]]] = True
            mex = np.argmin(used, axis=1)  # first False column
            colors[winners] = mex
            max_color = max(max_color, int(mex.max(initial=0)))
            rounds_log.append(winners)

        if np.any(colors < 0):
            raise EngineError(
                f"colouring did not finish within {self.max_rounds} rounds"
            )
        return colors, rounds_log

    # ------------------------------------------------------------------ #

    def execute(self, dgraph: DistributedGraph) -> ExecutionTrace:
        # Memoised colouring + histogram accounting over the waves (see
        # repro.kernels.accounting.coloring_trace).
        return coloring_trace(self, dgraph)
