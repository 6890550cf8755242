"""Scalar reference kernels: the test-only oracles for the kernel path.

Production runs one kernel path (:mod:`repro.kernels`).  Each kernel
there has a scalar twin here — the original per-machine / per-vertex
loops, kept as the semantic ground truth the differential suites compare
against (DESIGN.md §11).

:func:`reference_kernels` swaps every twin in at its production call
seam and switches the content-keyed caches off
(:func:`repro.kernels.cache.caching_enabled` reads False), so a run
inside the block recomputes everything through the reference loops.
:func:`kernel_path` selects a path by the test-id name the suites
parametrise over: ``"scalar"`` (the references) or ``"vectorized"``
(production).
"""

from __future__ import annotations

import sys
from contextlib import contextmanager, nullcontext
from typing import Callable, ContextManager, Iterator, List, Tuple

import numpy as np

import repro  # noqa: F401  (loads every call-seam module before a swap)
from repro.apps.triangle_count import _undirected_simple_edges
from repro.engine.trace import ExecutionTrace, MachinePhase, SuperstepTrace
from repro.kernels import accounting as _accounting
from repro.kernels import cache as _cache
from repro.kernels import csr as _csr
from repro.kernels import engine as _engine
from repro.partition import ginger as _ginger

__all__ = ["KERNEL_PATHS", "SEAMS", "kernel_path", "reference_kernels"]

#: Test-id names of the two paths: scalar references vs production.
KERNEL_PATHS = ("scalar", "vectorized")


# ---------------------------------------------------------------------- #
# Engine: gather and per-machine vertex ops
# ---------------------------------------------------------------------- #


def _gather_direction(program, graph, values, sources, targets, active, acc,
                      has_message) -> int:
    """Aggregate messages for one edge direction; returns ops counted."""
    if sources.size == 0:
        return 0
    live = active[sources]
    if not np.any(live):
        return 0
    s = sources[live]
    t = targets[live]
    msgs = program.messages(graph, values, s)
    if program.accumulator == "sum":
        acc += np.bincount(t, weights=msgs, minlength=acc.size)
    else:
        np.minimum.at(acc, t, msgs)
    has_message[t] = True
    return int(s.size)


def reference_gather(program, dgraph, values, active, acc, has_message):
    """Per machine, forward then (if undirected) reverse gather."""
    graph = dgraph.graph
    edge_ops = np.zeros(dgraph.num_machines, dtype=np.float64)
    for i in range(dgraph.num_machines):
        ls, ld = dgraph.local_src[i], dgraph.local_dst[i]
        edge_ops[i] += _gather_direction(
            program, graph, values, ls, ld, active, acc, has_message
        )
        if program.undirected:
            edge_ops[i] += _gather_direction(
                program, graph, values, ld, ls, active, acc, has_message
            )
    return edge_ops


def reference_vertex_ops(dgraph, applied):
    """Applied vertices mastered on each machine, counted per machine."""
    return np.array(
        [
            np.count_nonzero(applied[dgraph.masters_on(i)])
            for i in range(dgraph.num_machines)
        ],
        dtype=np.float64,
    )


# ---------------------------------------------------------------------- #
# Accounting: mirror sync, Coloring, Triangle Count
# ---------------------------------------------------------------------- #


def reference_sync_bytes(dgraph, active, value_bytes):
    """Per-machine mirror-sync traffic via scatter-adds over replicas."""
    replicated = active & (dgraph.replica_counts > 1)
    if not np.any(replicated):
        return np.zeros(dgraph.num_machines, dtype=np.float64)
    pres = dgraph.presence[replicated]  # (k, M)
    masters = dgraph.master[replicated]
    copies = dgraph.replica_counts[replicated]

    # Mirror legs per machine: replicas that are not the master.
    mirror_legs = pres.sum(axis=0).astype(np.float64)
    np.add.at(mirror_legs, masters, -1.0)  # master replica is local
    # Master legs per machine: one per remote mirror of each master.
    master_legs = np.zeros(dgraph.num_machines, dtype=np.float64)
    np.add.at(master_legs, masters, (copies - 1).astype(np.float64))

    return (mirror_legs + master_legs) * float(value_bytes)


def reference_coloring_trace(app, dgraph):
    """Replay the colouring waves round by round, machine by machine."""
    graph = dgraph.graph
    m = dgraph.num_machines
    colors, rounds_log = app.color(graph)

    trace = ExecutionTrace(app=app.name, num_machines=m)
    uncolored = np.ones(graph.num_vertices, dtype=bool)
    masters = [dgraph.masters_on(i) for i in range(m)]
    for winners in rounds_log:
        # Each still-uncoloured vertex scans its neighbourhood during the
        # round, so a machine's edge work is its local edges touching the
        # uncoloured set at round start.
        comm = dgraph.sync_bytes(uncolored, app.cost.value_bytes)
        phases = []
        winner_mask = np.zeros(graph.num_vertices, dtype=bool)
        winner_mask[winners] = True
        for i in range(m):
            ls, ld = dgraph.local_src[i], dgraph.local_dst[i]
            if ls.size:
                edge_ops = float(np.count_nonzero(uncolored[ls] | uncolored[ld]))
            else:
                edge_ops = 0.0
            vertex_ops = float(np.count_nonzero(winner_mask[masters[i]]))
            work = app.cost.work(
                edge_ops=edge_ops,
                vertex_ops=vertex_ops,
                working_set_mb=float(dgraph.working_set_mb[i]),
            )
            phases.append(MachinePhase(work=work, comm_bytes=float(comm[i])))
        trace.append(
            SuperstepTrace(
                phases=phases, sync_rounds=app.cost.sync_rounds, label="wave"
            )
        )
        uncolored[winners] = False

    trace.result = {
        "colors": colors,
        "num_colors": int(colors.max(initial=0)) + 1,
        "rounds": len(rounds_log),
    }
    return trace


def reference_triangle_total(app, graph):
    """Unmemoised triangle total."""
    return app.count_triangles(graph)


def reference_simple_skeleton(graph):
    """Unmemoised undirected simple skeleton."""
    return _undirected_simple_edges(graph)


# ---------------------------------------------------------------------- #
# Layout and partitioning
# ---------------------------------------------------------------------- #


def reference_stable_machine_order(assignment, num_machines):
    """Stable argsort of edge ids by machine, plus per-machine counts."""
    order = np.argsort(assignment, kind="stable")
    counts = np.bincount(assignment, minlength=num_machines)
    return order, counts


def reference_concat_ranges(starts, stops):
    """``arange(starts[k], stops[k])`` for every k, one range at a time."""
    if starts.size == 0:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(
        [np.arange(a, b, dtype=np.int64) for a, b in zip(starts, stops)]
    )


def reference_move_vertices(vertices, new_machines, vertex_machine,
                            assignment, edge_count, vertex_count, in_indptr,
                            in_edge_ids) -> None:
    """Ginger's move application, one vertex at a time."""
    for v, new in zip(vertices, new_machines):
        lo, hi = in_indptr[v], in_indptr[v + 1]
        eids = in_edge_ids[lo:hi]
        old = vertex_machine[v]
        assignment[eids] = new
        vertex_machine[v] = new
        edge_count[old] -= eids.size
        edge_count[new] += eids.size
        vertex_count[old] -= 1
        vertex_count[new] += 1


def _caching_disabled() -> bool:
    return False


#: (production kernel, scalar reference) at every call seam.
SEAMS: Tuple[Tuple[Callable, Callable], ...] = (
    (_engine.gather_vectorized, reference_gather),
    (_engine.vertex_ops_vectorized, reference_vertex_ops),
    (_accounting.sync_bytes_vectorized, reference_sync_bytes),
    (_accounting.coloring_trace, reference_coloring_trace),
    (_accounting.cached_triangle_total, reference_triangle_total),
    (_accounting.cached_simple_skeleton, reference_simple_skeleton),
    (_csr.stable_machine_order, reference_stable_machine_order),
    (_csr.concat_ranges, reference_concat_ranges),
    (_ginger.move_vertices, reference_move_vertices),
    (_cache.caching_enabled, _caching_disabled),
)


@contextmanager
def reference_kernels() -> Iterator[None]:
    """Run the block on the scalar references, with caching off.

    Every module-level binding of a production kernel in a loaded
    ``repro`` module — its defining module and every ``from ... import``
    site — is rebound to the reference for the duration of the block and
    restored on exit, so no call seam can miss the swap.
    """
    swaps = {id(prod): ref for prod, ref in SEAMS}
    patched: List[Tuple[object, str, object]] = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            ref = swaps.get(id(value))
            if ref is not None:
                patched.append((module, attr, value))
                setattr(module, attr, ref)
    try:
        yield
    finally:
        for module, attr, value in reversed(patched):
            setattr(module, attr, value)


def kernel_path(name: str) -> ContextManager[None]:
    """The context for one of :data:`KERNEL_PATHS`."""
    if name not in KERNEL_PATHS:
        raise ValueError(f"unknown kernel path {name!r}")
    return reference_kernels() if name == "scalar" else nullcontext()

