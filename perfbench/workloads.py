"""The four benchmark workloads.

Each workload builds its inputs from the seed in :meth:`setup` (timed as
part of ``setup_s``), computes any reference outputs in :meth:`prepare`
(untimed), and then yields passes of operations.  A pass starts from the
state a fresh ``repro`` process would see: kernel caches are cleared and
every input graph is a fresh instance, so no per-graph memo carries over
from an earlier pass and per-op cost does not drift with run length.

An op returns an output; :meth:`check` compares it with the reference
output for the same op index, using invariants rather than pinned
digests, and a failed check counts as a failed op.  NOTES.md records why
each workload exists and which layer it stresses.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import tempfile
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.apps.registry import DEFAULT_APPS, make_app
from repro.cluster.catalog import get_machine
from repro.cluster.cluster import Cluster
from repro.cluster.perfmodel import PerformanceModel
from repro.core.estimators import ProxyCCREstimator, ThreadCountEstimator
from repro.core.profiler import ProxyProfiler
from repro.core.proxy import ProxySet
from repro.engine.runtime import GraphProcessingSystem
from repro.experiments.common import (
    CASE1_PARTITIONERS,
    REAL_GRAPHS,
    case1_cluster,
    proxy_vertices_for_scale,
)
from repro.faults.checkpoint import CheckpointPolicy, RetryPolicy
from repro.faults.schedule import CrashFault, FaultSchedule
from repro.faults.shards import ShardCrash, ShardFaultSchedule
from repro.federation import FederationPolicy, FederationService
from repro.graph.datasets import load_dataset
from repro.graph.digraph import DiGraph
from repro.kernels.cache import attach_store, clear_all_caches, detach_store
from repro.partition import make_partitioner
from repro.powerlaw.generator import generate_power_law_graph
from repro.service import JobService, ServicePolicy, generate_workload
from repro.service.request import GraphSpec, JobRequest, Workload
from repro.store.store import SummaryStore
from repro.streaming import (
    CheckpointCustody,
    ResilientStreamingSystem,
    StreamingSystem,
    generate_stream,
)

#: Graph scale of every workload (the ``repro experiment`` default).
SCALE = 0.01

#: One op: a zero-argument callable returning the op's output, and the
#: number of user-visible operations it stands for (jobs in one replay).
Op = Tuple[Callable[[], Any], int]


def fresh_graph(graph: DiGraph) -> DiGraph:
    """A new instance of ``graph`` with none of its lazily derived state."""
    return DiGraph(graph.num_vertices, graph.src, graph.dst)


def machine_pair() -> Cluster:
    """The m4.2xlarge + c4.2xlarge pair every service shard runs on."""
    return Cluster(
        [get_machine("m4.2xlarge"), get_machine("c4.2xlarge")],
        perf=PerformanceModel(model_scale=SCALE),
    )


class BenchWorkload:
    """Base class: inputs from a seed, passes of checked ops."""

    name = "abstract"

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = int(seed)
        self.tiny = bool(tiny)
        #: Reference output per op index (set by the warm-up pass or by
        #: :meth:`prepare`).
        self.reference: List[Any] = []
        self._store: SummaryStore | None = None
        self._store_dir = ""

    def setup(self) -> None:
        """Build the inputs (timed as set-up)."""

    def prepare(self, scratch_dir: str) -> None:
        """Untimed work after set-up: reference runs, scratch space."""
        self.scratch_dir = scratch_dir

    def begin_pass(self) -> None:
        """Reset per-pass state (untimed)."""
        clear_all_caches()

    def end_pass(self) -> None:
        """Release per-pass resources (untimed)."""
        if self._store is not None:
            self._store.close()
            self._store = None
            shutil.rmtree(self._store_dir, ignore_errors=True)

    def ops(self) -> List[Op]:
        raise NotImplementedError

    def digest(self, output: Any) -> Any:
        """Reduce an op's output to what :meth:`check` compares (untimed)."""
        return output

    def check(self, index: int, output: Any) -> bool:
        raise NotImplementedError

    def counts(self, output: Any) -> Dict[str, float]:
        """Layer counts carried by one op's digested output."""
        return {}

    def model_counts(self) -> Dict[str, float]:
        """Simulated model outputs of the reference run (not wall time)."""
        return {}

    def trace_digest(self) -> str:
        """sha256 of the reference outputs (recorded, never pinned)."""
        text = repr(self.digest_parts())
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def digest_parts(self) -> List[Any]:
        return list(self.reference)

    def new_store(self) -> SummaryStore:
        """A freshly created summary store, removed when the pass ends."""
        self._store_dir = tempfile.mkdtemp(
            prefix=f"{self.name}-", dir=self.scratch_dir
        )
        self._store = SummaryStore.create(
            os.path.join(self._store_dir, "summary.db")
        )
        return self._store


# ---------------------------------------------------------------------- #
# fig9_sweep
# ---------------------------------------------------------------------- #


class Fig9Sweep(BenchWorkload):
    """The paper's Fig. 9 Case 1 sweep, one op per system run."""

    name = "fig9_sweep"

    def setup(self) -> None:
        apps: Sequence[str] = DEFAULT_APPS
        graphs: Sequence[str] = REAL_GRAPHS
        algorithms: Sequence[str] = CASE1_PARTITIONERS
        scale = SCALE
        if self.tiny:
            apps, graphs, algorithms = apps[:2], graphs[:2], ("hybrid", "grid")
            scale = 0.002
        self.cluster = case1_cluster(scale)
        self.system = GraphProcessingSystem(self.cluster)
        # The graphs are the fixed Table II stand-ins, as in `repro
        # experiment fig9`; the seed draws the partitioner and proxy seeds.
        rng = np.random.default_rng(self.seed)
        self.partition_seed = int(rng.integers(0, 2**31 - 1))
        self.graphs = {g: load_dataset(g, scale=scale) for g in graphs}
        proxies = ProxySet(
            num_vertices=proxy_vertices_for_scale(scale),
            seed=int(rng.integers(0, 2**31 - 1)),
        )
        ccr = ProxyCCREstimator(profiler=ProxyProfiler(proxies=proxies))
        prior = ThreadCountEstimator()
        self.weights = {
            app: {
                "prior": prior.weights(self.cluster, app),
                "ccr": ccr.weights(self.cluster, app),
            }
            for app in apps
        }
        self.plan = [
            (app, g, alg, kind)
            for app in apps
            for g in graphs
            for alg in algorithms
            for kind in ("prior", "ccr")
        ]

    def begin_pass(self) -> None:
        super().begin_pass()
        self._pass_graphs = {g: fresh_graph(x) for g, x in self.graphs.items()}

    def ops(self) -> List[Op]:
        out: List[Op] = []
        partitioner = None
        for app, g, alg, kind in self.plan:
            if kind == "prior":
                # run_fig9 shares one partitioner between a bar pair.
                partitioner = make_partitioner(alg, seed=self.partition_seed)
            out.append((self._op(app, g, partitioner, kind), 1))
        return out

    def _op(self, app: str, g: str, partitioner: Any, kind: str):
        def run() -> Tuple[str, str, str, str, float]:
            outcome = self.system.run(
                make_app(app),
                self._pass_graphs[g],
                partitioner,
                weights=self.weights[app][kind],
            )
            return (app, g, partitioner.name, kind, outcome.report.runtime_seconds)

        return run

    def check(self, index: int, output: Any) -> bool:
        runtime = output[-1]
        return (
            output == self.reference[index]
            and math.isfinite(runtime)
            and runtime > 0.0
        )

    def model_counts(self) -> Dict[str, float]:
        pairs = zip(self.reference[::2], self.reference[1::2])
        speedups = [prior[-1] / ccr[-1] for prior, ccr in pairs]
        return {"model.mean_speedup": float(np.mean(speedups))}


# ---------------------------------------------------------------------- #
# serve_repeat / serve_unique
# ---------------------------------------------------------------------- #


def conserved(summary: Dict[str, Any]) -> bool:
    """Every submitted job ends in exactly one terminal status."""
    return summary["jobs_submitted"] == (
        summary["jobs_completed"]
        + summary["jobs_rejected"]
        + summary["jobs_deadline_exceeded"]
        + summary["jobs_failed"]
    )


class ServeWorkload(BenchWorkload):
    """Shared by the serve workloads: one op replays ``self.workload``."""

    def replay(self) -> Any:
        raise NotImplementedError

    def ops(self) -> List[Op]:
        return [(self.replay, len(self.workload.jobs))]

    def digest(self, output: Any) -> Tuple[str, Dict[str, Any]]:
        """Reduce a replay to (trace bytes, summary) outside the timer."""
        return output.trace_json(), output.summary()

    def check(self, index: int, output: Any) -> bool:
        trace, summary = output
        return (
            trace == self.reference[index][0]
            and conserved(summary)
            and summary["jobs_submitted"] == len(self.workload.jobs)
        )

    def counts(self, output: Any) -> Dict[str, float]:
        _, summary = output
        return {
            f"service.{key}": float(summary[key])
            for key in (
                "jobs_completed",
                "jobs_rejected",
                "jobs_deadline_exceeded",
                "jobs_failed",
            )
        }

    def digest_parts(self) -> List[Any]:
        return [trace for trace, _ in self.reference]

    def model_counts(self) -> Dict[str, float]:
        summary = self.reference[0][1]
        return {
            "model.jobs_per_sim_hour": float(
                summary["throughput_jobs_per_sim_hour"]
            )
        }


class ServeRepeat(ServeWorkload):
    """An 8-shard federation replaying a job stream whose inputs repeat."""

    name = "serve_repeat"

    def setup(self) -> None:
        # 300 jobs make a replay of about 0.6-0.9 s, so a 20 s window holds
        # 20-30 replays to take the best pass from.  Tiny inputs (for the
        # benchmark's tests) are fewer, denser jobs on fewer shards; they
        # still steal and fail over for most seeds, seed 5 included, but
        # not for every one (seeds 2 and 6 give no failover).
        self.shards = 4 if self.tiny else 8
        self.workload = generate_workload(
            80 if self.tiny else 300,
            seed=self.seed,
            mean_interarrival_s=0.005 if self.tiny else 0.02,
            deadline_fraction=0.2,
            fault_fraction=0.1,
            crash_rate=0.01,
        )
        # Staggered crashes: every shard goes down three times, at evenly
        # spaced instants across the arrival horizon, so some crash lands
        # on a busy shard and strands work for any seed.  One fixed crash
        # often found its shard idle and produced no failover; with these
        # 24, every one of seeds 1-60 gave at least 7 failovers.
        horizon = max(job.submit_s for job in self.workload.jobs)
        slots = 3 * self.shards
        self.shard_faults = ShardFaultSchedule(
            crashes=tuple(
                ShardCrash(
                    time_s=round(horizon * (i + 1) / (slots + 1), 6),
                    shard=i % self.shards,
                    downtime_s=round(horizon / 60.0, 6),
                )
                for i in range(slots)
            )
        )

    def replay(self) -> Any:
        service = FederationService(
            [machine_pair() for _ in range(self.shards)],
            policy=ServicePolicy(max_queue_depth=8),
            federation=FederationPolicy(steal_backlog=2),
        )
        return service.run_workload(self.workload, shard_faults=self.shard_faults)

    def check(self, index: int, output: Any) -> bool:
        _, summary = output
        return (
            super().check(index, output)
            and summary["steals"] > 0
            and summary["failovers"] > 0
            and summary["shard_crashes"] >= 1
        )

    def counts(self, output: Any) -> Dict[str, float]:
        _, summary = output
        out = super().counts(output)
        for key in ("steals", "failovers", "shard_crashes"):
            out[f"federation.{key}"] = float(summary[key])
        return out


class ServeUnique(ServeWorkload):
    """One service over jobs that never share an input, with a cold store."""

    name = "serve_unique"

    def setup(self) -> None:
        jobs = 8 if self.tiny else 50
        rng = np.random.default_rng(self.seed)
        apps = ("pagerank", "connected_components")
        sizes = (600, 900, 1200)
        # Graph seeds are distinct by construction: a random base plus
        # the job index, so no two jobs share a fingerprint.
        base = int(rng.integers(0, 2**30))
        clock = 0.0
        requests = []
        for i in range(jobs):
            clock += float(rng.exponential(0.02))
            requests.append(
                JobRequest(
                    job_id=f"job-{i:04d}",
                    app=apps[int(rng.integers(0, len(apps)))],
                    graph=GraphSpec(
                        vertices=sizes[int(rng.integers(0, len(sizes)))],
                        alpha=2.1,
                        seed=base + i,
                    ),
                    submit_s=clock,
                    priority=int(rng.integers(0, 3)),
                )
            )
        self.workload = Workload(jobs=tuple(requests), seed=self.seed)

    def begin_pass(self) -> None:
        super().begin_pass()
        attach_store(self.new_store())

    def end_pass(self) -> None:
        detach_store()
        super().end_pass()

    def replay(self) -> Any:
        return JobService(machine_pair()).run_workload(self.workload)


# ---------------------------------------------------------------------- #
# stream_ckpt
# ---------------------------------------------------------------------- #


class StreamCkpt(BenchWorkload):
    """Checkpointed streaming runs that survive one mid-stream crash."""

    name = "stream_ckpt"
    app = "pagerank"
    algorithm = "hybrid"
    halo = 1

    def setup(self) -> None:
        batches = 4 if self.tiny else 12
        vertices = 300 if self.tiny else 1200
        self.cluster = case1_cluster(SCALE)
        # The churn_faults base graph; the seed draws the mutation stream,
        # so the input size (and the work per op) does not vary by seed.
        self.graph = generate_power_law_graph(
            num_vertices=vertices, alpha=2.1, seed=1234
        )
        self.stream = generate_stream(
            self.graph,
            pattern="churn",
            num_batches=batches,
            ops_per_batch=12,
            seed=self.seed,
        )
        # The stream runs num_batches + 1 epochs; striking past the
        # midpoint leaves completed epochs to replay (as churn_faults).
        crash_epoch = (batches + 1) // 2 + 1
        self.faults = FaultSchedule(
            crashes=(CrashFault(superstep=crash_epoch, machine=0),)
        )

    def prepare(self, scratch_dir: str) -> None:
        super().prepare(scratch_dir)
        undisturbed = StreamingSystem(self.cluster, halo=self.halo).run(
            make_app(self.app),
            fresh_graph(self.graph),
            self.stream,
            make_partitioner(self.algorithm, seed=self.seed),
        )
        self.reference = [undisturbed.trace_json()]

    def begin_pass(self) -> None:
        super().begin_pass()
        self._graph = fresh_graph(self.graph)
        self._custody = CheckpointCustody(self.new_store())

    def ops(self) -> List[Op]:
        def run() -> Any:
            system = ResilientStreamingSystem(
                self.cluster,
                halo=self.halo,
                faults=self.faults,
                checkpoint=CheckpointPolicy(interval=2),
                retry=RetryPolicy(),
                seed=self.seed,
                custody=self._custody,
                job_id="stream-0",
            )
            return system.run_resilient(
                make_app(self.app),
                self._graph,
                self.stream,
                make_partitioner(self.algorithm, seed=self.seed),
            )

        return [(run, 1)]

    def digest(self, output: Any) -> Tuple[str, Dict[str, Any]]:
        recovery = output.recovery
        return output.result.trace_json(), {
            "crashes": recovery.crashes,
            "replayed_epochs": recovery.replayed_epochs,
            "sim_seconds": output.result.total_runtime_seconds
            + recovery.overhead_seconds,
        }

    def check(self, index: int, output: Any) -> bool:
        trace, recovery = output
        return (
            trace == self.reference[0]
            and recovery["crashes"] == 1
            and recovery["replayed_epochs"] > 0
        )

    def counts(self, output: Any) -> Dict[str, float]:
        _, recovery = output
        return {
            "recovery.crashes": float(recovery["crashes"]),
            "recovery.replayed_epochs": float(recovery["replayed_epochs"]),
            "model.sim_seconds": float(recovery["sim_seconds"]),
        }


WORKLOADS: Dict[str, type] = {
    w.name: w for w in (Fig9Sweep, ServeRepeat, ServeUnique, StreamCkpt)
}
