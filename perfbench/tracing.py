"""Outside-in per-layer tracing for the benchmark.

The tracer wraps public callables of each ``repro`` layer from here, not
from inside the program, and keeps spans in memory as
``[name, start, end, parent, extra]`` lists.  It deliberately installs no
``repro.obs`` observer: an installed observer switches the content-keyed
kernel caches off, so the traced run would measure a different program.

A span's *self* time is its duration minus the durations of its direct
children (spans nest, the benchmark is single-threaded).  The benchmark
opens one root span per set-up and per op, so the self times of every
span add up to the traced wall time, and the roots' own self time is the
time no wrapped layer claims (``bench.unattributed_s``).

The untraced window installs the same wrappers around a
:class:`LapClock` instead, which only timestamps call boundaries.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Root spans opened by the benchmark itself.
ROOTS = ("setup", "op")

#: Kernel caches reported through ``cache_stats()``.
CACHES = ("profile_trace", "machine_time", "assignment", "dgraph", "estimate")


def _edges(args, kwargs, result) -> int:
    graph = args[1] if len(args) > 1 else kwargs["graph"]
    return graph.num_edges


def _supersteps(args, kwargs, result) -> int:
    return result.num_supersteps


def _payload_bytes(args, kwargs, result) -> int:
    payload = args[3] if len(args) > 3 else kwargs["payload"]
    return len(payload)


def _reassigned(args, kwargs, result) -> int:
    return result.reassigned_edges


def _state_bytes(args, kwargs, result) -> int:
    return result


def _resilient_key(args, kwargs, result) -> Tuple[Any, ...]:
    """Distinct input of one ``ResilientRuntime.run``: app and its args,
    graph content, weights bytes, and whether the run is faulted."""
    from repro.kernels.cache import graph_fingerprint

    runtime, app = args[0], args[1]
    graph = args[2] if len(args) > 2 else kwargs["graph"]
    app_key = (
        app
        if isinstance(app, str)
        else (app.name, tuple(sorted((k, repr(v)) for k, v in vars(app).items())))
    )
    faulted = runtime.schedule is not None and not runtime.schedule.is_empty
    return (
        app_key,
        graph_fingerprint(graph),
        result.partition.weights.tobytes(),
        faulted,
    )


#: (module, attribute path, group, extra) for every wrapped callable.  A
#: group is the per-layer metric family the span's self time lands in;
#: ``extra`` derives a per-span quantity from the call and its result.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable[..., Any]]], ...] = (
    ("repro.graph.datasets", "load_dataset", "graph.load", None),
    ("repro.service.request", "GraphSpec.load", "graph.load", None),
    ("repro.powerlaw.generator", "generate_power_law_graph", "graph.load", None),
    ("repro.core.estimators", "ProxyCCREstimator.weights", "core.profile", None),
    ("repro.core.profiler", "ProxyProfiler.profile", "core.profile", None),
    ("repro.service.estimate", "projected_seconds", "service.estimate", None),
    ("repro.partition.base", "Partitioner.partition", "partition", _edges),
    ("repro.engine.distributed_graph", "DistributedGraph.__init__",
     "engine.layout", None),
    ("repro.engine.report", "simulate_execution", "engine.price", None),
    ("repro.engine.resilient", "simulate_resilient_execution",
     "engine.price", None),
    ("repro.engine.resilient", "ResilientRuntime.run", "engine.resilient",
     _resilient_key),
    ("repro.store.store", "SummaryStore.put", "store.put", _payload_bytes),
    ("repro.store.store", "SummaryStore.get", "store.get", None),
    ("repro.service.service", "JobService.run_workload", "service", None),
    ("repro.federation.federation", "FederationService.run_workload",
     "federation", None),
    ("repro.streaming.mutations", "apply_batch", "streaming.apply_batch", None),
    ("repro.streaming.incremental", "IncrementalPartitioner.start",
     "streaming.repair", None),
    ("repro.streaming.incremental", "IncrementalPartitioner.apply",
     "streaming.repair", _reassigned),
    ("repro.streaming.recovery", "CheckpointCustody.record",
     "recovery.checkpoint", None),
    ("repro.streaming.recovery", "StreamCheckpoint.canonical_json",
     "recovery.checkpoint", None),
    ("repro.streaming.recovery", "StreamCheckpoint.state_bytes",
     "recovery.checkpoint", _state_bytes),
    ("repro.streaming.runner", "EpochOutcome.to_record",
     "recovery.checkpoint", None),
)

#: ``execute`` is overridden per application family, so every subclass
#: of GraphApplication that defines it is wrapped separately.
EXECUTE_GROUP = "engine.execute"


class Tracer:
    """In-memory span recorder; records only while a root span is open."""

    #: Wrappers compute each target's ``extra`` for a tracer.
    wants_extra = True

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []

    @property
    def recording(self) -> bool:
        return bool(self._stack)

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(index)
        return index

    def close(self, index: int, extra: Any = None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[4] = extra
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str) -> Iterator[None]:
        """A root span around one set-up or op; wrappers record inside it."""
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)


class LapClock:
    """Timestamps at the entry and exit of every wrapped call.

    The untraced window's counterpart of :class:`Tracer`: no spans, no
    extras, just one ``perf_counter`` reading per call boundary while
    :attr:`recording` is set.  The ops are deterministic, so the laps cut
    an op into the same short segments in every pass, and the best pass
    can take each segment's fastest time (see ``run.Window``).
    """

    wants_extra = False

    def __init__(self) -> None:
        self.laps: List[float] = []
        self.recording = False

    def start(self) -> List[float]:
        """Start recording one op's laps; returns the list they go to."""
        self.laps = []
        self.recording = True
        return self.laps

    def open(self, name: str) -> int:
        self.laps.append(time.perf_counter())
        return 0

    def close(self, index: int, extra: Any = None) -> None:
        self.laps.append(time.perf_counter())


def _wrap(tracer: Any, name: str, fn: Callable[..., Any],
          extra: Optional[Callable[..., Any]]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not tracer.recording:
            return fn(*args, **kwargs)
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(index)
            raise
        tracer.close(index, extra(args, kwargs, result) if extra else None)
        return result

    return wrapper


class Installation:
    """Wrappers installed for one tracer or lap clock; :meth:`remove`
    restores them."""

    def __init__(self, tracer: Any):
        self.tracer = tracer
        self.groups: Dict[str, str] = {root: "bench.root" for root in ROOTS}
        self._restore: List[Tuple[Any, str, Any]] = []
        for module_name, path, group, extra in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                self._patch_method(getattr(module, cls_name), attr, path,
                                   group, extra)
            else:
                self._patch_function(getattr(module, path), path, group, extra)
        from repro.apps import registry  # noqa: F401  (loads every app)
        from repro.engine.vertex_program import GraphApplication

        for cls in _subclasses(GraphApplication):
            if "execute" in vars(cls):
                self._patch_method(cls, "execute", f"{cls.__name__}.execute",
                                   EXECUTE_GROUP, _supersteps)

    def _patch_method(self, cls: type, attr: str, name: str, group: str,
                      extra: Optional[Callable[..., Any]]) -> None:
        original = vars(cls)[attr]
        self.groups[name] = group
        self._restore.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(name, original, extra))

    def _patch_function(self, original: Callable[..., Any], name: str,
                        group: str, extra: Optional[Callable[..., Any]]) -> None:
        """Rebind a function everywhere a loaded module imported it."""
        self.groups[name] = group
        wrapper = self._wrapper(name, original, extra)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _wrapper(self, name: str, fn: Callable[..., Any],
                 extra: Optional[Callable[..., Any]]) -> Callable[..., Any]:
        return _wrap(self.tracer, name, fn,
                     extra if self.tracer.wants_extra else None)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def _subclasses(cls: type) -> List[type]:
    out: List[type] = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def self_times(spans: List[List[Any]]) -> List[float]:
    """Each span's duration minus its direct children's durations."""
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] >= 0:
            own[span[3]] -= span[2] - span[1]
    return own


def layer_metrics(spans: List[List[Any]], groups: Dict[str, str],
                  cache_totals: Dict[str, Dict[str, int]]) -> Dict[str, float]:
    """Per-layer metrics from the spans and the summed cache counters."""
    own = self_times(spans)
    busy: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    names: Dict[str, int] = defaultdict(int)
    extra: Dict[str, float] = defaultdict(float)
    distinct = set()
    for span, self_s in zip(spans, own):
        name, parent = span[0], span[3]
        group = groups[name]
        busy[group] += self_s
        names[name] += 1
        outermost = parent < 0 or groups[spans[parent][0]] != group
        if outermost:
            calls[group] += 1
        if span[4] is None:
            continue
        if group == "engine.resilient":
            distinct.add(span[4])
        elif outermost:
            # A call nested in its own layer (an app's execute calling
            # its base class's) would count the same work twice.
            extra[group] += span[4]

    resilient_calls = calls["engine.resilient"]
    metrics: Dict[str, float] = {
        "graph.load_s": busy["graph.load"],
        "graph.loads": calls["graph.load"],
        "core.profile_s": busy["core.profile"],
        "core.profiles": calls["core.profile"],
        "service.estimate_s": busy["service.estimate"],
        "service.estimates": calls["service.estimate"],
        "partition.busy_s": busy["partition"],
        "partition.calls": calls["partition"],
        "partition.edges": extra["partition"],
        "engine.layout_s": busy["engine.layout"],
        "engine.layouts": calls["engine.layout"],
        "engine.execute_s": busy["engine.execute"],
        "engine.executes": calls["engine.execute"],
        "engine.supersteps": extra["engine.execute"],
        "engine.price_s": busy["engine.price"],
        "engine.prices": calls["engine.price"],
        "engine.resilient_s": busy["engine.resilient"],
        "engine.resilient_calls": resilient_calls,
        "engine.resilient_distinct": len(distinct),
        "engine.resilient_distinct_ratio": (
            len(distinct) / resilient_calls if resilient_calls else 0.0
        ),
        "store.puts": names["SummaryStore.put"],
        "store.put_s": busy["store.put"],
        "store.put_bytes": extra["store.put"],
        "store.gets": names["SummaryStore.get"],
        "store.get_s": busy["store.get"],
        "service.self_s": busy["service"],
        "federation.self_s": busy["federation"],
        "streaming.apply_batch_s": busy["streaming.apply_batch"],
        "streaming.repair_s": busy["streaming.repair"],
        "streaming.repairs": names["IncrementalPartitioner.apply"],
        "streaming.reassigned_edges": extra["streaming.repair"],
        "recovery.checkpoint_s": busy["recovery.checkpoint"],
        "recovery.checkpoints": names["CheckpointCustody.record"],
        "recovery.snapshot_bytes": extra["recovery.checkpoint"],
        "bench.unattributed_s": busy["bench.root"],
        "bench.traced_wall_s": sum(
            span[2] - span[1] for span in spans if span[3] < 0
        ),
    }
    for cache in CACHES:
        hits = cache_totals.get(cache, {}).get("hits", 0)
        misses = cache_totals.get(cache, {}).get("misses", 0)
        metrics[f"kernels.{cache}.hits"] = hits
        metrics[f"kernels.{cache}.misses"] = misses
        metrics[f"kernels.{cache}.hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0
        )
    return metrics


#: The per-layer self-time metrics; with ``bench.unattributed_s`` they
#: partition ``bench.traced_wall_s``.
SELF_TIMES = (
    "graph.load_s", "core.profile_s", "service.estimate_s",
    "partition.busy_s", "engine.layout_s", "engine.execute_s",
    "engine.price_s", "engine.resilient_s", "store.put_s", "store.get_s",
    "service.self_s", "federation.self_s", "streaming.apply_batch_s",
    "streaming.repair_s", "recovery.checkpoint_s", "bench.unattributed_s",
)


def attributed_total(metrics: Dict[str, float]) -> float:
    """Sum of every layer's self time plus the unattributed remainder."""
    return sum(metrics[key] for key in SELF_TIMES)
