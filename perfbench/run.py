"""Run one benchmark workload and print its metrics as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig9_sweep --seed 1 --seconds 20 --trace 0

Workloads are ``fig9_sweep``, ``serve_repeat``, ``serve_unique`` and
``stream_ckpt`` (see NOTES.md).  Each invocation is one fresh,
single-threaded process: it builds the workload's inputs from the seed,
runs one untimed warm-up pass, then times the whole number of passes
whose op time comes nearest ``--seconds``, checking every op's output.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; with ``--trace 0`` the metrics
are the end-to-end ones, with ``--trace 1`` the per-layer ones from a
separate traced window.  The line before it records provenance, and the
same record (plus the spans of a traced run) is written under
``.perfbench_out/``.
"""

import os

# Pin every BLAS/OpenMP pool to one thread before numpy is imported; the
# set-up probes inherit the environment.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("fig9_sweep", "serve_repeat", "serve_unique", "stream_ckpt")

#: Extra fresh processes that repeat the set-up; ``setup_s`` is the
#: fastest of them and the measuring process itself.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="tiny inputs for the benchmark's own tests: fewer graphs, "
        "jobs, shards and batches on every workload",
    )
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="only time the set-up and print it (internal)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_workloads():
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    return workloads


# ---------------------------------------------------------------------- #
# Measurement
# ---------------------------------------------------------------------- #


class Window:
    """What one timed (or warm-up) stretch of whole passes produced."""

    def __init__(self):
        #: Per pass and op index, the op's time cut into segments at the
        #: lap clock's call boundaries (one segment without a clock).
        self.pass_segments = []
        self.op_counts = []
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        self.counts = defaultdict(float)
        self.caches = defaultdict(lambda: defaultdict(int))

    @property
    def pass_seconds(self):
        """Per pass, the op time of each op index."""
        return [[sum(segments) for segments in ops] for ops in self.pass_segments]

    @property
    def seconds(self):
        return sum(map(sum, self.pass_seconds))

    @property
    def ops_per_s(self):
        """Ops passed per second of the window's best pass.

        The best pass takes each segment's fastest time over the window's
        passes.  Other tenants of a shared host slow it down in bursts that
        last from milliseconds to seconds, so a whole op of half a second
        seldom runs clean, while the same short segment does in some pass.
        An op whose segment count differs between passes (it should not:
        the ops are deterministic) falls back to its fastest whole time.
        """
        best = 0.0
        for index in range(len(self.op_counts)):
            runs = [ops[index] for ops in self.pass_segments]
            if len({len(segments) for segments in runs}) == 1:
                best += sum(map(min, zip(*runs)))
            else:
                best += min(map(sum, runs))
        return self.ops / len(self.pass_segments) / best

    @property
    def mean_ops_per_s(self):
        """Ops passed per second of op time over the whole window."""
        return self.ops / self.seconds


def run_window(wl, seconds, tracer=None, full_pass=False, clock=None,
               between=None):
    """Run the whole number of passes whose op time comes nearest ``seconds``.

    A window always ends on a pass boundary, so every window holds the
    same mix of ops.  Every op is checked; an op that raises or fails its
    check counts as failed.  Only op execution is timed, never the
    checks.  ``full_pass`` runs exactly one pass (the warm-up).  An
    installed lap ``clock`` cuts each op's time into segments, and
    ``between`` is called with the window after every pass.
    """
    from repro.kernels.cache import cache_stats

    window = Window()
    while True:
        wl.begin_pass()
        gc.collect()
        times = []
        window.pass_segments.append(times)
        try:
            for index, (op, count) in enumerate(wl.ops()):
                root = tracer.root("op") if tracer else contextlib.nullcontext()
                laps = clock.start() if clock else []
                started = time.perf_counter()
                try:
                    try:
                        with root:
                            output = op()
                    finally:
                        ended = time.perf_counter()
                        if clock:
                            clock.recording = False
                    digest = wl.digest(output)
                    if full_pass and len(wl.reference) <= index:
                        wl.reference.append(digest)
                    ok = wl.check(index, digest)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    ok, digest, laps = False, None, []
                    if full_pass and len(wl.reference) <= index:
                        wl.reference.append(None)  # keep indices aligned
                cuts = [started] + laps + [ended]
                segments = [b - a for a, b in zip(cuts, cuts[1:])]
                times.append(segments)
                if len(window.pass_segments) == 1:
                    window.op_counts.append(count)
                window.attempted += count
                if ok:
                    window.ops += count
                    for key, value in wl.counts(digest).items():
                        window.counts[key] += value
                else:
                    window.failed += count
            for name, stats in cache_stats().items():
                for key in ("hits", "misses"):
                    window.caches[name][key] += stats[key]
        finally:
            wl.end_pass()
        # Stop when one more pass of the mean length would overshoot
        # ``seconds`` by more than the window now falls short of it, so a
        # host that runs faster does not get an extra pass to take minima
        # from (fig9_sweep passes take 8-11 s of a 20 s window).
        passes = len(window.pass_segments)
        if full_pass or window.seconds * (1 + 0.5 / passes) >= seconds:
            return window
        if between:
            between(window)


def quantile(values, q):
    """The q-th tenth cut point, interpolated within the samples."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


class SetupProbes:
    """Set-up times of fresh processes that repeat this run's set-up.

    Called after every pass of the timed window, it starts the probes
    that are due by the window's op time so far, so the probes sample the
    host at different moments of the run rather than in one stretch of a
    few seconds that may be slow throughout.
    """

    def __init__(self, args, seconds):
        self.seconds = seconds
        self.times = []
        self.command = [
            sys.executable, os.path.abspath(__file__),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "1", "--setup-probe",
        ] + (["--tiny"] if args.tiny else [])

    def __call__(self, window):
        while len(self.times) < SETUP_PROBES and (
            window.seconds >= self.seconds * len(self.times) / SETUP_PROBES
        ):
            self.probe()

    def probe(self):
        done = subprocess.run(
            self.command, cwd=ROOT, capture_output=True, text=True,
            timeout=PROBE_TIMEOUT_S, check=True,
        )
        self.times.append(float(done.stdout.strip().splitlines()[-1]))

    def finish(self):
        """All probe times, running any not yet due when the window ended."""
        while len(self.times) < SETUP_PROBES:
            self.probe()
        return self.times


def blas_threads():
    """Thread count the bundled OpenBLAS reports, when it can be asked."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs")
    for lib in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(args, wl):
    import numpy

    from repro.kernels.backend import active_backend

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace_sha256": wl.trace_digest(),
        "kernel_backend": active_backend(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        "blas_env": {var: os.environ[var] for var in BLAS_VARS},
    }


def metric_units(trace):
    """Metric name -> unit for one kind of run, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def end_to_end(timed, setup_s, probes):
    return {
        "ops_per_s": timed.ops_per_s,
        "setup_s": min([setup_s] + probes.finish()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(wl, tracer, timed, seconds):
    """Time one traced window; return (metrics, window, self times add up)."""
    import tracing

    installed = tracing.Installation(tracer)
    try:
        traced = run_window(wl, seconds, tracer=tracer)
    finally:
        installed.remove()
    metrics = tracing.layer_metrics(tracer.spans, installed.groups, traced.caches)
    metrics.update(traced.counts)
    metrics.update(wl.model_counts())
    metrics["bench.traced_ops"] = traced.ops
    # Latency of one timed unit per user-visible op, from the untraced
    # window: a fig9 system run, a stream run, or a replay's mean job.
    latencies = [
        1e3 * s / n
        for times in timed.pass_seconds
        for s, n in zip(times, timed.op_counts)
    ]
    metrics["bench.op_p50_ms"] = statistics.median(latencies)
    metrics["bench.op_p90_ms"] = quantile(latencies, 9)
    metrics["bench.mean_ops_per_s"] = timed.mean_ops_per_s
    metrics["bench.trace_overhead"] = (
        timed.mean_ops_per_s / traced.mean_ops_per_s - 1.0
    )
    wall = metrics["bench.traced_wall_s"]
    consistent = abs(tracing.attributed_total(metrics) - wall) <= 1e-6 * wall
    return metrics, traced, consistent


def set_up(args):
    """Import the program and build the inputs; return (workload, tracer,
    set-up seconds).  A traced run traces the set-up too."""
    started = time.perf_counter()
    workloads = import_workloads()
    wl = workloads.WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        installed = tracing.Installation(tracer)
        try:
            with tracer.root("setup"):
                wl.setup()
        finally:
            installed.remove()
    else:
        wl.setup()
    return wl, tracer, time.perf_counter() - started


def timed_window(wl, seconds, between=None):
    """The untraced window, with a lap clock cutting ops into segments.

    The clock's wrappers cost one ``perf_counter`` reading per wrapped
    call boundary (NOTES.md, *Steadiness*, gives the measured overhead).
    """
    import tracing

    clock = tracing.LapClock()
    installed = tracing.Installation(clock)
    try:
        return run_window(wl, seconds, clock=clock, between=between)
    finally:
        installed.remove()


def measure(args, wl, tracer, setup_s):
    """Warm up, time and check; return the run's record."""
    units = metric_units(args.trace)
    os.makedirs(OUT_DIR, exist_ok=True)
    wl.prepare(OUT_DIR)
    warm = run_window(wl, 0.0, full_pass=True)
    # A traced run splits its time between an untraced and a traced
    # window, so it costs about as much as an untraced run.
    window_s = args.seconds / 2 if tracer is not None else args.seconds
    probes = SetupProbes(args, window_s) if tracer is None else None
    timed = timed_window(wl, window_s, between=probes)
    correct = warm.failed == 0 and timed.failed == 0
    if tracer is not None:
        metrics, reported, consistent = per_layer(wl, tracer, timed, window_s)
        correct = correct and consistent
        # A layer that does not run on this workload reports zero.
        for name in units:
            metrics.setdefault(name, 0.0)
    else:
        metrics, reported = end_to_end(timed, setup_s, probes), timed
    correct = correct and reported.failed == 0 and set(metrics) == set(units)
    line = {
        "correct": bool(correct),
        "attempted": int(reported.attempted),
        "failed": int(reported.failed),
        "metrics": {
            key: {"value": value, "unit": units.get(key, "count")}
            for key, value in sorted(metrics.items())
        },
    }
    record = {
        "provenance": provenance(args, wl),
        "result": line,
        "pass_seconds": timed.pass_seconds,
    }
    if tracer:
        record["spans"] = [span[:4] for span in tracer.spans]
    return record


def write_record(args, record):
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    wl, tracer, setup_s = set_up(args)
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    record = measure(args, wl, tracer, setup_s)
    write_record(args, record)
    print(json.dumps({"provenance": record["provenance"]}, sort_keys=True))
    print(json.dumps(record["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
