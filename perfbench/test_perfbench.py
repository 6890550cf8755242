"""The benchmark's own tests: tiny-input smoke runs and the check path.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    line = bench(workload, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        printed = line["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        if not trace:
            assert printed["value"] > 0


def test_traced_self_times_add_up_to_wall_time():
    metrics = {
        k: v["value"] for k, v in bench("serve_unique", 1)["metrics"].items()
    }
    layers = sum(metrics[k] for k in tracing.SELF_TIMES)
    assert layers == pytest.approx(metrics["bench.traced_wall_s"], rel=1e-6)
    # Every group the tracer knows has its self time among SELF_TIMES.
    assert set(tracing.SELF_TIMES) == {
        k for k in metrics if k.endswith("_s") and k not in
        ("bench.traced_wall_s", "bench.mean_ops_per_s")
    }
    assert metrics["store.puts"] > 0 and metrics["service.estimates"] > 0


def test_best_pass_takes_each_segments_fastest_time():
    window = run.Window()
    window.op_counts = [1, 2]
    window.ops = 6  # two passes of three ops
    window.pass_segments = [
        [[1.0, 3.0], [2.0]],
        [[2.0, 1.0], [1.0, 0.5]],
    ]
    # Op 0: fastest segments 1.0 + 1.0.  Op 1 was cut differently in the
    # two passes, so it falls back to its fastest whole time, 1.5.
    assert window.ops_per_s == pytest.approx(6 / 2 / 3.5)
    assert window.mean_ops_per_s == pytest.approx(6 / 10.5)


def mismatched(reference):
    """A reference output that differs from the real one."""
    if isinstance(reference, str):  # stream_ckpt: the undisturbed trace
        return reference + " "
    if isinstance(reference[0], str) and len(reference) == 2:  # serve: trace
        return (reference[0] + " ", reference[1])
    return reference[:-1] + (reference[-1] * 2.0,)  # fig9 row: runtime


@pytest.mark.parametrize("workload", WORKLOADS)
def test_mismatched_reference_counts_as_failed_op(workload, tmp_path):
    workloads = run.import_workloads()
    wl = workloads.WORKLOADS[workload](seed=5, tiny=True)
    wl.setup()
    wl.prepare(str(tmp_path))
    try:
        warm = run.run_window(wl, 0.01, full_pass=True)
        assert warm.failed == 0
        clean = run.run_window(wl, 0.01)
        assert clean.failed == 0
        wl.reference[0] = mismatched(wl.reference[0])
        tampered = run.run_window(wl, 0.01)
        assert tampered.failed >= 1
        assert tampered.ops == clean.ops - tampered.failed
    finally:
        wl.end_pass()


def test_refuses_to_run_without_the_program(tmp_path):
    os.makedirs(tmp_path / "perfbench")
    for name in ("run.py", "workloads.py", "tracing.py"):
        with open(os.path.join(HERE, name), encoding="utf-8") as src:
            (tmp_path / "perfbench" / name).write_text(src.read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
