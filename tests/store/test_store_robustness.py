"""Robustness of the store file itself: corruption, staleness, races.

Contract (ISSUE 7): a damaged or stale store must *recompute or exit 2
with a typed StoreError* — never silently serve bad rows.
"""

from __future__ import annotations

import os
import sqlite3
import subprocess
import sys

import pytest

from repro.cli import main
from repro.cluster.catalog import get_machine
from repro.cluster.cluster import Cluster
from repro.cluster.perfmodel import PerformanceModel
from repro.errors import StoreCorruptError, StoreSchemaError
from repro.kernels.cache import attach_store, clear_all_caches, detach_store
from repro.powerlaw.generator import generate_power_law_graph
from repro.service import generate_workload
from repro.store import SCHEMA_VERSION, SummaryStore


def _cluster():
    return Cluster(
        [get_machine("m4.2xlarge"), get_machine("c4.2xlarge")],
        perf=PerformanceModel(model_scale=0.01),
    )


def _projected(graph):
    from repro.service.estimate import projected_seconds

    return projected_seconds(_cluster(), "pagerank", graph)


@pytest.fixture
def workload_file(tmp_path) -> str:
    path = str(tmp_path / "wl.json")
    generate_workload(num_jobs=3, seed=5).save(path)
    return path


class TestTruncatedStore:
    def test_truncated_file_raises_corrupt(self, store_path):
        with SummaryStore.create(store_path) as st:
            st.put("estimate", "('k',)", b"1.5")
        # Keep the sqlite magic but chop the body: unreadable database.
        with open(store_path, "r+b") as fh:
            fh.truncate(100)
        with pytest.raises(StoreCorruptError, match="corrupt|unreadable"):
            SummaryStore.open(store_path)

    def test_cli_serve_exits_2_on_truncated_store(
        self, store_path, workload_file, capsys
    ):
        SummaryStore.create(store_path).close()
        with open(store_path, "r+b") as fh:
            fh.truncate(100)
        rc = main(
            [
                "serve", "--cluster", "m4.2xlarge",
                "--workload", workload_file, "--store", store_path,
            ]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestFlippedPayloadByte:
    def test_recompute_not_serve(self, store_path):
        graph = generate_power_law_graph(num_vertices=150, alpha=2.0, seed=9)
        cold = _projected(graph)

        store = SummaryStore.create(store_path)
        clear_all_caches()
        attach_store(store)
        _projected(graph)  # populate
        detach_store()
        store.close()

        # Flip one byte in every payload behind the store's back.
        conn = sqlite3.connect(store_path)
        rows = conn.execute(
            "SELECT namespace, key_sha, payload FROM summaries"
        ).fetchall()
        assert rows
        for namespace, sha, payload in rows:
            payload = bytes(payload)
            flipped = bytes([payload[0] ^ 0xFF]) + payload[1:]
            conn.execute(
                "UPDATE summaries SET payload = ? "
                "WHERE namespace = ? AND key_sha = ?",
                (flipped, namespace, sha),
            )
        conn.commit()
        conn.close()

        store = SummaryStore.open(store_path)
        clear_all_caches()
        attach_store(store)
        warm = _projected(graph)
        detach_store()

        # Every flipped row was quarantined and recomputed, so the result
        # matches the cold run exactly and the recomputed rows (written
        # back through the caches) superseded the quarantine records.
        assert warm == cold
        assert sum(store.counts().values()) >= 1
        assert store.quarantined() == {}

        # And the rewritten rows now verify and serve.
        clear_all_caches()
        attach_store(store)
        again = _projected(graph)
        detach_store()
        store.close()
        assert again == cold


class TestStaleSchema:
    def _make_stale(self, store_path):
        SummaryStore.create(store_path).close()
        conn = sqlite3.connect(store_path)
        conn.execute(
            "UPDATE store_meta SET value = ? WHERE key = 'schema_version'",
            (str(SCHEMA_VERSION + 41),),
        )
        conn.commit()
        conn.close()

    def test_open_raises_typed(self, store_path):
        self._make_stale(store_path)
        with pytest.raises(StoreSchemaError, match="regenerate"):
            SummaryStore.open(store_path)

    def test_cli_gen_stats_exits_2(self, store_path, capsys):
        self._make_stale(store_path)
        rc = main(["gen", "--store", store_path, "--stats"])
        assert rc == 2
        assert "schema version" in capsys.readouterr().err

    def test_cli_experiment_exits_2(self, store_path, capsys):
        self._make_stale(store_path)
        rc = main(
            ["experiment", "table1", "--store", store_path]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestGenInputErrors:
    """``gen --all`` reports bad inputs like ``serve`` does: exit 2."""

    def _gen(self, store_path, workload, cluster="m4.2xlarge"):
        return main(["gen", "--store", store_path, "--init", "--all",
                     "--workload", workload, "--cluster", cluster])

    def test_malformed_workload_names_the_record(
        self, tmp_path, store_path, capsys
    ):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format_version": 2, "jobs": [{"bogus": 1}]}')
        assert self._gen(store_path, str(bad)) == 2
        err = capsys.readouterr().err
        assert f"error: workload {bad}: jobs[0]" in err

    def test_unknown_machine_exits_2(self, store_path, workload_file, capsys):
        assert self._gen(store_path, workload_file, cluster="z9.mega") == 2
        assert "unknown machine type" in capsys.readouterr().err

    def test_shard_count_mismatch_exits_2(
        self, store_path, workload_file, capsys
    ):
        rc = main(["gen", "--store", store_path, "--init", "--all",
                   "--workload", workload_file, "--shards", "3",
                   "--cluster", "m4.2xlarge;c4.2xlarge"])
        assert rc == 2
        assert "2 shard cluster(s)" in capsys.readouterr().err


class TestConcurrentGen:
    def test_two_process_gen_never_corrupts(
        self, store_path, workload_file, tmp_path
    ):
        """Two `repro gen --init --all` racing on one store file: each
        must finish clean (or fail typed with exit 2), and the store
        they leave behind must open, verify and serve."""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        cmd = [
            sys.executable, "-m", "repro", "gen",
            "--store", store_path, "--init", "--all",
            "--workload", workload_file, "--cluster", "m4.2xlarge,c4.2xlarge",
        ]
        procs = [
            subprocess.Popen(
                cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
            )
            for _ in range(2)
        ]
        results = [p.communicate(timeout=300) for p in procs]
        codes = [p.returncode for p in procs]
        # Never a crash (typed failures exit 2), and at least one warmer
        # must have completed the materialization.
        assert all(code in (0, 2) for code in codes), (codes, results)
        assert 0 in codes, (codes, results)
        for code, (_, err) in zip(codes, results):
            if code == 2:
                assert b"error:" in err

        # The surviving store is valid: schema checks out, every row
        # verifies, and a warm replay equals a cold one.
        with SummaryStore.open(store_path) as store:
            assert sum(store.counts().values()) >= 1
            from repro.service import JobService, Workload

            workload = Workload.load(workload_file)
            clear_all_caches()
            cold = JobService(_cluster()).run_workload(workload).trace_json()
            clear_all_caches()
            attach_store(store)
            warm = JobService(_cluster()).run_workload(workload).trace_json()
            detach_store()
            assert warm == cold
            assert store.quarantined() == {}
