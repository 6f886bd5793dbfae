"""The benchmark's own tests: every metric BENCHMARK.json names is printed
with its unit, and the correctness gate trips when outputs are wrong.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import harness
import run
import tracing

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Same shapes, a fraction of the work, so each run takes about a second.
SMALL = {
    name: replace(w, n_files=24, restore_draws=min(w.restore_draws, 30))
    for name, w in harness.WORKLOADS.items()
}


def _run(capsys, *argv) -> tuple[int, dict, dict]:
    code = run.main(list(argv), workloads=SMALL)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2]), json.loads(lines[-1])


def test_benchmark_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)


@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(capsys, workload, trace):
    code, envelope, result = _run(
        capsys, "--workload", workload, "--seed", "3", "--seconds", "0.01",
        "--trace", str(trace),
    )
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float), m["name"]
    prov = envelope["provenance"]
    assert {"commit", "dirty", "python", "numpy", "cpu_count", "seed"} <= set(prov)
    config = envelope["workload"]
    for key in ("transport", "chunker", "lookup_batch", "content_batch", "rs_k",
                "rs_m", "cache_capacity", "wal_flush_policy"):
        assert key in config
    if not trace:
        assert result["metrics"]["dedup_ratio"]["value"] == envelope["oracle_dedup_ratio"]
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _small_round(tmp_path, hook=None, oracle=None):
    w = SMALL["ingest_shared"]
    corpus = harness.make_corpus(w, seed=5)
    schedule = harness.restore_schedule(w, corpus, seed=5)
    truth = harness.oracle_ratio(corpus)
    result = harness.run_round(
        w, corpus, schedule, truth if oracle is None else oracle, tmp_path, hook=hook
    )
    return result, truth


def test_clean_round_passes_the_gate(tmp_path):
    result, truth = _small_round(tmp_path)
    assert result.failures == []
    assert result.dedup_ratio == truth


def test_gate_trips_on_one_flipped_restored_byte(tmp_path):
    def flip_first_restore(cluster):
        restore = cluster.restore_file
        flipped: list[str] = []

        def restore_flipped(file_id):
            out = restore(file_id)
            if flipped:
                return out
            flipped.append(file_id)
            return bytes([out[0] ^ 0x01]) + out[1:]

        cluster.restore_file = restore_flipped
        return lambda: None

    result, _ = _small_round(tmp_path, hook=flip_first_restore)
    assert len(result.failures) == 1
    assert "bytes differ" in result.failures[0]


def test_gate_trips_when_oracle_ratio_disagrees(tmp_path):
    _, truth = _small_round(tmp_path)
    result, _ = _small_round(tmp_path, oracle=truth * (1 + 1e-9))
    assert len(result.failures) == 1
    assert result.failures[0].startswith("dedup_ratio")


def test_gate_failure_fails_the_run(capsys, monkeypatch):
    truth = harness.oracle_ratio
    monkeypatch.setattr(harness, "oracle_ratio", lambda corpus: truth(corpus) + 0.5)
    code, envelope, result = _run(
        capsys, "--workload", "ingest_shared", "--seed", "1", "--seconds", "0.01"
    )
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == len(envelope["failures"]) >= 1


def test_traced_round_reports_and_unwraps(tmp_path):
    import repro.dedup.recipes as recipes
    from repro.rpc.framing import JsonCodec

    before = (recipes.make_recipe, recipes.restore_file, JsonCodec.encode, JsonCodec.decode)
    result, _ = _small_round(tmp_path, hook=tracing.trace_round)
    assert result.failures == []
    after = (recipes.make_recipe, recipes.restore_file, JsonCodec.encode, JsonCodec.decode)
    assert after == before
    layers = result.trace["layers"]
    assert layers["content.gc.incr.calls"] > 0
    assert layers["kvstore.put_if_absent_many.calls"] > 0
    assert layers["erasure.decode.calls"] > 0
    assert 0.0 < layers["rpc.loop_busy_frac"] < 1.0
    assert 0.0 <= layers["system.residual_frac"] < 1.0


def test_self_time_excludes_children_per_thread():
    tracer = tracing.SpanTracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()

    tracer.wrap("outer", outer_body)()
    totals = tracer.totals(tracing.CALLER)
    assert totals["outer"].calls == totals["inner"].calls == 1
    assert totals["outer"].wall_s >= totals["inner"].wall_s + 0.01
    assert abs(totals["outer"].self_s - (totals["outer"].wall_s - totals["inner"].wall_s)) < 1e-9


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest_shared",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
