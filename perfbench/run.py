"""The repo benchmark: live ingest/restore end to end, plus a traced run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ingest_shared --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` from
untraced rounds. ``--trace 1`` alternates untraced and traced rounds and
reports the per-layer metrics (medians over traced rounds) plus
``trace.overhead_frac``, the traced rounds' operation time over the
untraced rounds'. Every round runs the correctness gate; a violation makes
the result ``"correct": false`` and the exit code 1.

Standard output ends with two JSON lines: the run's envelope (provenance,
workload configuration, sample counts, gate failures, trace detail) and
then the result object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END_UNITS = {
    "setup_s": "s",
    "ingest_mb_s": "MB/s",
    "ingest_p50_ms": "ms",
    "ingest_p99_ms": "ms",
    "restore_mb_s": "MB/s",
    "restore_p50_ms": "ms",
    "restore_tier_mb_s": "MB/s",
    "restore_degraded_mb_s": "MB/s",
    "dedup_ratio": "ratio",
    "stored_per_logical": "ratio",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name in ("dedup.cache.evictions", "rpc.timeouts",
                                           "content.gc.journal_snapshots"):
        return "count"
    if name.endswith("_s"):
        return "s"
    return "ratio"


def get_git_version() -> dict:
    """Commit and dirty flag of the checkout; ``None`` outside a git tree.
    The search for a repository stops at the checkout root."""
    info = {"commit": None, "dirty": None}
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
        if head.returncode != 0:
            return info
        info["commit"] = head.stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
        info["dirty"] = bool(status.stdout.strip()) if status.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        pass
    return info


def provenance(args) -> dict:
    import numpy

    return {
        **get_git_version(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run(args, workloads, work_root: Path) -> tuple[dict, dict]:
    import harness
    import tracing

    workload = workloads[args.workload]
    corpus = harness.make_corpus(workload, args.seed)
    schedule = harness.restore_schedule(workload, corpus, args.seed)
    oracle = harness.oracle_ratio(corpus)
    warm = harness.warm_up(workload, corpus, work_root)
    plain, traced, durations = [], [], []
    min_rounds = 2 if args.trace else 3
    deadline = time.perf_counter() + args.seconds
    while True:
        # Traced runs alternate, untraced first, so both halves see the
        # same mix of machine conditions.
        tracing_now = bool(args.trace) and len(plain) > len(traced)
        started = time.perf_counter()
        result = harness.run_round(
            workload, corpus, schedule, oracle, work_root,
            hook=tracing.trace_round if tracing_now else None,
        )
        durations.append(time.perf_counter() - started)
        (traced if tracing_now else plain).append(result)
        # Stop when another round would more likely end past the deadline
        # than before it, so a run measures about --seconds.
        expected_end = time.perf_counter() + statistics.mean(durations) / 2
        if len(durations) >= min_rounds and expected_end >= deadline:
            break
    rounds = [warm] + plain + traced
    failures = [f for r in rounds for f in r.failures]
    envelope = {
        "provenance": provenance(args),
        "workload": harness.workload_config(workload),
        "oracle_dedup_ratio": oracle,
        "samples": harness.sample_counts(plain),
        "failures": failures[:20],
    }
    if args.trace:
        layers = {
            name: statistics.median(r.trace["layers"][name] for r in traced)
            for name in traced[0].trace["layers"]
        }
        layers["trace.overhead_frac"] = (
            statistics.median(r.op_wall_s for r in traced)
            / statistics.median(r.op_wall_s for r in plain)
            - 1.0
        )
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
        envelope["caller_self_top"] = [r.trace["caller_self_top"] for r in traced]
        envelope["spans"] = [r.trace["spans"] for r in traced]
    else:
        metrics = {
            k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in harness.end_to_end(plain).items()
        }
    result = {
        "correct": not failures,
        "attempted": sum(r.attempted for r in rounds),
        "failed": len(failures),
        "metrics": metrics,
    }
    return envelope, result


def main(argv=None, workloads=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import harness

    workloads = workloads if workloads is not None else harness.WORKLOADS
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads)}")
    # Journals and logs stay inside the checkout the benchmark runs in.
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_work-") as work_root:
        envelope, result = run(args, workloads, Path(work_root))
    print(json.dumps(envelope))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
