"""Overload benchmark: graceful degradation past the saturation knee.

Two entry points:

- under pytest (``pytest benchmarks/ --benchmark-only``) it runs one
  short overload scenario — a smoke check that the protection stack
  (admission control, breakers, brownout, reconciliation) holds together
  at benchmark scale;
- as a script (``python benchmarks/bench_overload.py``) it runs the full
  ``repro.chaos.run_scenario("overload")`` — an at-knee reference step,
  then a 2x-knee step under a fleet-wide gray slowdown while the ring's
  own agents ingest through the shedding index — and writes
  ``BENCH_overload.json`` at the repo root. The script exits nonzero
  when protection regresses: nothing shed past the knee, shed accounting
  not conserved, p99-of-admitted beyond the bound, or a post-reconcile
  dedup ratio that is not bit-for-bit the unloaded baseline. ``--quick``
  shrinks the load windows for CI and skips the JSON unless ``--out`` is
  given.

The latency gate is relative (p99-of-admitted at 2x knee within 10x of
the floored at-knee p99), so it is machine-independent; the honest
regression signal is the shed fraction and admitted-p99 trend across
checked-in ``BENCH_overload.json`` revisions.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.chaos import run_scenario

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_overload(quick: bool, seed: int) -> dict:
    report = run_scenario(
        "overload",
        seed=seed,
        duration_s=0.3 if quick else 0.6,
        files_per_node=3 if quick else 4,
    )
    m = report.metrics
    for label, rps, step in (
        ("knee  ", m["knee_rps"], report.detail["knee_step"]),
        ("beyond", m["overload_rps"], report.detail["overload_step"]),
    ):
        print(
            f"{label} @ {rps:7.0f} req/s: "
            f"completed={step['completed']} shed={step['shed']} "
            f"failed={step['failed']} p99={step['latency_p99_s'] * 1e3:7.2f}ms"
        )
    print(
        f"shed fraction {m['shed_fraction']:.2f}  "
        f"brownout: trips={m.get('brownout.trips', 0):.0f} "
        f"journaled={m.get('brownout.journaled', 0):.0f} "
        f"corrected={m.get('brownout.corrected_chunks', 0):.0f}  "
        f"ratio={report.dedup_ratio:.6f} "
        f"baseline={report.baseline_ratio:.6f}"
    )
    for name, ok in report.checks.items():
        print(f"  {'ok ' if ok else 'FAIL'} {name}")
    return report.as_dict()


def check_gates(report: dict) -> list[str]:
    """Regression gates over an overload report; returns failure messages."""
    failures = []
    for name, ok in report.get("checks", {}).items():
        if not ok:
            failures.append(f"check failed: {name}")
    failures.extend(report.get("violations", []))
    if report.get("metrics", {}).get("shed_fraction", 0.0) <= 0.0:
        failures.append("no work shed beyond the knee")
    if not report.get("checks", {}).get("ratio_matches_baseline", False):
        failures.append(
            f"reconciled ratio {report.get('dedup_ratio')} != unloaded "
            f"baseline {report.get('baseline_ratio')}"
        )
    # dict.fromkeys dedups while keeping first-seen order (violations
    # repeat the failed checks' details).
    return list(dict.fromkeys(failures))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="short load windows for CI; no JSON output unless --out is given",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--out", type=Path, default=None,
        help=f"output JSON path (default: {REPO_ROOT / 'BENCH_overload.json'})",
    )
    args = parser.parse_args()

    report = run_overload(quick=args.quick, seed=args.seed)
    failures = check_gates(report)
    if failures:
        raise SystemExit("benchmark regression:\n  " + "\n  ".join(failures))

    out = args.out
    if out is None and not args.quick:
        out = REPO_ROOT / "BENCH_overload.json"
    if out is not None:
        out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")


# -- pytest-benchmark smoke (collected with the other micro benchmarks) -- #


def test_overload_scenario_quick(benchmark):
    def one_run():
        return run_scenario(
            "overload", seed=7, duration_s=0.3, files_per_node=3
        )

    report = benchmark.pedantic(one_run, rounds=1, iterations=1)
    assert report.passed, report.violations
    assert report.detail["overload_step"]["shed"] > 0
    assert report.checks["ratio_matches_baseline"]


if __name__ == "__main__":
    main()
