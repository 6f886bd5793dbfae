"""Transport benchmark: the live asyncio KV cluster on localhost.

Two entry points:

- under pytest (``pytest benchmarks/ --benchmark-only``) it times one
  batched fingerprint round over a 3-node cluster — a smoke check that the
  transport works at benchmark scale;
- as a script (``python benchmarks/bench_rpc_transport.py``) it measures
  message round-trip latency and serial (batch=1)
  versus batched fingerprint-claim throughput, then writes
  ``BENCH_rpc.json`` at the repo root. Batching must win — PR 1's
  per-round-trip accounting says a batch of B keys costs ~2 scatter
  rounds instead of ~2·B — and the script exits nonzero if it doesn't.
  ``--quick`` shrinks the key counts for CI.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro.rpc.cluster import LiveKVCluster

REPO_ROOT = Path(__file__).resolve().parent.parent
NODE_IDS = ["edge-0", "edge-1", "edge-2"]


def _cluster() -> LiveKVCluster:
    return LiveKVCluster(NODE_IDS, replication_factor=2, timeout_s=2.0)


def bench_rtt(pings: int) -> dict:
    """Round-trip ``pings`` ping frames per node; report RTT percentiles."""
    with _cluster() as cluster:
        for _ in range(pings):
            cluster.store.ping_all()
        rtt = cluster.client.rtt
        return {
            "pings": rtt.count,
            "rtt_mean_us": round(rtt.mean * 1e6, 1),
            "rtt_p50_us": round(rtt.percentile(50) * 1e6, 1),
            "rtt_p99_us": round(rtt.percentile(99) * 1e6, 1),
        }


def bench_claims(n_keys: int, batch: int) -> dict:
    """Claim ``n_keys`` fresh fingerprints in batches of ``batch`` keys and
    report keys/s plus the wire cost per key."""
    keys = [f"fp-{batch}-{i:06d}" for i in range(n_keys)]
    with _cluster() as cluster:
        store = cluster.store
        t0 = time.perf_counter()
        for start in range(0, n_keys, batch):
            results = store.put_if_absent_many(
                keys[start:start + batch], "m", coordinator="edge-0"
            )
            assert all(results)  # fresh keys: every claim is new
        elapsed = time.perf_counter() - t0
        calls = cluster.client.stats.calls
        return {
            "batch": batch,
            "keys": n_keys,
            "seconds": round(elapsed, 4),
            "keys_per_s": round(n_keys / elapsed, 1),
            "rpc_calls": calls,
            "rpc_calls_per_key": round(calls / n_keys, 3),
            "batch_rounds": store.stats.batch_rounds,
        }


def run(n_keys: int, pings: int, big_batch: int) -> dict:
    rtt = bench_rtt(pings)
    print(f"rtt: mean {rtt['rtt_mean_us']:7.1f}us  "
          f"p50 {rtt['rtt_p50_us']:7.1f}us  p99 {rtt['rtt_p99_us']:7.1f}us")

    serial = bench_claims(n_keys, batch=1)
    batched = bench_claims(n_keys, batch=big_batch)
    speedup = round(batched["keys_per_s"] / serial["keys_per_s"], 2)
    for entry in (serial, batched):
        print(f"claims batch={entry['batch']:3d}: {entry['keys_per_s']:9.1f} keys/s  "
              f"({entry['rpc_calls_per_key']:.3f} rpc calls/key)")
    print(f"batching speedup: {speedup}x")
    return {
        "nodes": len(NODE_IDS),
        "replication_factor": 2,
        "rtt": [rtt],
        "serial": serial,
        "batched": batched,
        "batching_speedup": speedup,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="small key counts, no JSON output unless --out is given (CI smoke)",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help=f"output JSON path (default: {REPO_ROOT / 'BENCH_rpc.json'})",
    )
    args = parser.parse_args()
    n_keys = 256 if args.quick else 2048
    pings = 50 if args.quick else 400
    report = run(n_keys=n_keys, pings=pings, big_batch=64)

    if report["batching_speedup"] <= 1.0:
        raise SystemExit(
            f"benchmark regression: batched claims no faster than serial "
            f"({report['batching_speedup']}x)"
        )

    out = args.out
    if out is None and not args.quick:
        out = REPO_ROOT / "BENCH_rpc.json"
    if out is not None:
        out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {out}")


# -- pytest-benchmark smoke (collected with the other micro benchmarks) -- #


def test_batched_claims_over_live_cluster(benchmark):
    def one_round():
        with _cluster() as cluster:
            results = cluster.store.put_if_absent_many(
                [f"fp-{i}" for i in range(64)], "m", coordinator="edge-0"
            )
            return sum(results)

    new = benchmark.pedantic(one_round, rounds=1, iterations=1)
    assert new == 64


def test_ping_roundtrip(benchmark):
    with _cluster() as cluster:
        rtts = benchmark.pedantic(cluster.store.ping_all, rounds=3, iterations=1)
        assert set(rtts) == set(NODE_IDS)


if __name__ == "__main__":
    main()
