"""Workloads, rounds and the correctness gate of the repo benchmark.

Every workload drives one :class:`~repro.system.cluster.DurableEFDedupCluster`
from a single client thread, closed loop: the next file starts only after
the previous call returned. The unit of work is a *round*: deploy a fresh
cluster, ingest the workload's corpus, restore it in three passes (edge
shelves; edge copies evicted; ``m`` cloud-tier zones failed), recover the
zones, check the outputs, shut down. Ingest cost grows with what the
cluster already holds, so a run repeats identical rounds until its time is
up and reports over all of them: two runs compare at equal work however
many rounds each fitted in.

The corpus is generated from the seed before any round starts; the cluster
only ever sees the bytes.
"""

from __future__ import annotations

import math
import random
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Optional

NODES = 3
AVG_CHUNK = 4 * 1024
# Segments are at most this long: several times the average chunk, and
# cut at one of FastCDC's own boundaries (see ``_segment``).
SEGMENT_BYTES = 16 * 1024
# File i holds 1 + (i // 3) % 3 segments, except every 20th file, which
# holds 8; files go round-robin to the 3 nodes, so every node gets every
# size. The median call falls inside the middle class and the 99th
# percentile inside the 5 % large class, so both are set by the work a
# call does, not by a class boundary or by a handful of scheduling stalls.
SIZE_CLASSES = 3
LARGE_EVERY, LARGE_SEGMENTS = 20, 8
GAMMA = 2
RS_K, RS_M = 3, 2
LOOKUP_BATCH = 16
CONTENT_BATCH = 16
CACHE_CAPACITY = 256
RPC_TIMEOUT_S = 1.0
RPC_ATTEMPTS = 4
ZIPF_S = 0.8
WAL_POLICY = "flush to the OS on every append, no fsync (WriteAheadLog default)"

PASSES = ("edge", "tier", "degraded")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        transport: the ring index transport (``asyncio`` or ``inproc``).
        n_files: files ingested per round, round-robin over the edge nodes.
        pool_segments: size of the seeded pool shared segments come from.
        fresh_frac: share of segments drawn fresh instead of from the pool.
        restore_draws: zipf-popularity file draws per restore pass; 0
            restores every file once per pass. A workload with draws counts
            the corpus ingest as set-up.
    """

    name: str
    transport: str
    n_files: int
    pool_segments: int
    fresh_frac: float
    restore_draws: int = 0

    @property
    def ingest_is_setup(self) -> bool:
        return self.restore_draws > 0


WORKLOADS = {
    w.name: w
    for w in (
        # 556 segment slots a round; every pool segment recurs 4 times.
        Workload("ingest_shared", "asyncio", n_files=242, pool_segments=139, fresh_frac=0.0),
        Workload("ingest_unique", "asyncio", n_files=242, pool_segments=14, fresh_frac=0.9),
        Workload(
            "restore", "asyncio", n_files=242, pool_segments=139, fresh_frac=0.0,
            restore_draws=400,
        ),
        Workload("ingest_shared_inproc", "inproc", n_files=242, pool_segments=139, fresh_frac=0.0),
    )
}


def node_ids() -> list[str]:
    return [f"edge-{i}" for i in range(NODES)]


def segments_in(i: int) -> int:
    """Segment count of file ``i``."""
    if i % LARGE_EVERY == LARGE_EVERY - 1:
        return LARGE_SEGMENTS
    return 1 + (i // NODES) % SIZE_CLASSES


def _segment(rng: random.Random, chunker) -> bytes:
    """Random bytes ending at a content-defined FastCDC boundary at or
    below ``SEGMENT_BYTES``. A chunk's cut depends only on the bytes since
    its start, so a segment chunks the same wherever it lands in a file:
    the chunker finds every repeat, and the corpus dedup ratio is set by
    how often segments recur rather than by where boundaries happen to
    straddle segment joins."""
    raw = rng.randbytes(2 * SEGMENT_BYTES)
    end = max(cut for cut in chunker.cut_points(raw) if cut <= SEGMENT_BYTES)
    return raw[:end]


def make_corpus(workload: Workload, seed: int) -> list[tuple[str, str, bytes]]:
    """``(node, file id, bytes)`` in arrival order.

    Files are concatenated segments. Which segment slots are fresh, and
    that every pool segment recurs equally often, are fixed by the
    workload; the seed picks the bytes and the order pool segments come
    in. So seeds differ in content, not in how much of it is shared.
    Workloads of the same shape get the same corpus for a seed.
    """
    from repro.chunking import FastCDCChunker

    chunker = FastCDCChunker(avg_size=AVG_CHUNK)
    shape = (workload.n_files, workload.pool_segments, workload.fresh_frac)
    rng = random.Random(f"{shape}:{seed}")
    pool = [_segment(rng, chunker) for _ in range(workload.pool_segments)]
    nodes = node_ids()
    corpus = []
    cycle: list[bytes] = []
    slot = 0
    for i in range(workload.n_files):
        parts = []
        for _ in range(segments_in(i)):
            slot += 1
            if int(slot * workload.fresh_frac) > int((slot - 1) * workload.fresh_frac):
                parts.append(_segment(rng, chunker))
                continue
            if not cycle:
                cycle = pool[:]
                rng.shuffle(cycle)
            parts.append(cycle.pop())
        corpus.append((nodes[i % NODES], f"f{i:05d}", b"".join(parts)))
    return corpus


def restore_schedule(workload: Workload, corpus, seed: int) -> dict[str, list[str]]:
    """File ids each restore pass reads, in order.

    With draws, every pass draws zipf-popular files; popularity rank
    follows arrival order, so size classes interleave down the ranking and
    each class gets a stable share of the draws. Without draws (the ingest
    workloads) the edge pass reads every file and the tier and degraded
    passes every fourth one, a stride that cycles through the three small
    size classes: enough to measure them without letting reads outweigh
    the ingest these workloads are about.
    """
    ids = [fid for _, fid, _ in corpus]
    if not workload.restore_draws:
        return {"edge": ids, "tier": ids[::4], "degraded": ids[::4]}
    rng = random.Random(f"{workload.name}:draws:{seed}")
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(ids))]
    return {
        name: rng.choices(ids, weights=weights, k=workload.restore_draws)
        for name in PASSES
    }


def oracle_ratio(corpus) -> float:
    """Dedup ratio of the corpus deduplicated in one fresh index with the
    production chunker — exact for a single ring spanning every node."""
    from repro.chunking import FastCDCChunker
    from repro.dedup.engine import measure_dedup_ratio

    return measure_dedup_ratio(
        (data for _, _, data in corpus), chunker=FastCDCChunker(avg_size=AVG_CHUNK)
    )


def make_config(workload: Workload, work_dir: Optional[str]):
    from repro.system.config import EFDedupConfig

    live = workload.transport == "asyncio"
    return EFDedupConfig(
        chunk_size=AVG_CHUNK,
        chunking_algo="fastcdc",
        replication_factor=GAMMA,
        lookup_batch=LOOKUP_BATCH,
        content_batch=CONTENT_BATCH,
        transport=workload.transport,
        rpc_timeout_s=RPC_TIMEOUT_S,
        rpc_attempts=RPC_ATTEMPTS,
        cache_capacity=CACHE_CAPACITY,
        data_dir=str(Path(work_dir) / "wal") if live and work_dir else None,
        heartbeat_interval_s=0.0,
        ec_data_shards=RS_K,
        ec_parity_shards=RS_M,
        spill_mode="sync",
    )


def workload_config(workload: Workload) -> dict:
    """The configuration a run records next to its numbers."""
    cfg = make_config(workload, "work")
    return {
        **asdict(workload),
        "nodes": NODES,
        "rings": "one ring spanning every node",
        "chunker": f"{cfg.chunking_algo} avg {cfg.chunk_size} B",
        "segment_bytes": SEGMENT_BYTES,
        "segments_per_file": (
            f"1 + (i // {NODES}) % {SIZE_CLASSES}; {LARGE_SEGMENTS} when i % {LARGE_EVERY} == "
            f"{LARGE_EVERY - 1}"
        ),
        "replication_factor": cfg.replication_factor,
        "lookup_batch": cfg.lookup_batch,
        "content_batch": cfg.content_batch,
        "rs_k": cfg.ec_data_shards,
        "rs_m": cfg.ec_parity_shards,
        "cache_capacity": cfg.cache_capacity,
        "spill_mode": cfg.spill_mode,
        "hash_workers": 0,
        "heartbeat_interval_s": cfg.heartbeat_interval_s,
        "rpc_timeout_s": cfg.rpc_timeout_s,
        "rpc_attempts": cfg.rpc_attempts,
        "node_wal": cfg.data_dir is not None,
        "refcount_journal": True,
        "wal_flush_policy": WAL_POLICY,
        "zipf_s": ZIPF_S if workload.restore_draws else None,
    }


def build_cluster(workload: Workload, work_dir: str):
    """Topology, SNOD2 problem and a deployed one-ring durable cluster."""
    from repro.core.costs import SNOD2Problem
    from repro.core.model import ChunkPoolModel, grouped_sources
    from repro.network.costmatrix import latency_cost_matrix
    from repro.network.topology import build_testbed
    from repro.system.cluster import DurableEFDedupCluster

    model = ChunkPoolModel(
        [150.0, 150.0],
        grouped_sources([i % 2 for i in range(NODES)], [[0.9, 0.1], [0.1, 0.9]], 80.0),
    )
    topo = build_testbed(NODES, NODES)
    problem = SNOD2Problem(
        model=model, nu=latency_cost_matrix(topo), duration=2.0, gamma=GAMMA, alpha=50.0
    )
    cluster = DurableEFDedupCluster(
        topo,
        problem,
        config=make_config(workload, work_dir),
        journal_dir=str(Path(work_dir) / "refcounts"),
    )
    cluster.partition = [list(range(NODES))]
    cluster.deploy()
    return cluster


@dataclass
class Pass:
    """Latencies and bytes of one sequence of timed calls."""

    latencies: list[float] = field(default_factory=list)
    nbytes: int = 0

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    @property
    def mb_s(self) -> float:
        return self.nbytes / 1e6 / self.busy_s if self.latencies else 0.0


@dataclass
class RoundResult:
    setup_s: float
    ingest: Pass
    restores: dict[str, Pass]
    dedup_ratio: float
    stored_per_logical: float
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    trace: Optional[dict] = None  # what a tracing hook reported

    @property
    def op_wall_s(self) -> float:
        return self.ingest.busy_s + sum(p.busy_s for p in self.restores.values())


def _timed(pass_: Pass, result: RoundResult, label: str, call, *args) -> Optional[bytes]:
    result.attempted += 1
    started = time.perf_counter()
    try:
        out = call(*args)
    except Exception as exc:  # an op failure is a counted result, not a crash
        traceback.print_exc(file=sys.stderr)
        result.failures.append(f"{label}: {type(exc).__name__}: {exc}")
        return None
    pass_.latencies.append(time.perf_counter() - started)
    return out


def _check(result: RoundResult, ok: bool, what: str) -> None:
    result.attempted += 1
    if not ok:
        result.failures.append(what)


# A hook receives the deployed cluster before any file is ingested and
# returns a callable that the round calls exactly once, after its last
# operation or on the way out of a failed round, before shutdown; what
# it returns on the normal path becomes ``RoundResult.trace``.
Hook = Callable[[object], Callable[[], Optional[dict]]]


def run_round(
    workload: Workload,
    corpus,
    schedule: dict[str, list[str]],
    oracle: float,
    work_root: Path,
    hook: Optional[Hook] = None,
) -> RoundResult:
    """One round of fixed work on a freshly deployed cluster."""
    data_of = {fid: data for _, fid, data in corpus}
    logical = sum(len(d) for d in data_of.values())
    with tempfile.TemporaryDirectory(dir=work_root) as work_dir:
        started = time.perf_counter()
        cluster = build_cluster(workload, work_dir)
        finish = None
        try:
            setup_s = time.perf_counter() - started
            finish = hook(cluster) if hook is not None else None
            result = RoundResult(
                setup_s=setup_s, ingest=Pass(), restores={p: Pass() for p in PASSES},
                dedup_ratio=0.0, stored_per_logical=0.0,
            )
            for node, fid, data in corpus:
                if _timed(result.ingest, result, f"ingest {fid}",
                          cluster.ingest_file, node, fid, data) is not None:
                    result.ingest.nbytes += len(data)
            if workload.ingest_is_setup:
                result.setup_s = time.perf_counter() - started
            result.dedup_ratio = cluster.report()["dedup_ratio"]
            _check(result, result.dedup_ratio == oracle,
                   f"dedup_ratio {result.dedup_ratio!r} != oracle {oracle!r}")
            index_fps: set[str] = set()
            for ring in cluster.rings:
                index_fps |= set(ring.store.unique_keys())
            _check(result, index_fps == set(cluster.cloud.fingerprints()),
                   "ring index fingerprints != cloud fingerprints")
            edge_bytes = sum(
                r.content.stats.put_bytes - r.content.stats.deleted_bytes
                for r in cluster.rings
            )
            result.stored_per_logical = (
                edge_bytes + cluster.tier.stored_shard_bytes
            ) / logical
            for name in PASSES:
                if name == "tier":
                    for ring in cluster.rings:
                        ring.content.clear()
                elif name == "degraded":
                    for zone in range(RS_M):
                        cluster.fail_zone(zone)
                pass_ = result.restores[name]
                for fid in schedule[name]:
                    out = _timed(pass_, result, f"restore[{name}] {fid}",
                                 cluster.restore_file, fid)
                    if out is None:
                        continue
                    pass_.nbytes += len(out)
                    if out != data_of[fid]:
                        result.failures.append(f"restore[{name}] {fid}: bytes differ")
            for zone in range(RS_M):
                cluster.recover_zone(zone)
            _check(result, cluster.tier.under_replicated_stripes == 0,
                   f"{cluster.tier.under_replicated_stripes} under-replicated "
                   "stripes after zone recovery")
            if finish is not None:
                result.trace, finish = finish(), None
        finally:
            if finish is not None:
                finish()  # a failed round still undoes the hook's changes
            cluster.shutdown()
    return result


def warm_up(workload: Workload, corpus, work_root: Path) -> RoundResult:
    """One untimed round over a few files, so imports and other one-time
    lazy set-up of the process are not charged to the first timed round.
    Its gate still counts."""
    few = corpus[:NODES]
    ids = [fid for _, fid, _ in few]
    return run_round(
        workload, few, {name: ids for name in PASSES}, oracle_ratio(few), work_root
    )


# ---------------------------------------------------------------------- #
# aggregation
# ---------------------------------------------------------------------- #


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _rate(passes: list[Pass]) -> float:
    """MB/s over every call of equal-work rounds pooled together."""
    return sum(p.nbytes for p in passes) / 1e6 / sum(p.busy_s for p in passes)


def end_to_end(rounds: list[RoundResult]) -> dict[str, float]:
    """End-to-end metrics over untraced rounds: rates and latency
    percentiles pool every call of the run, set-up is the median round."""
    ingest_lat = [s for r in rounds for s in r.ingest.latencies]
    edge_lat = [s for r in rounds for s in r.restores["edge"].latencies]
    med = statistics.median
    return {
        "setup_s": med(r.setup_s for r in rounds),
        "ingest_mb_s": _rate([r.ingest for r in rounds]),
        "ingest_p50_ms": percentile(ingest_lat, 0.50) * 1e3,
        "ingest_p99_ms": percentile(ingest_lat, 0.99) * 1e3,
        "restore_mb_s": _rate([r.restores["edge"] for r in rounds]),
        "restore_p50_ms": percentile(edge_lat, 0.50) * 1e3,
        "restore_tier_mb_s": _rate([r.restores["tier"] for r in rounds]),
        "restore_degraded_mb_s": _rate([r.restores["degraded"] for r in rounds]),
        "dedup_ratio": med(r.dedup_ratio for r in rounds),
        "stored_per_logical": med(r.stored_per_logical for r in rounds),
        "peak_rss_mb": peak_rss_mb(),
    }


def sample_counts(rounds: list[RoundResult]) -> dict:
    ingest_lat = [s for r in rounds for s in r.ingest.latencies]
    edge_lat = [s for r in rounds for s in r.restores["edge"].latencies]
    return {
        "rounds": len(rounds),
        "ingest_samples": len(ingest_lat),
        "restore_edge_samples": len(edge_lat),
        "ingest_ms": {
            f"p{q}": percentile(ingest_lat, q / 100) * 1e3 for q in (50, 90, 95, 99)
        },
        "restore_edge_ms": {
            f"p{q}": percentile(edge_lat, q / 100) * 1e3 for q in (50, 90, 95, 99)
        },
        "per_round": [
            {
                "setup_s": r.setup_s,
                "ingest_mb_s": r.ingest.mb_s,
                **{f"restore_{p}_mb_s": r.restores[p].mb_s for p in PASSES},
            }
            for r in rounds
        ],
    }
