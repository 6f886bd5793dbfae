"""The four protocol scenarios: straight-line bodies for the chaos runner.

The ring scenarios (:mod:`repro.chaos.scenarios`) break a *static* ring
on a fault schedule. These four stress a protocol end to end, each as
one function that takes the run's shape, fills a
:class:`~repro.chaos.report.ChaosReport`, and records its own gates:

- **migrate-under-faults** — a deployed cluster live-migrates to a new
  partition and, while the dual-lookup window is open, a surviving member
  of a *source* ring crashes and later restarts with ingest continuing.
  The ratio must match the identical migration without the crash: the
  timestamp-bounded probe reads *all* alive replicas of each key, so with
  gamma >= 2 one dark source node never changes a verdict;
- **restore-under-zone-failure** — the payload path's durability ladder:
  healthy restores, then ``m`` failed cloud-tier zones plus evicted edge
  shelves (every byte from k-of-n Reed–Solomon reconstruction), zone
  recovery (the backfill must clear every degraded stripe), and a GC
  sweep after deleting half the files (survivors must restore untouched);
- **overload** — an open-loop generator offers key-claim batches at the
  knee, then past it, while the ring's agents ingest through the same
  (now shedding) index. Admission control sheds with typed pushback,
  breakers bound the admitted tail, the agents' brownout wrappers journal
  unverified claims, and after :meth:`~repro.system.ring.D2Ring.reconcile_brownouts`
  the ratio must equal the unloaded baseline bit for bit;
- **hot-index** — the secure tier migrates the hot slice of the cloud key
  index to the edge while ring 1 re-ingests ring 0's content, a file is
  deleted and swept mid-window and re-uploaded (so the delta pass at
  commit has work). The ratio must match the migration-free twin: the
  edge slice only ever holds entries the cloud index also holds.

Migrate-under-faults and hot-index run twice: once into the report, and
once as the fault-free twin (no report: no crash, no migration) whose
returned ratio is the baseline.
"""

from __future__ import annotations

import tempfile
import threading
import time
from typing import Optional

from repro.chaos.invariants import check_invariants
from repro.chaos.report import ChaosReport
from repro.chaos.workload import ScenarioRun, demo_cluster
from repro.dedup.recipes import RecipeError
from repro.loadgen.arrivals import make_arrivals
from repro.loadgen.identity import IdentityPool
from repro.loadgen.runner import OpenLoopRunner
from repro.loadgen.seeding import derive_seed
from repro.loadgen.workload import ZipfWorkload
from repro.rpc.errors import CircuitOpenError, RpcError, RpcOverloadError
from repro.rpc.faults import FaultInjector
from repro.system.cluster import EFDedupCluster
from repro.system.config import EFDedupConfig
from repro.system.ring import D2Ring

# -------------------------------------------------------------------- #
# migrate-under-faults
# -------------------------------------------------------------------- #


def default_migration_partitions(nodes: int) -> tuple[list[list[int]], list[list[int]]]:
    """Two balanced rings, then move the last member of ring-0 to ring-1.

    For 6 nodes: ``[[0,1,2],[3,4,5]] -> [[0,1],[2,3,4,5]]`` — one node
    moves, both rings survive, and ring-0 keeps a member to kill.
    """
    if nodes < 4:
        raise ValueError(f"migrate-under-faults needs >= 4 nodes, got {nodes}")
    half = nodes // 2
    old = [list(range(half)), list(range(half, nodes))]
    new = [list(range(half - 1)), list(range(half - 1, nodes))]
    return old, new


def migrate_under_faults(
    run: ScenarioRun, report: Optional[ChaosReport] = None
) -> float:
    """One full ingest → migrate → (crash when ``report`` is given) →
    commit pass; returns the final dedup ratio.

    The kill target is the first member of the ring that loses a node (a
    *surviving* source-ring member, so its store keeps serving
    timestamp-bounded dual-lookup probes while one replica is dark).
    """
    if run.gamma < 2:
        raise ValueError(
            f"migrate-under-faults needs gamma >= 2 to survive the crash, "
            f"got {run.gamma}"
        )
    old, new = default_migration_partitions(run.nodes)
    kill_node = f"edge-{old[0][0]}"
    config = EFDedupConfig(
        chunk_size=4096,
        replication_factor=run.gamma,
        lookup_batch=run.lookup_batch,
        transport="asyncio",
        rpc_timeout_s=0.5,
        rpc_attempts=5,
    )
    with demo_cluster(run.nodes, old, config, cls=EFDedupCluster) as cluster:
        for nid, data in run.segment(0):
            cluster.ingest(nid, data)

        migrator = cluster.migrate(new)
        ring = cluster.ring_for(kill_node)
        if report is not None:
            ring.crash_node(kill_node)
            report.events_fired.append(f"kill:{kill_node}@window-open")

        window = run.segment(1)
        restart_at = len(window) // 2
        for i, (nid, data) in enumerate(window):
            if report is not None and i == restart_at:
                started = time.perf_counter()
                ring.restart_node(kill_node)
                report.recovery_times_s.append(time.perf_counter() - started)
                report.events_fired.append(f"restart:{kill_node}@window-mid")
            cluster.ingest(nid, data)
        migrator.close_window()

        for nid, data in run.segment(2):
            cluster.ingest(nid, data)

        ratio = cluster.combined_stats().dedup_ratio
        if report is not None:
            report.total_files = run.nodes * run.files_per_node * 3
            report.dedup_ratio = ratio
            metrics = migrator.report.as_metrics()
            report.metrics.update(metrics)
            report.record(
                "migration_committed",
                migrator.state == "COMMITTED",
                f"migration ended in state {migrator.state}",
            )
            report.record(
                "nodes_moved",
                metrics["migration.nodes_moved"] > 0,
                "the new partition moved no node",
            )
        return ratio


# -------------------------------------------------------------------- #
# restore-under-zone-failure
# -------------------------------------------------------------------- #

# The cloud tier's RS(k, m) code: m = 2 lets the ladder fail two zones at
# once and still reconstruct every chunk from the k = 3 survivors.
EC_DATA_SHARDS = 3
EC_PARITY_SHARDS = 2

RESTORE_OUTCOMES = ("exact", "mismatch", "missing", "corrupt")


def restore_verdict(cluster, files: dict[str, bytes]) -> dict[str, list[str]]:
    """Restore every file and sort the ids by outcome.

    ``exact`` and ``mismatch`` compare the restored bytes; ``missing``
    means a chunk no content layer holds (``KeyError`` from
    :meth:`~repro.content.plane.ContentPlane.fetch_many`); ``corrupt``
    means reassembly failed verification (:class:`RecipeError`, e.g. a
    chunk whose bytes no longer match its fingerprint). Any other
    exception is a bug and propagates.
    """
    verdict: dict[str, list[str]] = {outcome: [] for outcome in RESTORE_OUTCOMES}
    for fid, data in files.items():
        try:
            outcome = "exact" if cluster.restore_file(fid) == data else "mismatch"
        except KeyError:
            outcome = "missing"
        except RecipeError:
            outcome = "corrupt"
        verdict[outcome].append(fid)
    return verdict


def _record_restores(report: ChaosReport, phase: str, cluster, files) -> None:
    failed = {
        outcome: ids
        for outcome, ids in restore_verdict(cluster, files).items()
        if outcome != "exact" and ids
    }
    report.record(
        f"{phase}_restores_exact",
        not failed,
        "; ".join(f"{outcome}: {ids}" for outcome, ids in failed.items()),
    )


def restore_under_zone_failure(run: ScenarioRun, report: ChaosReport) -> None:
    config = EFDedupConfig(
        chunk_size=4096,
        replication_factor=run.gamma,
        lookup_batch=run.lookup_batch,
        transport="asyncio",
        rpc_timeout_s=0.5,
        rpc_attempts=5,
        ec_data_shards=EC_DATA_SHARDS,
        ec_parity_shards=EC_PARITY_SHARDS,
    )
    events = report.events_fired
    started = time.perf_counter()
    # One ring: the ladder stresses the payload plane, not partitioning,
    # and the post-sweep invariant check is ring-scoped.
    with tempfile.TemporaryDirectory() as tmp, demo_cluster(
        run.nodes, [list(range(run.nodes))], config,
        journal_dir=run.data_dir or tmp,
    ) as cluster:
        files: dict[str, bytes] = {}

        def ingest_segment(tag: str, schedule) -> None:
            for i, (nid, data) in enumerate(schedule):
                files[f"{tag}-{i}"] = data
                cluster.ingest_file(nid, f"{tag}-{i}", data)

        # 1. Healthy: edge shelves serve every restore.
        ingest_segment("a", run.segment(0))
        _record_restores(report, "healthy", cluster, files)
        events.append(f"ingest:{len(files)}-files")

        # 2. Fail m zones, ingest more (degraded stripes), evict the edge,
        # and restore purely from k-of-n reconstruction.
        down = list(range(EC_PARITY_SHARDS))
        for z in down:
            cluster.fail_zone(z)
        events.append(f"fail-zones:{down}")
        ingest_segment(
            "b", run.segment(1, files_per_node=max(1, run.files_per_node // 2))
        )
        degraded_stripes = cluster.tier.under_replicated_stripes
        for ring in cluster.rings:
            ring.content.clear()
        events.append("evict-edge")
        _record_restores(report, "degraded", cluster, files)

        # 3. Recover: the backfill must rebuild every degraded stripe.
        for z in down:
            cluster.recover_zone(z)
        events.append(f"recover-zones:{down}")
        under_replicated = cluster.tier.under_replicated_stripes
        report.record(
            "under_replicated_after_recover",
            under_replicated == 0,
            f"{under_replicated} stripes still under-replicated after recovery",
        )

        # 4. Delete half, sweep, and the survivors must be untouched.
        report.total_files = len(files)
        doomed = sorted(files)[: len(files) // 2]
        for fid in doomed:
            cluster.delete_file(fid)
            del files[fid]
        sweep = cluster.gc_sweep()
        events.append(f"delete:{len(doomed)}-files+sweep")
        _record_restores(report, "post_sweep", cluster, files)
        report.record(
            "no_orphans_adopted",
            sweep.orphans_adopted == 0,
            f"the sweep adopted {sweep.orphans_adopted} orphaned tier chunks",
        )

        check_invariants(cluster.rings[0], report)
        report.dedup_ratio = cluster.combined_stats().dedup_ratio
        report.metrics.update(
            {
                "degraded_stripes_seen": float(degraded_stripes),
                "files_deleted": float(len(doomed)),
                "chunks_swept": float(sweep.swept),
                "reclaimed_payload_bytes": float(sweep.reclaimed_payload_bytes),
                "orphans_adopted": float(sweep.orphans_adopted),
            }
        )
        for group, snap in (
            ("content.cloud_tier", cluster.tier.metrics()),
            ("content.gc", cluster.gc.metrics()),
            ("content.plane", cluster.content_plane.metrics()),
        ):
            for name, value in snap.items():
                report.metrics[f"{group}.{name}"] = float(value)
        report.metrics["elapsed_s"] = time.perf_counter() - started


# -------------------------------------------------------------------- #
# overload
# -------------------------------------------------------------------- #

# The beyond-knee step offers knee_rps times this.
OVERLOAD_FACTOR = 2.0
# Fingerprints per generated claim batch.
LOAD_BATCH = 4
# The service-plane protection under test: a bounded admission queue
# drained by a few workers, an end-to-end deadline, breakers that open on
# repeated pushback, and a retry budget that caps retry amplification.
ADMISSION_QUEUE = 12
SERVICE_WORKERS = 2
DEADLINE_S = 0.2
BREAKER_FAILURES = 5
RETRY_BUDGET = 10.0
# Gate: p99-of-admitted at the overload step must stay within this factor
# of the (floored) at-knee p99.
LATENCY_BOUND_FACTOR = 10.0
# The beyond-knee window inflates every member's service time by this
# constant (a fleet-wide gray failure, sigma 0). It pins per-node capacity
# at roughly SERVICE_WORKERS / SLOW_MEDIAN_S messages/s regardless of host
# speed, so the overload step is *actually* past the knee on any machine —
# without it, a fast host can swallow the nominal 2x rate and nothing sheds.
SLOW_MEDIAN_S = 0.004
# The at-knee p99 reference is floored before the bound multiplies it: on a
# fast machine the unloaded p99 can be a few milliseconds, and 10x of almost
# nothing would gate on scheduler jitter rather than on queueing behavior.
# 10ms ~ the smallest reference where the bound still dominates the bounded
# queue's worst-case wait (ADMISSION_QUEUE x SLOW_MEDIAN_S / workers per hop).
MIN_REFERENCE_P99_S = 10e-3
# After the load stops, breakers need a moment to half-open; reconcile
# retries transport pushback for this long before giving up.
RECONCILE_TIMEOUT_S = 10.0


def _load_step(ring: D2Ring, run: ScenarioRun, rate: float, step: int):
    """One open-loop step against the live ring's KV store, with overload
    pushback (:class:`RpcOverloadError`, :class:`CircuitOpenError`)
    classified as shed rather than failed."""
    trial_seed = derive_seed("overload", run.seed, step, 0)
    pool = IdentityPool(1_000, 16, run.members, seed=run.seed)
    workload = ZipfWorkload(
        pool,
        batch=LOAD_BATCH,
        source_s=1.1,
        key_s=0.8,
        keys_per_source=50_000,
        namespace=f"ovl{step}",
        seed=trial_seed,
    )
    schedule = make_arrivals("poisson", rate, seed=trial_seed).schedule(run.duration_s)
    runner = OpenLoopRunner(
        ring.store.submit_put_if_absent_many,
        run.members,
        drain_timeout_s=10.0,
        shed_types=(RpcOverloadError, CircuitOpenError),
    )
    return runner.run(schedule, workload.requests(len(schedule)), run.duration_s)


def overload(run: ScenarioRun, report: ChaosReport) -> None:
    members = run.members
    schedule = run.segment(0)
    overload_rps = run.knee_rps * OVERLOAD_FACTOR
    config = EFDedupConfig(
        chunk_size=4096,
        replication_factor=run.gamma,
        lookup_batch=run.lookup_batch,
        transport="asyncio",
        rpc_timeout_s=0.5,
        rpc_attempts=3,
        rpc_deadline_s=DEADLINE_S,
        admission_queue=ADMISSION_QUEUE,
        service_workers=SERVICE_WORKERS,
        breaker_failures=BREAKER_FAILURES,
        retry_budget=RETRY_BUDGET,
        brownout=True,
    )
    injector = FaultInjector(seed=run.seed)
    with D2Ring(
        "overload-0", members, config=config, fault_injector=injector
    ) as ring:
        # Step 1 — at the knee, unloaded by ingest: the latency reference.
        knee = _load_step(ring, run, run.knee_rps, step=0)

        # Step 2 — beyond the knee, with the agents ingesting through the
        # same (now shedding) index servers. The generator runs in a
        # thread so both hit the ring concurrently, like independent edge
        # populations would, under the fleet-wide slowdown.
        slow_rules = [
            injector.slow_serves(SLOW_MEDIAN_S, dst=member) for member in members
        ]
        box: list = []
        generator = threading.Thread(
            target=lambda: box.append(_load_step(ring, run, overload_rps, step=1)),
            name="overload-loadgen",
        )
        generator.start()
        try:
            for node_id, data in schedule:
                ring.agent(node_id).ingest(data)
        finally:
            generator.join()
            for rule in slow_rules:
                injector.remove_rule(rule)
        over = box[0]

        # Heal: let breakers half-open and queues drain, then reconcile
        # the brownout journals against the recovered index. A still-hot
        # probe can re-trip the first attempt with pushback; retry that
        # briefly, and let anything else surface at once.
        deadline = time.perf_counter() + RECONCILE_TIMEOUT_S
        retries = 0
        while True:
            try:
                reconcile = ring.reconcile_brownouts()
                break
            except RpcError:
                if time.perf_counter() >= deadline:
                    raise
                retries += 1
                time.sleep(0.1)

        brownout = ring.brownout_metrics()
        breakers = ring.live_cluster.breakers
        report.total_files = len(schedule)
        report.dedup_ratio = ring.combined_stats().dedup_ratio
        report.metrics.update(
            {
                "knee_rps": run.knee_rps,
                "overload_rps": overload_rps,
                "shed_fraction": over.shed / over.arrivals if over.arrivals else 0.0,
                "breaker_opens": float(0 if breakers is None else breakers.open_count),
                "reconcile.retries": float(retries),
                **{f"reconcile.{k}": float(v) for k, v in reconcile.items()},
                **{k: float(v) for k, v in brownout.items()},
            }
        )
        report.detail.update(
            knee_step=knee.as_dict(),
            overload_step=over.as_dict(),
            server_stats=ring.live_cluster.server_stats(),
        )

        report.record(
            "shed_nonzero",
            over.shed > 0,
            f"beyond-knee step at {overload_rps:.0f} req/s shed nothing "
            f"(queue bound {ADMISSION_QUEUE} never filled?)",
        )
        report.record(
            "arrivals_conserved",
            over.arrivals == over.completed + over.shed + over.failed
            and knee.arrivals == knee.completed + knee.shed + knee.failed,
            f"arrivals {over.arrivals} != completed {over.completed} "
            f"+ shed {over.shed} + failed {over.failed}",
        )
        # The reference is the at-knee p99, floored twice: by the host-
        # jitter minimum, and by the wait a full admission queue
        # necessarily imposes on every admitted request under the injected
        # slowdown (queue depth x inflated service time / drain workers).
        # Without the second floor the gate would punish the protection
        # for the injected slowness itself; the end-to-end deadline still
        # caps the admitted tail well inside the bound.
        queue_wait_s = ADMISSION_QUEUE * SLOW_MEDIAN_S / SERVICE_WORKERS
        reference_p99 = max(knee.p99_s, MIN_REFERENCE_P99_S, queue_wait_s)
        report.record(
            "admitted_latency_bounded",
            over.completed > 0
            and over.p99_s <= LATENCY_BOUND_FACTOR * reference_p99,
            f"p99-of-admitted {over.p99_s * 1e3:.1f}ms at {overload_rps:.0f} "
            f"req/s exceeds {LATENCY_BOUND_FACTOR:g}x the at-knee reference "
            f"{reference_p99 * 1e3:.1f}ms",
        )
        report.record(
            "journal_drained",
            brownout.get("brownout.journal_depth", 0) == 0
            and brownout.get("brownout.active", 0) == 0,
            f"journal depth {brownout.get('brownout.journal_depth')} "
            f"active {brownout.get('brownout.active')} after reconcile",
        )
        check_invariants(ring, report)


# -------------------------------------------------------------------- #
# hot-index
# -------------------------------------------------------------------- #


def hot_index(run: ScenarioRun, report: Optional[ChaosReport] = None) -> float:
    """One full ingest → migrate (when ``report`` is given) → sweep
    mid-window → commit pass; returns the final dedup ratio."""
    if run.nodes < 4 or run.nodes % 2:
        raise ValueError(
            f"hot-index scenario needs an even node count >= 4, got {run.nodes}"
        )
    events = report.events_fired if report is not None else []
    half = run.nodes // 2
    config = EFDedupConfig(
        chunk_size=4096,
        replication_factor=run.gamma,
        lookup_batch=run.lookup_batch,
        secure=True,
        hot_index_size=run.hot_size,
    )
    partition = [list(range(half)), list(range(half, run.nodes))]
    with demo_cluster(run.nodes, partition, config) as cluster:
        # Segment 1: ring 0 uploads — every unique chunk is claimed
        # (popularity observed), sealed, and key-registered. One extra
        # file of workload-unique bytes is the mid-window GC victim.
        seg1 = run.segment(0, nodes=half)
        for i, (nid, data) in enumerate(seg1):
            cluster.ingest_file(nid, f"s1-{i}", data)
        victim = run.segment(7, nodes=1, files_per_node=1)[0][1]
        cluster.ingest_file("edge-0", "victim", victim)

        if report is not None:
            cluster.migrate_hot_index()
            events.append("migrate:window-open")

        # Window: ring 1 re-ingests segment 1 (cross-ring claims land on
        # the migrated hot slice). Mid-window, the victim is deleted and
        # swept — its keys vanish from vault, cloud index, and edge copy —
        # then re-uploaded, so commit must delta-restream them.
        mid = len(seg1) // 2
        for i, (nid, data) in enumerate(seg1):
            if i == mid:
                cluster.delete_file("victim")
                cluster.gc_sweep()
                events.append("sweep:victim@window-mid")
                cluster.ingest_file("edge-0", "victim-again", victim)
                events.append("reupload:victim@window-mid")
            peer = f"edge-{int(nid.split('-')[1]) + half}"
            cluster.ingest_file(peer, f"s2-{i}", data)

        if report is not None:
            cluster.close_hot_index_window()
            events.append("close:window-commit")

        # Segment 3: every node, fresh seed — post-commit steady state.
        seg3 = run.segment(2, files_per_node=1)
        for i, (nid, data) in enumerate(seg3):
            cluster.ingest_file(nid, f"s3-{i}", data)

        ratio = cluster.combined_stats().dedup_ratio
        if report is not None:
            report.total_files = 2 * len(seg1) + 2 + len(seg3)
            report.dedup_ratio = ratio
            metrics = cluster.secure.metrics()
            report.metrics.update(
                {f"secure.{k}": float(v) for k, v in metrics.items()}
            )
            hot = cluster.secure.hotindex
            report.record(
                "migration_committed",
                hot.state == "COMMITTED",
                f"hot-index window ended in state {hot.state}",
            )
            report.record(
                "edge_hits",
                hot.edge_hits > 0,
                "no claim was answered by the edge hot slice",
            )
            report.record(
                "delta_pass_fired",
                metrics["hotindex.entries_restreamed"] > 0,
                "commit restreamed nothing although the victim was "
                "swept and re-uploaded mid-window",
            )
        return ratio
