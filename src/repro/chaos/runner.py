"""The chaos runner: one registry, one entry point, one report.

:data:`SCENARIOS` names every built-in scenario with its default shape
and body. :func:`run_scenario` builds the seeded run, executes the body
into a :class:`~repro.chaos.report.ChaosReport`, computes the scenario's
baseline ratio, and records ``ratio_matches_baseline`` — the headline
acceptance check: faults may cost redundant uploads and latency, never
dedup correctness. Bodies record their own gates and, where a live ring
survives to the end, the shared invariants
(:func:`~repro.chaos.invariants.check_invariants`).

The five ring scenarios are :class:`~repro.chaos.scenarios.FaultEvent`
schedules: this module boots a real asyncio ring (WAL-backed nodes),
streams the seeded workload through the agents round-robin, fires each
event at its ingest fraction, heals everything, and measures recovery
timings (wall-clock per restart) and degraded-mode versus healthy ingest
throughput, which ``benchmarks/bench_chaos_recovery.py`` exports. Their
baseline — and overload's — is an in-process reference ring fed the same
seeded schedule. The protocol scenarios live in
:mod:`repro.chaos.protocols`.

Determinism: the workload is seeded, events fire on ingest *positions*
(fractions of the file schedule), and the default run uses explicit
mark-down on kill. Pass ``heartbeat_interval_s > 0`` to instead let the
phi-accrual prober discover crashes from missed heartbeats — realistic,
but then detection latency depends on wall-clock timing.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Union

from repro.chaos import protocols
from repro.chaos.invariants import check_invariants
from repro.chaos.report import ChaosReport
from repro.chaos.scenarios import FAULT_SCHEDULES, ChaosScenario, FaultEvent
from repro.chaos.workload import ScenarioRun
from repro.kvstore.repair import ReplicaRepairer
from repro.rpc.faults import FaultInjector
from repro.system.config import EFDedupConfig
from repro.system.ring import D2Ring


def _await_liveness_view(
    ring: D2Ring, expect_down: set[str], timeout_s: float = 15.0
) -> float:
    """Heartbeat mode only: block until the prober's view agrees that
    exactly ``expect_down`` of the killed members are down.

    Between a crash and its detection the coordinator still routes to the
    dead replica and requests fail; a real edge agent just retries, so the
    harness models that as a stall. Returns the seconds spent waiting.
    """
    started = time.perf_counter()
    deadline = started + timeout_s
    while True:
        alive = set(ring.store.alive_nodes())
        undetected = expect_down & alive
        if not undetected:
            return time.perf_counter() - started
        if time.perf_counter() >= deadline:
            raise RuntimeError(
                f"heartbeat prober failed to detect {sorted(undetected)} "
                f"within {timeout_s}s"
            )
        time.sleep(0.005)


class _EventDriver:
    """Applies fault events to a live ring and tracks who is unhealthy."""

    def __init__(
        self, ring: D2Ring, members: list[str], injector, report: ChaosReport
    ) -> None:
        self.ring = ring
        self.members = members
        self.injector = injector
        self.killed: set[str] = set()
        self.isolated: set[str] = set()
        self.slowed: dict[str, object] = {}  # node id -> installed SLOW rule
        self.recovery_times_s = report.recovery_times_s
        self.log = report.events_fired

    @property
    def unhealthy(self) -> set[str]:
        # A slowed member is alive and serving — but ingest touching it is
        # degraded-mode work, so it counts toward the degraded clock.
        return self.killed | self.isolated | set(self.slowed)

    def fire(self, event: FaultEvent) -> None:
        node = self.members[event.node_index]
        cluster = self.ring.live_cluster
        if event.action == "kill":
            heartbeats = cluster.heartbeats is not None
            cluster.kill_node(node, mark_down=not heartbeats)
            self.killed.add(node)
        elif event.action == "restart":
            started = time.perf_counter()
            cluster.restart_node(node)
            self.recovery_times_s.append(time.perf_counter() - started)
            self.killed.discard(node)
        elif event.action == "isolate":
            for peer in self.members:
                if peer != node:
                    self.injector.partition(node, peer)
            self.ring.store.mark_down(node)
            self.isolated.add(node)
        elif event.action == "heal":
            for peer in self.members:
                if peer != node:
                    self.injector.heal(node, peer)
            started = time.perf_counter()
            self.ring.store.mark_up(node)
            ReplicaRepairer(self.ring.store).repair_node(node)
            self.recovery_times_s.append(time.perf_counter() - started)
            self.isolated.discard(node)
        elif event.action == "slow":
            # Gray failure: the member stays up and keeps heartbeating;
            # only its admitted service times inflate.
            self.slowed[node] = self.injector.slow_serves(
                event.median_s, dst=node, sigma=event.sigma
            )
        elif event.action == "unslow":
            rule = self.slowed.pop(node, None)
            if rule is not None:
                self.injector.remove_rule(rule)
        self.log.append(f"{event.action}:{node}@{event.at_fraction:.2f}")

    def heal_everything(self) -> None:
        """Safety net: a scenario should heal its own faults, but the
        invariant checker needs every member up — force the rest."""
        for node in sorted(self.killed):
            self.fire(FaultEvent(0.99, "restart", self.members.index(node)))
            self.log[-1] = f"auto-{self.log[-1]}"
        for node in sorted(self.isolated):
            self.fire(FaultEvent(0.99, "heal", self.members.index(node)))
            self.log[-1] = f"auto-{self.log[-1]}"
        for node in sorted(self.slowed):
            self.fire(FaultEvent(0.99, "unslow", self.members.index(node)))
            self.log[-1] = f"auto-{self.log[-1]}"


def _run_fault_schedule(
    make_schedule: Callable[[int], ChaosScenario],
    run: ScenarioRun,
    report: ChaosReport,
) -> None:
    """Body of the ring scenarios: drive a live ring through the schedule."""
    scenario = make_schedule(run.nodes)
    members = run.members
    schedule = run.segment(0)
    total = len(schedule)
    injector = FaultInjector(seed=run.seed)
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp, D2Ring(
        "chaos-0",
        members,
        config=EFDedupConfig(
            chunk_size=4096,
            replication_factor=run.gamma,
            lookup_batch=run.lookup_batch,
            transport="asyncio",
            data_dir=str(run.data_dir or tmp),
            heartbeat_interval_s=run.heartbeat_interval_s,
        ),
        fault_injector=injector,
    ) as ring:
        driver = _EventDriver(ring, members, injector, report)
        heartbeats = ring.live_cluster.heartbeats is not None
        events = list(scenario.events)
        ev_i = 0
        degraded_s = healthy_s = 0.0
        degraded_b = healthy_b = 0
        deferred: list[tuple[str, bytes]] = []
        for i, (node_id, data) in enumerate(schedule):
            while ev_i < len(events) and events[ev_i].at_fraction * total <= i:
                driver.fire(events[ev_i])
                ev_i += 1
            if heartbeats and driver.killed:
                # Detection latency stalls the pipeline, not fails it.
                degraded_s += _await_liveness_view(ring, set(driver.killed))
            if node_id in driver.isolated:
                # An isolated member's agent cannot reach any replica;
                # its files wait for the partition to heal (the client
                # retrying later), keeping totals comparable with the
                # fault-free run.
                deferred.append((node_id, data))
                continue
            started = time.perf_counter()
            ring.agent(node_id).ingest(data)
            elapsed = time.perf_counter() - started
            if driver.unhealthy:
                degraded_s += elapsed
                degraded_b += len(data)
            else:
                healthy_s += elapsed
                healthy_b += len(data)
        while ev_i < len(events):
            driver.fire(events[ev_i])
            ev_i += 1
        driver.heal_everything()
        if heartbeats:
            # The sweeper may re-suspect a just-restarted member until
            # its first ping lands; the invariant checker needs a
            # stable all-alive view.
            deadline = time.perf_counter() + 15.0
            while set(ring.store.alive_nodes()) != set(members):
                if time.perf_counter() >= deadline:
                    raise RuntimeError(
                        "heartbeat prober did not re-admit all members"
                    )
                time.sleep(0.005)
        for node_id, data in deferred:
            started = time.perf_counter()
            ring.agent(node_id).ingest(data)
            healthy_s += time.perf_counter() - started
            healthy_b += len(data)
        check_invariants(ring, report)
        report.total_files = total
        report.dedup_ratio = ring.combined_stats().dedup_ratio
        wal_stats = ring.live_cluster.wal_stats()
        report.detail["wal_stats"] = wal_stats
        report.metrics.update(
            {
                "degraded_seconds": degraded_s,
                "healthy_seconds": healthy_s,
                "degraded_throughput_mb_s": _mb_s(degraded_b, degraded_s),
                "healthy_throughput_mb_s": _mb_s(healthy_b, healthy_s),
                "wal.entries_restored": float(
                    sum(
                        s.get("log_entries_replayed", 0)
                        + s.get("snapshot_entries_loaded", 0)
                        for s in wal_stats.values()
                    )
                ),
                **{
                    f"store.{k}": float(v)
                    for k, v in ring.store.stats.snapshot().items()
                },
            }
        )


def _mb_s(nbytes: int, seconds: float) -> float:
    return nbytes / 1e6 / seconds if seconds > 0 else 0.0


def _reference_ratio(run: ScenarioRun) -> float:
    """Ratio of a fault-free, unloaded in-process ring over the same
    seeded schedule."""
    ref = D2Ring(
        "chaos-ref",
        run.members,
        config=EFDedupConfig(
            chunk_size=4096,
            replication_factor=run.gamma,
            lookup_batch=run.lookup_batch,
        ),
    )
    for node_id, data in run.segment(0):
        ref.agent(node_id).ingest(data)
    return ref.combined_stats().dedup_ratio


@dataclass(frozen=True)
class ScenarioEntry:
    """One registered scenario: what it does, its default shape
    (``nodes`` x ``files`` per node x ``file_kb``), the smallest ring it
    runs on, its body, and the baseline its ratio must match (``None``
    when it gates on something else)."""

    description: str
    body: Callable[[ScenarioRun, ChaosReport], object]
    baseline: Optional[Callable[[ScenarioRun], float]]
    nodes: int = 3
    files: int = 6
    file_kb: int = 32
    min_nodes: int = 2


def _ring_entry(name: str, description: str) -> ScenarioEntry:
    return ScenarioEntry(
        description,
        partial(_run_fault_schedule, FAULT_SCHEDULES[name]),
        _reference_ratio,
    )


SCENARIOS: dict[str, ScenarioEntry] = {
    "crash-restart": _ring_entry(
        "crash-restart",
        "kill member 1 at 25% of ingest, restart it at 60% (WAL reload, "
        "hint replay, anti-entropy)",
    ),
    "rolling-restart": _ring_entry(
        "rolling-restart", "restart every member in turn, one at a time"
    ),
    "flapping": _ring_entry("flapping", "member 1 crash-restarts three times"),
    "partition-heal": _ring_entry(
        "partition-heal",
        "partition member 1 from every peer at 25%, heal at 60%",
    ),
    "slow-node": _ring_entry(
        "slow-node",
        "member 1 turns gray (alive but lognormally slow) from 20% to 70%",
    ),
    "migrate-under-faults": ScenarioEntry(
        "crash a source-ring member while a live migration's dual-lookup "
        "window is open; the ratio must equal the crash-free migration",
        protocols.migrate_under_faults,
        protocols.migrate_under_faults,
        nodes=6, files=2, file_kb=8, min_nodes=4,
    ),
    "restore-under-zone-failure": ScenarioEntry(
        "fail m cloud-tier zones, evict the edge shelves, and require "
        "byte-exact k-of-n restores plus a clean GC sweep",
        protocols.restore_under_zone_failure,
        None,
        files=4,
    ),
    "overload": ScenarioEntry(
        "drive an open-loop generator past the knee; require bounded "
        "admitted latency, exact shed accounting, and a reconciled ratio "
        "equal to the unloaded baseline",
        protocols.overload,
        _reference_ratio,
        files=4,
    ),
    "hot-index": ScenarioEntry(
        "migrate the secure tier's hot key slice to the edge under live "
        "ingest with a GC sweep mid-window; the ratio must equal the "
        "migration-free twin",
        protocols.hot_index,
        protocols.hot_index,
        nodes=4, files=2, file_kb=8, min_nodes=4,
    ),
}


def run_scenario(scenario: Union[str, ChaosScenario], **shape) -> ChaosReport:
    """Run one scenario on a fresh cluster and return its report.

    Args:
        scenario: a :data:`SCENARIOS` name, or a custom
            :class:`ChaosScenario` fault schedule (run like the ring
            scenarios).
        **shape: :class:`~repro.chaos.workload.ScenarioRun` fields;
            ``nodes``, ``files_per_node`` and ``file_kb`` default to the
            scenario's registered shape.
    """
    if isinstance(scenario, ChaosScenario):
        name = scenario.name
        entry = ScenarioEntry(
            scenario.description,
            partial(_run_fault_schedule, lambda n_nodes: scenario),
            _reference_ratio,
            min_nodes=scenario.min_nodes,
        )
    elif scenario in SCENARIOS:
        name, entry = scenario, SCENARIOS[scenario]
    else:
        raise KeyError(
            f"unknown scenario {scenario!r}; choose from {sorted(SCENARIOS)}"
        )
    run = ScenarioRun(
        **{
            "nodes": entry.nodes,
            "files_per_node": entry.files,
            "file_kb": entry.file_kb,
            **shape,
        }
    )
    if run.nodes < entry.min_nodes:
        raise ValueError(
            f"scenario {name!r} needs >= {entry.min_nodes} nodes, got {run.nodes}"
        )
    report = ChaosReport(scenario=name, seed=run.seed, nodes=run.nodes)
    entry.body(run, report)
    if entry.baseline is not None:
        baseline = report.baseline_ratio = entry.baseline(run)
        report.record(
            "ratio_matches_baseline",
            abs(report.dedup_ratio - baseline) < 1e-12,
            f"ratio {report.dedup_ratio!r} != fault-free baseline {baseline!r}",
        )
    return report
