"""Declarative fault scenarios.

A scenario is a schedule of :class:`FaultEvent`\\ s pinned to *ingest
progress* rather than wall-clock time: "kill node 1 a quarter of the way
through the workload" replays identically on any machine, which is what
makes a chaos run a regression test instead of a dice roll. Events name
members by index into the ring's (sorted) member list, so the same
scenario applies to any ring size that satisfies its
:attr:`ChaosScenario.min_nodes`.

Actions:

- ``kill`` / ``restart`` — process crash and rejoin
  (:meth:`~repro.rpc.cluster.LiveKVCluster.kill_node` /
  :meth:`~repro.rpc.cluster.LiveKVCluster.restart_node`);
- ``isolate`` / ``heal`` — network partition of one member from every
  peer (the server stays alive but agent traffic is dropped), then heal
  plus anti-entropy catch-up;
- ``slow`` / ``unslow`` — gray failure: the member keeps answering
  everything (heartbeats included) but its service times inflate by a
  seeded lognormal sample around ``median_s`` — the failure mode that
  binary up/down detectors cannot see and deadlines/admission control
  exist for.
"""

from __future__ import annotations

from dataclasses import dataclass

ACTIONS = ("kill", "restart", "isolate", "heal", "slow", "unslow")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: do ``action`` to member ``node_index`` when
    ingest progress reaches ``at_fraction`` of the workload.

    ``median_s``/``sigma`` parameterize ``slow`` events only: the median
    service-time inflation and the lognormal shape of its tail."""

    at_fraction: float
    action: str
    node_index: int
    median_s: float = 0.0
    sigma: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.at_fraction < 1.0:
            raise ValueError(
                f"at_fraction must be in [0, 1), got {self.at_fraction!r}"
            )
        if self.action not in ACTIONS:
            raise ValueError(f"action must be one of {ACTIONS}, got {self.action!r}")
        if self.node_index < 0:
            raise ValueError(f"node_index must be >= 0, got {self.node_index!r}")
        if self.action == "slow" and self.median_s <= 0:
            raise ValueError(
                f"slow events need median_s > 0, got {self.median_s!r}"
            )
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma!r}")


@dataclass(frozen=True)
class ChaosScenario:
    """A named, ordered fault schedule."""

    name: str
    description: str
    events: tuple[FaultEvent, ...]

    def __post_init__(self) -> None:
        fractions = [e.at_fraction for e in self.events]
        if fractions != sorted(fractions):
            raise ValueError(f"events of {self.name!r} must be ordered by at_fraction")

    @property
    def min_nodes(self) -> int:
        """Smallest ring this scenario addresses: the highest member index
        it touches, plus one. (Scenarios take down one member at a time,
        so CL.ONE quorum survives on any ring of >= 2.)"""
        return max((e.node_index for e in self.events), default=0) + 1


def crash_restart(
    node_index: int = 1, kill_at: float = 0.25, restart_at: float = 0.6
) -> ChaosScenario:
    """Kill one member mid-ingest, restart it later: the canonical
    crash-recovery path (WAL reload → hint replay → anti-entropy)."""
    return ChaosScenario(
        name="crash-restart",
        description=(
            f"kill member {node_index} at {kill_at:.0%} of ingest, "
            f"restart at {restart_at:.0%}"
        ),
        events=(
            FaultEvent(kill_at, "kill", node_index),
            FaultEvent(restart_at, "restart", node_index),
        ),
    )


def rolling_restart(n_nodes: int, down_fraction: float = 0.12) -> ChaosScenario:
    """Restart every member in turn, one at a time — the upgrade drill.
    Each member is down for ``down_fraction`` of the workload."""
    if n_nodes < 2:
        raise ValueError(f"rolling restart needs >= 2 nodes, got {n_nodes!r}")
    span = 0.9 / n_nodes
    if down_fraction >= span:
        down_fraction = span / 2
    events = []
    for i in range(n_nodes):
        start = 0.05 + i * span
        events.append(FaultEvent(start, "kill", i))
        events.append(FaultEvent(start + down_fraction, "restart", i))
    return ChaosScenario(
        name="rolling-restart",
        description=f"restart all {n_nodes} members one at a time",
        events=tuple(events),
    )


def flapping(node_index: int = 1, cycles: int = 3) -> ChaosScenario:
    """One member crashes and rejoins repeatedly — the worst case for
    hint accounting and detector stability."""
    if cycles < 1:
        raise ValueError(f"cycles must be >= 1, got {cycles!r}")
    span = 0.8 / cycles
    events = []
    for c in range(cycles):
        start = 0.1 + c * span
        events.append(FaultEvent(start, "kill", node_index))
        events.append(FaultEvent(start + span / 2, "restart", node_index))
    return ChaosScenario(
        name="flapping",
        description=f"member {node_index} crash-restarts {cycles} times",
        events=tuple(events),
    )


def partition_heal(
    node_index: int = 1, isolate_at: float = 0.25, heal_at: float = 0.6
) -> ChaosScenario:
    """Isolate one member from every peer (its process survives), then
    heal the partition and let anti-entropy reconcile."""
    return ChaosScenario(
        name="partition-heal",
        description=(
            f"partition member {node_index} from all peers at "
            f"{isolate_at:.0%}, heal at {heal_at:.0%}"
        ),
        events=(
            FaultEvent(isolate_at, "isolate", node_index),
            FaultEvent(heal_at, "heal", node_index),
        ),
    )


def slow_node(
    node_index: int = 1,
    slow_at: float = 0.2,
    unslow_at: float = 0.7,
    median_s: float = 0.02,
    sigma: float = 0.8,
) -> ChaosScenario:
    """One member turns gray mid-ingest: alive, heartbeating, answering —
    but each admitted request's service time inflates by a seeded
    lognormal sample around ``median_s`` (``sigma`` grows the 10× tail).
    The ring must keep its ratio exact and its invariants intact while
    deadlines, shedding, and brownout absorb the slowness."""
    return ChaosScenario(
        name="slow-node",
        description=(
            f"member {node_index} serves lognormal({median_s:g}s median, "
            f"sigma={sigma:g}) slow from {slow_at:.0%} to {unslow_at:.0%}"
        ),
        events=(
            FaultEvent(slow_at, "slow", node_index, median_s=median_s, sigma=sigma),
            FaultEvent(unslow_at, "unslow", node_index),
        ),
    )


# The ring scenarios of the registry in :mod:`repro.chaos.runner`: each
# factory takes the ring size (only rolling-restart depends on it).
FAULT_SCHEDULES = {
    "crash-restart": lambda n_nodes: crash_restart(),
    "rolling-restart": rolling_restart,
    "flapping": lambda n_nodes: flapping(),
    "partition-heal": lambda n_nodes: partition_heal(),
    "slow-node": lambda n_nodes: slow_node(),
}
