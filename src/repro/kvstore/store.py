"""The in-process driver of the replica coordinator.

:class:`DistributedKVStore` runs the coordinator of
:mod:`repro.kvstore.coordinator` over in-process
:class:`~repro.kvstore.node.StorageNode` replicas: each scatter step is a
plain method call on the named nodes, with no event loop. The semantics
(quorum acks, hinted handoff, read repair, batched check-and-set) live in
the coordinator and are shared verbatim with the live transport's
:class:`~repro.rpc.remote_store.RemoteKVStore`.
"""

from __future__ import annotations

from typing import Iterable

from repro.kvstore.consistency import ConsistencyLevel
from repro.kvstore.coordinator import ReplicaCoordinator, StoreStats, Steps
from repro.kvstore.node import StorageNode

__all__ = ["DistributedKVStore", "StoreStats"]


class DistributedKVStore(ReplicaCoordinator):
    """A replicated, partitioned key-value store over in-process nodes.

    The replicas' own up/down flags are the down set: the in-process
    coordinator observes them directly (a perfect failure detector), so
    flipping a node by hand is seen by the next operation.

    Args:
        node_ids: cluster members; order is irrelevant (placement comes from
            token hashing, so the same ids always give the same layout).
        replication_factor: γ — copies of each key.
        vnodes: virtual nodes per member (load-smoothing).
        default_consistency: level used when an operation does not specify one.
        strategy: replica-placement override (e.g.
            :class:`~repro.kvstore.topology_strategy.CloudAwareReplicationStrategy`);
            defaults to SimpleStrategy at ``replication_factor``.
    """

    def __init__(
        self,
        node_ids: Iterable[str],
        replication_factor: int = 2,
        vnodes: int = 16,
        default_consistency: ConsistencyLevel = ConsistencyLevel.ONE,
        strategy=None,
    ) -> None:
        ids = list(node_ids)
        super().__init__(ids, replication_factor, vnodes, default_consistency, strategy)
        self.nodes: dict[str, StorageNode] = {nid: StorageNode(nid) for nid in ids}
        self.monitor = None  # set by enable_failure_detection()

    # ------------------------------------------------------------------ #
    # driver hooks
    # ------------------------------------------------------------------ #

    def _run(self, steps: Steps):
        reply = None
        while True:
            try:
                method, calls, _ = steps.send(reply)
            except StopIteration as done:
                return done.value
            reply = {}
            for node_id, params in calls.items():
                try:
                    reply[node_id] = getattr(self.nodes[node_id], method)(**params)
                except Exception as exc:
                    reply[node_id] = exc

    # ------------------------------------------------------------------ #
    # membership and failure detection
    # ------------------------------------------------------------------ #

    def add_node(self, node_id: str) -> None:
        """Grow the cluster by one member.

        Keys whose replica set changes are re-streamed to the new owner so
        reads keep finding them (Cassandra's bootstrap streaming).
        """
        if node_id in self.nodes:
            raise ValueError(f"node {node_id!r} already in the cluster")
        self._run(self._add_node(node_id, StorageNode(node_id)))

    def enable_failure_detection(self, detector=None):
        """Attach a :class:`~repro.kvstore.gossip.HeartbeatMonitor` so node
        liveness is driven by heartbeats instead of manual ``mark_down``/
        ``mark_up`` calls.

        Feed it with :meth:`record_heartbeat` whenever a node proves
        liveness (simulated clock: any monotonic float) and call
        :meth:`sweep_failures` periodically; suspected nodes are marked
        down (writes become hints) and recovered nodes are marked up
        (hints replay). This is the same monitor class the live transport's
        :class:`~repro.rpc.heartbeat.HeartbeatService` drives from real
        pings — one consumer, two clocks.
        """
        from repro.kvstore.gossip import HeartbeatMonitor

        self.monitor = HeartbeatMonitor(self, detector)
        return self.monitor

    def record_heartbeat(self, node_id: str, now: float) -> None:
        """Record one liveness proof for ``node_id`` at time ``now``."""
        if self.monitor is None:
            raise RuntimeError("call enable_failure_detection() first")
        self.monitor.observe(node_id, now)

    def sweep_failures(self, now: float) -> list[tuple[float, str, str]]:
        """Reconcile liveness with the detector; returns the transitions
        recorded so far (``(now, node_id, "down"|"up")`` tuples)."""
        if self.monitor is None:
            raise RuntimeError("call enable_failure_detection() first")
        self.monitor.sweep(now)
        return self.monitor.transitions
