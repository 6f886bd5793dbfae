"""RemoteKVStore: the asyncio driver of the replica coordinator.

The coordinator's logic — placement, quorum routing, hinted handoff, read
repair, batched check-and-set, and the ``StoreStats`` accounting — lives
once in :mod:`repro.kvstore.coordinator` and is shared verbatim with the
in-process :class:`~repro.kvstore.store.DistributedKVStore`. This driver
runs each operation's steps as framed RPCs to the members'
:class:`~repro.rpc.server.NodeServer`: the whole operation runs inside one
coroutine on the transport's loop, with one ``asyncio.gather`` per step, so
every contacted node gets one in-flight message per step and a public call
crosses the sync→loop bridge once.

Synchronous facade: the store is driven by ordinary (non-async) callers —
``RingIndex``/``DedupAgent`` work unchanged — and bridges into the cluster's
event-loop thread with ``run_coroutine_threadsafe``. Calling it *from* the
loop thread would deadlock and raises immediately.

What only the wire adds lives here: open-loop submission
(:meth:`RemoteKVStore.submit_put_if_absent_many`), pings and transport
counters. The chunk-payload scatter is a coordinator operation like the
rest, so its steps reach each member's shelf on its
:class:`~repro.kvstore.node.StorageNode` as ``put_chunks``/``get_chunks``
RPCs whose payloads travel as raw bytes in the frame's tail. A call whose retries run dry raises
:class:`~repro.rpc.errors.RpcTimeoutError` — a failure mode the in-process
driver cannot have.
"""

from __future__ import annotations

import asyncio
from typing import Iterable, Optional

from repro.kvstore.consistency import ConsistencyLevel
from repro.kvstore.coordinator import ReplicaCoordinator, Steps
from repro.kvstore.errors import NodeDownError, NoSuchNodeError
from repro.obs.trace import Tracer
from repro.rpc.client import RpcClient
from repro.rpc.errors import RpcError


class RemoteNodeHandle:
    """Coordinator-side view of one live member (``store.nodes`` values).

    ``is_up`` is the *coordinator's* verdict (what hints key off), not a
    probe of the process: a crashed member is marked down without being
    reachable.
    """

    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        self.is_up = True

    def mark_down(self) -> None:
        self.is_up = False

    def mark_up(self) -> None:
        self.is_up = True


class RemoteKVStore(ReplicaCoordinator):
    """A replicated, partitioned KV store whose replicas live behind RPC.

    Args:
        client: transport to the ring's node servers (addresses define
            membership).
        loop: the event loop (running in its own thread) the client's
            connections belong to.
        replication_factor: γ — copies of each key.
        vnodes: virtual nodes per member.
        default_consistency: level used when an operation names none.
        strategy: replica-placement override; defaults to SimpleStrategy.
        max_hints_per_node: hinted-handoff window per down replica.
        tracer: optional :class:`~repro.obs.trace.Tracer`; each batched
            check-and-set opens a coordinator-side ``store.put_if_absent_many``
            span whose scatter-gather RPC spans nest underneath.
    """

    # A transport failure, or a replica that marked itself down before this
    # coordinator noticed, is a missed ack.
    unreachable = (RpcError, NodeDownError)

    def __init__(
        self,
        client: RpcClient,
        loop: asyncio.AbstractEventLoop,
        replication_factor: int = 2,
        vnodes: int = 16,
        default_consistency: ConsistencyLevel = ConsistencyLevel.ONE,
        strategy=None,
        max_hints_per_node: int = 100_000,
        tracer: Optional[Tracer] = None,
    ) -> None:
        super().__init__(
            client.addresses,
            replication_factor,
            vnodes,
            default_consistency,
            strategy,
            max_hints_per_node,
        )
        self._client = client
        self._loop = loop
        self.nodes = {nid: RemoteNodeHandle(nid) for nid in client.addresses}
        if tracer is not None:
            self.tracer = tracer

    # ------------------------------------------------------------------ #
    # sync ↔ async bridge and the step driver
    # ------------------------------------------------------------------ #

    def _sync(self, coro):
        running = None
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            pass
        if running is self._loop:
            raise RuntimeError(
                "RemoteKVStore's synchronous API must not be called from the "
                "transport's own event-loop thread (it would deadlock)"
            )
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    def _run(self, steps: Steps):
        return self._sync(self._drive(steps))

    async def _drive(self, steps: Steps):
        """Run one operation on the loop: each step is one concurrent call
        per named node; failures go back to the core as values."""
        reply = None
        try:
            while True:
                try:
                    method, calls, src = steps.send(reply)
                except StopIteration as done:
                    return done.value
                outcomes = await asyncio.gather(
                    *(self._client.call(n, method, p, src=src) for n, p in calls.items()),
                    return_exceptions=True,
                )
                reply = dict(zip(calls, outcomes))
        finally:
            steps.close()  # a cancelled operation unwinds in this context

    # ------------------------------------------------------------------ #
    # membership
    # ------------------------------------------------------------------ #

    def add_node(self, node_id: str, address: Optional[tuple[str, int]] = None) -> None:
        """Grow the live ring by one member whose server is already running.

        The caller (normally :meth:`~repro.rpc.cluster.LiveKVCluster.add_node`)
        boots the :class:`~repro.rpc.server.NodeServer` first and passes its
        ``(host, port)`` here (or registers it on the client beforehand).
        Keys whose replica set now includes the newcomer are streamed to it
        from every reachable peer.
        """
        if node_id in self.nodes:
            raise ValueError(f"node {node_id!r} already in the cluster")
        if address is not None:
            self._client.addresses[node_id] = (address[0], int(address[1]))
        if node_id not in self._client.addresses:
            raise NoSuchNodeError(
                f"node {node_id!r} has no address; boot its server and pass "
                "address=(host, port)"
            )
        self._run(self._add_node(node_id, RemoteNodeHandle(node_id)))

    # ------------------------------------------------------------------ #
    # open-loop submission and transport introspection
    # ------------------------------------------------------------------ #

    def submit_put_if_absent_many(
        self,
        keys: Iterable[str],
        value: str,
        consistency: Optional[ConsistencyLevel] = None,
        coordinator: Optional[str] = None,
    ) -> "concurrent.futures.Future[list[bool]]":
        """Open-loop submission: schedule the batched check-and-set on the
        transport's loop and return its future *without waiting*.

        This is what a load generator needs to keep an arrival process
        honest — the caller fires batches on its schedule regardless of how
        far behind the cluster is, and each in-flight batch pipelines over
        the client's multiplexed per-node connections. Semantics per batch
        are identical to :meth:`put_if_absent_many`; a call whose retries
        run dry resolves the future with
        :class:`~repro.rpc.errors.RpcTimeoutError`.
        """
        return asyncio.run_coroutine_threadsafe(
            self._drive(
                self._put_if_absent_many(list(keys), value, consistency, coordinator)
            ),
            self._loop,
        )

    def ping_all(self) -> dict[str, float]:
        """Round-trip every member once; node id → RTT seconds."""

        async def ping_every():
            rtts = await asyncio.gather(*(self._client.ping(n) for n in self.nodes))
            return dict(zip(self.nodes, rtts))

        return self._sync(ping_every())

    def transport_snapshot(self) -> dict:
        """Client transport counters (calls, retries, timeouts, RTTs)."""
        snap = self._client.stats.snapshot()
        if self._client.rtt.count:
            snap["rpc.rtt_mean_s"] = self._client.rtt.mean
            snap["rpc.rtt_p99_s"] = self._client.rtt.percentile(99)
        return snap
