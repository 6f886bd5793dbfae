"""The replica coordinator, written once: a sans-IO core with two drivers.

Any cluster member can coordinate any request (as in Cassandra); the
EF-dedup agent on node X always coordinates from X, which is what makes
the local/remote lookup split of Eq. 2 observable. This module owns all of
the coordinator's logic — placement, quorum routing, the down set, hint
buffering and replay, degraded-key recovery repair, read repair, batched
check-and-set, the ``ts_bound`` probe, membership streaming, migration
streaming and the payload-shelf scatter of the content plane — and none of
its I/O.

Every operation is a generator. It yields :class:`Step` scatters, one
message per named replica, using the replica operations of
:class:`~repro.kvstore.node.StorageNode` (``multi_get``, ``multi_put``,
``dump``, ``key_count``, ``fetch_range``, ``merkle_tree``,
``repair_range``, ``set_down`` and the payload ops ``put_chunks``,
``get_chunks``, ``delete_chunks``, ``chunk_keys``, ``chunk_dump``). A
driver executes each step and sends back
``{node_id: reply_or_exception}``; the generator folds the replies into
:class:`StoreStats` and its result. Two drivers exist:

- :class:`~repro.kvstore.store.DistributedKVStore` calls the ops on
  in-process nodes directly, with no event loop;
- :class:`~repro.rpc.remote_store.RemoteKVStore` runs the whole generator
  in one coroutine on the transport's loop, one ``asyncio.gather`` per
  step, so a public call crosses the sync→loop bridge once.

Semantics (identical on both drivers):

- A write succeeds if at least ``consistency.required_acks(rf)`` replicas
  ack it. Every key of a call is routed before any write, so an
  unavailable key fails the call with :class:`UnavailableError` before
  anything is written.
- Replicas in the down set, and replicas whose write failed with a missed
  ack (the driver's ``unreachable`` errors), receive hints. Hints are
  buffered only after the acks were counted, so a caller retrying a failed
  write cannot double-buffer.
- A read returns the newest-timestamp value among the replicas consulted
  (last-write-wins); the coordinator's own replica is consulted first.
- Reads at a consistency above ONE read-repair: stale consulted replicas
  receive the newest version, at most one extra ``multi_put`` per stale
  replica per call and none when the replicas agree.
- ``contains_many`` never writes. It counts reads, local/remote reads and
  contacts whether or not ``ts_bound`` is given; with ``ts_bound`` it
  consults every alive replica and ignores versions stamped after the
  bound.
- ``mark_up`` replays hints in ``_HINT_REPLAY_BATCH``-sized ``multi_put``
  batches. On any exception the undelivered tail is re-buffered,
  ``replay_failures`` grows by one and the exception is re-raised. After a
  full replay, keys routed while the node was down ("degraded keys") are
  read-repaired onto it (``recovery_repairs``).
- Membership changes stream over the replica ops: ``add_node`` bootstraps
  the newcomer from every alive peer's ``dump``; ``remove_node`` re-pushes
  the departing member's entries and voids its hints.
- Contacts are recorded once per distinct coordinator→replica pair of a
  batched call; ``batch_rounds`` counts batched calls.
- Payload-shelf ops treat a down or unreachable member as a miss, never a
  failure: a down member refuses ``put_chunks``/``get_chunks``/
  ``delete_chunks`` (so it keeps its copies through a delete) and still
  answers ``chunk_keys``/``chunk_dump``.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass, field, fields
from typing import Generator, Iterable, NamedTuple, Optional

from repro.kvstore.consistency import ConsistencyLevel
from repro.kvstore.errors import NodeDownError, NoSuchNodeError, UnavailableError
from repro.kvstore.hashring import ConsistentHashRing
from repro.kvstore.hints import Hint, HintBuffer
from repro.kvstore.node import VersionedValue
from repro.kvstore.replication import SimpleReplicationStrategy
from repro.obs.histogram import Histogram
from repro.obs.trace import NULL_TRACER

# Hints replayed per multi_put during recovery: bounded so one failed
# message forfeits at most this much progress (the rest is re-buffered).
_HINT_REPLAY_BATCH = 256


class Step(NamedTuple):
    """One scatter: call replica op ``method`` on each node of ``calls``
    (node id → keyword params), on behalf of coordinator ``src``."""

    method: str
    calls: dict[str, dict]
    src: Optional[str] = None


# A driver answers a step with node id → op result, or the exception the
# op raised (the core decides which failures a step tolerates).
Replies = dict[str, object]
Steps = Generator[Step, Replies, object]


def _entry(row) -> Optional[VersionedValue]:
    return None if row is None else VersionedValue(*row)


def _check(replies: Replies) -> Replies:
    """Raise the first failure of a step that tolerates none."""
    for reply in replies.values():
        if isinstance(reply, BaseException):
            raise reply
    return replies


def _newest(rows: Iterable[tuple[str, Optional[VersionedValue]]]) -> dict[str, VersionedValue]:
    """Last-write-wins merge of ``(key, version)`` rows: newest per key."""
    newest: dict[str, VersionedValue] = {}
    for key, entry in rows:
        if entry is not None and entry.newer_than(newest.get(key)):
            newest[key] = entry
    return newest


def operation(steps):
    """Publish generator method ``_name`` as the blocking method ``name``:
    the call runs the generator's steps through the instance's driver
    (``self._run``). The generator itself stays callable for composing
    operations and for drivers that schedule it themselves."""

    @functools.wraps(steps)
    def call(self, *args, **kwargs):
        return self._run(steps(self, *args, **kwargs))

    call.__name__ = steps.__name__.lstrip("_")
    call.__qualname__ = steps.__qualname__.replace(steps.__name__, call.__name__)
    return call


@dataclass
class StoreStats:
    """Operation counters, split by whether the coordinator held a replica."""

    reads: int = 0
    writes: int = 0
    local_reads: int = 0
    remote_reads: int = 0
    hints_stored: int = 0
    hints_replayed: int = 0
    replay_failures: int = 0
    unavailable_errors: int = 0
    remote_contacts: int = 0
    batch_rounds: int = 0
    read_repairs: int = 0
    recovery_repairs: int = 0
    per_pair_contacts: dict[tuple[str, str], int] = field(default_factory=dict)

    def record_contact(self, coordinator: str, replica: str) -> None:
        """Count one coordinator→replica message (for network-cost accounting)."""
        if coordinator == replica:
            return
        self.remote_contacts += 1
        pair = (coordinator, replica)
        self.per_pair_contacts[pair] = self.per_pair_contacts.get(pair, 0) + 1

    def snapshot(self) -> dict[str, float]:
        """Scalar counters with bare keys (no prefix): the MetricsHub joins
        the registration name on, so the same snapshot serves ``kvstore.*``
        on a ring and any other mount point. Per-pair contacts are a
        labeled series, not a scalar, so they are not exported here."""
        return {
            f.name: float(getattr(self, f.name))
            for f in fields(self)
            if f.name != "per_pair_contacts"
        }


class ReplicaCoordinator:
    """The replicated, partitioned store's coordinator; see the module
    docstring for its semantics.

    A driver subclass provides ``nodes`` (node id → handle with ``is_up``,
    ``mark_down`` and ``mark_up``) and :meth:`_run`, which executes an
    operation's steps and returns its result.

    Args:
        node_ids: cluster members; order is irrelevant (placement comes from
            token hashing, so the same ids always give the same layout).
        replication_factor: γ — copies of each key.
        vnodes: virtual nodes per member (load-smoothing).
        default_consistency: level used when an operation does not specify one.
        strategy: replica-placement override (e.g.
            :class:`~repro.kvstore.topology_strategy.CloudAwareReplicationStrategy`);
            defaults to SimpleStrategy at ``replication_factor``.
        max_hints_per_node: hinted-handoff window per down replica.
    """

    # Replica failures a write counts as a missed ack (hinted) instead of
    # raising; the live driver adds its transport errors.
    unreachable: tuple[type[BaseException], ...] = (NodeDownError,)

    def __init__(
        self,
        node_ids: Iterable[str],
        replication_factor: int = 2,
        vnodes: int = 16,
        default_consistency: ConsistencyLevel = ConsistencyLevel.ONE,
        strategy=None,
        max_hints_per_node: int = 100_000,
    ) -> None:
        ids = list(node_ids)
        if not ids:
            raise ValueError("a KV store needs at least one node")
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate node ids in {ids!r}")
        self.ring = ConsistentHashRing(vnodes=vnodes)
        for node_id in ids:
            self.ring.add_node(node_id)
        self.strategy = (
            strategy if strategy is not None else SimpleReplicationStrategy(replication_factor)
        )
        self.default_consistency = default_consistency
        self.hints = HintBuffer(max_hints_per_node=max_hints_per_node)
        self.stats = StoreStats()
        # "kvstore.batch_s" is one batched check-and-set round on either driver.
        self.batch_latency = Histogram("kvstore.batch_s")
        self.tracer = NULL_TRACER
        self._timestamps = itertools.count(1)
        # Keys routed while one of their replicas was down ("served below
        # full replication"): on that replica's recovery they get a
        # targeted read-repair pass, covering writes the hint window
        # dropped or that pre-date this coordinator. Bounded per node by
        # the hint window.
        self._degraded: dict[str, set[str]] = {}

    # ------------------------------------------------------------------ #
    # driver hooks
    # ------------------------------------------------------------------ #

    def _run(self, steps: Steps):
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # placement
    # ------------------------------------------------------------------ #

    def replicas_for(self, key: str) -> list[str]:
        """Ordered replica list for ``key`` (primary first)."""
        return self.strategy.replicas_for_key(self.ring, key)

    def is_local(self, key: str, node_id: str) -> bool:
        """True when ``node_id`` holds a replica of ``key`` — i.e. a lookup
        coordinated from that node needs no network hop."""
        return node_id in self.replicas_for(key)

    def alive_nodes(self) -> list[str]:
        return [nid for nid, node in self.nodes.items() if node.is_up]

    def _down_set(self) -> set[str]:
        """Members the coordinator treats as down right now: the handles'
        ``is_up`` flags (an in-process replica's own flag, or the live
        coordinator's verdict on a remote member)."""
        return {nid for nid, node in self.nodes.items() if not node.is_up}

    def _check_member(self, node_id: str) -> None:
        if node_id not in self.nodes:
            raise NoSuchNodeError(f"node {node_id!r} is not in the cluster")

    def _required_acks(self, consistency: Optional[ConsistencyLevel]) -> int:
        level = consistency if consistency is not None else self.default_consistency
        return level.required_acks(self.strategy.effective_factor(self.ring))

    def _route(
        self,
        keys: Iterable[str],
        consistency: Optional[ConsistencyLevel],
        coordinator: Optional[str],
        consult_all: bool = False,
    ) -> tuple[int, set[str], dict[str, list[str]], dict[str, list[str]]]:
        """Route every distinct key of a call before anything is sent, so an
        unavailable key fails the whole call up front (UnavailableError).

        Returns ``(required acks, down set, key → replicas, key → replicas
        to consult)``; the consulted replicas are the alive ones,
        coordinator first, cut to ``required`` unless ``consult_all``. Keys
        routed past a down replica are noted as degraded for it.
        """
        required = self._required_acks(consistency)
        down = self._down_set()
        routes: dict[str, list[str]] = {}
        consulted: dict[str, list[str]] = {}
        for key in dict.fromkeys(keys):
            replicas = routes[key] = self.replicas_for(key)
            alive = [r for r in replicas if r not in down]
            if len(alive) < required:
                self.stats.unavailable_errors += 1
                raise UnavailableError(required=required, alive=len(alive), key=key)
            if len(alive) < len(replicas):
                for replica in replicas:
                    if replica in down:
                        bucket = self._degraded.setdefault(replica, set())
                        if len(bucket) < self.hints.max_hints_per_node:
                            bucket.add(key)
            if coordinator is not None and coordinator in alive:
                alive = [coordinator] + [r for r in alive if r != coordinator]
            consulted[key] = alive if consult_all else alive[:required]
        return required, down, routes, consulted

    # ------------------------------------------------------------------ #
    # step building blocks
    # ------------------------------------------------------------------ #

    def _dump(
        self, nodes: Iterable[str]
    ) -> Generator[Step, Replies, dict[str, dict[str, VersionedValue]]]:
        """Each named member's whole shard (an operator view, served while
        the replica is down): node id → key → stored version."""
        replies = _check((yield Step("dump", {n: {} for n in nodes})))
        return {
            node_id: {key: _entry(row) for key, row in reply["entries"].items()}
            for node_id, reply in replies.items()
        }

    def _tolerate(self, replies: Replies) -> Replies:
        """Raise any failure other than a missed ack (an ``unreachable``
        error); missed acks stay in the replies as exception values."""
        for reply in replies.values():
            if isinstance(reply, BaseException) and not isinstance(reply, self.unreachable):
                raise reply
        return replies

    def _write(
        self, groups: dict[str, list[list]], src: Optional[str] = None
    ) -> Generator[Step, Replies, set[str]]:
        """One ``multi_put`` per node; returns the nodes that acked."""
        replies = self._tolerate(
            (yield Step("multi_put", {n: {"entries": rows} for n, rows in groups.items()}, src))
        )
        return {n for n, reply in replies.items() if not isinstance(reply, BaseException)}

    def _push(self, groups: dict[str, list[list]]) -> Steps:
        """One ``multi_put`` per node, every one of which must succeed."""
        _check((yield Step("multi_put", {n: {"entries": rows} for n, rows in groups.items()})))

    def _commit(
        self,
        rows: dict[str, tuple[list[str], list]],
        required: int,
        down: set[str],
        src: Optional[str],
    ) -> Steps:
        """Send each key's ``[key, value, timestamp, tombstone]`` row to its
        alive replicas (one ``multi_put`` per node), require ``required``
        acks per key, and only then hint every replica that did not ack —
        so a caller retrying a failed write cannot double-buffer."""
        groups: dict[str, list[list]] = {}
        for replicas, row in rows.values():
            for replica in replicas:
                if replica not in down:
                    groups.setdefault(replica, []).append(row)
        acked = yield from self._write(groups, src)
        for key, (replicas, _) in rows.items():
            delivered = sum(1 for r in replicas if r in acked)
            if delivered < required:
                self.stats.unavailable_errors += 1
                raise UnavailableError(required=required, alive=delivered, key=key)
        for replicas, row in rows.values():
            for replica in replicas:
                if replica not in acked:
                    self._buffer(Hint(replica, *row))

    def _read(
        self,
        consulted: dict[str, list[str]],
        src: Optional[str],
        repair: bool,
        ts_bound: Optional[int] = None,
    ) -> Generator[Step, Replies, tuple[dict[str, Optional[VersionedValue]], int]]:
        """Newest version per key among its consulted replicas (at or before
        ``ts_bound`` when given), plus the number of read-repair rows
        delivered: with ``repair``, each stale consulted replica gets one
        ``multi_put`` carrying every key it is behind on."""
        groups: dict[str, list[str]] = {}
        for key, nodes in consulted.items():
            for node_id in nodes:
                groups.setdefault(node_id, []).append(key)
        replies = _check(
            (yield Step("multi_get", {n: {"keys": ks} for n, ks in groups.items()}, src))
        )
        seen = {
            node_id: {key: _entry(row) for key, row in reply["entries"].items()}
            for node_id, reply in replies.items()
        }
        newest: dict[str, Optional[VersionedValue]] = {}
        stale: dict[str, list[list]] = {}
        for key, nodes in consulted.items():
            best: Optional[VersionedValue] = None
            for node_id in nodes:
                found = seen[node_id].get(key)
                if found is None or not found.newer_than(best):
                    continue
                if ts_bound is None or found.timestamp <= ts_bound:
                    best = found
            newest[key] = best
            if repair and best is not None and len(nodes) > 1:
                for node_id in nodes:
                    found = seen[node_id].get(key)
                    if found is None or best.newer_than(found):
                        stale.setdefault(node_id, []).append([key, *best])
        acked = yield from self._write(stale, src)
        return newest, sum(len(stale[n]) for n in acked)

    def _count_reads(
        self, keys: list[str], consulted: dict[str, list[str]], coordinator: Optional[str]
    ) -> set[tuple[str, str]]:
        """Count one read per key (local when the coordinator was
        consulted); returns the coordinator→replica pairs contacted."""
        contacts: set[tuple[str, str]] = set()
        for key in keys:
            self.stats.reads += 1
            if coordinator is not None:
                nodes = consulted[key]
                if coordinator in nodes:
                    self.stats.local_reads += 1
                else:
                    self.stats.remote_reads += 1
                contacts.update((coordinator, n) for n in nodes)
        return contacts

    def _record_contacts(self, contacts: set[tuple[str, str]]) -> None:
        for coordinator, replica in sorted(contacts):
            self.stats.record_contact(coordinator, replica)

    def _buffer(self, hint: Hint) -> None:
        if self.hints.add(hint):
            self.stats.hints_stored += 1

    # ------------------------------------------------------------------ #
    # client operations
    # ------------------------------------------------------------------ #

    def _put(
        self,
        key: str,
        value: str,
        consistency: Optional[ConsistencyLevel] = None,
        coordinator: Optional[str] = None,
    ) -> Steps:
        """Write ``key`` to its replica set (hints for down replicas).

        Raises:
            UnavailableError: if fewer replicas than the level requires are
                alive, or acked the write.
        """
        yield from self._apply(key, value, consistency, coordinator, tombstone=False)

    put = operation(_put)

    def _apply(
        self,
        key: str,
        value: str,
        consistency: Optional[ConsistencyLevel],
        coordinator: Optional[str],
        tombstone: bool,
    ) -> Steps:
        required, down, routes, alive = self._route(
            [key], consistency, coordinator, consult_all=True
        )
        row = [key, value, next(self._timestamps), tombstone]
        if not tombstone:
            # A delete counts only its embedded read, not the tombstone write.
            self.stats.writes += 1
            if coordinator is not None:
                for replica in alive[key]:
                    self.stats.record_contact(coordinator, replica)
        yield from self._commit({key: (routes[key], row)}, required, down, coordinator)

    def _get(
        self,
        key: str,
        consistency: Optional[ConsistencyLevel] = None,
        coordinator: Optional[str] = None,
    ) -> Steps:
        """Read ``key``; returns the newest value or None if unset.

        At level ONE with a coordinator that holds a replica, the read is
        served locally (this is the γ/|P| fast path of Eq. 2).
        """
        *_, consulted = self._route([key], consistency, coordinator)
        self._record_contacts(self._count_reads([key], consulted, coordinator))
        newest, repaired = yield from self._read(consulted, coordinator, repair=True)
        self.stats.read_repairs += repaired
        best = newest[key]
        return None if best is None or best.tombstone else best.value

    get = operation(_get)

    def contains(
        self,
        key: str,
        consistency: Optional[ConsistencyLevel] = None,
        coordinator: Optional[str] = None,
    ) -> bool:
        """Membership test (a get that discards the value)."""
        return self.get(key, consistency=consistency, coordinator=coordinator) is not None

    def clock_now(self) -> int:
        """Advance and return the coordinator's logical write clock.

        Every write issued after this call is stamped strictly later, so the
        returned tick is a clean boundary: the migration cutover records it
        to separate old-topology claims from writes the ring keeps accepting
        afterwards (see :meth:`contains_many`'s ``ts_bound``).
        """
        return next(self._timestamps)

    def _contains_many(
        self,
        keys: Iterable[str],
        consistency: Optional[ConsistencyLevel] = None,
        coordinator: Optional[str] = None,
        ts_bound: Optional[int] = None,
    ) -> Steps:
        """Batched membership check: one ``multi_get`` per consulted node,
        no writes. The read-only sibling of :meth:`put_if_absent_many` (the
        migration dual-lookup window uses it to probe the old ring without
        mutating it).

        With ``ts_bound``, a key only counts when some alive replica holds a
        non-tombstone version stamped at or before the bound, and every
        alive replica is consulted — the exactness contract of the cutover
        window (claims the source ring accepts *after* the cutover must not
        leak into the destination's verdicts).
        """
        keys = list(keys)
        *_, consulted = self._route(
            keys, consistency, coordinator, consult_all=ts_bound is not None
        )
        newest, _ = yield from self._read(consulted, coordinator, repair=False, ts_bound=ts_bound)
        self._record_contacts(self._count_reads(keys, consulted, coordinator))
        self.stats.batch_rounds += 1
        return [(best := newest[key]) is not None and not best.tombstone for key in keys]

    contains_many = operation(_contains_many)

    def _put_if_absent(
        self,
        key: str,
        value: str,
        consistency: Optional[ConsistencyLevel] = None,
        coordinator: Optional[str] = None,
    ) -> Steps:
        """Insert ``key`` unless present; returns True if it was new.

        This is the dedup hot path: one logical round covers the lookup and
        (when new) the insert.
        """
        if (yield from self._get(key, consistency, coordinator)) is not None:
            return False
        yield from self._put(key, value, consistency, coordinator)
        return True

    put_if_absent = operation(_put_if_absent)

    def _put_if_absent_many(
        self,
        keys: Iterable[str],
        value: str,
        consistency: Optional[ConsistencyLevel] = None,
        coordinator: Optional[str] = None,
    ) -> Steps:
        """Batched :meth:`put_if_absent`: one scatter-gather round trip.

        Key-level results are identical to calling ``put_if_absent`` once
        per key in order (intra-batch repeats and per-key read/write
        counters included), but the *network* accounting is per round trip,
        not per key: each contacted node gets one ``multi_get`` for every
        key it is consulted for and one ``multi_put`` for every new key it
        owns, so ``remote_contacts``/``per_pair_contacts`` grow by the
        number of distinct coordinator→replica pairs in the batch — not by
        the number of keys. ``batch_rounds`` counts these calls.

        Returns:
            One ``True`` (inserted) / ``False`` (already present) per key,
            in input order.
        """
        keys = list(keys)
        started = time.perf_counter()
        # On the live driver the scatter-gather client-call spans nest under
        # this one: gather() creates its tasks while the context points here.
        with self.tracer.span(
            "store.put_if_absent_many", node=coordinator, keys=len(keys)
        ):
            try:
                return (yield from self._claim(keys, value, consistency, coordinator))
            finally:
                self.batch_latency.observe(time.perf_counter() - started)

    put_if_absent_many = operation(_put_if_absent_many)

    def _claim(
        self,
        keys: list[str],
        value: str,
        consistency: Optional[ConsistencyLevel],
        coordinator: Optional[str],
    ) -> Steps:
        required, down, routes, consulted = self._route(keys, consistency, coordinator)
        newest, repaired = yield from self._read(consulted, coordinator, repair=True)
        self.stats.read_repairs += repaired
        contacts = self._count_reads(keys, consulted, coordinator)
        results: list[bool] = []
        inserted: dict[str, tuple[list[str], list]] = {}  # key → (replicas, row)
        for key in keys:
            best = newest[key]
            if (best is not None and not best.tombstone) or key in inserted:
                results.append(False)
                continue
            results.append(True)
            self.stats.writes += 1
            inserted[key] = (routes[key], [key, value, next(self._timestamps), False])
            if coordinator is not None:
                contacts.update((coordinator, r) for r in routes[key] if r not in down)
        yield from self._commit(inserted, required, down, coordinator)
        self._record_contacts(contacts)
        self.stats.batch_rounds += 1
        return results

    def _delete(
        self,
        key: str,
        consistency: Optional[ConsistencyLevel] = None,
        coordinator: Optional[str] = None,
    ) -> Steps:
        """Delete ``key`` by writing a tombstone to its replica set.

        The tombstone's timestamp supersedes earlier writes everywhere —
        including replicas that are down right now, which receive the
        tombstone as a hint — so a delete can never be undone by a stale
        hint replay or anti-entropy sync. Returns True if the key was live
        before the delete.
        """
        was_live = (yield from self._get(key, consistency, coordinator)) is not None
        yield from self._apply(key, "", consistency, coordinator, tombstone=True)
        return was_live

    delete = operation(_delete)

    # ------------------------------------------------------------------ #
    # failure handling
    # ------------------------------------------------------------------ #

    def _mark_down(self, node_id: str) -> Steps:
        """Fail ``node_id``: its replica refuses data ops and the
        coordinator turns its writes into hints.

        The replica-side notification is best-effort: a node that is marked
        down because it *crashed* is unreachable by definition, and the
        coordinator-side flip is the part that matters.
        """
        self._check_member(node_id)
        self.nodes[node_id].mark_down()
        self._tolerate((yield Step("set_down", {node_id: {"down": True}})))

    mark_down = operation(_mark_down)

    def _mark_up(self, node_id: str) -> Steps:
        """Recover ``node_id``: replay its buffered hints, then read-repair
        every key that was served below full replication while it was down
        (``stats.recovery_repairs`` counts the entries actually pushed).

        Hints are only consumed once their batch was delivered: if a replay
        fails partway, the undelivered tail is re-buffered (counted in
        ``stats.replay_failures``) so a later recovery can retry it instead
        of silently losing the buffered writes.
        """
        self._check_member(node_id)
        _check((yield Step("set_down", {node_id: {"down": False}})))
        self.nodes[node_id].mark_up()
        hints = self.hints.take_for(node_id)
        delivered = 0
        try:
            while delivered < len(hints):
                batch = hints[delivered : delivered + _HINT_REPLAY_BATCH]
                rows = [[h.key, h.value, h.timestamp, h.tombstone] for h in batch]
                yield from self._push({node_id: rows})
                delivered += len(batch)
                self.stats.hints_replayed += len(batch)
        except BaseException:
            self.hints.restore(node_id, hints[delivered:])
            self.stats.replay_failures += 1
            raise
        yield from self._recovery_repair(node_id)

    mark_up = operation(_mark_up)

    def _recovery_repair(self, node_id: str) -> Steps:
        """Read-repair each degraded key across its alive replicas, the
        recovered one included. Hints cover writes this coordinator *saw*
        while the node was down; this pass covers keys it merely *served*
        under-replicated (hint-window overflow, pre-existing data)."""
        down = self._down_set()
        consulted = {
            key: [r for r in replicas if r not in down]
            for key in sorted(self._degraded.pop(node_id, ()))
            if node_id in (replicas := self.replicas_for(key))
        }
        _, repaired = yield from self._read(consulted, None, repair=True)
        self.stats.recovery_repairs += repaired

    # ------------------------------------------------------------------ #
    # membership (bootstrap and decommission streaming)
    # ------------------------------------------------------------------ #

    def _add_node(self, node_id: str, handle) -> Steps:
        """Join ``handle`` as member ``node_id`` and stream it every key it
        now replicates, newest version across all alive peers."""
        peers = self.alive_nodes()
        self.nodes[node_id] = handle
        self.ring.add_node(node_id)
        shards = yield from self._dump(peers)
        newest = _newest(
            (key, entry)
            for shard in shards.values()
            for key, entry in shard.items()
            if node_id in self.replicas_for(key)
        )
        rows = [[key, *e] for key, e in sorted(newest.items())]
        if rows:
            yield from self._push({node_id: rows})

    def _remove_node(self, node_id: str) -> Steps:
        """Decommission ``node_id``, streaming its keys to their new
        replicas (an unreachable member is dropped without streaming and
        anti-entropy restores replication from the survivors)."""
        self._check_member(node_id)
        if len(self.nodes) <= 1:
            raise ValueError("cannot remove the last member of the ring")
        departing: dict[str, VersionedValue] = {}
        if node_id not in self._down_set():
            reply = self._tolerate((yield Step("dump", {node_id: {}})))[node_id]
            if not isinstance(reply, BaseException):
                departing = {k: _entry(r) for k, r in reply["entries"].items() if r is not None}
        self.ring.remove_node(node_id)
        del self.nodes[node_id]
        self._degraded.pop(node_id, None)
        self.hints.take_for(node_id)  # hints for a gone member are void
        down = self._down_set()
        groups: dict[str, list[list]] = {}
        for key, entry in sorted(departing.items()):
            for replica in self.replicas_for(key):
                if replica not in down:
                    groups.setdefault(replica, []).append([key, *entry])
        yield from self._push(groups)

    remove_node = operation(_remove_node)

    # ------------------------------------------------------------------ #
    # migration streaming (operator flow)
    # ------------------------------------------------------------------ #

    def _stream_ranges(self, ranges: Iterable[tuple[int, int]]) -> Steps:
        """Collect every entry whose key token falls in the half-open
        ``[lo, hi)`` token ``ranges``, newest version winning across the
        alive members (an unreachable member is skipped: replicas cover it).

        This is the unit live ring migration streams between D2-rings: the
        caller computes a moved node's primary ranges with
        :meth:`~repro.kvstore.hashring.ConsistentHashRing.primary_token_ranges`
        and feeds the rows to the destination store's
        :meth:`ingest_entries`.
        """
        wire = [[lo, hi] for lo, hi in ranges]
        replies = self._tolerate(
            (yield Step("fetch_range", {n: {"ranges": wire} for n in self.alive_nodes()}))
        )
        newest = _newest(
            (key, _entry(row))
            for reply in replies.values()
            if not isinstance(reply, BaseException)
            for key, *row in reply["entries"]
        )
        return [(key, *e) for key, e in sorted(newest.items())]

    stream_ranges = operation(_stream_ranges)

    def _ingest_entries(self, entries: Iterable[tuple[str, str, int, bool]]) -> Steps:
        """Apply migrated entries (rows from another ring's
        :meth:`stream_ranges`) to their replica sets at the original
        timestamps; down replicas receive hints. The timestamp clock is
        advanced past the ingested entries so later writes still win
        last-write-wins against them. Returns the number of rows applied.
        """
        down = self._down_set()
        groups: dict[str, list[list]] = {}
        hinted: list[Hint] = []
        max_ts = applied = 0
        for key, value, timestamp, tombstone in entries:
            row = [key, value, int(timestamp), bool(tombstone)]
            max_ts = max(max_ts, row[2])
            applied += 1
            for replica in self.replicas_for(key):
                if replica in down:
                    hinted.append(Hint(replica, *row))
                else:
                    groups.setdefault(replica, []).append(row)
        yield from self._push(groups)
        for hint in hinted:
            self._buffer(hint)
        if applied:
            tick = next(self._timestamps)
            self._timestamps = itertools.count(max(tick, max_ts + 1))
        return applied

    ingest_entries = operation(_ingest_entries)

    # ------------------------------------------------------------------ #
    # payload shelf (content plane)
    # ------------------------------------------------------------------ #
    #
    # The edge copy is a locality cache and the erasure-coded cloud tier is
    # the durable tier, so every payload op tolerates missed acks: a down or
    # unreachable member is a miss, not a failure.

    def _scatter(self, method: str, calls: dict[str, dict]) -> Steps:
        """One call per node; node id → result, or the ``unreachable``
        error of a node that could not serve it (other failures raise)."""
        return self._tolerate((yield Step(method, calls)))

    def _scatter_put_chunks(self, groups: dict[str, list[tuple[str, bytes]]]) -> Steps:
        """One batched ``put_chunks`` per target node (the payload sibling
        of the ``put_if_absent_many`` scatter); returns node id →
        error-or-None."""
        replies = yield from self._scatter(
            "put_chunks", {n: {"entries": entries} for n, entries in groups.items()}
        )
        return {
            n: reply if isinstance(reply, BaseException) else None
            for n, reply in replies.items()
        }

    scatter_put_chunks = operation(_scatter_put_chunks)

    def _scatter_get_chunks(self, groups: dict[str, list[str]]) -> Steps:
        """One batched ``get_chunks`` per node: node id → fingerprint →
        bytes or None; an unreachable node yields {} (every fingerprint a
        miss)."""
        replies = yield from self._scatter(
            "get_chunks", {n: {"fingerprints": fps} for n, fps in groups.items()}
        )
        return {
            n: {} if isinstance(reply, BaseException) else reply["chunks"]
            for n, reply in replies.items()
        }

    scatter_get_chunks = operation(_scatter_get_chunks)

    def _scatter_delete_chunks(
        self, node_ids: Iterable[str], fingerprints: Iterable[str]
    ) -> Steps:
        """Drop fingerprints from every named node; returns (copies
        deleted, bytes freed) across the nodes that served the delete."""
        fps = list(fingerprints)
        replies = yield from self._scatter(
            "delete_chunks", {n: {"fingerprints": fps} for n in node_ids}
        )
        served = [r for r in replies.values() if not isinstance(r, BaseException)]
        return sum(r["deleted"] for r in served), sum(r["bytes"] for r in served)

    scatter_delete_chunks = operation(_scatter_delete_chunks)

    def _node_chunk_keys(self, node_id: str) -> Steps:
        """Fingerprints shelved on one node (served while the replica is
        down; [] when it is unreachable)."""
        reply = (yield from self._scatter("chunk_keys", {node_id: {}}))[node_id]
        return [] if isinstance(reply, BaseException) else reply["fingerprints"]

    node_chunk_keys = operation(_node_chunk_keys)

    def _node_chunk_dump(self, node_id: str) -> Steps:
        """One node's whole shelf (operator flow for rehoming and migration
        carry; served while down, {} when unreachable)."""
        reply = (yield from self._scatter("chunk_dump", {node_id: {}}))[node_id]
        return {} if isinstance(reply, BaseException) else reply["chunks"]

    node_chunk_dump = operation(_node_chunk_dump)

    # ------------------------------------------------------------------ #
    # introspection (operator views: down members included)
    # ------------------------------------------------------------------ #

    def _unique_keys(self) -> Steps:
        """The logical (live) key set: keys whose newest version across all
        members — up or down; this is an operator view — is not a tombstone."""
        shards = yield from self._dump(self.nodes)
        newest = _newest(row for shard in shards.values() for row in shard.items())
        return {key for key, entry in newest.items() if not entry.tombstone}

    unique_keys = operation(_unique_keys)

    def _total_stored_entries(self) -> Steps:
        """Sum of per-node entry counts (≈ unique_keys · γ when healthy)."""
        return sum(_check((yield Step("key_count", {n: {} for n in self.nodes}))).values())

    total_stored_entries = operation(_total_stored_entries)

    def __len__(self) -> int:
        return len(self.unique_keys())
