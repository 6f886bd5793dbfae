"""Outside-in span tracing for the benchmark's traced runs.

Nothing under ``src/`` knows about this module. :func:`instrument` replaces
the public functions each layer exposes with timing wrappers, at the name
the caller resolves: instance attributes for objects the cluster owns,
module attributes for functions imported at call time, and class
attributes for the wire codec (whose callers hold the class). Every
replacement is recorded, and :meth:`Instrumentation.remove` restores the
originals, so an untraced round after a traced one runs unwrapped code.

Spans live on one stack per thread, so time on the caller thread and on
the live transport's event-loop thread stays apart. A span's self time is
its duration minus the durations of the spans it directly encloses on the
same thread. Spans are aggregated in memory per (thread role, span name)
as they close and read out once the round ends.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

CALLER = "caller"
LOOP = "loop"


@dataclass
class SpanTotals:
    """Aggregate of every closed span with one name on one thread role."""

    calls: int = 0
    self_s: float = 0.0
    wall_s: float = 0.0

    def add(self, other: "SpanTotals") -> None:
        self.calls += other.calls
        self.self_s += other.self_s
        self.wall_s += other.wall_s


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: list[float] = []  # per open span: child time so far
        self.table: Optional[dict[str, SpanTotals]] = None


class SpanTracer:
    """Per-thread span stacks aggregated by name.

    The caller thread (the one that created the tracer) reports under the
    ``caller`` role; any other thread (the asyncio loop thread of a live
    ring) under ``loop``.
    """

    def __init__(self) -> None:
        self._caller_ident = threading.get_ident()
        self._state = _ThreadState()
        self._tables: list[tuple[str, dict[str, SpanTotals]]] = []
        self._lock = threading.Lock()  # guards _tables registration only

    def _table(self) -> dict[str, SpanTotals]:
        state = self._state
        if state.table is None:
            role = CALLER if threading.get_ident() == self._caller_ident else LOOP
            state.table = {}
            with self._lock:
                self._tables.append((role, state.table))
        return state.table

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A callable that runs ``fn`` inside a span called ``name``."""
        state = self._state
        table_of = self._table
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = state.stack
            stack.append(0.0)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - started
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                table = state.table if state.table is not None else table_of()
                totals = table.get(name)
                if totals is None:
                    totals = table[name] = SpanTotals()
                totals.calls += 1
                totals.self_s += duration - children
                totals.wall_s += duration

        traced.__wrapped__ = fn
        return traced

    def totals(self, role: Optional[str] = None) -> dict[str, SpanTotals]:
        """Merged span totals, for one thread role or for all of them."""
        merged: dict[str, SpanTotals] = {}
        with self._lock:
            tables = list(self._tables)
        for table_role, table in tables:
            if role is not None and table_role != role:
                continue
            for name, totals in list(table.items()):
                merged.setdefault(name, SpanTotals()).add(totals)
        return merged

    def dump(self) -> dict[str, dict[str, dict[str, float]]]:
        """Every span aggregate by role, for the run's output envelope."""
        return {
            role: {
                name: {"calls": t.calls, "self_s": t.self_s, "wall_s": t.wall_s}
                for name, t in sorted(self.totals(role).items())
            }
            for role in (CALLER, LOOP)
        }


@dataclass
class Instrumentation:
    """Wrappers installed on one deployed cluster, plus the side counters
    that are not spans: bytes appended to write-ahead logs, caller time
    blocked in the sync→loop bridge and loop time idle in ``select``."""

    tracer: SpanTracer
    live: bool = False
    journal_bytes: int = 0
    bridge_wait_s: float = 0.0
    loop_idle_s: float = 0.0
    # Node WALs append on the loop thread, the refcount journal on the
    # caller thread: both add to journal_bytes.
    _journal_lock: threading.Lock = field(default_factory=threading.Lock)
    _undo: list[Callable[[], None]] = field(default_factory=list)

    def replace(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr``, remembering how to undo it: restore what
        ``owner`` itself held, or delete the attribute so lookup falls
        back to the class again."""
        own = vars(owner)
        if attr in own:
            original = own[attr]
            self._undo.append(lambda: setattr(owner, attr, original))
        else:
            self._undo.append(lambda: delattr(owner, attr))
        setattr(owner, attr, replacement)

    def patch(self, owner: Any, attr: str, name: str, static: bool = False) -> None:
        """Replace ``owner.attr`` with a span wrapper named ``name``."""
        wrapped = self.tracer.wrap(name, getattr(owner, attr))
        self.replace(owner, attr, staticmethod(wrapped) if static else wrapped)

    def remove(self) -> None:
        """Restore every original, newest first."""
        while self._undo:
            self._undo.pop()()


def _count_journal_bytes(inst: Instrumentation, wal) -> None:
    append = wal.append  # already span-wrapped

    def append_counted(key, value, timestamp, tombstone):
        append(key, value, timestamp, tombstone)
        # The record the log just wrote, newline included.
        written = len(json.dumps([key, value, timestamp, tombstone])) + 1
        with inst._journal_lock:
            inst.journal_bytes += written

    inst.replace(wal, "append", append_counted)


def _time_bridge(inst: Instrumentation, store) -> None:
    """Caller time blocked in the store's sync→loop bridge (``_sync``)."""
    sync = store._sync

    def sync_timed(coro):
        started = time.perf_counter()
        try:
            return sync(coro)
        finally:
            inst.bridge_wait_s += time.perf_counter() - started

    inst.replace(store, "_sync", sync_timed)


def _time_loop_idle(inst: Instrumentation, selector) -> None:
    """Loop-thread time blocked in ``select``: the loop's idle time."""
    select = selector.select

    def select_timed(timeout=None):
        started = time.perf_counter()
        try:
            return select(timeout)
        finally:
            inst.loop_idle_s += time.perf_counter() - started

    inst.replace(selector, "select", select_timed)


def instrument(cluster, tracer: SpanTracer) -> Instrumentation:
    """Wrap every traced layer function of a deployed
    :class:`~repro.system.cluster.DurableEFDedupCluster`."""
    import repro.dedup.recipes as recipes

    inst = Instrumentation(tracer)
    codecs = set()
    inst.patch(cluster, "ingest_file", "op.ingest_file")
    inst.patch(cluster, "restore_file", "op.restore_file")
    # Imported inside the cluster's methods at call time, so the module
    # attribute is the name their caller resolves.
    inst.patch(recipes, "make_recipe", "dedup.make_recipe")
    inst.patch(recipes, "restore_file", "dedup.restore_file")
    inst.patch(cluster.gc, "incr", "content.gc.incr")
    wals = [cluster.gc.wal] if cluster.gc.wal is not None else []
    plane = cluster.content_plane
    inst.patch(plane, "spill", "content.plane.spill")
    inst.patch(plane, "fetch_many", "content.plane.fetch_many")
    inst.patch(cluster.tier.code, "encode", "erasure.encode")
    inst.patch(cluster.tier.code, "decode", "erasure.decode")
    inst.patch(cluster.cloud, "receive_chunk", "system.cloud.receive_chunk")
    for ring in cluster.rings:
        store = ring.store
        inst.patch(store, "put_if_absent_many", "kvstore.put_if_absent_many")
        inst.patch(ring.content, "flush", "content.ring_store.flush")
        if ring.is_live:
            inst.patch(store, "scatter_put_chunks", "rpc.scatter_put_chunks")
            inst.patch(store, "scatter_get_chunks", "rpc.scatter_get_chunks")
            _time_bridge(inst, store)
            inst.live = True
            live = ring.live_cluster
            codecs.add(live.client.codec)
            wals.extend(live.wals.values())
            # The loop is private to LiveKVCluster; its selector is where
            # an idle asyncio loop blocks.
            _time_loop_idle(inst, live._loop._selector)
        for node_id, agent in ring.agents.items():
            engine = agent.engine
            inst.patch(agent, "ingest", "dedup.agent_ingest")
            inst.patch(engine, "fingerprint", "dedup.fingerprint")
            inst.patch(engine.chunker, "cut_points", "chunking.cut_points")
            inst.patch(
                ring.ring_indexes[node_id], "lookup_and_insert_many", "dedup.index_claim"
            )
    for wal in wals:
        inst.patch(wal, "append", "kvstore.wal.append")
        _count_journal_bytes(inst, wal)
    # Framing looks encode/decode up on the codec class per frame; servers
    # answer in the codec the request arrived in.
    for codec in codecs:
        inst.patch(codec, "encode", "rpc.codec.encode", static=True)
        inst.patch(codec, "decode", "rpc.codec.decode", static=True)
    return inst


def _ring_counter(counters: dict, suffix: str) -> float:
    """Sum of one per-ring hub counter over every ring."""
    return sum(
        v for k, v in counters.items()
        if k.startswith("ring-") and k.split(".", 1)[1] == suffix
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: SpanTracer, inst: Instrumentation, counters: dict, window_s: float,
    logical_bytes: int,
) -> dict[str, float]:
    """The per-layer metrics of one traced round."""
    spans = tracer.totals()
    caller = tracer.totals(CALLER)

    def span(name: str, attr: str) -> float:
        totals = spans.get(name)
        return float(getattr(totals, attr)) if totals is not None else 0.0

    raw_chunks = _ring_counter(counters, "dedup.raw_chunks")
    hits = _ring_counter(counters, "cache.hits")
    looked_up = hits + _ring_counter(counters, "cache.misses")
    rpc_calls = _ring_counter(counters, "rpc.calls")
    chunk_ops = raw_chunks + counters.get("content.plane.fetches", 0.0)
    ops = [caller[n] for n in ("op.ingest_file", "op.restore_file") if n in caller]
    op_wall = sum(t.wall_s for t in ops)
    metrics = {
        "chunking.cut_points.calls": span("chunking.cut_points", "calls"),
        "chunking.cut_points.self_s": span("chunking.cut_points", "self_s"),
        "dedup.fingerprint.self_s": span("dedup.fingerprint", "self_s"),
        "dedup.make_recipe.self_s": span("dedup.make_recipe", "self_s"),
        "dedup.agent_ingest.self_s": span("dedup.agent_ingest", "self_s"),
        "dedup.index_claim.wall_s": span("dedup.index_claim", "wall_s"),
        "dedup.dup_fraction": _ratio(
            _ring_counter(counters, "dedup.duplicate_chunks"), raw_chunks
        ),
        "dedup.cache.hit_rate": _ratio(hits, looked_up),
        "dedup.cache.evictions": _ring_counter(counters, "cache.evictions"),
        "dedup.restore_file.self_s": span("dedup.restore_file", "self_s"),
        "content.gc.incr.calls": span("content.gc.incr", "calls"),
        "content.gc.incr.self_s": span("content.gc.incr", "self_s"),
        "content.gc.journal_snapshots": counters.get("content.gc.journal_snapshots", 0.0),
        "content.ring_store.flush.self_s": span("content.ring_store.flush", "self_s"),
        "content.plane.spill.self_s": span("content.plane.spill", "self_s"),
        "content.plane.fetch_many.self_s": span("content.plane.fetch_many", "self_s"),
        "content.plane.edge_hit_ratio": _ratio(
            counters.get("content.plane.edge_hits", 0.0),
            counters.get("content.plane.fetches", 0.0),
        ),
        "erasure.encode.calls": span("erasure.encode", "calls"),
        "erasure.encode.self_s": span("erasure.encode", "self_s"),
        "erasure.decode.calls": span("erasure.decode", "calls"),
        "erasure.decode.self_s": span("erasure.decode", "self_s"),
        "kvstore.put_if_absent_many.calls": span("kvstore.put_if_absent_many", "calls"),
        "kvstore.put_if_absent_many.wall_s": span("kvstore.put_if_absent_many", "wall_s"),
        "kvstore.wal.append.calls": span("kvstore.wal.append", "calls"),
        "kvstore.wal.append.self_s": span("kvstore.wal.append", "self_s"),
        "kvstore.journal_bytes_per_logical": _ratio(inst.journal_bytes, logical_bytes),
        "rpc.codec.encode.self_s": span("rpc.codec.encode", "self_s"),
        "rpc.codec.decode.self_s": span("rpc.codec.decode", "self_s"),
        "rpc.scatter_put_chunks.wall_s": span("rpc.scatter_put_chunks", "wall_s"),
        "rpc.scatter_get_chunks.wall_s": span("rpc.scatter_get_chunks", "wall_s"),
        "rpc.bridge_wait_s": inst.bridge_wait_s,
        "rpc.loop_busy_frac": 1.0 - inst.loop_idle_s / window_s if inst.live else 0.0,
        "rpc.calls_per_chunk": _ratio(rpc_calls, chunk_ops),
        "rpc.retry_ratio": _ratio(_ring_counter(counters, "rpc.retries"), rpc_calls),
        "rpc.timeouts": _ring_counter(counters, "rpc.timeouts"),
        "system.cloud.receive_chunk.self_s": span("system.cloud.receive_chunk", "self_s"),
        # Share of the operations' wall time outside every wrapped layer.
        "system.residual_frac": _ratio(sum(t.self_s for t in ops), op_wall),
    }
    return {name: float(value) for name, value in metrics.items()}


def trace_round(cluster) -> Callable[[], dict]:
    """Round hook (see ``harness.Hook``): instrument the cluster now; the
    returned callable removes the wrappers and reports the round."""
    tracer = SpanTracer()
    inst = instrument(cluster, tracer)
    started = time.perf_counter()

    def finish() -> dict:
        window_s = time.perf_counter() - started
        inst.remove()
        caller = tracer.totals(CALLER)
        layers = {
            name: t.self_s for name, t in caller.items() if not name.startswith("op.")
        }
        return {
            "layers": layer_metrics(
                tracer, inst, cluster.metrics_hub().collect(), window_s,
                cluster.recipes.logical_bytes(),
            ),
            "caller_self_top": sorted(layers.items(), key=lambda kv: -kv[1])[:5],
            "spans": tracer.dump(),
        }

    return finish
