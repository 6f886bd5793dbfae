"""Per-node RPC server: a StorageNode replica behind a real TCP socket.

Each edge node of a live D2-ring runs one :class:`NodeServer` on
127.0.0.1 (port assigned by the OS). The server speaks the framed
request/response protocol of :mod:`repro.rpc.framing` /
:mod:`repro.rpc.messages` and exposes the *replica-local* operation
surface by calling the :class:`~repro.kvstore.node.StorageNode` method of
the same name (``multi_get``, ``multi_put``, ``dump``, ...) — the very
functions the in-process driver calls directly. Coordination (replica
placement, consistency, hint buffering, last-write-wins merges) lives once
in :mod:`repro.kvstore.coordinator`, driven over the wire by
:class:`~repro.rpc.remote_store.RemoteKVStore`.

Two server-side behaviors make retries safe:

- **Idempotency cache.** Responses are remembered per correlation id
  (bounded LRU). A retried or duplicated delivery of a request the server
  already executed returns the *original* response instead of re-executing,
  so a non-idempotent claim is never applied twice.
- **Down-state.** ``set_down(True)`` makes data operations (``multi_get``,
  ``multi_put``, ``put_chunks``, ``get_chunks``, ``delete_chunks``) fail
  with ``NodeDownError`` (the process answers, the replica refuses — a
  crashed replica is modeled client-side by the coordinator's aliveness
  set). Control operations (``set_down``, ``dump``, ``chunk_keys``,
  ``chunk_dump``, ``stats``) keep working so an operator — or a test — can
  inspect and recover the node.

Overload protection (opt-in via ``admission``): data-plane requests flow
through a bounded queue drained by worker tasks instead of being executed
inline on the connection loop. At the queue bound the server *sheds* —
answers immediately with a typed ``RpcOverloadError`` instead of queueing
work it cannot serve in time — and work whose end-to-end deadline expired
while queued is *dropped* (``DeadlineExceededError``), not executed:
serving it would burn capacity on an answer nobody is still waiting for.
Three carve-outs keep the semantics honest:

- control methods (:data:`~repro.rpc.overload.CONTROL_METHODS`) bypass
  admission entirely — a shedding node still answers pings, so the
  phi-accrual detector never confuses *busy* with *dead*;
- replays bypass admission — the cached response costs nothing to return,
  and shedding a retry of already-executed work would make the client
  retry (or fail) an operation the server in fact applied;
- shed responses are **never** cached in the idempotency store: a later
  retry of the same correlation id must get a fresh admission decision,
  not a replayed "busy".

Responses from workers may complete out of submission order; that is safe
(the client matches by correlation id) but concurrent frame writes are
not, so each connection serializes writes behind a lock.

Wire value encoding: a stored entry travels as ``[value, timestamp,
tombstone]`` (a :class:`~repro.kvstore.node.VersionedValue` is that
tuple); ``multi_put`` takes ``[key, value, timestamp, tombstone]`` rows;
chunk payloads are ``bytes`` values, which the framing carries raw in the
frame's tail. Any exception a handler raises is answered as a failure
response (the client raises it as a typed error on the first attempt), so
a storage fault never masquerades as a network fault. A malformed frame —
one framing cannot decode, or a message that is not a request — drops the
connection and counts in ``stats.errors``.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.kvstore.node import StorageNode
from repro.obs.histogram import Histogram
from repro.obs.trace import NULL_TRACER, Tracer
from repro.rpc.errors import DeadlineExceededError, FrameError, RpcOverloadError
from repro.rpc.faults import FaultInjector
from repro.rpc.framing import read_frame, write_frame
from repro.rpc.messages import Request, Response
from repro.rpc.overload import CONTROL_METHODS, AdmissionController

# Correlation ids remembered for retry/duplicate suppression.
DEFAULT_IDEMPOTENCY_CAPACITY = 4096


@dataclass
class ServerStats:
    """Request accounting for one node server."""

    requests: int = 0
    replays: int = 0  # answered from the idempotency cache
    errors: int = 0
    connections: int = 0
    shed: int = 0  # refused at admission (RpcOverloadError)
    deadline_drops: int = 0  # expired in queue, dropped unexecuted
    by_method: dict[str, int] = field(default_factory=dict)

    def snapshot(self) -> dict[str, Any]:
        return {
            "server.requests": self.requests,
            "server.replays": self.replays,
            "server.errors": self.errors,
            "server.connections": self.connections,
            "server.shed": self.shed,
            "server.deadline_drops": self.deadline_drops,
            "server.by_method": dict(self.by_method),
        }


class NodeServer:
    """One replica's network face.

    Args:
        node: the storage shard this server fronts (created if omitted).
        node_id: required when ``node`` is omitted.
        idempotency_capacity: correlation ids remembered for replay.
        tracer: optional :class:`~repro.obs.trace.Tracer`; each handled
            request opens a ``rpc.server.<method>`` span parented on the
            request's correlation id, linking it to the client call span.
        admission: optional :class:`~repro.rpc.overload.AdmissionController`;
            when given, data-plane requests flow through a bounded queue
            drained by ``service_workers`` tasks and excess load is shed
            with ``RpcOverloadError``. ``None`` keeps the legacy inline
            dispatch (no queue, no shedding).
        service_workers: queue-draining tasks when admission is on.
        fault_injector: optional injector consulted per admitted request
            for SLOW service-time inflation (gray failures).
    """

    def __init__(
        self,
        node: Optional[StorageNode] = None,
        node_id: Optional[str] = None,
        idempotency_capacity: int = DEFAULT_IDEMPOTENCY_CAPACITY,
        tracer: Optional[Tracer] = None,
        admission: Optional[AdmissionController] = None,
        service_workers: int = 1,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        if node is None:
            if node_id is None:
                raise ValueError("give either a StorageNode or a node_id")
            node = StorageNode(node_id)
        if idempotency_capacity < 1:
            raise ValueError(
                f"idempotency_capacity must be >= 1, got {idempotency_capacity!r}"
            )
        self.node = node
        self.stats = ServerStats()
        self.handle_latency = Histogram("server.handle_s")
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._seen: OrderedDict[str, Response] = OrderedDict()
        self._idempotency_capacity = idempotency_capacity
        self._server: Optional[asyncio.base_events.Server] = None
        self._conn_tasks: set[asyncio.Task] = set()
        self.address: Optional[tuple[str, int]] = None
        if service_workers < 1:
            raise ValueError(f"service_workers must be >= 1, got {service_workers!r}")
        self.admission = admission
        self.fault_injector = fault_injector
        self._service_workers = int(service_workers)
        self._queue: Optional[asyncio.Queue] = None
        self._workers: list[asyncio.Task] = []
        self._depth = 0  # admitted-but-unfinished requests (the queue bound)

    @property
    def queue_depth(self) -> int:
        """Admitted requests waiting or executing right now (honest
        overload signal for metrics and future autoscaling)."""
        return self._depth

    @property
    def node_id(self) -> str:
        return self.node.node_id

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind and start serving; returns the bound (host, port)."""
        if self._server is not None:
            raise RuntimeError(f"server for {self.node_id!r} already started")
        self._server = await asyncio.start_server(self._handle_connection, host, port)
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        if self.admission is not None:
            self._queue = asyncio.Queue()
            self._workers = [
                asyncio.create_task(self._worker()) for _ in range(self._service_workers)
            ]
        return self.address

    async def stop(self) -> None:
        """Stop accepting, close live connections, and wait for handlers."""
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        for task in list(self._conn_tasks) + self._workers:
            task.cancel()
        pending = list(self._conn_tasks) + self._workers
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        self._workers = []
        self._queue = None
        self._depth = 0
        self._server = None

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.connections += 1
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        # Workers interleave responses from many requests on this stream;
        # the lock keeps each frame write atomic (ordering is irrelevant —
        # the client matches responses by correlation id).
        write_lock = asyncio.Lock()
        try:
            while True:
                try:
                    obj = await read_frame(reader)
                    if obj is None:
                        break
                    request = Request.from_wire(obj)
                except FrameError:
                    self.stats.errors += 1
                    break  # protocol violation: drop the connection
                received = time.perf_counter()
                await self._serve(request, writer, write_lock, received)
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _serve(
        self,
        request: Request,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        received: float,
    ) -> None:
        """Route one frame: replay/control inline, data plane through
        admission + the worker queue (when admission is configured)."""
        if (
            self.admission is None
            or request.method in CONTROL_METHODS
            or request.msg_id in self._seen
        ):
            await self._execute(request, writer, write_lock, received)
            return
        if not self.admission.decide(self._depth):
            self.stats.shed += 1
            response = Response.failure(
                request.msg_id, RpcOverloadError(node_id=self.node_id)
            )
            # Deliberately NOT cached: a retry of this id deserves a fresh
            # admission decision, not a replayed "busy".
            await self._write_response(writer, write_lock, response)
            return
        self._depth += 1
        assert self._queue is not None
        self._queue.put_nowait((request, writer, write_lock, received))

    async def _worker(self) -> None:
        assert self._queue is not None
        while True:
            request, writer, write_lock, received = await self._queue.get()
            try:
                await self._execute(request, writer, write_lock, received)
            except asyncio.CancelledError:
                raise
            except Exception:
                # A wedged response write must not kill the drain loop, but
                # it must not vanish either.
                self.stats.errors += 1
            finally:
                self._depth -= 1
                self._queue.task_done()

    async def _execute(
        self,
        request: Request,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        received: float,
    ) -> None:
        # Expired-in-queue work is dropped, not executed: the client has
        # already given up, so serving it only steals capacity from calls
        # that can still make their deadlines. Replays are exempt (the
        # answer is free) and the wait is measured locally from the frame's
        # receipt — deadline_s is a duration, so no clock sync is assumed.
        if (
            request.deadline_s is not None
            and request.msg_id not in self._seen
            and time.perf_counter() - received >= request.deadline_s
        ):
            self.stats.deadline_drops += 1
            response = Response.failure(
                request.msg_id,
                DeadlineExceededError(
                    f"node {self.node_id!r} dropped {request.method!r}: "
                    f"deadline ({request.deadline_s:.3f}s) expired in queue"
                ),
            )
            await self._write_response(writer, write_lock, response)
            return
        if self.fault_injector is not None and request.method not in CONTROL_METHODS:
            slow_s = self.fault_injector.plan_serve(self.node_id)
            if slow_s > 0:
                await asyncio.sleep(slow_s)  # gray failure: serve, but late
        response = self._dispatch(request)
        await self._write_response(writer, write_lock, response)

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        response: Response,
    ) -> None:
        try:
            async with write_lock:
                await write_frame(writer, response.to_wire())
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # peer went away; its retry will reconnect

    def _dispatch(self, request: Request) -> Response:
        started = time.perf_counter()
        # parent_id is the correlation id == the client call's span id, so
        # this hop nests under the client span in the merged trace.
        with self.tracer.span(
            f"rpc.server.{request.method}",
            node=self.node_id,
            parent_id=request.msg_id,
        ) as rec:
            response = self._dispatch_inner(request, rec)
        self.handle_latency.observe(time.perf_counter() - started)
        return response

    def _dispatch_inner(self, request: Request, rec) -> Response:
        self.stats.requests += 1
        self.stats.by_method[request.method] = (
            self.stats.by_method.get(request.method, 0) + 1
        )
        cached = self._seen.get(request.msg_id)
        if cached is not None:
            self._seen.move_to_end(request.msg_id)
            self.stats.replays += 1
            if rec is not None:
                rec.attrs["replay"] = True
            return cached
        method = request.method
        try:
            if method in self._NODE_OPS:
                result = getattr(self.node, method)(**request.params)
            elif method in self._HANDLERS:
                result = self._HANDLERS[method](self, request.params)
            else:
                raise FrameError(f"unknown method {method!r}")
            response = Response.success(request.msg_id, result)
        except Exception as exc:
            # Every handler failure is an answer, not a dropped connection:
            # a storage fault (say, a failing WAL append) must reach the
            # caller as a RemoteCallError, never pass for a network fault.
            self.stats.errors += 1
            if rec is not None:
                rec.attrs["error"] = type(exc).__name__
            response = Response.failure(request.msg_id, exc)
        self._seen[request.msg_id] = response
        while len(self._seen) > self._idempotency_capacity:
            self._seen.popitem(last=False)
        return response

    # ------------------------------------------------------------------ #
    # operations — served by the server itself
    # ------------------------------------------------------------------ #

    def _op_ping(self, params: dict) -> dict:
        return {"node": self.node_id, "up": self.node.is_up}

    def _op_stats(self, params: dict) -> dict:
        return self.stats.snapshot()

    _HANDLERS = {"ping": _op_ping, "stats": _op_stats}

    # Replica operations the coordinator scatters: served by calling the
    # StorageNode method of the same name, exactly as the in-process driver
    # does (data-plane ops refuse while the replica is down).
    _NODE_OPS = frozenset(
        {
            "multi_get",
            "multi_put",
            "set_down",
            "dump",
            "key_count",
            "merkle_tree",
            "repair_range",
            "fetch_range",
            "put_chunks",
            "get_chunks",
            "delete_chunks",
            "chunk_keys",
            "chunk_dump",
        }
    )
