"""Live asyncio transport for D2-rings.

The replica coordinator (:mod:`repro.kvstore.coordinator`) is written
once; :class:`~repro.kvstore.store.DistributedKVStore` drives it over
in-process nodes, and this package drives it for real: each member's
:class:`~repro.kvstore.node.StorageNode` shard behind a TCP
:class:`~repro.rpc.server.NodeServer`, a multiplexing
:class:`~repro.rpc.client.RpcClient` with per-call timeouts and bounded
jittered retries, and :class:`~repro.rpc.remote_store.RemoteKVStore`, the
asyncio driver that runs each coordinator operation's steps as RPCs.
:class:`~repro.rpc.faults.FaultInjector` makes drops, delays, duplicates,
and partitions injectable per node pair, so the robustness story is
testable from day one. Boot everything with
:class:`~repro.rpc.cluster.LiveKVCluster`, or set
``EFDedupConfig(transport="asyncio")`` and let :class:`~repro.system.ring.D2Ring`
do it.
"""

from repro.rpc.client import ClientStats, RpcClient
from repro.rpc.cluster import LiveKVCluster
from repro.rpc.errors import (
    FrameError,
    RemoteCallError,
    RpcConnectionError,
    RpcError,
    RpcTimeoutError,
)
from repro.rpc.faults import FaultInjector, FaultRule, FaultStats, SendPlan
from repro.rpc.heartbeat import HeartbeatService
from repro.rpc.messages import Request, Response
from repro.rpc.remote_store import RemoteKVStore
from repro.rpc.retry import RetryPolicy
from repro.rpc.server import NodeServer, ServerStats

__all__ = [
    "ClientStats",
    "FaultInjector",
    "FaultRule",
    "FaultStats",
    "FrameError",
    "HeartbeatService",
    "LiveKVCluster",
    "NodeServer",
    "RemoteCallError",
    "RemoteKVStore",
    "Request",
    "Response",
    "RetryPolicy",
    "RpcClient",
    "RpcConnectionError",
    "RpcError",
    "RpcTimeoutError",
    "SendPlan",
    "ServerStats",
]
