"""Replica repair: read repair and Merkle-tree anti-entropy.

Hinted handoff (``repro.kvstore.hints``) covers failures the coordinator
*sees*; entropy still creeps in when hints overflow or a node misses writes
silently. Cassandra closes the gap with two mechanisms reproduced here:

- **read repair** — after a read consults multiple replicas, stale replicas
  are updated with the newest value in the background;
- **anti-entropy repair** — replicas exchange Merkle trees over their key
  ranges and stream only the keys under mismatching subtrees, instead of
  diffing entire datasets.

A D2-ring that has been through failures runs ``repair_all`` to restore the
γ-copies invariant before, e.g., decommissioning a node; a rejoining
replica runs ``repair_node`` to close whatever its hint window dropped.

:class:`ReplicaRepairer` is written as coordinator steps (see
:mod:`repro.kvstore.coordinator`), so the same pair sync runs over either
driver and moves only summaries and dirty buckets:

1. ask two replicas for their fixed-depth Merkle trees (``merkle_tree``);
2. diff the leaf hashes (:func:`differing_buckets`);
3. fetch just the mismatching buckets from both sides (``repair_range``);
4. push each side's strictly-newer rows to the other with ``multi_put``,
   filtered to keys the receiver is actually responsible for.

Tree building and bucket reads are control-plane replica operations (they
read the shard directly, like ``dump``), so a replica that is still marked
down can be *compared*; pushes go through the data plane and therefore
land in the receiver's WAL.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.kvstore.coordinator import (
    ReplicaCoordinator,
    Step,
    Steps,
    _check,
    _entry,
    _newest,
    operation,
)
from repro.kvstore.node import StorageNode


@dataclass(frozen=True)
class MerkleTree:
    """A fixed-depth hash tree over a node's key range.

    Keys are bucketed by the leading bits of their MD5 token; leaf hashes
    cover the sorted (key, value, timestamp, tombstone) tuples in the bucket
    and internal hashes combine children, so equal subtrees guarantee equal
    bucket contents.
    """

    depth: int
    leaves: tuple[str, ...]  # 2**depth leaf hashes
    root: str

    @property
    def n_buckets(self) -> int:
        return len(self.leaves)


_EMPTY_LEAF = hashlib.sha256(b"empty").hexdigest()


def _bucket_of(key: str, depth: int) -> int:
    digest = hashlib.md5(key.encode("utf-8")).digest()
    prefix = int.from_bytes(digest[:4], "big")
    return prefix >> (32 - depth)


def merkle_from_items(
    items: Iterable[tuple[str, str, int, bool]], depth: int = 6
) -> MerkleTree:
    """Build a Merkle tree from raw ``(key, value, timestamp, tombstone)``
    rows — the operator view a node server exposes over RPC, which must
    work regardless of the replica's up/down flag."""
    if not 1 <= depth <= 16:
        raise ValueError(f"depth must be in [1, 16], got {depth!r}")
    buckets: list[list[tuple[str, str, int, bool]]] = [[] for _ in range(2**depth)]
    for key, value, ts, tombstone in items:
        buckets[_bucket_of(key, depth)].append((key, value, ts, tombstone))
    leaves = []
    for bucket in buckets:
        if not bucket:
            leaves.append(_EMPTY_LEAF)
            continue
        h = hashlib.sha256()
        for key, value, ts, tombstone in sorted(bucket):
            h.update(f"{key}\x00{value}\x00{ts}\x00{int(tombstone)}\x01".encode("utf-8"))
        leaves.append(h.hexdigest())
    level = leaves
    while len(level) > 1:
        level = [
            hashlib.sha256((level[i] + level[i + 1]).encode()).hexdigest()
            for i in range(0, len(level), 2)
        ]
    return MerkleTree(depth=depth, leaves=tuple(leaves), root=level[0])


def build_merkle_tree(node: StorageNode, depth: int = 6) -> MerkleTree:
    """Build the Merkle tree of ``node``'s local data (node must be up)."""
    return merkle_from_items(((key, *node.local_get(key)) for key in node.local_keys()), depth)


def differing_buckets(a: MerkleTree, b: MerkleTree) -> list[int]:
    """Bucket indexes whose contents differ between two trees."""
    if a.depth != b.depth:
        raise ValueError(f"tree depths differ: {a.depth} vs {b.depth}")
    if a.root == b.root:
        return []
    return [i for i, (la, lb) in enumerate(zip(a.leaves, b.leaves)) if la != lb]


@dataclass
class RepairStats:
    """Outcome accounting for repair operations."""

    read_repairs: int = 0
    synced_keys: int = 0
    buckets_compared: int = 0
    buckets_streamed: int = 0
    pairs_checked: int = 0


class ReplicaRepairer:
    """Read repair and Merkle anti-entropy over either coordinator driver.

    Args:
        store: the coordinator whose membership, placement, and driver the
            repairer reuses (:class:`~repro.kvstore.store.DistributedKVStore`
            or :class:`~repro.rpc.remote_store.RemoteKVStore`).
        merkle_depth: tree depth (2**depth buckets).
    """

    def __init__(self, store: ReplicaCoordinator, merkle_depth: int = 6) -> None:
        if not 1 <= merkle_depth <= 16:
            raise ValueError(f"merkle_depth must be in [1, 16], got {merkle_depth!r}")
        self.store = store
        self.merkle_depth = merkle_depth
        self.stats = RepairStats()

    def _run(self, steps: Steps):
        return self.store._run(steps)  # the store's driver runs the steps

    # ------------------------------------------------------------------ #
    # read repair
    # ------------------------------------------------------------------ #

    def _read_with_repair(self, key: str, coordinator: Optional[str] = None) -> Steps:
        """Read ``key`` from all alive replicas, repair stale ones, return
        the newest value."""
        alive = set(self.store.alive_nodes())
        replicas = [r for r in self.store.replicas_for(key) if r in alive]
        newest, repaired = yield from self.store._read({key: replicas}, coordinator, repair=True)
        self.stats.read_repairs += repaired
        best = newest[key]
        return None if best is None or best.tombstone else best.value

    read_with_repair = operation(_read_with_repair)

    # ------------------------------------------------------------------ #
    # anti-entropy
    # ------------------------------------------------------------------ #

    def _sync_pair(self, a: str, b: str) -> Steps:
        """Merkle-diff two replicas and exchange keys in differing buckets."""
        depth = self.merkle_depth
        trees = _check((yield Step("merkle_tree", {a: {"depth": depth}, b: {"depth": depth}})))
        tree_a, tree_b = (
            MerkleTree(depth=int(t["depth"]), leaves=tuple(t["leaves"]), root=t["root"])
            for t in (trees[a], trees[b])
        )
        self.stats.pairs_checked += 1
        self.stats.buckets_compared += tree_a.n_buckets
        dirty = differing_buckets(tree_a, tree_b)
        if not dirty:
            return
        self.stats.buckets_streamed += len(dirty)
        params = {"depth": depth, "buckets": dirty}
        fetched = _check((yield Step("repair_range", {a: params, b: params})))
        entries = {
            node_id: {key: _entry(row) for key, *row in reply["entries"]}
            for node_id, reply in fetched.items()
        }
        pushes: dict[str, list[list]] = {}
        for src, dst in ((a, b), (b, a)):
            rows = [
                [key, *stored]
                for key, stored in sorted(entries[src].items())
                # Only stream keys this replica is actually responsible for.
                if stored.newer_than(entries[dst].get(key))
                and dst in self.store.replicas_for(key)
            ]
            if rows:
                pushes[dst] = rows
        yield from self.store._push(pushes)
        self.stats.synced_keys += sum(len(rows) for rows in pushes.values())

    def _repair_node(self, node_id: str) -> Steps:
        """Catch ``node_id`` up: sync it pairwise against every other
        alive member (the rejoin path after a crash-restart)."""
        self.store._check_member(node_id)
        for peer in self.store.alive_nodes():
            if peer != node_id:
                yield from self._sync_pair(node_id, peer)
        return self.stats

    repair_node = operation(_repair_node)

    def _repair_all(self) -> Steps:
        """Run anti-entropy between every pair of alive replicas (all-pairs
        is exact and fine at ring sizes here)."""
        for a, b in itertools.combinations(self.store.alive_nodes(), 2):
            yield from self._sync_pair(a, b)
        return self.stats

    repair_all = operation(_repair_all)

    def _verify_replication(self) -> Steps:
        """Keys currently under-replicated on alive nodes (diagnostic;
        empty once a repair pass has converged the ring)."""
        shards = yield from self.store._dump(self.store.nodes)
        newest = _newest(row for shard in shards.values() for row in shard.items())
        alive = set(self.store.alive_nodes())
        missing: list[str] = []
        for key, stored in sorted(newest.items()):
            # Live, yet some alive replica lacks a live copy.
            if not stored.tombstone and any(
                (found := shards[r].get(key)) is None or found.tombstone
                for r in self.store.replicas_for(key)
                if r in alive
            ):
                missing.append(key)
        return missing

    verify_replication = operation(_verify_replication)
