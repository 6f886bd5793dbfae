"""A single storage node of the distributed KV store.

Each node holds its local shard of the key space in memory and has an
up/down flag driven by failure injection. Values carry a logical timestamp
so replicas can reconcile with last-write-wins, Cassandra-style. The node
also holds the edge payload shelf of the content plane: the bytes of the
unique chunks whose fingerprints it owns.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

from repro.kvstore.errors import NodeDownError


class VersionedValue(NamedTuple):
    """A stored value plus its last-write-wins timestamp.

    A *tombstone* records a deletion: it participates in last-write-wins
    reconciliation like any write (so a delete beats older writes even when
    it reaches a replica late, via hints or anti-entropy) but reads treat
    it as absence. Being a tuple, it is its own wire form: the framing's
    JSON encodes it as the ``[value, timestamp, tombstone]`` row.
    """

    value: str
    timestamp: int
    tombstone: bool = False

    def newer_than(self, other: Optional["VersionedValue"]) -> bool:
        return other is None or self.timestamp > other.timestamp


class StorageNode:
    """One member of a KV cluster: a local store with an availability flag.

    Besides the ``local_*`` primitives, the node carries the replica-side
    operations the coordinator scatters (``multi_get``, ``multi_put``,
    ``set_down``, ``dump``, ``key_count``, ``merkle_tree``,
    ``repair_range``, ``fetch_range``) and the payload-shelf operations
    (``put_chunks``, ``get_chunks``, ``delete_chunks``, ``chunk_keys``,
    ``chunk_dump``). Each takes keyword params and returns a wire-ready
    value, so the in-process driver calls them directly and
    :class:`~repro.rpc.server.NodeServer` serves the same functions over
    TCP.

    Args:
        node_id: this member's id.
        wal: optional :class:`~repro.kvstore.wal.WriteAheadLog`. When given,
            the shard is rebuilt from it on construction (the crash-restart
            path) and every accepted write is logged before it is applied —
            so a replica that dies with the process comes back with its
            pre-crash keys.
    """

    def __init__(self, node_id: str, wal=None) -> None:
        self.node_id = node_id
        self.wal = wal
        self._data: dict[str, VersionedValue] = (
            wal.load() if wal is not None else {}
        )
        self._up = True
        # Edge payload shelf: fingerprint → chunk bytes. In memory on
        # purpose (and outside the WAL): the edge copy is a locality cache
        # and the erasure-coded cloud tier is the durable one, so a crash
        # that loses the shelf is recovered by reconstruction.
        self.chunks: dict[str, bytes] = {}

    @property
    def is_up(self) -> bool:
        return self._up

    def mark_down(self) -> None:
        """Simulate a crash or partition: the node stops serving requests."""
        self._up = False

    def mark_up(self) -> None:
        """Bring the node back; its local data is intact (crash, not wipe)."""
        self._up = True

    def _check_up(self) -> None:
        if not self._up:
            raise NodeDownError(f"node {self.node_id!r} is down")

    def local_put(
        self, key: str, value: str, timestamp: int, tombstone: bool = False
    ) -> None:
        """Store ``key`` locally, keeping the newest write per key
        (tombstones included — a newer delete must shadow older writes)."""
        self._check_up()
        existing = self._data.get(key)
        incoming = VersionedValue(value=value, timestamp=timestamp, tombstone=tombstone)
        if incoming.newer_than(existing):
            if self.wal is not None:
                # Log before apply: a crash after the append replays the
                # record, a crash before it never claimed the write.
                self.wal.append(key, value, timestamp, tombstone)
            self._data[key] = incoming
            if self.wal is not None:
                self.wal.maybe_snapshot(self._data)

    def local_get(self, key: str) -> Optional[VersionedValue]:
        """Read ``key`` from the local shard (None if absent)."""
        self._check_up()
        return self._data.get(key)

    def local_contains(self, key: str) -> bool:
        """True when a live (non-tombstone) value is stored locally."""
        self._check_up()
        stored = self._data.get(key)
        return stored is not None and not stored.tombstone

    def local_delete(self, key: str) -> bool:
        """Delete ``key`` locally. Returns True if it was present."""
        self._check_up()
        return self._data.pop(key, None) is not None

    def local_keys(self) -> Iterator[str]:
        """Iterate keys in the local shard (node must be up)."""
        self._check_up()
        return iter(list(self._data))

    def key_count(self) -> int:
        """Number of keys stored locally (allowed even while down — this is
        an operator-view metric, not a client request)."""
        return len(self._data)

    # ------------------------------------------------------------------ #
    # replica operations — data plane (refused while the replica is down)
    # ------------------------------------------------------------------ #

    def multi_get(self, keys: list[str]) -> dict:
        self._check_up()
        return {"entries": {key: self._data.get(key) for key in keys}}

    def multi_put(self, entries: list[list]) -> dict:
        for key, value, timestamp, tombstone in entries:
            self.local_put(key, value, int(timestamp), tombstone=bool(tombstone))
        return {"stored": len(entries)}

    def put_chunks(self, entries: list[list]) -> dict:
        """Shelve ``[fingerprint, bytes]`` rows; counts the new ones."""
        self._check_up()
        stored = stored_bytes = 0
        for fingerprint, data in entries:
            if fingerprint not in self.chunks:
                stored += 1
                stored_bytes += len(data)
            self.chunks[fingerprint] = data
        return {"stored": stored, "bytes": stored_bytes}

    def get_chunks(self, fingerprints: list[str]) -> dict:
        """Payload per fingerprint; a missing one maps to None (the caller
        treats it as a miss, not an error)."""
        self._check_up()
        shelf = self.chunks
        return {"chunks": {fp: shelf.get(fp) for fp in fingerprints}}

    def delete_chunks(self, fingerprints: list[str]) -> dict:
        self._check_up()
        deleted = freed = 0
        for fingerprint in fingerprints:
            data = self.chunks.pop(fingerprint, None)
            if data is not None:
                deleted += 1
                freed += len(data)
        return {"deleted": deleted, "bytes": freed}

    # ------------------------------------------------------------------ #
    # replica operations — control plane (served while down: operator views
    # and anti-entropy read the shard directly, so a recovering replica can
    # still be inspected, compared, and drained)
    # ------------------------------------------------------------------ #

    def set_down(self, down: bool) -> dict:
        if down:
            self.mark_down()
        else:
            self.mark_up()
        return {"node": self.node_id, "up": self._up}

    def dump(self) -> dict:
        return {"entries": dict(self._data)}

    def chunk_keys(self) -> dict:
        return {"fingerprints": sorted(self.chunks)}

    def chunk_dump(self) -> dict:
        return {"chunks": dict(self.chunks)}

    def merkle_tree(self, depth: int = 6) -> dict:
        from repro.kvstore.repair import merkle_from_items

        tree = merkle_from_items(
            ((key, *stored) for key, stored in self._data.items()), int(depth)
        )
        return {"depth": tree.depth, "leaves": list(tree.leaves), "root": tree.root}

    def repair_range(self, depth: int, buckets: list[int]) -> dict:
        from repro.kvstore.repair import _bucket_of

        wanted = set(buckets)
        return self._rows(lambda key: _bucket_of(key, int(depth)) in wanted)

    def fetch_range(self, ranges: list[list[int]]) -> dict:
        """Token-range scan — the ring-migration sibling of ``repair_range``:
        rows whose key token lies in one of the half-open ``[lo, hi)``
        ranges (tokens live in [0, 2**127); the wire carries them as JSON
        integers, which Python parses exactly at any size)."""
        from repro.kvstore.tokens import key_token

        bounds = [(int(lo), int(hi)) for lo, hi in ranges]
        return self._rows(lambda key: any(lo <= key_token(key) < hi for lo, hi in bounds))

    def _rows(self, wanted) -> dict:
        """``[key, value, timestamp, tombstone]`` rows of the keys ``wanted``
        selects."""
        return {"entries": [[key, *stored] for key, stored in self._data.items() if wanted(key)]}

    def __repr__(self) -> str:
        state = "up" if self._up else "down"
        return f"StorageNode({self.node_id!r}, {state}, keys={len(self._data)})"
