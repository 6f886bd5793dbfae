"""Cross-driver parity: one scripted sequence, two coordinator drivers.

The replica coordinator is written once (``repro.kvstore.coordinator``) and
driven either in process (``DistributedKVStore``) or over real TCP
(``RemoteKVStore`` inside a ``LiveKVCluster``). The same sequence of
operations must produce identical return values, identical
``StoreStats.snapshot()`` counters (and per-pair contacts), and identical
key sets on both — including the paths where the two used to drift: the
``ts_bound`` probe's read/contact accounting, read repair inside a QUORUM
batch, degraded-key repair on recovery, and batched routing. The edge
payload shelf rides the same coordinator, so a ``RingContentStore`` over
either driver must agree too: return values, ``ContentStats`` and every
member's shelf.
"""

from contextlib import contextmanager

import pytest

from repro.content import RingContentStore
from repro.kvstore.consistency import ConsistencyLevel
from repro.kvstore.errors import UnavailableError
from repro.kvstore.store import DistributedKVStore
from repro.rpc import LiveKVCluster

NODE_IDS = ["n0", "n1", "n2", "n3"]
DEST_IDS = ["m0", "m1", "m2"]


class InProcess:
    """Membership and shard access for the in-process driver."""

    def __init__(self, node_ids):
        self.store = DistributedKVStore(node_ids, replication_factor=2)

    def shard(self, node_id):
        return self.store.nodes[node_id]

    def add_node(self, node_id):
        self.store.add_node(node_id)

    def remove_node(self, node_id):
        self.store.remove_node(node_id)


class Live:
    """The same surface over a live asyncio cluster."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.store = cluster.store

    def shard(self, node_id):
        return self.cluster.servers[node_id].node

    def add_node(self, node_id):
        self.cluster.add_node(node_id)

    def remove_node(self, node_id):
        self.cluster.remove_node(node_id)


@contextmanager
def inproc_pair():
    yield InProcess(NODE_IDS), InProcess(DEST_IDS)


@contextmanager
def live_pair():
    with LiveKVCluster(NODE_IDS, replication_factor=2) as src:
        with LiveKVCluster(DEST_IDS, replication_factor=2) as dst:
            yield Live(src), Live(dst)


def key_on(store, replicas, prefix="k"):
    """First ``prefix-<i>`` key whose replica list is exactly ``replicas``."""
    for i in range(10_000):
        key = f"{prefix}-{i}"
        if store.replicas_for(key) == replicas:
            return key
    raise AssertionError(f"no key placed on {replicas}")


def run_script(env, dest) -> list:
    """Drive one store through the scripted sequence; returns every
    observable outcome in order."""
    store = env.store
    out = []

    def record(label, fn):
        try:
            out.append((label, fn()))
        except UnavailableError as exc:
            out.append((label, "unavailable", exc.key))

    # Writes and batched claims with repeats inside one batch.
    store.put("a", "1", coordinator="n0")
    record("claim", lambda: store.put_if_absent_many(
        ["b", "c", "b", "a", "d", "c"], "m", coordinator="n1"))
    record("claim", lambda: store.put_if_absent_many(
        [f"f{i}" for i in range(12)], "m", coordinator="n0"))

    # Writes while a replica is down, hint loss, then recovery.
    victim = "n2"
    store.mark_down(victim)
    record("claim-down", lambda: store.put_if_absent_many(
        [f"d{i}" for i in range(10)], "m", coordinator="n0"))
    store.put("e", "2", coordinator="n3")
    # Batched routing: one unavailable key fails the whole batch before
    # anything is written.
    lonely = next(f"u-{i}" for i in range(1000) if victim in store.replicas_for(f"u-{i}"))
    record("all-level", lambda: store.put_if_absent_many(
        ["new-0", lonely, "new-1"], "m",
        consistency=ConsistencyLevel.ALL, coordinator="n0"))
    record("hints", lambda: store.hints.pending_for(victim))
    dropped = store.hints.take_for(victim)  # hint loss: degraded repair covers it
    store.mark_up(victim)
    record("lost-hints", lambda: len(dropped))
    record("victim-keys", lambda: sorted(env.shard(victim)._data))

    # Probes: the fast path and the timestamp-bounded exact probe.
    bound = store.clock_now()
    record("claim", lambda: store.put_if_absent_many(["g0", "g1"], "m", coordinator="n3"))
    probe = ["a", "b", "g0", "g1", "missing"] + [f"f{i}" for i in range(12)]
    record("probe", lambda: store.contains_many(probe, coordinator="n1"))
    stats = store.stats
    before = (stats.local_reads, stats.remote_reads, stats.remote_contacts)
    record("probe-bound", lambda: store.contains_many(
        probe, coordinator="n1", ts_bound=bound))
    record("probe-bound-counts", lambda: (
        stats.local_reads - before[0],
        stats.remote_reads - before[1],
        stats.remote_contacts - before[2],
    ))

    # A QUORUM batch over a stale replica: exactly one read repair.
    stale_key = key_on(store, ["n0", "n1"], "s")
    store.put(stale_key, "old", coordinator="n0")
    env.shard("n1").local_put(stale_key, "newer", 10_000)  # n0 is now stale
    before = store.stats.read_repairs
    record("quorum", lambda: store.put_if_absent_many(
        [stale_key, "q0", stale_key], "m",
        consistency=ConsistencyLevel.QUORUM, coordinator="n2"))
    record("read-repairs", lambda: store.stats.read_repairs - before)
    record("healed", lambda: env.shard("n0").local_get(stale_key).value)
    record("get", lambda: store.get(stale_key, consistency=ConsistencyLevel.QUORUM))

    # Deletes and membership changes.
    record("delete", lambda: store.delete("a", coordinator="n1"))
    record("delete", lambda: store.delete("never", coordinator="n1"))
    env.add_node("n4")
    record("n4-keys", lambda: sorted(env.shard("n4")._data))
    env.remove_node("n1")
    record("members", lambda: list(store.nodes))
    record("entries", store.total_stored_entries)
    record("keys", lambda: sorted(store.unique_keys()))

    # Migration streaming: n0's primary ranges into a second ring.
    rows = store.stream_ranges(store.ring.primary_token_ranges("n0"))
    record("rows", lambda: rows)
    dest.store.mark_down("m1")
    record("ingested", lambda: dest.store.ingest_entries(rows))
    record("dest-hints", lambda: dest.store.hints.total_pending)
    dest.store.mark_up("m1")
    record("dest-keys", lambda: sorted(dest.store.unique_keys()))
    record("dest-clock", dest.store.clock_now)
    return out


def observe(env) -> tuple:
    stats = env.store.stats
    return stats.snapshot(), dict(stats.per_pair_contacts), env.store.unique_keys()


def test_drivers_agree_on_results_stats_and_keys():
    with inproc_pair() as (src, dst):
        expected = run_script(src, dst)
        expected_src, expected_dst = observe(src), observe(dst)
    with live_pair() as (src, dst):
        got = run_script(src, dst)
        got_src, got_dst = observe(src), observe(dst)
    for want, have in zip(expected, got):
        assert have == want
    assert len(got) == len(expected)
    assert got_src == expected_src
    assert got_dst == expected_dst


@pytest.mark.parametrize("pair", [inproc_pair, live_pair], ids=["inproc", "asyncio"])
def test_script_pins_the_unified_semantics(pair):
    """The outcomes the two drivers used to disagree on, pinned per driver."""
    with pair() as (src, dst):
        out = dict((label, rest) for label, *rest in run_script(src, dst))
        stats = src.store.stats
    # One stale replica in a QUORUM batch: one read repair, and the stale
    # replica now holds the newest version.
    assert out["read-repairs"] == [1]
    assert out["healed"] == ["newer"]
    # Lost hints were covered by degraded-key repair on recovery.
    assert out["lost-hints"][0] > 0
    assert stats.recovery_repairs == out["lost-hints"][0]
    # Batched routing: the ALL-level batch wrote nothing.
    assert out["all-level"][0] == "unavailable"
    assert "new-0" not in out["keys"][0]
    # The bounded probe hides claims made after the bound.
    assert out["probe-bound"][0][2:4] == [False, False]
    assert out["probe"][0][2:4] == [True, True]
    # ...and still counts every read and contact it made.
    local, remote, contacts = out["probe-bound-counts"][0]
    assert local + remote == 17 and contacts > 0


def run_payload_script(env) -> tuple[list, dict]:
    """Drive a ring content store over ``env``'s coordinator; returns every
    outcome in order and the final per-member shelves."""
    store = env.store
    content = RingContentStore("ring-0", store, batch_size=4)
    out = []
    payloads = {f"c{i}": bytes([i]) * (i + 1) for i in range(32)}
    first, second = list(payloads)[:20], list(payloads)[20:]
    down = "n1"

    # Puts while a primary is down land on the next replica.
    store.mark_down(down)
    assert any(store.replicas_for(fp)[0] == down for fp in first)
    for fp in first:
        content.put_chunk(fp, payloads[fp])
    out.append(("flush", content.flush()))
    out.append(("get-down", content.get_many(first + ["ghost"])))
    store.mark_up(down)
    for fp in second:
        content.put_chunk(fp, payloads[fp])
    out.append(("flush", content.flush()))
    held = sorted(env.shard(down).chunks)
    assert held

    # A down member keeps its copies through delete_many and clear.
    store.mark_down(down)
    out.append(("delete-down", content.delete_many(held[:2] + first[:3])))
    out.append(("clear-down", content.clear()))
    out.append(("left-down", sorted(content.fingerprints())))
    store.mark_up(down)
    out.append(("get-up", content.get_many(list(payloads))))

    # Membership: rehome a departing member, then it leaves with its shelf.
    for fp in first:
        content.put_chunk(fp, payloads[fp])
    out.append(("rehome", content.rehome_member("n2")))
    env.remove_node("n2")
    out.append(("drain", content.drain_by_member()))
    out.append(("fingerprints", sorted(content.fingerprints())))
    out.append(("get-all", content.get_many(list(payloads))))
    out.append(("stats", content.stats.snapshot()))
    return out, {n: dict(env.shard(n).chunks) for n in store.nodes}


def test_payload_shelves_agree_across_drivers():
    with inproc_pair() as (src, _):
        expected, expected_shelves = run_payload_script(src)
    with live_pair() as (src, _):
        got, got_shelves = run_payload_script(src)
    for want, have in zip(expected, got):
        assert have == want
    assert len(got) == len(expected)
    assert got_shelves == expected_shelves
    out = dict(expected)
    # The down member kept what it held: clear() left exactly its copies.
    assert out["left-down"] and set(out["left-down"]) <= set(out["get-up"])
    assert "n2" not in got_shelves
