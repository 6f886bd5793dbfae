"""Model-based stateful tests for the distributed KV store, on both drivers.

Hypothesis drives random operation sequences — writes, batched claims,
reads, deletes, failures, recoveries, anti-entropy — against the store and
a reference model (a plain dict plus an up/down set), checking after every
step that the store agrees with the model wherever the consistency
contract promises agreement. The same machine runs over the in-process
driver and over a live asyncio cluster; on the live side it also injects
request drops, duplicates and delays that the transport's retries and
idempotency cache must mask.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.kvstore.consistency import ConsistencyLevel
from repro.kvstore.errors import UnavailableError
from repro.kvstore.repair import ReplicaRepairer
from repro.kvstore.store import DistributedKVStore
from repro.rpc import FaultInjector, LiveKVCluster, RetryPolicy

NODES = ["n0", "n1", "n2", "n3"]
KEYS = [f"key-{i}" for i in range(8)]


class KVStoreMachine(RuleBasedStateMachine):
    """The store must track a dict, modulo unavailability errors."""

    def __init__(self) -> None:
        super().__init__()
        self.store = self.make_store()
        self.model: dict[str, str] = {}
        self.down: set[str] = set()
        self.counter = 0

    def make_store(self):
        return DistributedKVStore(NODES, replication_factor=2)

    def shards(self):
        """Every member's StorageNode (the replicas' ground truth)."""
        return self.store.nodes.values()

    def all_replicas_down(self, key: str) -> bool:
        return all(r in self.down for r in self.store.replicas_for(key))

    # -- operations ------------------------------------------------------ #

    @rule(key=st.sampled_from(KEYS))
    def write(self, key: str) -> None:
        self.counter += 1
        value = f"v{self.counter}"
        try:
            self.store.put(key, value, consistency=ConsistencyLevel.ONE)
            self.model[key] = value
        except UnavailableError:
            # Legal only when every replica of the key is down.
            assert self.all_replicas_down(key)

    @rule(keys=st.lists(st.sampled_from(KEYS), min_size=1, max_size=6))
    def claim_batch(self, keys: list[str]) -> None:
        self.counter += 1
        value = f"c{self.counter}"
        try:
            results = self.store.put_if_absent_many(
                keys, value, consistency=ConsistencyLevel.ONE
            )
        except UnavailableError:
            # Every key is routed before any write: an unavailable key
            # fails the whole batch and nothing is claimed.
            assert any(self.all_replicas_down(k) for k in keys)
            return
        expected = []
        for key in keys:
            expected.append(key not in self.model)
            self.model.setdefault(key, value)
        assert results == expected

    @rule(key=st.sampled_from(KEYS))
    def read(self, key: str) -> None:
        try:
            value = self.store.get(key, consistency=ConsistencyLevel.ONE)
        except UnavailableError:
            assert self.all_replicas_down(key)
            return
        if key in self.model:
            # With hinted handoff active and no lost hints, a ONE read may
            # not see the newest write only if it hits a down-then-recovered
            # replica before hints replay — but mark_up replays hints
            # synchronously here, so the newest value must be visible.
            assert value == self.model[key], (key, value, self.model[key])
        else:
            assert value is None

    @rule(key=st.sampled_from(KEYS))
    def delete(self, key: str) -> None:
        try:
            self.store.delete(key, consistency=ConsistencyLevel.ONE)
            # Deletes write tombstones (hinted to down replicas), so a
            # delete is final regardless of failures at delete time.
            self.model.pop(key, None)
        except UnavailableError:
            assert self.all_replicas_down(key)

    @rule(node=st.sampled_from(NODES))
    def fail_node(self, node: str) -> None:
        if node not in self.down and len(self.down) < len(NODES) - 1:
            self.store.mark_down(node)
            self.down.add(node)

    @rule(node=st.sampled_from(NODES))
    def recover_node(self, node: str) -> None:
        if node in self.down:
            self.store.mark_up(node)  # replays hints
            self.down.discard(node)

    @precondition(lambda self: not self.down)
    @rule()
    def run_anti_entropy(self) -> None:
        repairer = ReplicaRepairer(self.store)
        repairer.repair_all()
        assert repairer.verify_replication() == []

    # -- invariants ------------------------------------------------------ #

    @invariant()
    def unique_keys_cover_model(self) -> None:
        stored = self.store.unique_keys()
        for key in self.model:
            assert key in stored

    @invariant()
    def replica_counts_bounded(self) -> None:
        # Never more copies than γ plus hint-replay writes cannot duplicate.
        for key in self.store.unique_keys():
            holders = [node for node in self.shards() if key in node._data]
            assert len(holders) <= len(NODES)

    @invariant()
    def healthy_cluster_reads_match_model(self) -> None:
        if self.down:
            return
        for key, expected in self.model.items():
            assert self.store.get(key) == expected


class LiveKVStoreMachine(KVStoreMachine):
    """The same model over a live asyncio cluster, plus transport faults
    that the client's retries and the servers' idempotency cache mask."""

    def make_store(self):
        self.injector = FaultInjector(seed=0)
        self.cluster = LiveKVCluster(
            NODES,
            replication_factor=2,
            timeout_s=0.05,
            retry=RetryPolicy(attempts=6, base_delay_s=0.001, max_delay_s=0.005),
            fault_injector=self.injector,
        )
        return self.cluster.store

    def shards(self):
        return [server.node for server in self.cluster.servers.values()]

    def teardown(self) -> None:
        self.cluster.close()

    @rule(node=st.sampled_from(NODES))
    def drop_next_request(self, node: str) -> None:
        self.injector.drop_requests(dst=node, times=1)

    @rule(node=st.sampled_from(NODES))
    def duplicate_next_requests(self, node: str) -> None:
        self.injector.duplicate_requests(dst=node, times=2)

    @rule(node=st.sampled_from(NODES))
    def delay_next_requests(self, node: str) -> None:
        self.injector.delay_requests(0.002, dst=node, times=3)


TestKVStoreStateful = KVStoreMachine.TestCase
TestKVStoreStateful.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)

TestLiveKVStoreStateful = LiveKVStoreMachine.TestCase
TestLiveKVStoreStateful.settings = settings(
    max_examples=15, stateful_step_count=25, deadline=None
)
