"""Seeded workloads and the demo fleet the chaos scenarios run on.

Also used by ``repro secure``, ``repro restore`` and the benchmarks, so a
scenario and the command that demonstrates the same subsystem build the
same cluster from the same bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union


def seeded_pool_workload(
    n_nodes: int,
    files_per_node: int,
    file_kb: int,
    seed: int,
    block_size: int = 4096,
    pool_blocks: int = 24,
) -> dict[str, list[bytes]]:
    """Deterministic per-node file streams with real cross-node redundancy:
    files draw blocks from one shared pool, so different nodes hold
    duplicate chunks — the workload shape collaborative dedup exists for."""
    rng = random.Random(seed)
    pool = [rng.randbytes(block_size) for _ in range(pool_blocks)]
    blocks_per_file = max(1, (file_kb * 1024) // block_size)
    return {
        f"edge-{n}": [
            b"".join(rng.choice(pool) for _ in range(blocks_per_file))
            for _ in range(files_per_node)
        ]
        for n in range(n_nodes)
    }


def round_robin(workloads: dict[str, list[bytes]]) -> list[tuple[str, bytes]]:
    """Flatten per-node streams into the interleaved arrival order
    :meth:`~repro.system.ring.D2Ring.ingest_workloads` uses."""
    iters = {nid: iter(files) for nid, files in workloads.items()}
    schedule: list[tuple[str, bytes]] = []
    while iters:
        finished = []
        for nid, it in iters.items():
            data = next(it, None)
            if data is None:
                finished.append(nid)
            else:
                schedule.append((nid, data))
        for nid in finished:
            del iters[nid]
    return schedule


def demo_cluster(nodes: int, partition: list[list[int]], config, cls=None, **kwargs):
    """Build and deploy the demo fleet onto ``partition``.

    ``nodes`` edges on the testbed topology, with a two-group chunk-pool
    model (even and odd nodes each favour their own pool) planned at the
    config's replication factor. ``cls`` defaults to
    :class:`~repro.system.cluster.DurableEFDedupCluster`; extra keyword
    arguments go to its constructor (e.g. ``journal_dir``).
    """
    from repro.core.costs import SNOD2Problem
    from repro.core.model import ChunkPoolModel, grouped_sources
    from repro.network.costmatrix import latency_cost_matrix
    from repro.network.topology import build_testbed
    from repro.system.cluster import DurableEFDedupCluster

    model = ChunkPoolModel(
        [150.0, 150.0],
        grouped_sources(
            [i % 2 for i in range(nodes)], [[0.9, 0.1], [0.1, 0.9]], 80.0
        ),
    )
    topo = build_testbed(nodes, min(3, nodes))
    problem = SNOD2Problem(
        model=model,
        nu=latency_cost_matrix(topo),
        duration=2.0,
        gamma=config.replication_factor,
        alpha=50.0,
    )
    cluster = (cls or DurableEFDedupCluster)(topo, problem, config=config, **kwargs)
    cluster.partition = partition
    cluster.deploy()
    return cluster


@dataclass(frozen=True)
class ScenarioRun:
    """The resolved shape of one chaos run, handed to the scenario body.

    ``data_dir`` holds the ring scenarios' WALs and the restore scenario's
    refcount journal (a temp dir when ``None``); ``heartbeat_interval_s``
    > 0 leaves crash detection of the ring scenarios to the phi-accrual
    prober. ``knee_rps`` and ``duration_s`` shape the overload steps,
    ``hot_size`` the hot-index slice.
    """

    nodes: int
    files_per_node: int
    file_kb: int
    seed: int = 7
    gamma: int = 2
    lookup_batch: int = 16
    data_dir: Optional[Union[str, Path]] = None
    heartbeat_interval_s: float = 0.0
    knee_rps: float = 400.0
    duration_s: float = 0.6
    hot_size: int = 64

    @property
    def members(self) -> list[str]:
        return sorted(f"edge-{n}" for n in range(self.nodes))

    def segment(
        self,
        offset: int = 0,
        nodes: Optional[int] = None,
        files_per_node: Optional[int] = None,
    ) -> list[tuple[str, bytes]]:
        """Arrival schedule of the workload seeded at ``seed + offset``
        (all members and ``files_per_node`` unless overridden)."""
        return round_robin(
            seeded_pool_workload(
                self.nodes if nodes is None else nodes,
                self.files_per_node if files_per_node is None else files_per_node,
                self.file_kb,
                self.seed + offset,
            )
        )
