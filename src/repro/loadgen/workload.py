"""Zipf-skewed request streams: which identity asks for what, per arrival.

Each arrival becomes one :class:`LoadRequest` — a virtual agent issuing a
batched fingerprint claim (the ingest hot path's index operation) against
its source's home coordinator. Two levers of skew:

- **source popularity** is zipf(s) over sources: request *volume*
  concentrates on a few hot sources, so their home ring members become
  hotspots (the per-ring skew the sweep reports);
- **key popularity** inside a source is zipf over that source's fingerprint
  space: hot chunks repeat (dedup hits — the claim returns False), cold
  ranks mint new fingerprints, which is exactly the duplicate/unique mix a
  dedup index serves.

Determinism is load-bearing: ``requests(n)`` reseeds per call, and
``digest(n)`` folds the full request stream into one hash, so
``repro loadgen --check`` can prove two generations identical without
keeping either in memory.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator

from repro.loadgen.identity import IdentityPool
from repro.loadgen.seeding import derive_seed

# Every generated key starts with this marker. Ring-index fingerprints are
# hex digests, so the prefix separates synthetic claims from real chunks
# when an invariant compares the index against the cloud's stored set.
KEY_PREFIX = "fp-"


class ZipfSampler:
    """Draw ranks ``0..n-1`` with P(rank k) ∝ 1/(k+1)**s.

    ``s=0`` degenerates to uniform; s around 1 is the classic web/popularity
    regime. Sampling is inverse-CDF over precomputed cumulative weights —
    O(log n) per draw, exact, no rejection.
    """

    def __init__(self, n: int, s: float) -> None:
        if n < 1:
            raise ValueError(f"need at least one rank, got {n}")
        if s < 0:
            raise ValueError(f"zipf exponent must be >= 0, got {s!r}")
        self.n = int(n)
        self.s = float(s)
        total = 0.0
        self._cdf: list[float] = []
        for k in range(self.n):
            total += 1.0 / (k + 1) ** self.s
            self._cdf.append(total)
        self._total = total

    def sample(self, rng: random.Random) -> int:
        return bisect_left(self._cdf, rng.random() * self._total)

    def pmf(self, rank: int) -> float:
        """Exact probability of ``rank`` (for rank-frequency tests)."""
        return (1.0 / (rank + 1) ** self.s) / self._total


@dataclass(frozen=True)
class LoadRequest:
    """One arrival's work: ``agent_id`` claims ``keys`` at ``coordinator``."""

    seq: int
    agent_id: str
    source: int
    coordinator: str
    keys: tuple[str, ...]


class ZipfWorkload:
    """A deterministic stream of :class:`LoadRequest` over an identity pool.

    Args:
        pool: the virtual-agent population (defines sources and homes).
        batch: fingerprints claimed per request (one batched RPC round).
        source_s: zipf exponent over sources (hotspot skew; 0 = uniform).
        key_s: zipf exponent over each source's key space (duplicate rate).
        keys_per_source: fingerprint-space size per source; smaller means
            hotter keys repeat sooner (higher dedup-hit fraction).
        namespace: folded into every fingerprint, so two sweeps (or two
            trials) can share a live cluster without colliding claims.
        seed: stream seed; same seed, same stream.
    """

    def __init__(
        self,
        pool: IdentityPool,
        batch: int = 8,
        source_s: float = 1.1,
        key_s: float = 0.8,
        keys_per_source: int = 50_000,
        namespace: str = "load",
        seed: int = 0,
    ) -> None:
        if batch < 1:
            raise ValueError(f"batch must be >= 1 keys, got {batch}")
        if keys_per_source < 1:
            raise ValueError(
                f"keys_per_source must be >= 1, got {keys_per_source}"
            )
        self.pool = pool
        self.batch = int(batch)
        self.namespace = str(namespace)
        self.seed = int(seed)
        self._sources = ZipfSampler(pool.n_sources, source_s)
        self._keys = ZipfSampler(keys_per_source, key_s)

    def requests(self, n: int) -> Iterator[LoadRequest]:
        """The first ``n`` requests of the stream (fresh RNG every call)."""
        rng = random.Random(derive_seed("workload", self.seed, self.namespace))
        for seq in range(n):
            source = self._sources.sample(rng)
            agent = self.pool.agent(source, rng.randrange(1 << 30))
            keys = tuple(
                f"{KEY_PREFIX}{self.namespace}-{source:04d}-{self._keys.sample(rng):08d}"
                for _ in range(self.batch)
            )
            yield LoadRequest(
                seq=seq,
                agent_id=agent.agent_id,
                source=source,
                coordinator=agent.home_node,
                keys=keys,
            )

    def digest(self, n: int) -> str:
        """SHA-256 over the first ``n`` requests — the determinism witness."""
        h = hashlib.sha256()
        for req in self.requests(n):
            h.update(req.agent_id.encode())
            h.update(req.coordinator.encode())
            for key in req.keys:
                h.update(key.encode())
        return h.hexdigest()

    def source_counts(self, n: int) -> dict[int, int]:
        """Requests per source over the first ``n`` (rank-frequency view)."""
        counts: dict[int, int] = {}
        for req in self.requests(n):
            counts[req.source] = counts.get(req.source, 0) + 1
        return counts
