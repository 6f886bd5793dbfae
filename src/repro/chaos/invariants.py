"""Safety invariants a D2-ring must hold after faults heal.

The checks encode what "survived the chaos" means for a dedup system:

- **claims conserved** — every raw chunk was classified exactly once:
  ``raw = unique + duplicate``, for counts and bytes;
- **uploads match claims** — the cloud received exactly one upload per
  unique claim, plus one per chunk a brownout wrote through and later
  corrected to duplicate (re-uploads after lost index state are a cost,
  not a safety violation — but *missing* or unexplained uploads are);
- **no unique chunk lost** — the ring index's fingerprints and the
  cloud's stored fingerprint set are identical: an index claim without
  cloud bytes would break restore, a cloud chunk without an index entry
  means dedup state was silently dropped. Synthetic load-generator keys
  (:data:`repro.loadgen.workload.KEY_PREFIX`) are claims, not chunks, and
  are left out;
- **replicas converged** — after heal + repair, no key is under-replicated
  on alive nodes and a fresh anti-entropy pass streams zero keys.

Works against both transports: :class:`~repro.kvstore.repair.ReplicaRepairer`
runs its Merkle pair sync through whichever coordinator driver the ring uses.
"""

from __future__ import annotations

from repro.chaos.report import ChaosReport
from repro.kvstore.repair import ReplicaRepairer
from repro.loadgen.workload import KEY_PREFIX
from repro.system.ring import D2Ring


def check_invariants(ring: D2Ring, report: ChaosReport) -> None:
    """Record the post-heal safety invariants of ``ring`` into ``report``.

    Call after every injected fault has healed (all members up); the
    convergence check runs its own anti-entropy pass first, so the caller
    does not need to repair beforehand.
    """
    stats = ring.combined_stats()
    cloud = ring.cloud

    report.record(
        "chunk_claims_conserved",
        stats.raw_chunks == stats.unique_chunks + stats.duplicate_chunks,
        f"raw={stats.raw_chunks} != unique={stats.unique_chunks} "
        f"+ duplicate={stats.duplicate_chunks}",
    )
    report.record(
        "byte_claims_conserved",
        stats.unique_bytes <= stats.raw_bytes and stats.lookups == stats.raw_chunks,
        f"unique_bytes={stats.unique_bytes} > raw_bytes={stats.raw_bytes} "
        f"or lookups={stats.lookups} != raw_chunks={stats.raw_chunks}",
    )
    corrected = ring.brownout_metrics().get("brownout.corrected_chunks", 0)
    report.record(
        "uploads_match_unique_claims",
        cloud.received_chunks == stats.unique_chunks + corrected,
        f"cloud received {cloud.received_chunks} uploads but unique "
        f"claims={stats.unique_chunks} + brownout-corrected={corrected}",
    )

    index_keys = {
        key for key in ring.store.unique_keys() if not key.startswith(KEY_PREFIX)
    }
    cloud_keys = cloud.fingerprints()
    dangling = index_keys - cloud_keys
    dropped = cloud_keys - index_keys
    report.record(
        "no_unique_chunk_lost",
        not dangling and not dropped,
        f"{len(dangling)} index keys missing from the cloud, "
        f"{len(dropped)} cloud chunks missing from the index",
    )

    # Convergence: one pass to mop up, then a second pass must find every
    # pair of replicas already identical.
    ReplicaRepairer(ring.store).repair_all()
    verify = ReplicaRepairer(ring.store)
    second = verify.repair_all()
    report.record(
        "replicas_converged",
        second.synced_keys == 0,
        f"second anti-entropy pass still streamed {second.synced_keys} keys",
    )
    missing = verify.verify_replication()
    report.record(
        "fully_replicated",
        not missing,
        f"{len(missing)} keys under-replicated on alive nodes "
        f"(e.g. {missing[:3]})",
    )
