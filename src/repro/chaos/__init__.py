"""Chaos harness: seeded fault scenarios against live D2-rings.

Jepsen-style testing scaled to this repo. :data:`~repro.chaos.runner.SCENARIOS`
registers nine scenarios: five ring scenarios, each a
:class:`~repro.chaos.scenarios.ChaosScenario` that declares *what* breaks
and *when* (as fractions of ingest progress, so runs are deterministic
for a given seed), and four protocol scenarios
(:mod:`repro.chaos.protocols`) that stress live migration, the restore
ladder, overload and hot-index migration. :func:`~repro.chaos.runner.run_scenario`
runs any of them — or a custom fault schedule — and returns one
:class:`~repro.chaos.report.ChaosReport`: named checks, violations, the
dedup ratio against the scenario's fault-free baseline, and metrics.
:func:`~repro.chaos.invariants.check_invariants` records the shared ring
safety invariants: no unique chunk lost, dedup accounting conserved,
replicas converged. Exposed as ``repro chaos`` on the CLI.
"""

from repro.chaos.invariants import check_invariants
from repro.chaos.report import ChaosReport
from repro.chaos.runner import SCENARIOS, run_scenario
from repro.chaos.scenarios import (
    FAULT_SCHEDULES,
    ChaosScenario,
    FaultEvent,
    crash_restart,
    flapping,
    partition_heal,
    rolling_restart,
    slow_node,
)
from repro.chaos.workload import demo_cluster, round_robin, seeded_pool_workload

__all__ = [
    "ChaosReport",
    "ChaosScenario",
    "FAULT_SCHEDULES",
    "FaultEvent",
    "SCENARIOS",
    "check_invariants",
    "crash_restart",
    "demo_cluster",
    "flapping",
    "partition_heal",
    "rolling_restart",
    "round_robin",
    "run_scenario",
    "seeded_pool_workload",
    "slow_node",
]
