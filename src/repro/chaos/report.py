"""The one chaos report shape every scenario fills in.

A scenario passes when it recorded at least one check and none failed.
Every gate — the shared ring invariants, the ratio-vs-baseline check, and
each scenario's own protocol gates (``migration_committed``,
``shed_nonzero``, ``healthy_restores_exact``, ...) — goes through
:meth:`ChaosReport.record`, so ``checks`` is the full list of what was
verified and ``violations`` says why each failure failed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional


@dataclass
class ChaosReport:
    """Everything a chaos run measured and concluded.

    ``baseline_ratio`` is ``None`` for scenarios gated on something other
    than a fault-free twin (restore gates on byte-exactness). ``metrics``
    holds flat numeric series; ``detail`` holds JSON-able nested data
    (per-node WAL and server stats, load-step results).
    """

    scenario: str
    seed: int
    nodes: int
    total_files: int = 0
    events_fired: list[str] = field(default_factory=list)
    checks: dict[str, bool] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    dedup_ratio: float = 0.0
    baseline_ratio: Optional[float] = None
    recovery_times_s: list[float] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    detail: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return bool(self.checks) and not self.violations

    def record(self, name: str, ok: bool, detail: str) -> None:
        """Record one named gate; ``detail`` explains a failure."""
        self.checks[name] = bool(ok)
        if not ok:
            self.violations.append(f"{name}: {detail}")

    def as_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}
