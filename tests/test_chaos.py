"""Tests for the chaos harness: scenario construction, the invariant
checker, and one full seeded crash-restart run against a live ring."""

import json

import pytest

from repro.chaos import (
    FAULT_SCHEDULES,
    SCENARIOS,
    ChaosReport,
    ChaosScenario,
    FaultEvent,
    check_invariants,
    crash_restart,
    flapping,
    partition_heal,
    rolling_restart,
    run_scenario,
    seeded_pool_workload,
)
from repro.chaos.protocols import default_migration_partitions
from repro.system.config import EFDedupConfig
from repro.system.ring import D2Ring


class TestScenarios:
    def test_event_validation(self):
        with pytest.raises(ValueError, match="at_fraction"):
            FaultEvent(1.0, "kill", 0)
        with pytest.raises(ValueError, match="action"):
            FaultEvent(0.5, "explode", 0)
        with pytest.raises(ValueError, match="node_index"):
            FaultEvent(0.5, "kill", -1)

    def test_events_must_be_ordered(self):
        with pytest.raises(ValueError, match="ordered"):
            ChaosScenario(
                "bad", "out of order",
                (FaultEvent(0.6, "restart", 0), FaultEvent(0.2, "kill", 0)),
            )

    def test_min_nodes_tracks_highest_index(self):
        assert crash_restart(node_index=1).min_nodes == 2
        assert rolling_restart(4).min_nodes == 4
        assert flapping().min_nodes == 2
        assert partition_heal().min_nodes == 2

    def test_every_builtin_heals_what_it_breaks(self):
        for name, make in FAULT_SCHEDULES.items():
            scenario = make(4)
            downs = sum(1 for e in scenario.events if e.action in ("kill", "isolate"))
            ups = sum(1 for e in scenario.events if e.action in ("restart", "heal"))
            assert downs == ups, name

    def test_get_scenario_rejects_unknown_and_small_rings(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            run_scenario("meteor-strike", nodes=3)
        with pytest.raises(ValueError, match="nodes"):
            run_scenario("rolling-restart", nodes=1)

    def test_flapping_cycle_count(self):
        assert len(flapping(cycles=4).events) == 8
        with pytest.raises(ValueError):
            flapping(cycles=0)


class TestWorkload:
    def test_deterministic_per_seed(self):
        a = seeded_pool_workload(3, 2, 8, seed=7)
        b = seeded_pool_workload(3, 2, 8, seed=7)
        c = seeded_pool_workload(3, 2, 8, seed=8)
        assert a == b
        assert a != c

    def test_shape(self):
        w = seeded_pool_workload(2, 3, 8, seed=1)
        assert sorted(w) == ["edge-0", "edge-1"]
        assert all(len(files) == 3 for files in w.values())
        assert all(len(f) == 8 * 1024 for files in w.values() for f in files)


class TestInvariantChecker:
    def test_clean_inproc_run_passes(self):
        workload = seeded_pool_workload(3, 2, 8, seed=3)
        ring = D2Ring(
            "t-0", sorted(workload),
            config=EFDedupConfig(chunk_size=4096, lookup_batch=8),
        )
        for node_id, files in workload.items():
            for data in files:
                ring.agent(node_id).ingest(data)
        report = ChaosReport("clean", seed=3, nodes=3)
        check_invariants(ring, report)
        assert report.passed
        assert report.violations == []
        assert set(report.checks) >= {
            "chunk_claims_conserved",
            "no_unique_chunk_lost",
            "replicas_converged",
            "fully_replicated",
        }

    def test_lost_upload_is_caught(self):
        ring = D2Ring(
            "t-0", ["a", "b"],
            config=EFDedupConfig(chunk_size=4096),
        )
        ring.agent("a").ingest(b"x" * 8192)
        ring.cloud._chunks.popitem()  # silently lose one stored chunk
        report = ChaosReport("lost-upload", seed=0, nodes=2)
        check_invariants(ring, report)
        assert not report.passed
        assert any("no_unique_chunk_lost" in v for v in report.violations)

    def test_report_serializes(self):
        ring = D2Ring("t-0", ["a", "b"], config=EFDedupConfig(chunk_size=4096))
        report = ChaosReport("serialize", seed=0, nodes=2)
        check_invariants(ring, report)
        doc = report.as_dict()
        assert doc["passed"] is True
        assert isinstance(doc["checks"], dict)
        assert json.loads(json.dumps(doc)) == doc


class TestRunScenario:
    def test_seeded_crash_restart_passes_and_matches_baseline(self, tmp_path):
        report = run_scenario(
            "crash-restart", nodes=3, files_per_node=3, file_kb=16,
            seed=11, data_dir=tmp_path,
        )
        assert report.passed
        assert report.violations == []
        assert report.checks["ratio_matches_baseline"]
        assert report.dedup_ratio == report.baseline_ratio > 1.0
        assert report.events_fired == [
            "kill:edge-1@0.25", "restart:edge-1@0.60",
        ]
        assert len(report.recovery_times_s) == 1
        # The killed member really came back from its WAL.
        wal = report.detail["wal_stats"]["edge-1"]
        assert wal["log_entries_replayed"] + wal["snapshot_entries_loaded"] > 0
        doc = report.as_dict()
        assert doc["passed"] is True
        assert doc["scenario"] == "crash-restart"

    def test_custom_scenario_and_node_floor(self):
        lone = ChaosScenario(
            "solo", "kill the fourth member",
            (FaultEvent(0.2, "kill", 3), FaultEvent(0.8, "restart", 3)),
        )
        with pytest.raises(ValueError, match="nodes"):
            run_scenario(lone, nodes=3)

    def test_unhealed_faults_are_auto_healed(self):
        """A scenario that only kills must still end with every member up
        (the safety net restarts it) and pass the invariants."""
        kill_only = ChaosScenario(
            "kill-only", "crash without restart",
            (FaultEvent(0.3, "kill", 1),),
        )
        report = run_scenario(
            kill_only, nodes=3, files_per_node=2, file_kb=8, seed=5,
        )
        assert report.passed
        assert any(e.startswith("auto-restart:") for e in report.events_fired)


class TestMigrationScenario:
    def test_default_partitions_move_one_node(self):
        old, new = default_migration_partitions(6)
        assert old == [[0, 1, 2], [3, 4, 5]]
        assert new == [[0, 1], [2, 3, 4, 5]]
        with pytest.raises(ValueError, match="nodes"):
            default_migration_partitions(3)

    def test_migrate_under_faults_matches_fault_free_migration(self):
        report = run_scenario("migrate-under-faults", seed=7)
        assert report.passed
        assert report.checks["migration_committed"]
        assert report.dedup_ratio == report.baseline_ratio > 1.0
        assert report.events_fired == [
            "kill:edge-0@window-open", "restart:edge-0@window-mid",
        ]
        assert len(report.recovery_times_s) == 1
        assert report.recovery_times_s[0] > 0
        assert report.metrics["migration.nodes_moved"] == 1.0
        assert report.metrics["migration.entries_streamed"] > 0
        doc = report.as_dict()
        assert doc["passed"] is True
        assert doc["scenario"] == "migrate-under-faults"

    def test_gamma_floor_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            run_scenario("migrate-under-faults", gamma=1)


class TestHotIndexScenario:
    def test_hot_slice_migration_matches_migration_free_twin(self):
        report = run_scenario("hot-index", seed=7)
        assert report.passed
        assert report.checks["migration_committed"]
        assert report.dedup_ratio == report.baseline_ratio > 1.0
        # hot claims answered at the edge
        assert report.metrics["secure.hotindex.edge_hits"] > 0
        assert report.metrics["secure.hotindex.entries_streamed"] > 0
        # swept-then-reuploaded keys
        assert report.metrics["secure.hotindex.entries_restreamed"] > 0
        assert report.events_fired == [
            "migrate:window-open",
            "sweep:victim@window-mid",
            "reupload:victim@window-mid",
            "close:window-commit",
        ]
        doc = report.as_dict()
        assert doc["passed"] is True
        assert doc["scenario"] == "hot-index"

    def test_node_count_validated(self):
        with pytest.raises(ValueError, match="nodes"):
            run_scenario("hot-index", nodes=3)
        with pytest.raises(ValueError, match="even node count"):
            run_scenario("hot-index", nodes=5)


class TestEveryRegisteredScenario:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_cli_run_passes_with_the_one_report_shape(self, name, tmp_path):
        from repro.cli import main as cli_main

        path = tmp_path / f"{name}.json"
        argv = ["chaos", name, "--json", str(path), "--files", "2", "--file-kb", "8"]
        if name == "overload":
            argv += ["--duration-s", "0.3"]
        assert cli_main(argv) == 0
        doc = json.loads(path.read_text())
        assert doc["scenario"] == name
        assert doc["passed"] is True
        assert doc["checks"] and all(doc["checks"].values())
        assert doc["violations"] == []
        assert isinstance(doc["events_fired"], list)
        assert doc["dedup_ratio"] > 1.0
        assert "baseline_ratio" in doc
        if SCENARIOS[name].baseline is not None:
            assert doc["checks"]["ratio_matches_baseline"]
            assert doc["baseline_ratio"] == doc["dedup_ratio"]
