"""Tests for the service-level chaos harness (`repro.analysis.chaos_serve`)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.chaos_serve import (
    ChaosResilientExecutor,
    ChaosServePlan,
    ChaosServeReport,
    build_chaos_workload,
    run_chaos_serve,
)
from repro.exceptions import ReproError


class TestPlanAndWorkload:
    def test_plan_validation(self):
        with pytest.raises(ReproError):
            ChaosServePlan(crash_rate=1.5)
        with pytest.raises(ReproError):
            ChaosServePlan(crash_rate=0.7, slow_rate=0.7)  # sum > 1
        with pytest.raises(ReproError):
            ChaosServePlan(slow_sleep_s=-1)

    def test_executor_requires_marker_dir_when_faulty(self):
        with pytest.raises(ReproError, match="marker_dir"):
            ChaosResilientExecutor(plan=ChaosServePlan(crash_rate=0.5))
        # Fault-free plans need no scratch space.
        ChaosResilientExecutor(plan=ChaosServePlan(crash_rate=0.0))

    def test_workload_duplicates_and_determinism(self):
        workload = build_chaos_workload(num_requests=9, duplicate_every=3)
        assert len(workload) == 9
        dups = [r for r in workload if r.request_id.endswith("-dup")]
        assert len(dups) == 3
        for dup in dups:
            twin = next(
                r
                for r in workload
                if r.request_id != dup.request_id
                and r.work_key() == dup.work_key()
            )
            assert twin is not None  # every dup re-solves existing work
        again = build_chaos_workload(num_requests=9, duplicate_every=3)
        assert [r.request_id for r in again] == [
            r.request_id for r in workload
        ]

    def test_fault_assignment_is_seed_deterministic(self, tmp_path):
        executor = ChaosResilientExecutor(
            plan=ChaosServePlan(crash_rate=0.5, seed=3),
            marker_dir=str(tmp_path),
        )
        twin = ChaosResilientExecutor(
            plan=ChaosServePlan(crash_rate=0.5, seed=3),
            marker_dir=str(tmp_path),
        )
        other_seed = ChaosResilientExecutor(
            plan=ChaosServePlan(crash_rate=0.5, seed=4),
            marker_dir=str(tmp_path),
        )
        cells = [("cell", i) for i in range(32)]
        draws = [executor._fault_for(cell) is not None for cell in cells]
        assert draws == [twin._fault_for(cell) is not None for cell in cells]
        assert any(draws) and not all(draws)  # 0.5 actually splits
        assert draws != [
            other_seed._fault_for(cell) is not None for cell in cells
        ]


class TestInProcessGates:
    def test_crash_injection_passes_gates(self):
        report = run_chaos_serve(
            requests=build_chaos_workload(num_requests=6),
            plan=ChaosServePlan(crash_rate=0.5),
            workers=2,
        )
        assert report.passed, report.failures()
        assert not report.lost and not report.divergent
        assert report.injected["crash_cells"] >= 1  # faults actually fired
        # Each crash fault fires once and kills the pool it runs in, so at
        # least one pool is respawned. A retry is counted only when a
        # faulty cell first runs in the one-cell isolation pool; when every
        # crash fires in the shared first pool, the isolated re-runs are
        # all clean and exec_retries stays 0.
        assert report.service_metrics["exec_respawns"] >= 1

    def test_serial_crash_injection_passes_gates(self):
        report = run_chaos_serve(
            requests=build_chaos_workload(num_requests=4),
            plan=ChaosServePlan(crash_rate=1.0),
            workers=1,
        )
        assert report.passed, report.failures()
        assert report.statuses.get("ok") == 4
        assert report.injected["crash_cells"] >= 1

    def test_experiment_record_shape(self):
        report = run_chaos_serve(
            requests=build_chaos_workload(num_requests=4),
            plan=ChaosServePlan(crash_rate=0.0),
            workers=1,
        )
        result = report.to_experiment_result()
        assert result.experiment_id == "CHAOS_SERVE"
        record = result.to_record()
        assert set(record) == {"params", "metrics"}  # it measures no clock
        (row,) = result.rows
        assert row[0] == 4  # requests
        assert row[-1] == 1  # gate_ok


class TestGateDetection:
    def test_doctored_reports_fail_the_right_gate(self):
        clean = run_chaos_serve(
            requests=build_chaos_workload(num_requests=4),
            plan=ChaosServePlan(crash_rate=0.0),
            workers=1,
        )
        assert clean.passed
        lost = dataclasses.replace(clean, lost=("cs-0",))
        assert [f["gate"] for f in lost.failures()] == ["no_lost_responses"]
        conflicted = dataclasses.replace(clean, conflicting=("cs-1",))
        assert [f["gate"] for f in conflicted.failures()] == [
            "exactly_one_terminal_payload"
        ]
        divergent = dataclasses.replace(clean, divergent=("cs-2",))
        assert [f["gate"] for f in divergent.failures()] == [
            "ok_byte_identical_to_direct"
        ]
        no_ok = dataclasses.replace(clean, statuses={"error": 4})
        assert [f["gate"] for f in no_ok.failures()] == ["at_least_one_ok"]
        assert isinstance(clean, ChaosServeReport)


class TestSocketGates:
    def test_drops_and_malformed_frames_pass_gates(self):
        report = run_chaos_serve(
            requests=build_chaos_workload(num_requests=6),
            plan=ChaosServePlan(
                crash_rate=0.4, drop_every=3, malformed_every=4
            ),
            workers=2,
            use_socket=True,
        )
        assert report.passed, report.failures()
        assert report.injected["drops"] >= 1
        assert report.injected["malformed"] >= 1
        # The retrying client had to reconnect; the server survived.
        assert report.client_stats["reconnects"] >= 1
        assert report.statuses.get("ok") == 6
