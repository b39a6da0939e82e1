"""Tests for the chaos harness (repro.analysis.chaos and `repro chaos`)."""

from __future__ import annotations

import json
import math

import pytest

from repro.analysis.chaos import (
    DEFAULT_INTENSITIES,
    FAULT_FAMILIES,
    ChaosCell,
    ChaosGates,
    ChaosReport,
    build_fault_plan,
    run_chaos,
)
from repro.cli import main
from repro.core.healing import SelfHealingPolicy
from repro.exceptions import SimulationError
from repro.fl.generators import uniform_instance
from repro.net.reliability import ReliabilityPolicy


@pytest.fixture(scope="module")
def instance():
    return uniform_instance(num_facilities=6, num_clients=15, seed=2)


class TestBuildFaultPlan:
    def test_drop_family(self, instance):
        plan = build_fault_plan("drop", 0.15, instance, 20, seed=1)
        assert plan.drop_probability == 0.15
        assert plan.burst is None

    def test_burst_family(self, instance):
        plan = build_fault_plan("burst", 0.2, instance, 20, seed=1)
        assert plan.burst is not None
        assert plan.burst.p_good_to_bad == 0.2
        assert plan.burst.loss_bad == 0.9

    def test_partition_family_splits_early_rounds(self, instance):
        plan = build_fault_plan("partition", 0.3, instance, 20, seed=1)
        (partition,) = plan.partitions
        assert partition.start_round == 2
        assert partition.end_round >= partition.start_round + 2
        # Parity split: both sides keep facilities and clients.
        group = partition.groups[0]
        assert any(i < instance.num_facilities for i in group)
        assert any(i >= instance.num_facilities for i in group)

    def test_crash_family_crashes_and_recovers_facilities(self, instance):
        plan = build_fault_plan("crash", 0.5, instance, 20, seed=1)
        assert 1 <= len(plan.crash_rounds) <= instance.num_facilities - 1
        assert set(plan.recovery_rounds) == set(plan.crash_rounds)
        for node, crash in plan.crash_rounds.items():
            assert node < instance.num_facilities
            assert plan.recovery_rounds[node] > crash

    def test_duplicate_family(self, instance):
        plan = build_fault_plan("duplicate", 0.1, instance, 20, seed=1)
        assert plan.duplicate_probability == 0.1

    def test_link_family_cuts_both_directions(self, instance):
        plan = build_fault_plan("link", 0.2, instance, 20, seed=1)
        assert plan.link_failures
        assert len(plan.link_failures) % 2 == 0
        directions = {(f.sender, f.receiver) for f in plan.link_failures}
        for sender, receiver in directions:
            assert (receiver, sender) in directions

    def test_intensity_out_of_range_rejected(self, instance):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(SimulationError, match="intensity"):
                build_fault_plan("drop", bad, instance, 20, seed=1)

    def test_unknown_family_rejected(self, instance):
        with pytest.raises(SimulationError, match="unknown fault family"):
            build_fault_plan("cosmic_rays", 0.1, instance, 20, seed=1)


class TestGates:
    def test_validation(self):
        with pytest.raises(SimulationError, match="min_feasible_frac"):
            ChaosGates(min_feasible_frac=1.5)
        with pytest.raises(SimulationError, match="max_cost_inflation"):
            ChaosGates(max_cost_inflation=0.5)


def _cell(family="drop", intensity=0.1, seed=0, feasible=True, inflation=1.0):
    return ChaosCell(
        family=family,
        intensity=intensity,
        seed=seed,
        feasible=feasible,
        cost_inflation=inflation,
        healed_clients=0,
        heal_gave_up=0,
        retries=0,
        gave_up_messages=0,
        unserved=0 if feasible else 3,
    )


class TestReportGating:
    def test_passing_report(self):
        report = ChaosReport(
            cells=(_cell(seed=0), _cell(seed=1)),
            gates=ChaosGates(),
            baseline_cost=10.0,
        )
        assert report.passed
        assert report.failures() == []

    def test_feasibility_gate_failure(self):
        report = ChaosReport(
            cells=(
                _cell(seed=0, feasible=False, inflation=float("nan")),
                _cell(seed=1, feasible=False, inflation=float("nan")),
            ),
            gates=ChaosGates(min_feasible_frac=0.8),
            baseline_cost=10.0,
        )
        assert not report.passed
        gates_hit = {f["gate"] for f in report.failures()}
        assert "feasibility" in gates_hit

    def test_inflation_gate_failure(self):
        report = ChaosReport(
            cells=(_cell(seed=0, inflation=5.0), _cell(seed=1, inflation=7.0)),
            gates=ChaosGates(max_cost_inflation=3.0),
            baseline_cost=10.0,
        )
        failures = report.failures()
        assert [f["gate"] for f in failures] == ["cost_inflation"]
        assert failures[0]["observed"] == 6.0


class TestRunChaos:
    def test_small_sweep_passes_gates(self, instance):
        report = run_chaos(
            instance,
            k=4,
            families=("drop",),
            intensities=(0.1,),
            seeds=(0, 1),
            reliability=ReliabilityPolicy(),
            healing=SelfHealingPolicy(),
        )
        assert len(report.cells) == 2
        assert report.passed
        assert report.baseline_cost > 0
        for cell in report.cells:
            assert cell.feasible
            assert math.isfinite(cell.cost_inflation)
            assert cell.retries > 0  # the loss actually bit

    def test_report_serializes_as_a_record(self, instance):
        report = run_chaos(
            instance,
            k=4,
            families=("duplicate",),
            intensities=(0.2,),
            seeds=(0,),
            reliability=ReliabilityPolicy(),
            healing=SelfHealingPolicy(),
        )
        result = report.to_experiment_result()
        assert result.experiment_id == "CHAOS"
        record = result.to_record()
        assert set(record) == {"wall_seconds", "params", "metrics"}
        assert record["params"]["families"] == ["duplicate"]
        assert "feasible_frac_mean" in record["metrics"]
        assert "family" in report.table

    def test_unknown_family_rejected(self, instance):
        with pytest.raises(SimulationError, match="unknown fault families"):
            run_chaos(instance, k=4, families=("drop", "gremlins"))

    def test_default_grid_constants(self):
        assert set(FAULT_FAMILIES) == {
            "drop",
            "burst",
            "partition",
            "crash",
            "duplicate",
            "link",
        }
        assert all(0 < i <= 1 for i in DEFAULT_INTENSITIES)


class TestChaosCli:
    def test_chaos_command_writes_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "chaos" / "record.json"
        code = main(
            [
                "chaos",
                "--family",
                "uniform",
                "-m",
                "6",
                "-n",
                "15",
                "--seed",
                "2",
                "-k",
                "4",
                "--families",
                "drop",
                "--intensities",
                "0.1",
                "--num-seeds",
                "1",
                "-o",
                str(artifact),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos sweep" in out
        document = json.loads(artifact.read_text())
        assert document["type"] == "bench" and document["name"] == "chaos"
        assert list(document["records"]) == ["CHAOS"]

    def test_chaos_command_json_payload(self, capsys):
        code = main(
            [
                "chaos",
                "--family",
                "uniform",
                "-m",
                "6",
                "-n",
                "15",
                "--seed",
                "2",
                "-k",
                "4",
                "--families",
                "duplicate",
                "--intensities",
                "0.2",
                "--num-seeds",
                "1",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["failures"] == []
        assert payload["record"]["params"]["families"] == ["duplicate"]

    def test_chaos_command_fails_on_impossible_gate(self, capsys):
        # An inflation ceiling of exactly 1.0 cannot absorb any fault-made
        # detour, so the gate trips and the exit code reports it.
        code = main(
            [
                "chaos",
                "--family",
                "uniform",
                "-m",
                "6",
                "-n",
                "15",
                "--seed",
                "2",
                "-k",
                "4",
                "--families",
                "crash",
                "--intensities",
                "0.9",
                "--num-seeds",
                "1",
                "--max-inflation",
                "1.0",
                "--min-feasible-frac",
                "1.0",
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "gate cost_inflation failed" in captured.err
