"""Unit tests for the composable fault family in repro.net.faults."""

from __future__ import annotations

import pytest

import repro.net.faults as faults_module
from repro.core.algorithm import solve_distributed
from repro.exceptions import SimulationError
from repro.fl.generators import make_instance
from repro.net.faults import (
    FaultPlan,
    GilbertElliottLoss,
    LinkFailure,
    NetworkPartition,
)
from repro.net.message import Message


def msg(sender=0, receiver=1, kind="x", round_sent=0):
    return Message(sender=sender, receiver=receiver, kind=kind, round_sent=round_sent)


class TestGilbertElliott:
    def test_probability_validation(self):
        with pytest.raises(SimulationError, match="p_good_to_bad"):
            GilbertElliottLoss(p_good_to_bad=1.5, p_bad_to_good=0.5)
        with pytest.raises(SimulationError, match="loss_bad"):
            GilbertElliottLoss(p_good_to_bad=0.1, p_bad_to_good=0.5, loss_bad=-1)

    def test_always_bad_channel_drops_everything(self):
        plan = FaultPlan(
            burst=GilbertElliottLoss(p_good_to_bad=1.0, p_bad_to_good=0.0)
        )
        assert all(plan.should_drop(msg(), round_number=r) for r in range(1, 20))

    def test_never_bad_channel_drops_nothing(self):
        plan = FaultPlan(
            burst=GilbertElliottLoss(p_good_to_bad=0.0, p_bad_to_good=1.0)
        )
        assert not any(plan.should_drop(msg(), round_number=r) for r in range(1, 20))

    def test_chains_are_per_directed_link(self):
        # A link stuck bad must not leak its state into the reverse link.
        plan = FaultPlan(
            burst=GilbertElliottLoss(p_good_to_bad=1.0, p_bad_to_good=0.0)
        )
        assert plan.should_drop(msg(0, 1), round_number=1)
        plan2 = FaultPlan(
            burst=GilbertElliottLoss(p_good_to_bad=0.0, p_bad_to_good=1.0)
        )
        assert not plan2.should_drop(msg(1, 0), round_number=1)

    def test_losses_cluster_into_bursts(self):
        # With rare transitions and total loss in the bad state, outcomes
        # along one link form long runs rather than iid noise.
        plan = FaultPlan(
            seed=5,
            burst=GilbertElliottLoss(
                p_good_to_bad=0.05, p_bad_to_good=0.2, loss_bad=1.0
            ),
        )
        outcomes = [plan.should_drop(msg(), round_number=r) for r in range(1, 400)]
        flips = sum(1 for a, b in zip(outcomes, outcomes[1:]) if a != b)
        assert any(outcomes)  # the bad state was visited
        # iid loss at the same rate would flip far more often than a
        # two-state chain with mean burst length 1/0.2 = 5 rounds.
        assert flips < sum(outcomes)


class TestLinkFailure:
    def test_severs_only_its_direction_and_window(self):
        failure = LinkFailure(sender=0, receiver=1, start_round=3, end_round=5)
        assert not failure.severs(0, 1, 2)
        assert failure.severs(0, 1, 3)
        assert failure.severs(0, 1, 5)
        assert not failure.severs(0, 1, 6)
        assert not failure.severs(1, 0, 4)  # reverse direction unaffected

    def test_open_ended_failure(self):
        failure = LinkFailure(sender=2, receiver=7)
        assert failure.severs(2, 7, 1)
        assert failure.severs(2, 7, 10_000)

    def test_validation(self):
        with pytest.raises(SimulationError, match="start_round"):
            LinkFailure(sender=0, receiver=1, start_round=0)
        with pytest.raises(SimulationError, match="empty"):
            LinkFailure(sender=0, receiver=1, start_round=5, end_round=4)

    def test_plan_applies_link_failures(self):
        plan = FaultPlan(link_failures=[LinkFailure(0, 1, start_round=1)])
        assert plan.should_drop(msg(0, 1), round_number=1)
        assert not plan.should_drop(msg(1, 0), round_number=1)


class TestNetworkPartition:
    def test_severs_across_groups_during_window(self):
        partition = NetworkPartition(
            groups=[[0, 1], [2, 3]], start_round=2, end_round=4
        )
        assert partition.severs(0, 2, 3)
        assert partition.severs(3, 1, 2)
        assert not partition.severs(0, 1, 3)  # same group
        assert not partition.severs(0, 2, 1)  # before the window
        assert not partition.severs(0, 2, 5)  # after healing

    def test_single_group_cut_off_from_implicit_rest(self):
        partition = NetworkPartition(groups=[[4]], start_round=1, end_round=9)
        assert partition.severs(4, 0, 5)
        assert partition.severs(0, 4, 5)
        assert not partition.severs(0, 1, 5)  # both in the implicit group

    def test_validation(self):
        with pytest.raises(SimulationError, match="disjoint"):
            NetworkPartition(groups=[[0, 1], [1, 2]], start_round=1, end_round=2)
        with pytest.raises(SimulationError, match="invalid"):
            NetworkPartition(groups=[[0]], start_round=3, end_round=2)
        with pytest.raises(SimulationError, match="at least one"):
            NetworkPartition(groups=[], start_round=1, end_round=2)


class TestFaultPlanLifecycle:
    def test_recovery_requires_earlier_crash(self):
        with pytest.raises(SimulationError, match="no crash round"):
            FaultPlan(recovery_rounds={3: 5})
        with pytest.raises(SimulationError, match="not after"):
            FaultPlan(crash_rounds={3: 5}, recovery_rounds={3: 5})

    def test_crash_round_must_be_positive(self):
        with pytest.raises(SimulationError, match=">= 1"):
            FaultPlan(crash_rounds={0: 0})

    def test_crashes_and_recovers_at(self):
        plan = FaultPlan(crash_rounds={1: 4}, recovery_rounds={1: 9})
        assert plan.crashes_at(1, 4)
        assert not plan.crashes_at(1, 5)
        assert plan.recovers_at(1, 9)
        assert not plan.recovers_at(2, 9)

    def test_duplication_probability_one_always_duplicates(self):
        plan = FaultPlan(duplicate_probability=1.0)
        assert all(plan.should_duplicate(msg()) for _ in range(10))

    def test_is_trivial_covers_every_model(self):
        assert FaultPlan().is_trivial
        assert not FaultPlan(drop_probability=0.1).is_trivial
        assert not FaultPlan(crash_rounds={0: 1}).is_trivial
        assert not FaultPlan(
            burst=GilbertElliottLoss(p_good_to_bad=0.1, p_bad_to_good=0.5)
        ).is_trivial
        assert not FaultPlan(link_failures=[LinkFailure(0, 1)]).is_trivial
        assert not FaultPlan(
            partitions=[NetworkPartition(groups=[[0]], start_round=1, end_round=2)]
        ).is_trivial
        assert not FaultPlan(duplicate_probability=0.1).is_trivial


class TestFaultPlanStreams:
    def test_reset_replays_identical_decisions(self):
        plan = FaultPlan(drop_probability=0.5, duplicate_probability=0.5, seed=11)
        first = [
            (plan.should_drop(msg(), round_number=1), plan.should_duplicate(msg()))
            for _ in range(200)
        ]
        plan.reset()
        second = [
            (plan.should_drop(msg(), round_number=1), plan.should_duplicate(msg()))
            for _ in range(200)
        ]
        assert first == second

    def test_burst_stream_reset_with_plan(self):
        model = GilbertElliottLoss(p_good_to_bad=0.3, p_bad_to_good=0.3)
        plan = FaultPlan(seed=4, burst=model)
        first = [plan.should_drop(msg(), round_number=r) for r in range(1, 100)]
        plan.reset()
        second = [plan.should_drop(msg(), round_number=r) for r in range(1, 100)]
        assert first == second

    def test_models_draw_from_independent_streams(self):
        # Removing the duplication knob must not shift the drop stream.
        with_dup = FaultPlan(drop_probability=0.5, duplicate_probability=0.5, seed=8)
        drops_a = [with_dup.should_drop(msg(), round_number=1) for _ in range(100)]
        without = FaultPlan(drop_probability=0.5, seed=8)
        drops_b = [without.should_drop(msg(), round_number=1) for _ in range(100)]
        assert drops_a == drops_b


class TestFaultPlanStreamsOnFirstDraw:
    @pytest.fixture
    def derived(self, monkeypatch):
        keys: list[tuple[int, ...]] = []
        derive = faults_module.derive_rng

        def counting(seed, *stream_keys):
            keys.append(stream_keys)
            return derive(seed, *stream_keys)

        monkeypatch.setattr(faults_module, "derive_rng", counting)
        return keys

    def test_fault_free_run_builds_no_stream(self, derived):
        instance = make_instance("uniform", 5, 12, seed=2)
        solve_distributed(instance, k=4, seed=1)
        solve_distributed(instance, k=4, seed=1, fault_plan=FaultPlan(seed=3))
        solve_distributed(
            instance, k=4, seed=1,
            fault_plan=FaultPlan(link_failures=[LinkFailure(0, 5, 1, 2)]),
        )
        assert derived == []

    def test_each_stream_is_built_on_its_first_draw(self, derived):
        plan = FaultPlan(drop_probability=0.5, duplicate_probability=0.5, seed=11)
        assert derived == []
        plan.should_drop(msg(), round_number=1)
        plan.should_drop(msg(), round_number=1)
        assert derived == [(faults_module._KEY_IID_DROP,)]
        plan.should_duplicate(msg())
        assert derived == [(faults_module._KEY_IID_DROP,), (faults_module._KEY_DUPLICATE,)]

    def test_reused_plan_repeats_its_decisions(self):
        instance = make_instance("uniform", 5, 12, seed=2)
        plan = FaultPlan(drop_probability=0.2, duplicate_probability=0.2, seed=5)
        first = solve_distributed(instance, k=4, seed=1, fault_plan=plan)
        second = solve_distributed(instance, k=4, seed=1, fault_plan=plan)
        fresh = solve_distributed(
            instance, k=4, seed=1,
            fault_plan=FaultPlan(drop_probability=0.2, duplicate_probability=0.2, seed=5),
        )
        assert first.metrics.dropped_messages > 0
        assert first.metrics.duplicated_messages > 0
        for other in (second, fresh):
            assert other.metrics == first.metrics
            assert other.open_facilities == first.open_facilities
            assert other.solution == first.solution


class TestFaultPlanValidate:
    def test_warns_on_unreachable_schedule_entries(self):
        plan = FaultPlan(
            crash_rounds={0: 50, 1: 2},
            recovery_rounds={1: 80},
            partitions=[NetworkPartition(groups=[[0]], start_round=60, end_round=70)],
            link_failures=[LinkFailure(0, 1, start_round=55)],
        )
        warnings = plan.validate(max_rounds=40)
        issues = sorted(w["issue"] for w in warnings)
        assert issues == [
            "crash_after_horizon",
            "link_failure_after_horizon",
            "partition_after_horizon",
            "recovery_after_horizon",
        ]

    def test_clean_plan_produces_no_warnings(self):
        plan = FaultPlan(crash_rounds={0: 3}, recovery_rounds={0: 8})
        assert plan.validate(max_rounds=20) == []

    def test_recovery_warning_skipped_when_crash_also_unreachable(self):
        plan = FaultPlan(crash_rounds={0: 50}, recovery_rounds={0: 60})
        issues = [w["issue"] for w in plan.validate(max_rounds=10)]
        assert issues == ["crash_after_horizon"]
