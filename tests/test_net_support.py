"""Unit tests for repro.net support modules: rng, metrics, trace, faults."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.columnar import solve_columnar
from repro.core.dual_ascent_nodes import RoundingPolicy
from repro.exceptions import SimulationError
from repro.fl.generators import make_instance
from repro.net.faults import FaultPlan
from repro.net.message import Message
from repro.net.metrics import NetworkMetrics
from repro.net.rng import CoinPlane, NodeStreams, derive_rng, node_rng
from repro.net.trace import NullTrace, Trace
from repro.obs.timeline import RoundTimelineEntry


def _spawned(seed: int, num_nodes: int) -> list[np.random.Generator]:
    """numpy's own per-node streams: the children of one spawn."""
    return [
        np.random.default_rng(child)
        for child in np.random.SeedSequence(seed).spawn(num_nodes)
    ]


class TestRng:
    def test_reproducible(self):
        a = [node_rng(7, i).random() for i in range(5)]
        b = [node_rng(7, i).random() for i in range(5)]
        assert a == b

    def test_streams_are_distinct(self):
        values = [node_rng(7, i).random() for i in range(10)]
        assert len(set(values)) == 10

    def test_different_seeds_differ(self):
        a = [node_rng(1, i).random() for i in range(3)]
        b = [node_rng(2, i).random() for i in range(3)]
        assert a != b

    def test_node_rng_is_that_node_of_the_full_spawn(self):
        for seed in (0, 7, 2**40 + 3):
            for i in (0, 3, 5):
                expected = node_rng(seed, i).random(3).tolist()
                for num_nodes in (i + 1, 6, 64):
                    spawned = _spawned(seed, num_nodes)[i]
                    assert spawned.random(3).tolist() == expected

    def test_node_streams_build_each_stream_once_on_first_lookup(self):
        streams = NodeStreams(7)
        assert len(streams) == 0
        first = streams[4]
        assert list(streams) == [4] and streams[4] is first
        assert first.random(3).tolist() == node_rng(7, 4).random(3).tolist()

    def test_derive_rng_keyed(self):
        assert derive_rng(1, 2).random() == derive_rng(1, 2).random()
        assert derive_rng(1, 2).random() != derive_rng(1, 3).random()


class TestCoinPlane:
    """The vectorized streams against numpy's own generators, bit for bit."""

    # One-, two-, three- and five-word seeds: the run entropy is padded
    # to the pool size below four words and mixed in after it above.
    SEEDS = (0, 1, 3, 2**32 + 5, 2**63 + 17, 12345678901234567890, 2**64 + 9, 2**130 + 7)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_node_rng_draw_for_draw(self, seed):
        start, stop, rounds = 1000, 1400, 5
        expected = np.array([node_rng(seed, i).random(rounds) for i in range(start, stop)])
        plane = CoinPlane(seed, start, stop)
        drawn = np.zeros(stop - start, dtype=np.int64)
        pick = np.random.default_rng(seed % 2**32)
        for _ in range(rounds):
            # A random subset in random order, so rows advance unevenly.
            rows = pick.permutation(stop - start)[: pick.integers(1, stop - start + 1)]
            values = plane.random(start + rows)
            want = expected[rows, drawn[rows]]
            assert np.array_equal(values.view(np.uint64), want.view(np.uint64))
            drawn[rows] += 1
        assert drawn.min() < drawn.max()

    def test_empty_draw(self):
        values = CoinPlane(7, 0, 8).random(np.array([], dtype=np.int64))
        assert values.shape == (0,) and values.dtype == np.float64

    def test_refuses_two_word_spawn_keys(self):
        CoinPlane(0, 2**32 - 4, 2**32)
        with pytest.raises(ValueError, match="two-word spawn key"):
            CoinPlane(0, 2**32 - 4, 2**32 + 1)

    def test_select_all_rounding_never_builds_the_plane(self, monkeypatch):
        builds = []
        build = CoinPlane._build

        def counted(plane):
            builds.append(plane.start)
            return build(plane)

        monkeypatch.setattr(CoinPlane, "_build", counted)
        instance = make_instance("uniform", 8, 24, seed=2)
        for mode in ("select_all", "randomized"):
            solve_columnar(
                instance, 4, "dual_ascent", seed=1, rounding=RoundingPolicy(mode=mode)
            )
            assert len(builds) == (mode == "randomized")


def _record(round_number: int, messages: int, drops: int = 0) -> RoundTimelineEntry:
    return RoundTimelineEntry(
        round_number=round_number, wall_ms=0.0, messages=messages, bits=0,
        drops=drops, alive=2, finished=0,
    )


class TestNetworkMetrics:
    def test_message_accounting(self):
        metrics = NetworkMetrics()
        metrics.record_message(Message(0, 1, "a", {"x": 1.0}))
        metrics.record_message(Message(1, 0, "b"))
        metrics.close_round(_record(1, 2))
        assert metrics.rounds == 1
        assert metrics.total_messages == 2
        assert metrics.max_message_bits == 8 + 64
        assert metrics.messages_by_kind == {"a": 1, "b": 1}
        assert metrics.max_messages_per_round == 2

    def test_per_round_peak(self):
        # The round aggregates come from the records alone.
        metrics = NetworkMetrics()
        for record in (_record(0, 0), _record(1, 3), _record(2, 1)):
            metrics.close_round(record)
        assert metrics.max_messages_per_round == 3
        assert metrics.rounds == 2
        assert metrics.total_messages == 0

    def test_one_batch_per_round(self):
        metrics = NetworkMetrics()
        rounds = [
            [Message(0, 1, "b", {"x": 1.0}), Message(1, 0, "a"), Message(2, 0, "b", {"n": 9})],
            [],
            [Message(0, 2, "c", {"s": "long"}), Message(1, 2, "a")],
        ]
        for number, messages in enumerate(rounds, start=1):
            metrics.record_messages(messages)
            metrics.close_round(_record(number, len(messages)))
        summary = metrics.summary()
        assert summary["rounds"] == 3
        assert summary["total_messages"] == 5
        assert summary["total_bits"] == (8 + 64) + 8 + (8 + 5) + (8 + 32) + 8
        assert summary["max_message_bits"] == 8 + 64
        assert summary["max_messages_per_round"] == 3
        assert list(summary["messages_by_kind"].items()) == [("b", 2), ("a", 2), ("c", 1)]

    def test_mean_bits_empty(self):
        assert NetworkMetrics().mean_message_bits == 0.0

    def test_summary_keys(self):
        summary = NetworkMetrics().summary()
        assert {"rounds", "total_messages", "max_message_bits"} <= set(summary)

    def test_summary_includes_per_kind_counts(self):
        metrics = NetworkMetrics()
        metrics.record_message(Message(0, 1, "a"))
        metrics.record_message(Message(1, 0, "a"))
        metrics.record_message(Message(1, 0, "b"))
        summary = metrics.summary()
        assert summary["messages_by_kind"] == {"a": 2, "b": 1}

    def test_drop_accounting(self):
        metrics = NetworkMetrics()
        metrics.record_drop()
        assert metrics.dropped_messages == 1

    def test_drops_attributed_by_kind_and_round(self):
        metrics = NetworkMetrics()
        metrics.record_drop(Message(0, 1, "prp"))
        metrics.close_round(_record(3, 0, drops=1))
        metrics.record_drop(Message(1, 0, "prp"))
        metrics.record_drop(Message(0, 1, "acc"))
        metrics.close_round(_record(4, 0, drops=2))
        metrics.close_round(_record(5, 0))
        assert metrics.dropped_messages == 3
        assert metrics.drops_by_kind == {"prp": 2, "acc": 1}
        summary = metrics.summary()
        assert summary["drops_by_kind"] == {"prp": 2, "acc": 1}
        assert summary["drops_by_round"] == {"3": 1, "4": 2}

    def test_anonymous_drop_still_counts(self):
        # The pre-existing call shape (no message) must keep working.
        metrics = NetworkMetrics()
        metrics.record_drop(None)
        assert metrics.dropped_messages == 1
        assert metrics.drops_by_kind == {}

    def test_round_aggregates_equal_the_faulty_timeline(self):
        from repro.analysis.chaos import FAULT_FAMILIES, build_fault_plan
        from repro.core.algorithm import DistributedFacilityLocation, solve_distributed
        from repro.core.healing import SelfHealingPolicy
        from repro.net.reliability import ReliabilityPolicy

        instance = make_instance("uniform", 8, 24, seed=2)
        schedule = DistributedFacilityLocation(instance, 4).schedule_rounds()
        for family in FAULT_FAMILIES:
            result = solve_distributed(
                instance, 4, seed=1,
                fault_plan=build_fault_plan(family, 0.3, instance, schedule, seed=3),
                reliability=ReliabilityPolicy(), healing=SelfHealingPolicy(),
            )
            metrics, timeline = result.metrics, result.timeline
            assert metrics.rounds == timeline[-1].round_number == len(timeline) - 1
            assert metrics.max_messages_per_round == max(e.messages for e in timeline)
            assert metrics.drops_by_round == {
                e.round_number: e.drops for e in timeline if e.drops
            }
            assert sum(metrics.drops_by_round.values()) == metrics.dropped_messages

    def test_publish_to_registry(self):
        from repro.obs.registry import MetricsRegistry

        metrics = NetworkMetrics()
        metrics.record_message(Message(0, 1, "a", {"x": 1.0}))
        metrics.record_drop(Message(1, 0, "b"))
        metrics.close_round(_record(1, 1, drops=1))
        registry = MetricsRegistry()
        metrics.publish(registry)
        scalars = registry.scalars()
        assert scalars["net_messages_total"] == 1
        assert scalars["net_dropped_messages"] == 1
        assert scalars["net_messages_by_kind{kind=a}"] == 1
        assert scalars["net_drops_by_kind{kind=b}"] == 1


class TestTrace:
    def test_record_and_filter(self):
        trace = Trace()
        trace.record(1, 0, "open", {"x": 1})
        trace.record(2, 1, "close", {})
        trace.record(2, 0, "open", {})
        assert len(trace) == 3
        assert len(trace.events(event="open")) == 2
        assert len(trace.events(node_id=1)) == 1
        assert len(trace.events(event="open", node_id=0)) == 2

    def test_render(self):
        trace = Trace()
        trace.record(3, 7, "tick", {"v": 5})
        text = trace.render()
        assert "tick" in text
        assert "v=5" in text

    def test_null_trace_drops_events(self):
        trace = NullTrace()
        trace.record(1, 0, "x", {})
        assert len(trace) == 0
        assert not trace.enabled
        assert Trace().enabled


class TestFaultPlan:
    def test_trivial_plan(self):
        plan = FaultPlan()
        assert plan.is_trivial
        assert not plan.should_drop(Message(0, 1, "a"))

    def test_drop_probability_validation(self):
        with pytest.raises(SimulationError):
            FaultPlan(drop_probability=1.5)
        with pytest.raises(SimulationError):
            FaultPlan(drop_probability=-0.1)

    def test_crash_round_validation(self):
        with pytest.raises(SimulationError):
            FaultPlan(crash_rounds={0: 0})

    def test_always_drop(self):
        plan = FaultPlan(drop_probability=1.0)
        assert plan.should_drop(Message(0, 1, "a"))
        assert not plan.is_trivial

    def test_drop_is_reproducible(self):
        outcomes_a = [
            FaultPlan(drop_probability=0.5, seed=3).should_drop(Message(0, 1, "a"))
            for _ in range(1)
        ]
        plan_b = FaultPlan(drop_probability=0.5, seed=3)
        outcomes_b = [plan_b.should_drop(Message(0, 1, "a"))]
        assert outcomes_a == outcomes_b

    def test_crashes_at(self):
        plan = FaultPlan(crash_rounds={4: 2})
        assert plan.crashes_at(4, 2)
        assert not plan.crashes_at(4, 3)
        assert not plan.crashes_at(5, 2)
