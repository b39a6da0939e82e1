"""Unit tests for the dual-ascent variant's node logic and schedule."""

from __future__ import annotations

import pytest

from repro.core.algorithm import DistributedFacilityLocation, Variant
from repro.core.dual_ascent_nodes import (
    TIGHT,
    DualClientNode,
    RoundingPolicy,
    dual_phase_of_round,
    dual_schedule_length,
)
from repro.core.parameters import TradeoffParameters
from repro.exceptions import AlgorithmError
from repro.fl.generators import sparse_instance, uniform_instance
from repro.net.faults import FaultPlan
from repro.net.message import Message
from repro.net.reliability import ReliabilityPolicy
from repro.net.trace import Trace


@pytest.fixture
def params(tiny_instance):
    return TradeoffParameters.linear(tiny_instance, k=3)


class TestRoundingPolicy:
    def test_defaults(self):
        policy = RoundingPolicy()
        assert policy.mode == "select_all"

    def test_rejects_unknown_mode(self):
        with pytest.raises(AlgorithmError, match="unknown rounding mode"):
            RoundingPolicy(mode="magic")

    def test_rejects_non_positive_constant(self):
        with pytest.raises(AlgorithmError, match="c_round"):
            RoundingPolicy(mode="randomized", c_round=0.0)


class TestPhaseMapping:
    def test_levels(self, params):
        assert dual_phase_of_round(params, 1) == ("alpha", 1)
        assert dual_phase_of_round(params, 2) == ("tight", 1)
        assert dual_phase_of_round(params, 3) == ("freeze", 1)
        assert dual_phase_of_round(params, 4) == ("alpha", 2)
        assert dual_phase_of_round(params, 9) == ("freeze", 3)

    def test_rounding_phases(self, params):
        assert dual_phase_of_round(params, 10) == ("round1", 0)
        assert dual_phase_of_round(params, 14) == ("round5", 0)
        assert dual_phase_of_round(params, 15) == ("done", 0)

    def test_schedule_length(self, params):
        assert dual_schedule_length(params) == 3 * 3 + 5


class TestDualProtocol:
    def test_every_client_gets_a_witness(self, tiny_instance):
        runner = DistributedFacilityLocation(
            tiny_instance, k=3, variant=Variant.DUAL_ASCENT, seed=0
        )
        simulator = runner.build_simulator()
        simulator.run(max_rounds=runner.schedule_rounds() + 2)
        m = tiny_instance.num_facilities
        for node in simulator.nodes[m:]:
            assert node.witnesses, f"client node {node.node_id} has no witness"
            assert node.frozen

    def test_tight_facilities_really_paid(self, uniform_small):
        runner = DistributedFacilityLocation(
            uniform_small, k=5, variant=Variant.DUAL_ASCENT, seed=1
        )
        simulator = runner.build_simulator()
        simulator.run(max_rounds=runner.schedule_rounds() + 2)
        m = uniform_small.num_facilities
        for node in simulator.nodes[:m]:
            if node.is_tight:
                assert node.payment >= node.opening_cost * (1 - 1e-9)

    def test_alpha_monotone_in_levels(self, tiny_instance):
        # Budgets never decrease, and frozen clients stop growing.
        runner = DistributedFacilityLocation(
            tiny_instance, k=6, variant=Variant.DUAL_ASCENT, seed=0
        )
        simulator = runner.build_simulator()
        m = tiny_instance.num_facilities
        previous = [0.0] * tiny_instance.num_clients
        simulator.setup()
        for _ in range(runner.schedule_rounds()):
            simulator.step()
            current = [simulator.node(m + j).alpha for j in range(3)]
            for before, after in zip(previous, current):
                assert after >= before - 1e-15
            previous = current
            if simulator.all_finished:
                break

    def test_select_all_never_forces(self, uniform_small):
        trace = Trace()
        result = DistributedFacilityLocation(
            uniform_small,
            k=4,
            variant=Variant.DUAL_ASCENT,
            seed=2,
            rounding=RoundingPolicy(mode="select_all"),
            trace=trace,
        ).run()
        assert result.feasible
        assert result.diagnostics["num_forced_clients"] == 0

    def test_randomized_low_constant_forces_but_stays_feasible(self, uniform_small):
        result = DistributedFacilityLocation(
            uniform_small,
            k=4,
            variant=Variant.DUAL_ASCENT,
            seed=2,
            rounding=RoundingPolicy(mode="randomized", c_round=0.01),
        ).run()
        assert result.feasible  # the deterministic fallback guarantees it

    def test_diagnostics_include_tightness(self, uniform_small):
        result = DistributedFacilityLocation(
            uniform_small, k=4, variant=Variant.DUAL_ASCENT, seed=0
        ).run()
        assert result.diagnostics["num_tight"] >= 1
        assert result.diagnostics["mean_witnesses"] >= 1.0

    def test_each_tight_facility_announces_once(self):
        instance = sparse_instance(10, 40, seed=5)
        runner = DistributedFacilityLocation(
            instance, k=9, variant=Variant.DUAL_ASCENT, seed=0
        )
        simulator = runner.build_simulator()
        metrics = simulator.run(max_rounds=runner.round_budget())
        tight = [n for n in simulator.nodes[: instance.num_facilities] if n.is_tight]
        assert tight
        assert metrics.messages_by_kind["tgt"] == sum(len(n.neighbors) for n in tight)

    @pytest.mark.parametrize("drop", [0.01, 0.05, 0.1])
    def test_reliable_delivery_serves_every_client_though_tgt_is_sent_once(
        self, drop
    ):
        # A lost tgt is never repeated by the protocol; the ACK/retransmit
        # sublayer has to bring it through.
        for seed in range(10):
            result = DistributedFacilityLocation(
                uniform_instance(20, 60, seed=seed),
                k=16,
                variant=Variant.DUAL_ASCENT,
                seed=seed,
                fault_plan=FaultPlan(drop_probability=drop, seed=seed),
                reliability=ReliabilityPolicy(max_retries=2),
            ).run()
            assert result.unserved_clients == (), (seed, result.unserved_clients)


class _Context:
    """The part of a round context a dual client uses; keeps its logs."""

    def __init__(self, round_number: int, logs: list) -> None:
        self.round_number = round_number
        self.logs = logs

    def log(self, event: str, **data) -> None:
        self.logs.append((event, data))

    def count(self, *args, **labels) -> None:
        pass

    def broadcast(self, kind: str, **payload) -> None:
        pass


class TestClientRecheck:
    """A client driven by hand through three levels with budgets 2, 4, 8.

    ``announcements`` maps a round to the facilities whose one ``tgt``
    reaches the client in it; rounds 3, 6 and 9 are the freeze phases.
    """

    PARAMS = TradeoffParameters(
        k=3, num_scales=3, num_settle=1, base=2.0, eff_min=1.0, eff_max=8.0,
        num_nodes=8,
    )

    def _drive(self, costs, announcements, rounds=9):
        client = DualClientNode(7, costs, self.PARAMS)
        logs: list = []
        for r in range(1, rounds + 1):
            inbox = [Message(i, 7, TIGHT) for i in announcements.get(r, ())]
            client.on_round(_Context(r, logs), inbox)
        settles = [data for event, data in logs if event == "settle"]
        return client, settles

    def test_a_remembered_facility_becomes_a_witness_when_affordable(self):
        costs = {0: 1.0, 1: 8.0}
        client, _ = self._drive(costs, {3: [1]}, rounds=8)
        assert not client.frozen and not client.witnesses
        client, settles = self._drive(costs, {3: [1]})
        assert client.witnesses == {1}
        assert client.frozen_at_level == 3
        assert settles == [{"level": 3, "witness": 1}]

    def test_settle_picks_the_lowest_id_the_budget_covers(self):
        # Facility 2 was heard first, but 1 arrives when both are affordable.
        client, settles = self._drive({0: 1.0, 1: 3.0, 2: 3.5}, {3: [2], 6: [1]})
        assert client.witnesses == {1, 2}
        assert settles == [{"level": 2, "witness": 1}]

    def test_a_frozen_client_still_records_a_cheaper_witness(self):
        client, settles = self._drive(
            {0: 1.0, 1: 2.0, 2: 6.0}, {3: [1], 6: [2], 9: [0]}
        )
        assert client.alpha == 2.0 and client.frozen_at_level == 1
        assert client.witnesses == {0, 1}  # 2 costs more than the frozen budget
        assert client._cheapest_witness() == 0
        assert settles == [{"level": 1, "witness": 1}]
