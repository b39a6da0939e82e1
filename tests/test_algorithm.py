"""Integration-level tests for repro.core.algorithm."""

from __future__ import annotations

import pytest

from repro.core.algorithm import (
    DistributedFacilityLocation,
    Variant,
    solve_distributed,
)
from repro.core.bounds import round_budget
from repro.exceptions import AlgorithmError
from repro.net.faults import FaultPlan


class TestBasicRuns:
    @pytest.mark.parametrize("variant", [Variant.GREEDY, Variant.DUAL_ASCENT])
    def test_feasible_on_every_family(self, any_family_instance, variant):
        result = solve_distributed(any_family_instance, k=4, variant=variant, seed=0)
        assert result.feasible
        result.solution.validate()

    @pytest.mark.parametrize("k", [1, 2, 5, 9, 20])
    def test_feasible_for_every_k(self, uniform_small, k):
        result = solve_distributed(uniform_small, k=k, seed=0)
        assert result.feasible

    def test_deterministic_given_seed(self, uniform_small):
        a = solve_distributed(uniform_small, k=9, seed=5)
        b = solve_distributed(uniform_small, k=9, seed=5)
        assert a.open_facilities == b.open_facilities
        assert a.solution.assignment == b.solution.assignment
        assert a.metrics.summary() == b.metrics.summary()

    def test_seeds_change_outcomes_somewhere(self, uniform_small):
        costs = {
            solve_distributed(uniform_small, k=4, seed=s).cost for s in range(8)
        }
        assert len(costs) > 1, "randomized conflict resolution never varied"

    def test_variant_accepts_strings(self, uniform_small):
        result = solve_distributed(uniform_small, k=4, variant="dual_ascent")
        assert result.variant is Variant.DUAL_ASCENT


class TestComplexityClaims:
    @pytest.mark.parametrize("k", [1, 4, 9, 16, 25])
    def test_rounds_within_linear_budget(self, uniform_small, k):
        result = solve_distributed(uniform_small, k=k, seed=0)
        assert result.metrics.rounds <= round_budget(k)

    def test_rounds_grow_with_k(self, uniform_small):
        small = solve_distributed(uniform_small, k=1, seed=0).metrics.rounds
        large = solve_distributed(uniform_small, k=25, seed=0).metrics.rounds
        assert large > small

    def test_message_bits_logarithmic(self, uniform_small):
        # One float + constant tags; far below 16 log2(N) for this size.
        result = solve_distributed(uniform_small, k=9, seed=0)
        assert result.metrics.max_message_bits <= 96

    def test_runs_under_hard_bit_budget(self, uniform_small):
        # The protocol must survive a strict CONGEST-style budget.
        result = DistributedFacilityLocation(
            uniform_small, k=9, seed=0, max_message_bits=96
        ).run()
        assert result.feasible


class TestQuality:
    def test_cost_below_trivial_upper_bound(self, any_family_instance):
        result = solve_distributed(any_family_instance, k=9, seed=0)
        # Opening everything is the "no algorithm" fallback; the protocol
        # must never be lured into costing more than its efficiency
        # thresholds permit, which is well below this on all families.
        assert result.cost <= any_family_instance.trivial_upper_bound() * 2

    def test_larger_k_does_not_catastrophically_regress(self, euclidean_small):
        coarse = min(
            solve_distributed(euclidean_small, k=1, seed=s).cost for s in range(3)
        )
        fine = min(
            solve_distributed(euclidean_small, k=36, seed=s).cost for s in range(3)
        )
        assert fine <= coarse * 1.5


class TestFaultRuns:
    def test_unserved_reported_under_crashes(self, uniform_small):
        # Crash every facility before round 1: no client can ever be served.
        plan = FaultPlan(
            crash_rounds={i: 1 for i in range(uniform_small.num_facilities)}
        )
        result = DistributedFacilityLocation(
            uniform_small, k=4, seed=0, fault_plan=plan
        ).run()
        assert not result.feasible
        assert len(result.unserved_clients) == uniform_small.num_clients
        with pytest.raises(AlgorithmError, match="unserved"):
            _ = result.cost

    def test_repaired_solution_on_clean_run_is_identity(self, uniform_small):
        result = solve_distributed(uniform_small, k=4, seed=0)
        assert result.repaired_solution() is result.solution

    def test_heavy_drops_stay_recoverable(self, uniform_small):
        plan = FaultPlan(drop_probability=0.3, seed=11)
        result = DistributedFacilityLocation(
            uniform_small, k=9, seed=0, fault_plan=plan
        ).run()
        # Completeness is not guaranteed, but the run must terminate and
        # report a consistent picture.
        served = uniform_small.num_clients - len(result.unserved_clients)
        assert served >= 0
        if result.feasible:
            result.solution.validate()

    def test_single_crashed_facility_excluded_from_open_set(self, uniform_small):
        plan = FaultPlan(crash_rounds={0: 1})
        result = DistributedFacilityLocation(
            uniform_small, k=9, seed=0, fault_plan=plan
        ).run()
        assert 0 not in result.open_facilities


class TestTruncatedRuns:
    def test_zero_ish_budget_yields_unserved(self, uniform_small):
        runner = DistributedFacilityLocation(uniform_small, k=9, seed=0)
        result = runner.run_truncated(2)
        assert not result.feasible
        assert len(result.unserved_clients) == uniform_small.num_clients

    def test_full_budget_equals_normal_run(self, uniform_small):
        runner = DistributedFacilityLocation(uniform_small, k=9, seed=0)
        full = runner.schedule_rounds() + 2
        truncated = DistributedFacilityLocation(
            uniform_small, k=9, seed=0
        ).run_truncated(full)
        normal = DistributedFacilityLocation(uniform_small, k=9, seed=0).run()
        assert truncated.feasible
        assert truncated.open_facilities == normal.open_facilities
        assert truncated.solution.assignment == normal.solution.assignment

    def test_served_monotone_in_budget(self, uniform_small):
        runner = DistributedFacilityLocation(uniform_small, k=9, seed=0)
        schedule = runner.schedule_rounds()
        served = []
        for fraction in (0.25, 0.5, 0.75, 1.0):
            budget = max(1, int(schedule * fraction))
            result = DistributedFacilityLocation(
                uniform_small, k=9, seed=0
            ).run_truncated(budget)
            served.append(
                uniform_small.num_clients - len(result.unserved_clients)
            )
        assert served == sorted(served)


class TestStrictCongestConformance:
    """Both protocols must satisfy the strict CONGEST discipline: at most
    one message per edge per round, every message within the bit budget."""

    @pytest.mark.parametrize("variant", [Variant.GREEDY, Variant.DUAL_ASCENT])
    def test_protocols_obey_one_message_per_edge(
        self, any_family_instance, variant
    ):
        runner = DistributedFacilityLocation(
            any_family_instance, k=6, variant=variant, seed=1, max_message_bits=96
        )
        simulator = runner.build_simulator()
        simulator.enforce_single_message_per_edge = True
        simulator.run(max_rounds=runner.schedule_rounds() + 2)
        assert simulator.all_finished


class TestEngineEntryPoint:
    """``solve_distributed(engine=...)`` runs every engine to one result type."""

    @pytest.mark.parametrize("variant", [Variant.GREEDY, Variant.DUAL_ASCENT])
    def test_engines_agree(self, uniform_small, variant):
        results = {
            engine: solve_distributed(
                uniform_small, k=6, variant=variant, seed=2, engine=engine
            )
            for engine in ("simulator", "loop", "columnar")
        }
        sharded = solve_distributed(
            uniform_small, k=6, variant=variant, seed=2, engine="columnar",
            shards=2,
        )
        reference = results["simulator"]
        for result in (results["loop"], results["columnar"], sharded):
            assert result.cost == reference.cost
            assert result.open_facilities == reference.open_facilities
        # Columnar carries its modeled traffic; the loop sends nothing.
        assert results["columnar"].metrics.rounds > 0
        assert results["loop"].metrics.total_messages == 0

    def test_simulator_only_keywords_refused_by_emulation(self, uniform_small):
        from repro.net.trace import Trace

        with pytest.raises(AlgorithmError, match="trace"):
            solve_distributed(uniform_small, k=4, engine="loop", trace=Trace())

    def test_simulator_does_not_shard(self, uniform_small):
        with pytest.raises(AlgorithmError, match="shard"):
            solve_distributed(uniform_small, k=4, shards=2)
