"""End-to-end integration tests across the whole stack.

Each test exercises a full user journey: generate -> run distributed ->
validate -> compare against baselines -> serialize results. These are the
tests that catch wiring mistakes individual unit tests cannot.
"""

from __future__ import annotations

import math

import pytest

from repro import (
    Variant,
    greedy_solve,
    jain_vazirani_solve,
    local_search_solve,
    solve_distributed,
    solve_lp,
)
from repro.analysis.ratios import ratio_vs_lp
from repro.core.aggregation import run_efficiency_aggregation
from repro.core.bounds import approximation_envelope, round_budget
from repro.core.parameters import TradeoffParameters, efficiency_range
from repro.fl.generators import make_instance
from repro.fl.io import (
    instance_from_dict,
    instance_to_dict,
    solution_from_dict,
    solution_to_dict,
)


@pytest.mark.parametrize(
    "family", ["uniform", "euclidean", "clustered", "grid", "set_cover", "sparse"]
)
def test_full_pipeline_per_family(family):
    """The complete journey on every generator family."""
    instance = make_instance(family, 10, 30, seed=17)
    lp = solve_lp(instance)

    result = solve_distributed(instance, k=16, seed=1)
    assert result.feasible
    result.solution.validate()

    # Complexity claims.
    assert result.metrics.rounds <= round_budget(16)
    assert result.metrics.max_message_bits <= 96

    # Quality claim: under the paper's envelope vs the LP bound.
    report = ratio_vs_lp(result.solution, lp=lp)
    envelope = approximation_envelope(
        16, instance.num_facilities, instance.num_clients, instance.rho
    )
    assert report.ratio <= envelope

    # Cross-validation with the sequential emulation.
    emulated = solve_distributed(instance, k=16, seed=1, engine="columnar")
    assert emulated.open_facilities == result.open_facilities
    assert emulated.solution.assignment == result.solution.assignment

    # Serialization survives the round trip.
    restored_instance = instance_from_dict(instance_to_dict(instance))
    assert restored_instance == instance
    restored_solution = solution_from_dict(
        solution_to_dict(result.solution), restored_instance
    )
    assert restored_solution.cost == pytest.approx(result.solution.cost)


def test_distributed_vs_all_baselines_consistent():
    """All solvers agree on the cost ordering sanity conditions."""
    instance = make_instance("euclidean", 12, 36, seed=23)
    lp = solve_lp(instance)
    costs = {
        "distributed@25": solve_distributed(instance, k=25, seed=0).cost,
        "dual@25": solve_distributed(
            instance, k=25, variant=Variant.DUAL_ASCENT, seed=0
        ).cost,
        "greedy": greedy_solve(instance).cost,
        "jv": jain_vazirani_solve(instance).cost,
        "local_search": local_search_solve(instance).cost,
    }
    for label, cost in costs.items():
        assert cost >= lp.value - 1e-6, f"{label} beat the LP lower bound"
        assert cost <= 20 * lp.value, f"{label} exploded: {cost} vs LP {lp.value}"


def test_aggregation_feeds_valid_schedule():
    """The in-network coefficients can drive the schedule directly."""
    instance = make_instance("sparse", 10, 30, seed=29)
    aggregated = run_efficiency_aggregation(instance, rounds=instance.num_nodes)
    eff_min, eff_max = efficiency_range(instance)
    # The sparse bipartite graph may be disconnected: every node's view
    # must bracket within the global range and be internally consistent.
    for node_id in range(instance.num_nodes):
        low, high = aggregated.bounds_of(node_id)
        assert eff_min - 1e-9 <= low <= high <= eff_max + 1e-9

    # Global agreement on connected instances.
    complete = make_instance("uniform", 8, 20, seed=29)
    aggregated = run_efficiency_aggregation(complete)
    global_min, global_max = efficiency_range(complete)
    low, high = aggregated.bounds_of(0)
    assert low == pytest.approx(global_min, rel=1e-9)
    assert high == pytest.approx(global_max, rel=1e-9)


def test_parameters_consistency_between_variants():
    instance = make_instance("uniform", 10, 30, seed=31)
    flagship = TradeoffParameters.from_instance(instance, 25)
    linear = TradeoffParameters.linear(instance, 25)
    # Same efficiency range, different splits.
    assert flagship.eff_min == linear.eff_min
    assert flagship.eff_max == linear.eff_max
    assert flagship.num_scales == 5 and flagship.num_settle == 5
    assert linear.num_scales == 25 and linear.num_settle == 1
    # The linear ladder is finer.
    assert linear.base <= flagship.base + 1e-12


def test_extreme_k_values():
    """k = 1 (minimum) and very large k both behave."""
    instance = make_instance("uniform", 8, 20, seed=37)
    tiny = solve_distributed(instance, k=1, seed=0)
    assert tiny.feasible
    assert tiny.metrics.rounds <= round_budget(1)
    huge = solve_distributed(instance, k=400, seed=0)
    assert huge.feasible
    assert huge.metrics.rounds <= round_budget(400)
    # More rounds should not be dramatically worse on the same seed.
    assert huge.cost <= tiny.cost * 2 + 1e-9


def test_single_facility_single_client():
    """The degenerate smallest network."""
    instance = make_instance("uniform", 1, 1, seed=0)
    for variant in (Variant.GREEDY, Variant.DUAL_ASCENT):
        result = solve_distributed(instance, k=1, variant=variant, seed=0)
        assert result.feasible
        assert result.open_facilities == frozenset({0})
        expected = instance.opening_cost(0) + instance.connection_cost(0, 0)
        assert result.cost == pytest.approx(expected)
