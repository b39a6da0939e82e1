"""Property-based tests of algorithm-specific invariants.

Complements ``test_property_based.py`` (core feasibility properties) with
the deeper per-algorithm invariants: dual feasibility of JV, the
Mettu–Plaxton radius identity, local-search optimality, and the
in-network aggregation of the schedule coefficients.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.jain_vazirani import jv_dual_ascent
from repro.baselines.local_search import local_search_solve, open_set_cost
from repro.baselines.lp import solve_lp
from repro.baselines.mettu_plaxton import mp_radius
from repro.core.aggregation import run_efficiency_aggregation
from repro.core.parameters import efficiency_range
from repro.fl.generators import uniform_instance

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def small_uniform_instances(draw):
    m = draw(st.integers(min_value=2, max_value=7))
    n = draw(st.integers(min_value=2, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return uniform_instance(m, n, seed=seed)


class TestJVInvariants:
    @_SETTINGS
    @given(small_uniform_instances())
    def test_dual_never_exceeds_lp(self, instance):
        state = jv_dual_ascent(instance)
        lp = solve_lp(instance)
        assert state.alphas.sum() <= lp.value * (1 + 1e-6) + 1e-9

    @_SETTINGS
    @given(small_uniform_instances())
    def test_every_client_frozen_with_affordable_witness(self, instance):
        state = jv_dual_ascent(instance)
        for j in range(instance.num_clients):
            witness = state.witness[j]
            assert witness in state.tight_facilities
            assert (
                instance.connection_cost(witness, j) <= state.alphas[j] + 1e-9
            )


class TestMPInvariants:
    @_SETTINGS
    @given(small_uniform_instances())
    def test_radius_payment_identity(self, instance):
        for i in range(instance.num_facilities):
            radius = mp_radius(instance, i)
            paid = sum(
                max(0.0, radius - instance.connection_cost(i, j))
                for j in range(instance.num_clients)
            )
            assert paid == pytest.approx(instance.opening_cost(i), abs=1e-7)


class TestLocalSearchInvariants:
    @_SETTINGS
    @given(small_uniform_instances())
    def test_no_improving_add_or_drop(self, instance):
        solution = local_search_solve(instance)
        open_set = set(solution.open_facilities)
        best = open_set_cost(instance, open_set)
        for i in range(instance.num_facilities):
            neighbor = open_set - {i} if i in open_set else open_set | {i}
            assert open_set_cost(instance, neighbor) >= best - 1e-9


class TestAggregationInvariants:
    @_SETTINGS
    @given(small_uniform_instances())
    def test_aggregation_matches_centralized(self, instance):
        result = run_efficiency_aggregation(instance)
        eff_min, eff_max = efficiency_range(instance)
        low, high = result.bounds_of(0)
        assert low == pytest.approx(eff_min, rel=1e-9)
        assert high == pytest.approx(eff_max, rel=1e-9)
