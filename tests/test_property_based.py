"""Property-based tests (hypothesis) on core invariants.

Strategy: generate arbitrary valid instances (random sizes, random costs,
random sparsity patterns) and check the invariants every component promises
regardless of input:

* instance invariants (rho >= 1, bounds ordering),
* every solver returns a feasible solution whose cost sandwich holds
  (LP <= cost and cost <= family-specific envelope),
* the distributed protocol equals its sequential emulation seed-for-seed,
* serialization round-trips exactly,
* message bit accounting is monotone in payload,
* the dense columnar conversion equals the edge-list one array for array.
"""

from __future__ import annotations

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.baselines.greedy import greedy_solve
from repro.baselines.jain_vazirani import jain_vazirani_solve
from repro.baselines.lp import solve_lp
from repro.core.algorithm import Variant, solve_distributed
from repro.core.columnar import ColumnarInstance
from repro.core.parameters import TradeoffParameters, efficiency_range
from repro.core.sequential_sim import run_sequential
from repro.fl.instance import FacilityLocationInstance
from repro.fl.io import instance_from_dict, instance_to_dict
from repro.net.message import scalar_bits

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def instances(draw, max_facilities: int = 6, max_clients: int = 10):
    """Arbitrary valid instances: random shape, costs and edge pattern."""
    m = draw(st.integers(min_value=1, max_value=max_facilities))
    n = draw(st.integers(min_value=1, max_value=max_clients))
    opening = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=m,
            max_size=m,
        )
    )
    connection = np.array(
        draw(
            st.lists(
                st.lists(
                    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                    min_size=n,
                    max_size=n,
                ),
                min_size=m,
                max_size=m,
            )
        )
    )
    # Random sparsity: drop each edge with probability 1/3, then repair
    # clients left uncovered by restoring their first edge.
    mask = np.array(
        draw(
            st.lists(
                st.lists(st.booleans(), min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            )
        )
    )
    connection = np.where(mask, connection, np.inf)
    for j in range(n):
        if not np.isfinite(connection[:, j]).any():
            connection[0, j] = float(j)
    return FacilityLocationInstance(opening, connection, name="hypothesis")


@st.composite
def tied_instances(draw, max_facilities: int = 6, max_clients: int = 8):
    """Instances whose costs come from a tiny palette: many equal-cost
    ties, zero-cost edges and absent (``inf``) edges."""
    m = draw(st.integers(min_value=1, max_value=max_facilities))
    n = draw(st.integers(min_value=1, max_value=max_clients))
    palette = st.sampled_from([0.0, 0.5, 1.0, 2.0, math.inf])
    connection = np.array(
        draw(st.lists(st.lists(palette, min_size=n, max_size=n), min_size=m, max_size=m))
    )
    for j in range(n):
        if not np.isfinite(connection[:, j]).any():
            connection[draw(st.integers(0, m - 1)), j] = 0.0
    opening = draw(st.lists(st.sampled_from([0.0, 1.0, 3.0]), min_size=m, max_size=m))
    return FacilityLocationInstance(opening, connection, name="tied")


class TestInstanceInvariants:
    @_SETTINGS
    @given(instances())
    def test_rho_and_bounds(self, instance):
        assert instance.rho >= 1.0
        assert instance.min_positive_cost > 0
        assert instance.max_finite_cost >= 0
        assert instance.gamma >= 2.0

    @_SETTINGS
    @given(instances())
    def test_efficiency_range_ordering(self, instance):
        eff_min, eff_max = efficiency_range(instance)
        assert 0 < eff_min <= eff_max

    @_SETTINGS
    @given(instances())
    def test_trivial_upper_bound_is_feasible_cost(self, instance):
        from repro.fl.solution import FacilityLocationSolution

        everything = FacilityLocationSolution.from_open_set(
            instance, range(instance.num_facilities)
        )
        assert everything.cost == pytest.approx(instance.trivial_upper_bound())


class TestSerializationRoundTrip:
    @_SETTINGS
    @given(instances())
    def test_json_round_trip(self, instance):
        assert instance_from_dict(instance_to_dict(instance)) == instance


class TestSolverFeasibility:
    @_SETTINGS
    @given(instances())
    def test_greedy_feasible_and_bounded(self, instance):
        solution = greedy_solve(instance)
        solution.validate()
        # Greedy's guarantee is H_n * OPT; the trivial open-everything cost
        # upper-bounds OPT (greedy can exceed the trivial bound itself,
        # because it never reassigns clients of earlier stars).
        harmonic = math.log(instance.num_clients) + 1.0
        assert solution.cost <= harmonic * instance.trivial_upper_bound() + 1e-9

    @_SETTINGS
    @given(instances())
    def test_jv_feasible(self, instance):
        jain_vazirani_solve(instance).validate()

    @_SETTINGS
    @given(instances(), st.integers(min_value=1, max_value=12))
    def test_distributed_greedy_feasible(self, instance, k):
        result = solve_distributed(instance, k=k, seed=0)
        assert result.feasible
        result.solution.validate()

    @_SETTINGS
    @given(instances(), st.integers(min_value=1, max_value=8))
    def test_distributed_dual_feasible(self, instance, k):
        result = solve_distributed(instance, k=k, variant=Variant.DUAL_ASCENT, seed=0)
        assert result.feasible
        result.solution.validate()


class TestLPSandwich:
    @_SETTINGS
    @given(instances(max_facilities=5, max_clients=8))
    def test_lp_lower_bounds_every_solver(self, instance):
        lp = solve_lp(instance)
        tolerance = 1e-6 * max(1.0, abs(lp.value)) + 1e-9
        assert greedy_solve(instance).cost >= lp.value - tolerance
        assert (
            solve_distributed(instance, k=4, seed=0).cost >= lp.value - tolerance
        )


class TestEquivalenceProperty:
    @_SETTINGS
    @given(
        instances(max_facilities=5, max_clients=8),
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=0, max_value=50),
    )
    def test_sequential_matches_distributed(self, instance, k, seed):
        distributed = solve_distributed(instance, k=k, seed=seed)
        sequential = run_sequential(instance, k=k, seed=seed)
        assert sequential.open_facilities == distributed.open_facilities
        assert sequential.assignment == distributed.solution.assignment


class TestColumnarConversion:
    @settings(_SETTINGS, max_examples=60, derandomize=True)
    @given(tied_instances(), st.randoms(use_true_random=False))
    @example(
        FacilityLocationInstance([1.0], [[0.0, 0.0, 1.0, 2.0, 0.0]]),
        random.Random(0),
    )
    @example(
        FacilityLocationInstance([0.0, 1.0, 1.0], [[1.0], [1.0], [math.inf]]),
        random.Random(1),
    )
    def test_from_instance_equals_from_edges(self, instance, rng):
        costs = instance.connection_costs
        fac, cli = np.nonzero(np.isfinite(costs))
        order = rng.sample(range(fac.size), fac.size)  # edge lists come unsorted
        dense = ColumnarInstance.from_instance(instance)
        edges = ColumnarInstance.from_edges(
            instance.opening_costs, fac[order], cli[order], costs[fac, cli][order],
            num_clients=instance.num_clients, name=instance.name,
        )
        for field in dataclasses.fields(ColumnarInstance):
            left, right = getattr(dense, field.name), getattr(edges, field.name)
            if isinstance(left, np.ndarray):
                assert left.dtype == right.dtype, field.name
                assert np.array_equal(left, right), field.name
            else:
                assert left == right, field.name


class TestMessageBits:
    @_SETTINGS
    @given(st.integers(min_value=0, max_value=2**62))
    def test_int_bits_logarithmic(self, value):
        bits = scalar_bits(value)
        assert bits >= 2
        assert bits <= 2 + math.ceil(math.log2(value + 2))

    @_SETTINGS
    @given(st.integers(min_value=0, max_value=2**30))
    def test_negation_costs_the_same(self, value):
        assert scalar_bits(value) == scalar_bits(-value)


class TestScheduleProperty:
    @_SETTINGS
    @given(instances(), st.integers(min_value=1, max_value=400))
    def test_schedule_covers_k(self, instance, k):
        params = TradeoffParameters.from_instance(instance, k)
        assert params.num_iterations >= k
        assert params.num_scales <= math.ceil(math.sqrt(k))
        # Thresholds are monotone and end exactly at eff_max.
        previous = 0.0
        for scale in range(1, params.num_scales + 1):
            threshold = params.threshold(scale)
            assert threshold >= previous
            previous = threshold
        assert previous == pytest.approx(params.eff_max)
