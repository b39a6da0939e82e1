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
* the dense columnar conversion equals the edge-list one array for array,
  and the edge-list one equals a three-``lexsort`` reference byte for byte.
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
        sequential = solve_distributed(instance, k=k, seed=seed, engine="columnar")
        assert sequential.open_facilities == distributed.open_facilities
        assert sequential.solution.assignment == distributed.solution.assignment


@st.composite
def edge_lists(draw, duplicates: bool = False):
    """Shuffled (facility, client, cost) lists with tied and zero costs.

    Every client gets at least one edge (often exactly one); unless
    ``duplicates``, no (facility, client) pair repeats.
    """
    m = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=8))
    opening = draw(st.lists(st.sampled_from([0.0, 0.5, 2.0]), min_size=m, max_size=m))
    costs = st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.5])
    edges = []
    for j in range(n):
        facilities = st.lists(
            st.integers(min_value=0, max_value=m - 1),
            min_size=1,
            max_size=2 * m if duplicates else m,
            unique=not duplicates,
        )
        edges += [(i, j, draw(costs)) for i in draw(facilities)]
    return opening, draw(st.permutations(edges)), n


def _columns(edges):
    fac, cli, cost = zip(*edges)
    return np.array(fac), np.array(cli), np.array(cost, dtype=np.float64)


def _lexsort_plane(opening, fac, cli, cost, num_clients):
    """Reference: the plane as three ``lexsort``s over the edges build it."""
    opening = np.asarray(opening, dtype=np.float64)
    m = opening.size
    greedy = np.lexsort((cli, cost, fac))
    g_fac, g_cli, g_cost = fac[greedy], cli[greedy], cost[greedy]
    byc = np.lexsort((g_cli, g_fac))
    cli_edge = np.lexsort((g_fac, g_cli))
    return ColumnarInstance(
        m=m,
        n=num_clients,
        opening=opening,
        fac_ptr=np.concatenate(([0], np.cumsum(np.bincount(g_fac, minlength=m)))),
        g_fac=g_fac,
        g_cli=g_cli,
        g_cost=g_cost,
        byc_cli=g_cli[byc],
        byc_cost=g_cost[byc],
        cli_ptr=np.concatenate(([0], np.cumsum(np.bincount(g_cli, minlength=num_clients)))),
        cli_fac=g_fac[cli_edge],
        cli_cost=g_cost[cli_edge],
        cli_edge=cli_edge,
    )


def _assert_same_plane(left, right):
    for field in dataclasses.fields(ColumnarInstance):
        a, b = getattr(left, field.name), getattr(right, field.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype, field.name
            assert a.tobytes() == b.tobytes(), field.name
        else:
            assert a == b, field.name


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
        _assert_same_plane(dense, edges)

    @settings(_SETTINGS, max_examples=300, derandomize=True)
    @given(edge_lists())
    @example(([1.0], [(0, 0, 0.0)], 1))  # m = n = 1
    @example(([1.0], [(0, 2, 0.5), (0, 0, 0.5), (0, 1, 0.0)], 3))  # m = 1
    @example(([1.0, 0.0, 2.0], [(2, 0, 1.0), (0, 0, 1.0), (1, 0, -0.0)], 1))  # n = 1
    def test_from_edges_equals_lexsort_reference(self, case):
        opening, edges, n = case
        fac, cli, cost = _columns(edges)
        _assert_same_plane(
            ColumnarInstance.from_edges(opening, fac, cli, cost, num_clients=n),
            _lexsort_plane(opening, fac, cli, cost, n),
        )

    @settings(_SETTINGS, max_examples=100, derandomize=True)
    @given(edge_lists(duplicates=True))
    @example(([1.0], [(0, 0, 0.3), (0, 0, 0.9)], 1))
    def test_repeated_edges_keep_the_cheapest_cost(self, case):
        opening, edges, n = case
        cinst = ColumnarInstance.from_edges(opening, *_columns(edges), num_clients=n)
        dense = FacilityLocationInstance.from_edges(opening, edges, n)
        assert cinst.num_edges == np.isfinite(dense.connection_costs).sum()
        assert np.array_equal(cinst.to_instance().connection_costs, dense.connection_costs)


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
