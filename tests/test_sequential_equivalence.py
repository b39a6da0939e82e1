"""Cross-validation: the sequential emulation must match the message run.

These are the strongest correctness tests in the repository: two
independently written implementations of each protocol (message-passing
nodes vs. sequential emulation) must produce the *identical* open set and
assignment for every instance family, seed and trade-off parameter.
Every case runs under both sequential engines (the pure-Python loop
reference and the columnar numpy hot path), so the engines are also
cross-validated against each other through the same oracle.
"""

from __future__ import annotations

import pytest

from repro.core.algorithm import ENGINES, Variant, solve_distributed
from repro.core.dual_ascent_nodes import RoundingPolicy
from repro.fl.generators import make_instance


@pytest.fixture(params=[engine for engine in ENGINES if engine != "simulator"])
def engine(request):
    return request.param


def _assert_equivalent(instance, k, variant, seed, engine, rounding=None):
    kwargs = {"rounding": rounding} if rounding else {}
    distributed = solve_distributed(
        instance, k=k, variant=variant, seed=seed, **kwargs
    )
    sequential = solve_distributed(
        instance, k=k, variant=variant, seed=seed, engine=engine, **kwargs
    )
    assert distributed.feasible
    assert sequential.open_facilities == distributed.open_facilities
    assert sequential.solution.assignment == distributed.solution.assignment
    assert sequential.cost == pytest.approx(distributed.cost)


@pytest.mark.parametrize(
    "family", ["uniform", "euclidean", "clustered", "set_cover", "sparse"]
)
@pytest.mark.parametrize("k", [1, 4, 9])
def test_greedy_equivalence_across_families(family, k, engine):
    instance = make_instance(family, 8, 22, seed=13)
    _assert_equivalent(instance, k, Variant.GREEDY, seed=3, engine=engine)


@pytest.mark.parametrize("seed", range(6))
def test_greedy_equivalence_across_seeds(seed, engine):
    instance = make_instance("uniform", 10, 25, seed=4)
    _assert_equivalent(instance, 9, Variant.GREEDY, seed=seed, engine=engine)


@pytest.mark.parametrize(
    "family", ["uniform", "euclidean", "set_cover", "sparse"]
)
@pytest.mark.parametrize("k", [1, 3, 8])
def test_dual_equivalence_across_families(family, k, engine):
    instance = make_instance(family, 8, 22, seed=13)
    _assert_equivalent(instance, k, Variant.DUAL_ASCENT, seed=3, engine=engine)


@pytest.mark.parametrize("c_round", [0.05, 0.5, 2.0])
@pytest.mark.parametrize("seed", [0, 4])
def test_dual_equivalence_with_randomized_rounding(c_round, seed, engine):
    instance = make_instance("uniform", 10, 25, seed=4)
    policy = RoundingPolicy(mode="randomized", c_round=c_round)
    _assert_equivalent(
        instance, 6, Variant.DUAL_ASCENT, seed=seed, engine=engine,
        rounding=policy,
    )


def test_equivalence_on_larger_instance(engine):
    instance = make_instance("clustered", 16, 64, seed=21)
    _assert_equivalent(instance, 16, Variant.GREEDY, seed=7, engine=engine)
    _assert_equivalent(instance, 16, Variant.DUAL_ASCENT, seed=7, engine=engine)


@pytest.mark.parametrize("open_fraction", [0.0, 0.25, 0.75, 1.0])
def test_greedy_equivalence_with_opening_rule(open_fraction, engine):
    instance = make_instance("set_cover", 10, 25, seed=4)
    distributed = solve_distributed(
        instance, k=9, seed=3, open_fraction=open_fraction
    )
    sequential = solve_distributed(
        instance, k=9, seed=3, open_fraction=open_fraction, engine=engine
    )
    assert distributed.feasible
    assert sequential.open_facilities == distributed.open_facilities
    assert sequential.solution.assignment == distributed.solution.assignment


@pytest.mark.parametrize("variant", [Variant.GREEDY, Variant.DUAL_ASCENT])
@pytest.mark.parametrize(
    "family", ["uniform", "euclidean", "clustered", "grid", "set_cover", "sparse"]
)
def test_engines_bit_identical(variant, family):
    """The two engines must agree exactly — schedule, sets, maps, and
    summed cost — though the loop derives its schedule on the dense
    matrix and columnar on the edge plane."""
    instance = make_instance(family, 12, 40, seed=5)
    for seed in range(3):
        loop = solve_distributed(
            instance, k=9, variant=variant, seed=seed, engine="loop"
        )
        columnar = solve_distributed(
            instance, k=9, variant=variant, seed=seed, engine="columnar"
        )
        assert loop.params == columnar.params
        assert loop.open_facilities == columnar.open_facilities
        assert loop.solution.assignment == columnar.solution.assignment
        assert loop.cost == columnar.cost
        # Columnar carries the ledger's modeled traffic; loop sends nothing.
        assert columnar.metrics.rounds > 0


def test_unknown_engine_rejected():
    from repro.exceptions import AlgorithmError

    instance = make_instance("uniform", 6, 15, seed=1)
    with pytest.raises(AlgorithmError, match="unknown engine 'warp'"):
        solve_distributed(instance, k=4, engine="warp")
