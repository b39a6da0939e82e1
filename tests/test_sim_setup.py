"""Simulator set-up: the array-built topology and coins built on first draw.

``Topology.from_instance`` reads the instance's adjacency tuples instead of
feeding its edges through ``Topology(num_nodes, edges)``; both must give
every node the same neighbors. A node's generator is ``node_rng(seed,
node_id)``, built only when the node first draws and rebuilt for the seed
of whichever simulator binds the node last.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.net.node as node_module
from repro.core.algorithm import DistributedFacilityLocation
from repro.core.columnar import ColumnarInstance
from repro.core.dual_ascent_nodes import RoundingPolicy
from repro.fl.generators import FAMILIES, make_instance
from repro.net.rng import node_rng
from repro.net.simulator import Simulator
from repro.net.topology import Topology
from repro.net.trace import Trace
from repro.obs.spans import Tracer


def _sparse(m: int, n: int, degree: int):
    return ColumnarInstance.generate_sparse(m, n, seed=5, client_degree=degree).to_instance()


INSTANCES = {
    **{family: make_instance(family, 7, 19, 3) for family in FAMILIES},
    "sparse_degree1": _sparse(20, 30, 1),
    "sparse_m1": _sparse(1, 6, 1),
    "sparse_n1": _sparse(6, 1, 2),
    "sparse_m1_n1": _sparse(1, 1, 1),
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_from_instance_matches_the_edge_list_topology(name):
    instance = INSTANCES[name]
    m = instance.num_facilities
    rows, cols = np.nonzero(np.isfinite(instance.connection_costs))
    edges = [(i, m + j) for i, j in zip(rows.tolist(), cols.tolist())]
    reference = Topology(instance.num_nodes, edges)
    built = Topology.from_instance(instance)
    assert built.num_nodes == reference.num_nodes
    assert built.num_edges == reference.num_edges == len(edges)
    for v in range(instance.num_nodes):
        assert built.neighbors(v) == reference.neighbors(v)
        assert type(built.neighbors(v)) is frozenset
        assert built.neighbor_order(v) == reference.neighbor_order(v)


@pytest.fixture
def built_streams(monkeypatch):
    """Node ids whose generator was built, in build order."""
    built: list[int] = []

    def counting(seed, node):
        built.append(node)
        return node_rng(seed, node)

    monkeypatch.setattr(node_module, "node_rng", counting)
    return built


def _run(simulator: Simulator, algo: DistributedFacilityLocation) -> Simulator:
    simulator.run(max_rounds=algo.round_budget())
    return simulator


def test_select_all_dual_run_builds_no_generator(built_streams):
    algo = DistributedFacilityLocation(
        make_instance("uniform", 8, 24, 1), 9, variant="dual_ascent", seed=4
    )
    simulator = _run(algo.build_simulator(), algo)
    assert built_streams == []
    assert all(node._rng is None for node in simulator.nodes)


def test_greedy_run_builds_generators_for_proposers_only(built_streams):
    trace = Trace()
    algo = DistributedFacilityLocation(
        make_instance("euclidean", 10, 30, 2), 9, seed=6, trace=trace
    )
    simulator = _run(algo.build_simulator(), algo)
    proposers = {event.node_id for event in trace.events("propose")}
    assert proposers
    assert sorted(built_streams) == sorted(proposers)
    assert {n.node_id for n in simulator.nodes if n._rng is not None} == proposers


@pytest.mark.parametrize("seed", [0, 3, 2**40 + 1])
def test_every_greedy_priority_is_the_node_rng_stream(seed):
    trace = Trace()
    algo = DistributedFacilityLocation(
        make_instance("clustered", 10, 30, 1), 16, seed=seed, trace=trace
    )
    algo.run()
    drawn: dict[int, list[float]] = {}
    for event in trace.events("propose"):
        drawn.setdefault(event.node_id, []).append(event.data["priority"])
    assert drawn
    for node_id, values in drawn.items():
        assert values == node_rng(seed, node_id).random(len(values)).tolist()


def test_every_rounding_coin_is_the_node_rng_stream():
    seed = 11
    trace = Trace()
    algo = DistributedFacilityLocation(
        make_instance("uniform", 10, 30, 4),
        9,
        variant="dual_ascent",
        seed=seed,
        rounding=RoundingPolicy("randomized", c_round=0.05),
        trace=trace,
    )
    algo.run()
    coins = trace.events("round_coin")
    assert coins
    for event in coins:
        draw = node_rng(seed, event.node_id).random()
        assert event.data["opens"] == bool(draw < event.data["probability"])


def test_rebound_nodes_draw_the_new_simulators_seed():
    trace = Trace()
    algo = DistributedFacilityLocation(
        make_instance("uniform", 10, 30, 2), 9, seed=1, trace=trace
    )
    first = algo.build_simulator()
    m = algo.instance.num_facilities
    # Advance every facility's seed-1 stream before the rebind.
    for node in first.nodes[:m]:
        assert node.rng.random() == node_rng(1, node.node_id).random()
    second = Simulator(first.topology, first.nodes, seed=2, trace=trace)
    _run(second, algo)
    drawn: dict[int, list[float]] = {}
    for event in trace.events("propose"):
        drawn.setdefault(event.node_id, []).append(event.data["priority"])
    assert drawn
    for node_id, values in drawn.items():
        assert values == node_rng(2, node_id).random(len(values)).tolist()
    fresh = DistributedFacilityLocation(algo.instance, 9, seed=2).run()
    opened = {n.node_id for n in second.nodes[:m] if n.is_open}
    assert opened == set(fresh.open_facilities)


def test_build_is_a_child_span_of_the_run():
    tracer = Tracer()
    DistributedFacilityLocation(
        make_instance("uniform", 6, 15, 1), 4, tracer=tracer
    ).run()
    spans = tracer.finished
    (run,) = [s for s in spans if s.name == "algo.run"]
    (build,) = [s for s in spans if s.name == "sim.build"]
    rounds = [s for s in spans if s.name == "sim.round"]
    assert build.parent_id == run.span_id
    assert rounds and all(s.parent_id == run.span_id for s in rounds)
    assert run.start_unix <= build.start_unix <= min(s.start_unix for s in rounds)
