"""Unit tests for repro.net.topology."""

from __future__ import annotations

import pytest

from repro.exceptions import SimulationError
from repro.net.topology import Topology


class TestBuilders:
    def test_complete(self):
        topology = Topology.complete(4)
        assert topology.num_nodes == 4
        assert topology.num_edges == 6
        assert topology.max_degree() == 3

    def test_ring(self):
        topology = Topology.ring(5)
        assert topology.num_edges == 5
        assert all(topology.degree(u) == 2 for u in range(5))

    def test_ring_too_small(self):
        with pytest.raises(SimulationError):
            Topology.ring(2)

    def test_path(self):
        topology = Topology.path(4)
        assert topology.num_edges == 3
        assert topology.degree(0) == 1
        assert topology.degree(1) == 2

    def test_star(self):
        topology = Topology.star(6)
        assert topology.num_nodes == 7
        assert topology.degree(0) == 6
        assert topology.diameter() == 2

    def test_neighbor_order_is_the_sorted_neighbor_set(self):
        topology = Topology(6, [(5, 0), (0, 3), (2, 0), (4, 5)])
        for node in range(6):
            order = topology.neighbor_order(node)
            assert order == tuple(sorted(topology.neighbors(node)))
        assert topology.neighbor_order(0) == (2, 3, 5)
        assert topology.neighbor_order(1) == ()

    def test_from_instance(self, incomplete_instance):
        topology = Topology.from_instance(incomplete_instance)
        m = incomplete_instance.num_facilities
        assert topology.num_nodes == incomplete_instance.num_nodes
        assert topology.num_edges == incomplete_instance.num_edges
        # Client 2 (node m+2) reaches facilities 0 and 1.
        assert topology.neighbors(m + 2) == frozenset({0, 1})
        # Facility 2 only reaches client 3.
        assert topology.neighbors(2) == frozenset({m + 3})


class TestValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(SimulationError, match="self-loop"):
            Topology(3, [(1, 1)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(SimulationError, match="out of range"):
            Topology(3, [(0, 5)])

    def test_rejects_empty(self):
        with pytest.raises(SimulationError):
            Topology(0, [])


class TestMeasures:
    def test_connected_components(self):
        topology = Topology(5, [(0, 1), (2, 3)])
        components = sorted(topology.connected_components(), key=min)
        assert components == [
            frozenset({0, 1}),
            frozenset({2, 3}),
            frozenset({4}),
        ]
        assert not topology.is_connected()

    def test_is_connected(self):
        assert Topology.path(4).is_connected()

    def test_diameter_of_path(self):
        assert Topology.path(5).diameter() == 4

    def test_diameter_of_disconnected_graph(self):
        topology = Topology(5, [(0, 1), (1, 2), (3, 4)])
        assert topology.diameter() == 2  # largest component-local diameter

    def test_eccentricity(self):
        topology = Topology.path(5)
        assert topology.eccentricity(0) == 4
        assert topology.eccentricity(2) == 2

    def test_iter_edges_each_once(self):
        topology = Topology.complete(4)
        edges = list(topology.iter_edges())
        assert len(edges) == 6
        assert all(u < v for u, v in edges)

    def test_has_edge(self):
        topology = Topology.path(3)
        assert topology.has_edge(0, 1)
        assert topology.has_edge(1, 0)
        assert not topology.has_edge(0, 2)
