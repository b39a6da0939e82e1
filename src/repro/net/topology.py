"""Communication topologies for the simulator.

A :class:`Topology` is an undirected graph over integer node identifiers
``0 .. num_nodes-1``. For facility location the canonical topology is the
bipartite facility/client graph of the instance
(:meth:`Topology.from_instance`): facilities take identifiers
``0 .. m-1`` and client ``j`` takes identifier ``m + j``. Helper builders
for rings, paths, stars and complete graphs exist for simulator tests.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator

from repro.exceptions import SimulationError
from repro.fl.instance import FacilityLocationInstance

__all__ = ["Topology"]


class Topology:
    """An immutable undirected graph of simulator nodes."""

    def __init__(self, num_nodes: int, edges: Iterable[tuple[int, int]]) -> None:
        if num_nodes <= 0:
            raise SimulationError("a topology needs at least one node")
        adjacency: list[set[int]] = [set() for _ in range(num_nodes)]
        for u, v in edges:
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise SimulationError(
                    f"edge ({u}, {v}) out of range for {num_nodes} nodes"
                )
            if u == v:
                raise SimulationError(f"self-loop on node {u} is not allowed")
            adjacency[u].add(v)
            adjacency[v].add(u)
        self._adopt([tuple(sorted(s)) for s in adjacency])

    def _adopt(self, neighbor_order: list[tuple[int, ...]]) -> None:
        """Take each node's neighbors, already sorted by increasing id.

        The one place a topology's state is built: ``__init__`` sorts its
        edge sets into this form, :meth:`from_instance` reads it off the
        instance's adjacency.
        """
        self._neighbor_order = tuple(neighbor_order)
        self._adjacency = tuple(frozenset(order) for order in neighbor_order)

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------

    @classmethod
    def from_instance(cls, instance: FacilityLocationInstance) -> "Topology":
        """Bipartite communication graph of a facility-location instance.

        Facility ``i`` is node ``i``; client ``j`` is node
        ``instance.num_facilities + j``. There is a link exactly where the
        instance has a (finite-cost) edge — matching the paper's model in
        which a client can talk to precisely the facilities it could use.
        """
        m = instance.num_facilities
        # The instance's adjacency tuples are already in increasing order.
        order = [
            tuple(m + j for j in instance.clients_of_facility(i)) for i in range(m)
        ]
        order.extend(
            instance.facilities_of_client(j) for j in range(instance.num_clients)
        )
        topology = cls.__new__(cls)
        topology._adopt(order)
        return topology

    @classmethod
    def complete(cls, num_nodes: int) -> "Topology":
        """Complete graph on ``num_nodes`` nodes."""
        edges = (
            (u, v) for u in range(num_nodes) for v in range(u + 1, num_nodes)
        )
        return cls(num_nodes, edges)

    @classmethod
    def ring(cls, num_nodes: int) -> "Topology":
        """Cycle on ``num_nodes >= 3`` nodes."""
        if num_nodes < 3:
            raise SimulationError("a ring needs at least 3 nodes")
        edges = ((u, (u + 1) % num_nodes) for u in range(num_nodes))
        return cls(num_nodes, edges)

    @classmethod
    def path(cls, num_nodes: int) -> "Topology":
        """Path on ``num_nodes`` nodes."""
        edges = ((u, u + 1) for u in range(num_nodes - 1))
        return cls(num_nodes, edges)

    @classmethod
    def star(cls, num_leaves: int) -> "Topology":
        """Star with center 0 and ``num_leaves`` leaves."""
        edges = ((0, v) for v in range(1, num_leaves + 1))
        return cls(num_leaves + 1, edges)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._adjacency)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return sum(len(s) for s in self._adjacency) // 2

    def neighbors(self, node: int) -> frozenset[int]:
        """The neighbor set of ``node``."""
        return self._adjacency[node]

    def neighbor_order(self, node: int) -> tuple[int, ...]:
        """The neighbors of ``node`` in increasing id order (sorted once,
        when the topology is built; broadcasts walk this tuple)."""
        return self._neighbor_order[node]

    def degree(self, node: int) -> int:
        """Degree of ``node``."""
        return len(self._adjacency[node])

    def max_degree(self) -> int:
        """Maximum degree over all nodes."""
        return max(len(s) for s in self._adjacency)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether nodes ``u`` and ``v`` are linked."""
        return v in self._adjacency[u]

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected edge once, as ``(u, v)`` with ``u < v``."""
        for u, nbrs in enumerate(self._adjacency):
            for v in nbrs:
                if u < v:
                    yield u, v

    # ------------------------------------------------------------------
    # Graph measures
    # ------------------------------------------------------------------

    def connected_components(self) -> list[frozenset[int]]:
        """Connected components, each as a frozenset of node ids."""
        seen: set[int] = set()
        components: list[frozenset[int]] = []
        for start in range(self.num_nodes):
            if start in seen:
                continue
            component = {start}
            queue = deque([start])
            while queue:
                u = queue.popleft()
                for v in self._adjacency[u]:
                    if v not in component:
                        component.add(v)
                        queue.append(v)
            seen |= component
            components.append(frozenset(component))
        return components

    def is_connected(self) -> bool:
        """Whether the graph is a single connected component."""
        return len(self.connected_components()) == 1

    def eccentricity(self, node: int) -> int:
        """Greatest BFS distance from ``node`` within its component."""
        dist = {node: 0}
        queue = deque([node])
        far = 0
        while queue:
            u = queue.popleft()
            for v in self._adjacency[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    far = max(far, dist[v])
                    queue.append(v)
        return far

    def diameter(self) -> int:
        """Maximum eccentricity over all nodes, per component.

        For disconnected graphs this returns the largest component-local
        diameter (distances across components are undefined rather than
        infinite, matching how component-local protocols behave).
        """
        return max(self.eccentricity(u) for u in range(self.num_nodes))

    def __repr__(self) -> str:
        return f"Topology(nodes={self.num_nodes}, edges={self.num_edges})"
