"""The uncapacitated facility-location instance model.

An instance consists of ``m`` facilities and ``n`` clients. Facility ``i``
has a non-negative *opening cost* ``f_i``. Client ``j`` may connect to
facility ``i`` only if the bipartite graph has the edge ``(i, j)``; doing so
costs the non-negative *connection cost* ``c_ij``. A solution opens a subset
of facilities and assigns every client to an open facility along an existing
edge; its cost is the sum of the opening costs of the open facilities plus
the connection costs of the assignments.

The bipartite edge structure doubles as the *communication network* of the
distributed model (PODC 2005): a facility and a client can exchange messages
exactly when the client could connect to that facility.

Connection costs are stored densely as an ``(m, n)`` float array in which
missing edges are ``numpy.inf``. This is the natural representation for the
instance sizes this reproduction targets (up to a few thousand nodes) and
keeps every cost query vectorizable.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import InvalidInstanceError

__all__ = ["FacilityLocationInstance", "DEFAULT_METRIC_TOLERANCE"]

#: Relative tolerance used by :meth:`FacilityLocationInstance.is_metric`.
DEFAULT_METRIC_TOLERANCE = 1e-9


class FacilityLocationInstance:
    """An uncapacitated facility-location instance.

    Parameters
    ----------
    opening_costs:
        Sequence of ``m`` non-negative, finite opening costs.
    connection_costs:
        An ``(m, n)`` array-like of non-negative connection costs.
        ``numpy.inf`` entries mark absent edges. Every client must have at
        least one finite entry, otherwise the instance is infeasible and
        :class:`~repro.exceptions.InvalidInstanceError` is raised.
    name:
        Optional human-readable label carried through results and tables.

    Notes
    -----
    Instances are immutable: the cost arrays are copied on construction and
    marked read-only. All derived quantities (adjacency lists, cost spread,
    cheapest connections) are computed lazily and cached.
    """

    def __init__(
        self,
        opening_costs: Sequence[float] | np.ndarray,
        connection_costs: Sequence[Sequence[float]] | np.ndarray,
        name: str = "unnamed",
    ) -> None:
        f = np.asarray(opening_costs, dtype=float).copy()
        c = np.asarray(connection_costs, dtype=float).copy()
        _validate_costs(f, c)
        f.setflags(write=False)
        c.setflags(write=False)
        self._opening_costs = f
        self._connection_costs = c
        self._name = str(name)
        # Lazily computed caches.
        self._client_neighbors: list[tuple[int, ...]] | None = None
        self._facility_neighbors: list[tuple[int, ...]] | None = None
        self._cheapest_connection: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        opening_costs: Sequence[float],
        edges: Iterable[tuple[int, int, float]],
        num_clients: int,
        name: str = "unnamed",
    ) -> "FacilityLocationInstance":
        """Build an instance from an explicit edge list.

        Parameters
        ----------
        opening_costs:
            Opening cost per facility; its length fixes ``m``.
        edges:
            Iterable of ``(facility, client, cost)`` triples. Repeated
            edges keep the cheapest cost.
        num_clients:
            Number of clients ``n`` (clients with no edge trigger a
            validation error, exactly as in the dense constructor).
        """
        m = len(opening_costs)
        c = np.full((m, num_clients), np.inf)
        for i, j, cost in edges:
            if not 0 <= i < m:
                raise InvalidInstanceError(f"facility index {i} out of range [0, {m})")
            if not 0 <= j < num_clients:
                raise InvalidInstanceError(
                    f"client index {j} out of range [0, {num_clients})"
                )
            c[i, j] = min(c[i, j], float(cost))
        return cls(opening_costs, c, name=name)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        """Human-readable instance label."""
        return self._name

    @property
    def num_facilities(self) -> int:
        """Number of facilities ``m``."""
        return int(self._opening_costs.shape[0])

    @property
    def num_clients(self) -> int:
        """Number of clients ``n``."""
        return int(self._connection_costs.shape[1])

    @property
    def num_nodes(self) -> int:
        """Total node count ``N = m + n`` of the communication network."""
        return self.num_facilities + self.num_clients

    @property
    def opening_costs(self) -> np.ndarray:
        """Read-only ``(m,)`` array of opening costs."""
        return self._opening_costs

    @property
    def connection_costs(self) -> np.ndarray:
        """Read-only ``(m, n)`` array of connection costs (inf = no edge)."""
        return self._connection_costs

    def opening_cost(self, facility: int) -> float:
        """Opening cost ``f_i`` of one facility."""
        return float(self._opening_costs[facility])

    def connection_cost(self, facility: int, client: int) -> float:
        """Connection cost ``c_ij`` (``inf`` when the edge is absent)."""
        return float(self._connection_costs[facility, client])

    def has_edge(self, facility: int, client: int) -> bool:
        """Whether client ``client`` may connect to facility ``facility``."""
        return bool(np.isfinite(self._connection_costs[facility, client]))

    @property
    def num_edges(self) -> int:
        """Number of facility-client edges."""
        return int(np.isfinite(self._connection_costs).sum())

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------

    def facilities_of_client(self, client: int) -> tuple[int, ...]:
        """Facilities adjacent to ``client``, in increasing index order."""
        if self._client_neighbors is None:
            finite = np.isfinite(self._connection_costs)
            self._client_neighbors = [
                tuple(np.flatnonzero(finite[:, j]).tolist())
                for j in range(self.num_clients)
            ]
        return self._client_neighbors[client]

    def clients_of_facility(self, facility: int) -> tuple[int, ...]:
        """Clients adjacent to ``facility``, in increasing index order."""
        if self._facility_neighbors is None:
            finite = np.isfinite(self._connection_costs)
            self._facility_neighbors = [
                tuple(np.flatnonzero(finite[i, :]).tolist())
                for i in range(self.num_facilities)
            ]
        return self._facility_neighbors[facility]

    def iter_edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield every edge as ``(facility, client, cost)``."""
        rows, cols = np.nonzero(np.isfinite(self._connection_costs))
        for i, j in zip(rows.tolist(), cols.tolist()):
            yield i, j, float(self._connection_costs[i, j])

    def is_complete_bipartite(self) -> bool:
        """Whether every client-facility pair is connected."""
        return bool(np.isfinite(self._connection_costs).all())

    # ------------------------------------------------------------------
    # Cost structure
    # ------------------------------------------------------------------

    def cheapest_connection(self, client: int) -> tuple[int, float]:
        """Cheapest edge of a client as ``(facility, cost)``.

        Ties are broken toward the smallest facility index, which keeps
        every algorithm in the repository deterministic for a fixed seed.
        """
        if self._cheapest_connection is None:
            self._cheapest_connection = np.argmin(self._connection_costs, axis=0)
        i = int(self._cheapest_connection[client])
        return i, float(self._connection_costs[i, client])

    def min_connection_costs(self) -> np.ndarray:
        """``(n,)`` array of each client's cheapest connection cost."""
        return np.min(self._connection_costs, axis=0)

    @property
    def max_finite_cost(self) -> float:
        """Largest cost appearing in the instance (opening or connection)."""
        c = self._connection_costs[np.isfinite(self._connection_costs)]
        candidates = [float(self._opening_costs.max(initial=0.0))]
        if c.size:
            candidates.append(float(c.max()))
        return max(candidates)

    @property
    def min_positive_cost(self) -> float:
        """Smallest strictly positive cost in the instance.

        Returns 1.0 when every cost is zero, so that ratios built on top of
        this quantity stay finite on degenerate all-zero instances.
        """
        c = self._connection_costs[np.isfinite(self._connection_costs)]
        values = np.concatenate([self._opening_costs, c])
        positive = values[values > 0]
        if positive.size == 0:
            return 1.0
        return float(positive.min())

    @property
    def rho(self) -> float:
        """Cost-spread coefficient ``rho`` of the instance.

        Defined as the ratio between the largest cost and the smallest
        strictly positive cost (both opening and connection costs are
        considered). This is the coefficient appearing in the paper's
        approximation bound ``O(sqrt(k) (m rho)^(1/sqrt k) log(m+n))``.
        Instances whose costs are all zero have ``rho = 1``.
        """
        top = self.max_finite_cost
        if top <= 0:
            return 1.0
        return max(1.0, top / self.min_positive_cost)

    @property
    def gamma(self) -> float:
        """Trade-off coefficient ``Gamma = m * rho`` used by the algorithm."""
        return max(2.0, self.num_facilities * self.rho)

    def total_opening_cost(self) -> float:
        """Sum of all opening costs (trivial upper bound contribution)."""
        return float(self._opening_costs.sum())

    def trivial_upper_bound(self) -> float:
        """Cost of the solution that opens every facility.

        Opening all facilities and connecting each client to its cheapest
        neighbor is always feasible, so this value upper-bounds the optimum
        and is used as a sanity envelope in tests.
        """
        return self.total_opening_cost() + float(self.min_connection_costs().sum())

    # ------------------------------------------------------------------
    # Metric structure
    # ------------------------------------------------------------------

    def is_metric(self, tolerance: float = DEFAULT_METRIC_TOLERANCE) -> bool:
        """Whether connection costs satisfy the bipartite metric condition.

        For facility location the relevant triangle inequality is

            ``c[i, j] <= c[i, l] + c[k, l] + c[k, j]``

        for all facilities ``i, k`` and clients ``j, l`` (a client can be
        reached by detouring through another client and facility). Absent
        edges (``inf``) make the left side vacuous whenever the right side
        is also infinite.

        The check is O(m^2 n^2) (as numpy array operations) and intended for tests and
        small instances; generators tag their own output instead of calling
        this on every instance.
        """
        c = self._connection_costs
        if not np.isfinite(c).all():
            # Treat missing edges as infinite distances; the inequality must
            # then hold wherever the right-hand side is finite.
            pass
        # detour[i, k, j] = min over l of c[i, l] + c[k, l]  (shape m x m x n)
        # computed as min_l (c[i, l] + c[k, l]) then + c[k, j]
        m, n = c.shape
        # pairwise facility-facility distance through the best shared client
        with np.errstate(invalid="ignore"):
            through = np.full((m, m), np.inf)
            for l in range(n):
                col = c[:, l]
                through = np.minimum(through, col[:, None] + col[None, :])
            bound = through[:, :, None] + c[None, :, :]
            best = bound.min(axis=1)  # over k -> (m, n)
        slack = c - best
        finite = np.isfinite(best)
        scale = np.where(np.isfinite(c), np.abs(c), 0.0) + 1.0
        return bool((slack[finite] <= tolerance * scale[finite]).all())

    # ------------------------------------------------------------------
    # Derived instances
    # ------------------------------------------------------------------

    def restrict_to_clients(self, clients: Sequence[int]) -> "FacilityLocationInstance":
        """Sub-instance keeping only the given clients (facilities kept)."""
        clients = list(clients)
        c = self._connection_costs[:, clients]
        return FacilityLocationInstance(
            self._opening_costs, c, name=f"{self._name}|clients={len(clients)}"
        )

    def with_opening_costs(
        self, opening_costs: Sequence[float]
    ) -> "FacilityLocationInstance":
        """Copy of the instance with replaced opening costs."""
        return FacilityLocationInstance(
            opening_costs, self._connection_costs, name=self._name
        )

    def scaled(self, factor: float) -> "FacilityLocationInstance":
        """Copy with every cost multiplied by ``factor`` (> 0)."""
        if not (factor > 0 and math.isfinite(factor)):
            raise InvalidInstanceError(f"scale factor must be positive, got {factor}")
        return FacilityLocationInstance(
            self._opening_costs * factor,
            self._connection_costs * factor,
            name=f"{self._name}*{factor:g}",
        )

    def with_demands(self, demands: Sequence[float]) -> "FacilityLocationInstance":
        """Copy in which client ``j`` carries demand ``d_j``.

        In the demand-weighted problem a client's connection cost is paid
        per unit of demand, i.e. serving ``j`` from ``i`` costs
        ``d_j * c_ij``. Folding the demand into the cost matrix reduces
        the weighted problem to the unit-demand one exactly, so every
        algorithm in this repository applies unchanged; this helper
        performs that fold (demands must be positive and finite).
        """
        d = np.asarray(demands, dtype=float)
        if d.shape != (self.num_clients,):
            raise InvalidInstanceError(
                f"need one demand per client: shape {d.shape} != "
                f"({self.num_clients},)"
            )
        if not (np.isfinite(d).all() and (d > 0).all()):
            raise InvalidInstanceError("demands must be positive and finite")
        return FacilityLocationInstance(
            self._opening_costs,
            self._connection_costs * d[None, :],
            name=f"{self._name}|demands",
        )

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FacilityLocationInstance):
            return NotImplemented
        return (
            self._opening_costs.shape == other._opening_costs.shape
            and self._connection_costs.shape == other._connection_costs.shape
            and bool(np.array_equal(self._opening_costs, other._opening_costs))
            and bool(
                np.array_equal(
                    self._connection_costs,
                    other._connection_costs,
                )
            )
        )

    def __repr__(self) -> str:
        return (
            f"FacilityLocationInstance(name={self._name!r}, "
            f"m={self.num_facilities}, n={self.num_clients}, "
            f"edges={self.num_edges}, rho={self.rho:.3g})"
        )


def _validate_costs(opening_costs: np.ndarray, connection_costs: np.ndarray) -> None:
    """Raise :class:`InvalidInstanceError` unless the cost arrays are valid."""
    if opening_costs.ndim != 1:
        raise InvalidInstanceError(
            f"opening_costs must be 1-D, got shape {opening_costs.shape}"
        )
    if connection_costs.ndim != 2:
        raise InvalidInstanceError(
            f"connection_costs must be 2-D, got shape {connection_costs.shape}"
        )
    m = opening_costs.shape[0]
    if m == 0:
        raise InvalidInstanceError("an instance needs at least one facility")
    if connection_costs.shape[0] != m:
        raise InvalidInstanceError(
            "connection_costs row count "
            f"{connection_costs.shape[0]} != number of facilities {m}"
        )
    if connection_costs.shape[1] == 0:
        raise InvalidInstanceError("an instance needs at least one client")
    if np.isnan(opening_costs).any() or np.isinf(opening_costs).any():
        raise InvalidInstanceError("opening costs must be finite")
    if (opening_costs < 0).any():
        raise InvalidInstanceError("opening costs must be non-negative")
    if np.isnan(connection_costs).any():
        raise InvalidInstanceError("connection costs must not be NaN")
    finite = np.isfinite(connection_costs)
    if (connection_costs[finite] < 0).any():
        raise InvalidInstanceError("connection costs must be non-negative")
    uncovered = ~finite.any(axis=0)
    if uncovered.any():
        bad = np.flatnonzero(uncovered)[:5].tolist()
        raise InvalidInstanceError(
            f"clients {bad} have no reachable facility; the instance is infeasible"
        )
