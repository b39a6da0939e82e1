"""Columnar sharded execution engine for both protocol variants.

The object-graph simulator and the loop emulation top out well below a
million nodes: they spend their time on per-node Python objects, and
every dense representation materializes an ``(m, n)`` cost matrix that
costs ``8 m n`` bytes regardless of how sparse the bipartite graph
actually is. This module re-implements the protocol semantics as the
repo's one fast path, from small dense instances up to million-node
sparse ones:

* **Columnar state.** All per-node state — facility open flags, client
  active/assignment state, duals, alpha levels, freeze flags — lives in
  flat numpy buffers indexed by node id. The message plane is columnar
  too: instead of per-node inbox lists, every facility⇄client edge is one
  slot in CSR-style edge arrays with offset/count indexing
  (:class:`ColumnarInstance`), and a protocol "message" is a flag or
  value written into an edge column (e.g. the per-iteration ``member``
  proposal plane) that the receiving side gathers through a permutation.
* **Sharding.** One instance's node range splits across worker processes.
  Every worker owns one facility slice and one client slice, runs the
  same slice-parametric kernels the in-process path runs, and
  synchronizes on a per-phase barrier. The read-only edge plane is
  inherited through ``fork`` (copy-on-write, never written, so never
  copied); only the mutable state arrays live in one
  ``multiprocessing.shared_memory`` segment. The cross-shard "message
  exchange" is exactly the bucketed ndarray scatter/gather through that
  state — facility shards write their edge slices of the per-edge flag
  columns, client shards gather them through the client-order
  permutation after the barrier.
* **Bounded working set that follows the frontier.** Every phase walks
  its slice in fixed-size blocks: facility blocks of about
  :data:`_FACILITY_BLOCK_EDGES` edges, each with its own degree-padded
  2-D columns, and client blocks of :data:`_CLIENT_BLOCK` clients.
  Per-phase temporaries are sized by a block, not by the edge count.
  Greedy's facility and offer phases narrow their blocks to the active
  clients: each time the active-client count has halved since the last
  rebuild, every facility block's padded view is rebuilt over its
  active clients' edges and every client block keeps only its active
  clients' ``cli_*`` slots, so their work tracks the active edges, not
  all of them. Dual ascent skips a level's alpha, facility and freeze
  phases once every client is frozen, since nothing can move after
  that. Barriers and snapshots never change, so the ledger and the
  recorder see every round.

**Determinism contract.** The loop engine stays the small-scale oracle,
and this engine must match it *bit for bit* — same open sets, same
assignments, same coin flips, same recorder digests — at every shard
count:

* The per-facility prefix sums of the greedy star search are computed on
  a degree-padded 2-D array with ``numpy.cumsum`` (fee in column 0, one
  edge per subsequent column in (cost, client id) order). Inactive slots
  contribute exact ``0.0`` terms, which IEEE addition absorbs exactly
  for the non-negative partial sums that occur here, so the prefix
  values equal the loop engine's running ``total += cost`` sums at every
  active-edge position. Narrowing a view drops only such slots and keeps
  the rest in order, so it changes no prefix value; absent slots sit
  past each row's last edge and are never read.
* First-extremum tie-breaks (the loop engine's ``(priority, -i)`` /
  ``(cost, i)`` keys) become two-pass segment reductions: a ``reduceat``
  for the extreme value, then a ``reduceat`` over facility ids restricted
  to edges attaining it — the minimum id among ties, which is exactly
  what a first-extremum scan returns.
* Coin flips come from the same per-node ``SeedSequence`` streams
  (:func:`~repro.net.rng.node_rng`), held for a whole facility slice by
  one :class:`~repro.net.rng.CoinPlane` per shard: numpy ``uint64``
  limbs that reproduce each stream's ``random()`` bit for bit, built on
  the slice's first draw (``select_all`` rounding never draws). Only
  facilities ever draw. Each row advances only on its own draws, so the
  values are independent of blocks and shards.
* Blocks never reorder arithmetic either: row-wise ``cumsum``,
  per-segment ``reduceat``, min/max reductions and integer ``bincount``
  sums give the same result whichever block a row or segment lands in.
* Shard boundaries never reorder arithmetic: every kernel reads shared
  state only between barriers and writes only its own slice (plus
  idempotent single-byte ``True`` scatters in the two force/join apply
  phases, which are race-free and order-independent).

``tests/test_columnar.py`` enforces the contract — solutions and
FlightRecorder digests — against the loop oracle at shards 1 and 4.
"""

from __future__ import annotations

import math
import multiprocessing
import multiprocessing.connection
import time
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Callable

import numpy as np

from repro.core.algorithm import Variant
from repro.core.dual_ascent_nodes import RoundingPolicy
from repro.core.parameters import TradeoffParameters
from repro.exceptions import AlgorithmError
from repro.fl.instance import FacilityLocationInstance
from repro.net.columnar import ColumnarBitLedger
from repro.net.rng import CoinPlane

__all__ = [
    "ColumnarInstance",
    "ColumnarSolveResult",
    "columnar_efficiency_range",
    "columnar_parameters",
    "solve_columnar",
]

#: Test-only perturbation hook mirroring
#: :data:`repro.core.sequential_sim._TEST_DUAL_ALPHA_RAISE_HOOK`: when set
#: to a callable ``(level, client, value) -> value``, every dual alpha
#: raise in the *in-process* columnar path passes through it. Tests
#: monkeypatch it to force a single mis-raise on the columnar plane and
#: assert that ``repro divergence`` pinpoints exactly that level and
#: client. Never set in production (and never forwarded to shard workers).
_TEST_COLUMNAR_DUAL_ALPHA_RAISE_HOOK: Callable[[int, int, float], float] | None = None

#: A barrier wait exceeding this is treated as a dead shard, not a slow one.
_BARRIER_TIMEOUT_S = 600.0

#: Edges per facility block (a block always holds at least one facility).
_FACILITY_BLOCK_EDGES = 1 << 17

#: Clients per client block.
_CLIENT_BLOCK = 1 << 16

#: The greedy views are rebuilt over the active clients' edges once the
#: active-client count has fallen to ``1 / _NARROW_RATIO`` of what it was
#: at the last rebuild.
_NARROW_RATIO = 2


# ----------------------------------------------------------------------
# Columnar instance plane
# ----------------------------------------------------------------------


def _check_edges(cost: np.ndarray, client_degrees: np.ndarray) -> None:
    """Reject negative or non-finite edge costs and edgeless clients."""
    if not np.all(np.isfinite(cost)) or (cost.size and float(cost.min()) < 0):
        raise AlgorithmError("columnar edges must have finite non-negative costs")
    if client_degrees.size and int(client_degrees.min()) < 1:
        j = int(np.flatnonzero(client_degrees == 0)[0])
        raise AlgorithmError(f"client {j} has no facility edge; instance infeasible")


def _check_ids(ids: np.ndarray, limit: int, kind: str) -> None:
    """Reject node ids outside ``[0, limit)``, naming the first bad one."""
    if ids.size and (int(ids.min()) < 0 or int(ids.max()) >= limit):
        bad = int(ids[(ids < 0) | (ids >= limit)][0])
        raise AlgorithmError(f"{kind} index {bad} out of range [0, {limit})")


@dataclass(frozen=True)
class ColumnarInstance:
    """CSR edge-plane representation of a facility-location instance.

    Edges are stored twice, as two orderings of the same edge set:

    * **Facility-major greedy order** (``g_*`` columns, segmented by
      ``fac_ptr``): within each facility, edges sort by (cost, client id)
      — the exact prefix order of the greedy star search.
    * **Facility-major client order** (``byc_*`` columns, same
      ``fac_ptr`` segments): within each facility, edges sort by client
      id — the exact accumulation order of the dual payment sums.

    The client side (``cli_*`` columns, segmented by ``cli_ptr``) sorts
    by (client, facility id); ``cli_edge`` maps each client-side slot to
    its greedy-order edge index, which is how per-edge flags written by
    facility kernels are gathered client-side (the columnar inbox).
    """

    m: int
    n: int
    opening: np.ndarray  # (m,) float64
    fac_ptr: np.ndarray  # (m+1,) int64 — segment offsets into g_*/byc_*
    g_fac: np.ndarray  # (E,) int64, greedy order
    g_cli: np.ndarray  # (E,) int64
    g_cost: np.ndarray  # (E,) float64
    byc_cli: np.ndarray  # (E,) int64, client order per facility
    byc_cost: np.ndarray  # (E,) float64
    cli_ptr: np.ndarray  # (n+1,) int64 — segment offsets into cli_*
    cli_fac: np.ndarray  # (E,) int64
    cli_cost: np.ndarray  # (E,) float64
    cli_edge: np.ndarray  # (E,) int64 — client slot -> greedy edge index
    name: str = "columnar"

    @property
    def num_edges(self) -> int:
        """Total number of finite facility-client edges."""
        return int(self.g_cost.shape[0])

    @property
    def num_nodes(self) -> int:
        """Facilities plus clients (the protocol's ``N``)."""
        return self.m + self.n

    @property
    def client_degrees(self) -> np.ndarray:
        """Edges per client, ``(n,)``."""
        return np.diff(self.cli_ptr)

    @property
    def facility_degrees(self) -> np.ndarray:
        """Edges per facility, ``(m,)``."""
        return np.diff(self.fac_ptr)

    @classmethod
    def from_edges(
        cls,
        opening: np.ndarray,
        fac_idx: np.ndarray,
        cli_idx: np.ndarray,
        cost: np.ndarray,
        num_clients: int,
        name: str = "columnar",
    ) -> "ColumnarInstance":
        """Build the dual-ordered CSR plane from an edge triplet list.

        Edges may come in any order; a repeated (facility, client) pair
        keeps its cheapest cost, as in
        :meth:`FacilityLocationInstance.from_edges`. Every edge order is
        one ``argsort`` of a packed int64 key, never a multi-key sort:

        * (client, facility): ``client * m + facility``. An edge list
          already strictly in this order (``generate_sparse`` emits one)
          skips the sort.
        * greedy (facility, cost, client): ``facility * E + rank``, where
          ``rank`` is each client-major edge's position in cost order,
          equal costs kept in client-major order.
        * (facility, client): ``facility * n + client`` over the greedy
          edges.

        Once repeats are merged every key is unique, so only the first
        sort needs to be stable. The keys fit in int64 because
        ``m * max(n, E) < 2**63`` is checked up front.
        """
        opening = np.ascontiguousarray(opening, dtype=np.float64)
        m, n = int(opening.shape[0]), int(num_clients)
        fac = np.asarray(fac_idx, dtype=np.int64)
        cli = np.asarray(cli_idx, dtype=np.int64)
        cost = np.asarray(cost, dtype=np.float64)
        _check_ids(fac, m, "facility")
        _check_ids(cli, n, "client")
        if m * max(n, cost.size) >= 2**63:
            raise AlgorithmError(
                f"m * max(n, edges) = {m * max(n, cost.size)} overflows the int64 sort keys"
            )
        key = cli * m + fac
        if not np.all(key[1:] > key[:-1]):
            order = np.argsort(key, kind="stable")
            key = key[order]
            first = np.ones(key.size, dtype=bool)
            np.not_equal(key[1:], key[:-1], out=first[1:])
            starts = np.flatnonzero(first)
            fac, cli = fac[order][starts], cli[order][starts]
            cost = np.minimum.reduceat(cost[order], starts)
            del order, first, starts
        del key
        _check_edges(cost, np.bincount(cli, minlength=n))
        num_edges = cost.size
        # Cost order; argsort is not stable, so equal-cost runs are put
        # back in client-major order here to make ties fall to client id.
        order = np.argsort(cost)
        sorted_cost = cost[order]
        tied = sorted_cost[1:] == sorted_cost[:-1]
        if tied.any():
            in_run = np.zeros(num_edges, dtype=bool)
            in_run[1:] = tied
            in_run[:-1] |= tied
            runs = np.flatnonzero(in_run)
            order[runs] = order[runs][np.lexsort((order[runs], sorted_cost[runs]))]
            del in_run, runs
        del sorted_cost, tied
        edge_ids = np.arange(num_edges, dtype=np.int64)
        rank = np.empty(num_edges, dtype=np.int64)
        rank[order] = edge_ids
        del order
        key = fac * num_edges
        key += rank
        del rank
        greedy = np.argsort(key)
        del key
        cli_edge = np.empty(num_edges, dtype=np.int64)
        cli_edge[greedy] = edge_ids
        del edge_ids
        g_fac, g_cli, g_cost = fac[greedy], cli[greedy], cost[greedy]
        del greedy
        key = g_fac * n
        key += g_cli
        byc = np.argsort(key)
        del key
        return cls._from_greedy_order(
            opening, g_fac, g_cli, g_cost,
            byc=byc,
            cli_edge=cli_edge,
            num_clients=n,
            name=name,
        )

    @classmethod
    def from_instance(cls, instance: FacilityLocationInstance) -> "ColumnarInstance":
        """Convert a dense instance (finite entries become edges).

        Builds the same arrays as :meth:`from_edges` on the finite
        triplets, without its three edge-list sorts: one stable per-row
        ``argsort`` yields the greedy (cost, client) order, and the
        (facility, client) and (client, facility) orders are row- and
        column-major walks of a dense map from entry to greedy edge id.
        """
        costs = instance.connection_costs
        m, n = costs.shape
        finite = np.isfinite(costs)
        order = np.argsort(costs, axis=1, kind="stable")
        sorted_costs = np.take_along_axis(costs, order, axis=1)
        in_order = np.isfinite(sorted_costs)
        g_cost = sorted_costs[in_order]
        _check_edges(g_cost, finite.sum(axis=0))
        g_fac = np.repeat(np.arange(m, dtype=np.int64), in_order.sum(axis=1))
        g_cli = order[in_order].astype(np.int64, copy=False)
        edge_id = np.empty((m, n), dtype=np.int64)
        edge_id[g_fac, g_cli] = np.arange(g_cost.size, dtype=np.int64)
        return cls._from_greedy_order(
            instance.opening_costs, g_fac, g_cli, g_cost,
            byc=edge_id[finite],
            cli_edge=edge_id.T[finite.T],
            num_clients=n,
            name=instance.name,
        )

    @classmethod
    def _from_greedy_order(
        cls, opening, g_fac, g_cli, g_cost, *, byc, cli_edge, num_clients, name
    ) -> "ColumnarInstance":
        """Assemble the plane from greedy-order edges and two permutations.

        ``byc`` lists greedy edge ids in (facility, client) order and
        ``cli_edge`` in (client, facility) order (the gather side of the
        columnar inbox).
        """
        opening = np.ascontiguousarray(opening, dtype=np.float64)
        m, n = int(opening.shape[0]), int(num_clients)
        fac_ptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(g_fac, minlength=m), out=fac_ptr[1:])
        cli_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(g_cli, minlength=n), out=cli_ptr[1:])
        return cls(
            m=m,
            n=n,
            opening=opening,
            fac_ptr=fac_ptr,
            g_fac=np.ascontiguousarray(g_fac),
            g_cli=np.ascontiguousarray(g_cli),
            g_cost=np.ascontiguousarray(g_cost),
            byc_cli=g_cli[byc],
            byc_cost=g_cost[byc],
            cli_ptr=cli_ptr,
            cli_fac=g_fac[cli_edge],
            cli_cost=g_cost[cli_edge],
            cli_edge=np.ascontiguousarray(cli_edge, dtype=np.int64),
            name=str(name),
        )

    @classmethod
    def generate_sparse(
        cls,
        num_facilities: int,
        num_clients: int,
        seed: int,
        client_degree: int = 3,
        opening_scale: float = 2.0,
    ) -> "ColumnarInstance":
        """Sparse bipartite instance generated natively on the edge plane.

        Same flavor as the dense ``sparse`` family (each client connects
        to ``client_degree`` distinct facilities with uniform(0.1, 1.0)
        costs, opening costs uniform(0.5, 1.5) times ``opening_scale``)
        but sampled with batched numpy draws so a million-node instance
        materializes in edge space — never as an ``(m, n)`` matrix.
        """
        m, n = int(num_facilities), int(num_clients)
        d = min(int(client_degree), m)
        if m < 1 or n < 1 or d < 1:
            raise AlgorithmError("sparse columnar instance needs m, n, degree >= 1")
        rng = np.random.default_rng(seed)
        neighbors = rng.integers(0, m, size=(n, d), dtype=np.int64)
        # Each row is kept sorted by facility, so the edge list comes out
        # in (client, facility) order and from_edges skips that sort.
        order = np.argsort(neighbors, axis=1)
        fac = np.take_along_axis(neighbors, order, axis=1)
        del neighbors
        bad = np.flatnonzero((fac[:, 1:] == fac[:, :-1]).any(axis=1))
        while bad.size:
            # Re-sample rows with duplicate facilities; expected a handful
            # of passes since collision probability is ~d^2/m per client.
            rows = rng.integers(0, m, size=(bad.size, d))
            order[bad] = np.argsort(rows, axis=1)
            fac[bad] = np.take_along_axis(rows, order[bad], axis=1)
            bad = bad[(fac[bad, 1:] == fac[bad, :-1]).any(axis=1)]
        costs = np.take_along_axis(rng.uniform(0.1, 1.0, size=(n, d)), order, axis=1)
        del order
        opening = rng.uniform(0.5, 1.5, size=m) * float(opening_scale)
        cli_idx = np.repeat(np.arange(n, dtype=np.int64), d)
        return cls.from_edges(
            opening,
            fac.ravel(),
            cli_idx,
            costs.ravel(),
            num_clients=n,
            name=f"sparse-columnar(m={m},n={n},d={d},seed={seed})",
        )

    def to_instance(self) -> FacilityLocationInstance:
        """Materialize the dense inf-padded instance (oracle-size only)."""
        dense = np.full((self.m, self.n), np.inf)
        dense[self.g_fac, self.g_cli] = self.g_cost
        return FacilityLocationInstance(self.opening, dense, name=self.name)

    def padded(self, f0: int, f1: int, order: str) -> "_PaddedSlice":
        """Degree-padded 2-D views of one edge order for the facility
        slice ``[f0, f1)``: ``"g"`` (greedy order, absent slots cost 0.0)
        or ``"byc"`` (client order, absent slots cost +inf). Absent slots
        name client 0."""
        ptr = self.fac_ptr
        # Row-major real slots enumerate the slice's edges in plane order.
        edges = slice(int(ptr[f0]), int(ptr[f1]))
        return _PaddedSlice.build(
            ptr[f0 + 1 : f1 + 1] - ptr[f0:f1],
            getattr(self, f"{order}_cost")[edges],
            getattr(self, f"{order}_cli")[edges],
            edges,
            0.0 if order == "g" else np.inf,
        )


@dataclass(frozen=True)
class _PaddedSlice:
    """One edge order of a facility slice, padded to 2-D (one row per facility).

    ``edges`` names the plane positions of the real slots in row-major
    order: a ``slice`` for a whole facility slice, an index array for a
    view narrowed by :meth:`restricted`.
    """

    valid: np.ndarray  # (ms, D) bool — real-edge slots
    cost: np.ndarray  # (ms, D) float64
    cli: np.ndarray  # (ms, D) int64 client ids, 0 padded
    edges: slice | np.ndarray

    @classmethod
    def build(cls, degrees, cost, cli, edges, absent_cost: float) -> "_PaddedSlice":
        """Pad per-row runs of ``cost``/``cli`` (``degrees[r]`` slots in row ``r``)."""
        width = int(degrees.max()) if degrees.size else 0
        valid = np.arange(width)[None, :] < degrees[:, None]
        padded_cost = np.full(valid.shape, absent_cost)
        padded_cost[valid] = cost
        padded_cli = np.zeros(valid.shape, dtype=np.int64)
        padded_cli[valid] = cli
        return cls(valid=valid, cost=padded_cost, cli=padded_cli, edges=edges)

    def restricted(self, keep: np.ndarray) -> "_PaddedSlice":
        """The same rows over only the real slots where ``keep`` holds.

        Kept slots stay in their row order, so a greedy-order view stays
        in (cost, client id) order; absent slots cost 0.0, as in the
        greedy order's padding.
        """
        picked = np.flatnonzero(keep[self.valid])
        if isinstance(self.edges, slice):
            edges = picked + self.edges.start
        else:
            edges = self.edges[picked]
        return _PaddedSlice.build(
            keep.sum(axis=1), self.cost[keep], self.cli[keep], edges, 0.0
        )


@dataclass(frozen=True)
class _ClientView:
    """The clients one greedy offer phase visits, with their ``cli_*`` slots.

    A whole client block is two slices and reads its segment lengths from
    ``cli_ptr`` when used; a view narrowed by :meth:`restricted` holds
    index arrays and its own lengths.
    """

    ids: slice | np.ndarray
    slots: slice | np.ndarray
    lengths: np.ndarray | None = None

    @classmethod
    def block(cls, cinst: "ColumnarInstance", c0: int, c1: int) -> "_ClientView":
        lo, hi = int(cinst.cli_ptr[c0]), int(cinst.cli_ptr[c1])
        return cls(ids=slice(c0, c1), slots=slice(lo, hi))

    def segments(self, cinst: "ColumnarInstance") -> tuple[np.ndarray, np.ndarray]:
        """Reduceat offsets and lengths of each client's run of slots."""
        if self.lengths is None:
            return _client_segments(cinst, self.ids.start, self.ids.stop)[2:]
        starts = np.zeros(self.lengths.size, dtype=np.int64)
        np.cumsum(self.lengths[:-1], out=starts[1:])
        return starts, self.lengths

    def restricted(self, cinst: "ColumnarInstance", keep: np.ndarray) -> "_ClientView":
        """The clients where ``keep`` (one flag per client) holds, in order."""
        _, lengths = self.segments(cinst)
        ids, slots = self.ids, self.slots
        if isinstance(ids, slice):
            ids = np.arange(ids.start, ids.stop)
            slots = np.arange(slots.start, slots.stop)
        return _ClientView(
            ids=ids[keep], slots=slots[np.repeat(keep, lengths)], lengths=lengths[keep]
        )


def _facility_blocks(cinst: ColumnarInstance, f0: int, f1: int) -> list[tuple[int, int]]:
    """Split ``[f0, f1)`` into runs of whole facilities holding at most
    :data:`_FACILITY_BLOCK_EDGES` edges (or one facility, if it has more)."""
    ptr, blocks = cinst.fac_ptr, []
    while f0 < f1:
        end = int(np.searchsorted(ptr, ptr[f0] + _FACILITY_BLOCK_EDGES, side="right")) - 1
        end = min(f1, max(f0 + 1, end))
        blocks.append((f0, end))
        f0 = end
    return blocks


def _client_blocks(c0: int, c1: int) -> list[tuple[int, int]]:
    """Split ``[c0, c1)`` into runs of :data:`_CLIENT_BLOCK` clients."""
    return [(b, min(b + _CLIENT_BLOCK, c1)) for b in range(c0, c1, _CLIENT_BLOCK)]


# ----------------------------------------------------------------------
# Parameters on the edge plane
# ----------------------------------------------------------------------


def columnar_efficiency_range(cinst: ColumnarInstance) -> tuple[float, float]:
    """Star-efficiency range, bit-identical to the dense computation.

    The dense :func:`~repro.core.parameters.efficiency_range` cumsums each
    facility's sorted finite costs; the greedy edge order is that same
    ascending cost sequence, so the padded-2-D cumsum (one facility block
    at a time) reproduces every prefix value exactly (identical float
    multiset in identical order), and min/max are order-independent.
    """
    if not cinst.num_edges:
        raise AlgorithmError("instance has no facility-client edge")
    eff_min = math.inf
    for f0, f1 in _facility_blocks(cinst, 0, cinst.m):
        pad = cinst.padded(f0, f1, "g")
        if pad.valid.any():
            prefix = np.cumsum(pad.cost, axis=1)
            sizes = np.arange(1, pad.valid.shape[1] + 1)
            ratios = (cinst.opening[f0:f1, None] + prefix) / sizes
            eff_min = min(eff_min, float(ratios[pad.valid].min()))
    rows = np.flatnonzero(cinst.facility_degrees > 0)
    last = cinst.g_cost[cinst.fac_ptr[rows + 1] - 1]
    eff_max = float((cinst.opening[rows] + last).max())
    eff_max = max(eff_max, eff_min, 1e-300)
    eff_min = max(eff_min, eff_max * 1e-12)
    return eff_min, eff_max


def columnar_parameters(
    cinst: ColumnarInstance, k: int, variant: Variant | str = Variant.GREEDY
) -> TradeoffParameters:
    """Schedule for ``k`` computed on the edge plane.

    Same arithmetic as :meth:`TradeoffParameters.from_instance` (greedy)
    / :meth:`~TradeoffParameters.linear` (dual ascent), fed by
    :func:`columnar_efficiency_range` — so parameters agree bit for bit
    with what the loop engine derives from the equivalent dense instance.
    """
    if k < 1:
        raise AlgorithmError(f"trade-off parameter k must be >= 1, got {k}")
    eff_min, eff_max = columnar_efficiency_range(cinst)
    ratio = max(1.0, eff_max / eff_min)
    if Variant(variant) is Variant.GREEDY:
        num_scales = max(1, math.ceil(math.sqrt(k)))
        num_settle = max(1, math.ceil(k / num_scales))
    else:
        num_scales, num_settle = k, 1
    return TradeoffParameters(
        k=k,
        num_scales=num_scales,
        num_settle=num_settle,
        base=ratio ** (1.0 / num_scales),
        eff_min=eff_min,
        eff_max=eff_max,
        num_nodes=cinst.num_nodes,
    )


# ----------------------------------------------------------------------
# Slice-parametric round kernels
#
# Every kernel touches shared state in a fixed pattern: it may *read* any
# array, but *writes* only its own facility/client slice (the force/join
# apply kernels additionally scatter idempotent True bytes into
# ``is_open``). Between kernels sits a barrier in sharded mode; the
# in-process driver simply calls them back to back with full slices.
# ----------------------------------------------------------------------


def _client_segments(cinst: ColumnarInstance, c0: int, c1: int):
    """Edge window and reduceat offsets for the client slice ``[c0, c1)``."""
    lo = int(cinst.cli_ptr[c0])
    hi = int(cinst.cli_ptr[c1])
    starts = cinst.cli_ptr[c0:c1] - lo
    lengths = np.diff(cinst.cli_ptr[c0 : c1 + 1])
    return lo, hi, starts, lengths


def _segment_min_with_id(values, fac_ids, starts, lengths, sentinel):
    """Per-segment (min value, smallest facility id attaining it).

    Mirrors a dense first-extremum ``argmin`` over the facility axis:
    equal-value ties resolve to the smallest facility id.
    """
    best = np.minimum.reduceat(values, starts)
    attain = values == np.repeat(best, lengths)
    ids = np.minimum.reduceat(np.where(attain, fac_ids, sentinel), starts)
    return best, ids


def _greedy_facility_phase(
    cinst, pad, params, scale, coins, f0, f1, *, active, is_open, priorities, best_size, member
) -> None:
    """Star search + proposal coins for the facility slice ``[f0, f1)``."""
    act = active[pad.cli] & pad.valid
    fees = np.where(is_open[f0:f1], 0.0, cinst.opening[f0:f1])
    if act.shape[1]:
        vals = np.where(act, pad.cost, 0.0)
        totals = np.cumsum(np.concatenate([fees[:, None], vals], axis=1), axis=1)[:, 1:]
        sizes = np.cumsum(act, axis=1)
        eff = totals / np.maximum(sizes, 1)
        qual = params.qualifies_many(eff, scale) & act
        best = np.max(np.where(qual, sizes, 0), axis=1)
    else:
        best = np.zeros(f1 - f0, dtype=np.int64)
    best_size[f0:f1] = best
    proposers = best > 0
    priorities[f0:f1] = -1.0
    ids = f0 + np.flatnonzero(proposers)
    priorities[ids] = coins.random(ids)
    if act.shape[1]:
        member2d = act & (np.cumsum(act, axis=1) <= best[:, None]) & proposers[:, None]
        member[pad.edges] = member2d[pad.valid]


def _greedy_client_offer_phase(
    cinst, view, *, member, priorities, best_fac, has_offer
) -> np.ndarray:
    """Offer resolution for the clients of ``view``; returns partial accept counts."""
    starts, lengths = view.segments(cinst)
    e_fac = cinst.cli_fac[view.slots]
    e_member = member[cinst.cli_edge[view.slots]]
    key = np.where(e_member, priorities[e_fac], -1.0)
    best = np.maximum.reduceat(key, starts)
    offered = best >= 0.0
    # Highest priority wins; equal priorities resolve to the smallest
    # facility id, exactly like the loop engine's (priority, -i) key.
    attain = e_member & (key == np.repeat(best, lengths))
    chosen = np.minimum.reduceat(np.where(attain, e_fac, cinst.m), starts)
    best_fac[view.ids] = np.where(offered, chosen, 0)
    has_offer[view.ids] = offered
    return np.bincount(chosen[offered], minlength=cinst.m)


def _greedy_facility_open_phase(
    cinst, accepted, open_fraction, f0, f1, *, is_open, best_size, success
) -> None:
    """Opening rule for ``[f0, f1)`` given full accept counts."""
    best = best_size[f0:f1]
    proposers = best > 0
    got = accepted[f0:f1]
    needed = np.where(is_open[f0:f1], 1, np.maximum(1, np.ceil(best * open_fraction)))
    won = proposers & (got >= needed) & (got >= 1)
    success[f0:f1] = won
    is_open[f0:f1] |= won


def _greedy_client_serve_phase(
    c0, c1, *, success, best_fac, has_offer, assignment, active
) -> int:
    """Serve accepted clients of ``[c0, c1)``; returns the served count."""
    offered = has_offer[c0:c1]
    chosen = best_fac[c0:c1]
    served = offered & success[chosen]
    segment = assignment[c0:c1]
    segment[served] = chosen[served]
    active[c0:c1] &= ~served
    return int(served.sum())


def _greedy_force_compute_phase(
    cinst, c0, c1, *, is_open, active, assignment, forced_mask, forced_target
) -> None:
    """Join-or-force decisions for ``[c0, c1)`` against the pre-force open set."""
    lo, hi, starts, lengths = _client_segments(cinst, c0, c1)
    e_fac = cinst.cli_fac[lo:hi]
    e_cost = cinst.cli_cost[lo:hi]
    open_edge = is_open[e_fac]
    open_cost, join_target = _segment_min_with_id(
        np.where(open_edge, e_cost, np.inf), e_fac, starts, lengths, cinst.m
    )
    _, cheapest = _segment_min_with_id(e_cost, e_fac, starts, lengths, cinst.m)
    has_open = np.isfinite(open_cost)
    target = np.where(has_open, join_target, cheapest)
    act = active[c0:c1]
    segment = assignment[c0:c1]
    segment[act] = target[act]
    forcing = act & ~has_open
    forced_mask[c0:c1] = forcing
    forced_target[c0:c1] = np.where(forcing, cheapest, 0)


def _greedy_force_apply_phase(c0, c1, *, is_open, forced_mask, forced_target) -> None:
    """Apply forced openings for ``[c0, c1)`` (idempotent True scatters)."""
    forcing = forced_mask[c0:c1]
    is_open[forced_target[c0:c1][forcing]] = True


def _dual_client_alpha_phase(c0, c1, threshold, hook, level, *, alphas, frozen, gamma) -> None:
    """Alpha raises for the client slice ``[c0, c1)``."""
    raised = np.maximum(gamma[c0:c1], threshold)
    if hook is not None:
        fr = frozen[c0:c1]
        for local in range(c1 - c0):
            if not fr[local]:
                raised[local] = hook(level, c0 + local, float(raised[local]))
    alphas[c0:c1] = np.where(frozen[c0:c1], alphas[c0:c1], raised)


def _dual_facility_phase(cinst, pad, slack, f0, f1, *, alphas, tight, witness) -> None:
    """Payments, tightness, and witness-edge flags for ``[f0, f1)``."""
    # Tightness is sticky, so only facilities not yet tight need their
    # payment; the +inf cost padding makes absent slots pay exactly 0.0.
    rows = np.flatnonzero(~tight[f0:f1])
    if pad.valid.shape[1]:
        contrib = np.maximum(0.0, alphas[pad.cli[rows]] - pad.cost[rows])
        payment = np.cumsum(contrib, axis=1)[:, -1]
    else:
        payment = np.zeros(rows.size)
    fac = f0 + rows
    tight[fac] = payment >= cinst.opening[fac] - slack[fac]
    lo, hi = int(cinst.fac_ptr[f0]), int(cinst.fac_ptr[f1])
    edge_tight = tight[cinst.g_fac[lo:hi]]
    witness[lo:hi] |= edge_tight & (
        cinst.g_cost[lo:hi] <= alphas[cinst.g_cli[lo:hi]] * (1 + 1e-12)
    )


def _dual_client_freeze_phase(cinst, c0, c1, *, witness, frozen) -> None:
    """Freeze clients of ``[c0, c1)`` that gained a witness."""
    lo, hi, starts, _ = _client_segments(cinst, c0, c1)
    flags = witness[cinst.cli_edge[lo:hi]].view(np.uint8)
    frozen[c0:c1] = np.maximum.reduceat(flags, starts).astype(bool)


def _dual_client_select_phase(cinst, c0, c1, *, witness, target) -> None:
    """Cheapest-witness selection for ``[c0, c1)``."""
    lo, hi, starts, lengths = _client_segments(cinst, c0, c1)
    e_fac = cinst.cli_fac[lo:hi]
    flags = witness[cinst.cli_edge[lo:hi]]
    cost = np.where(flags, cinst.cli_cost[lo:hi], np.inf)
    _, chosen = _segment_min_with_id(cost, e_fac, starts, lengths, cinst.m)
    target[c0:c1] = chosen


def _dual_facility_round_phase(
    cinst, pad, params, policy, coins, f0, f1, *, alphas, target, is_open
) -> None:
    """Rounding coin flips for ``[f0, f1)`` given full selections."""
    fac_ids = np.arange(f0, f1, dtype=np.int64)[:, None]
    selected = pad.valid & (target[pad.cli] == fac_ids)
    has_selectors = selected.any(axis=1)
    if policy.mode == "select_all":
        is_open[f0:f1] |= has_selectors
        return
    if selected.shape[1]:
        contrib = np.where(
            selected, np.maximum(0.0, alphas[pad.cli] - pad.cost), 0.0
        )
        mass = np.cumsum(contrib, axis=1)[:, -1]
    else:
        mass = np.zeros(f1 - f0)
    factor = policy.c_round * math.log(max(params.num_nodes, 2))
    local = np.flatnonzero(has_selectors)
    ids = f0 + local
    probability = np.minimum(
        1.0, factor * mass[local] / np.maximum(cinst.opening[ids], 1e-300)
    )
    is_open[ids[coins.random(ids) < probability]] = True


def _dual_join_compute_phase(
    cinst, c0, c1, *, witness, is_open, target, assignment, forced_mask
) -> None:
    """Join decisions for ``[c0, c1)`` against the coin-opened set only."""
    lo, hi, starts, lengths = _client_segments(cinst, c0, c1)
    e_fac = cinst.cli_fac[lo:hi]
    flags = witness[cinst.cli_edge[lo:hi]] & is_open[e_fac]
    cost = np.where(flags, cinst.cli_cost[lo:hi], np.inf)
    open_cost, join_target = _segment_min_with_id(cost, e_fac, starts, lengths, cinst.m)
    has_open = np.isfinite(open_cost)
    assignment[c0:c1] = np.where(has_open, join_target, target[c0:c1])
    forced_mask[c0:c1] = ~has_open


def _dual_join_apply_phase(c0, c1, *, forced_mask, target, is_open) -> None:
    """Force leftover clients' cheapest witnesses open (True scatters)."""
    forcing = forced_mask[c0:c1]
    is_open[target[c0:c1][forcing]] = True


# ----------------------------------------------------------------------
# Recorder checkpoints and ledger charges
# ----------------------------------------------------------------------


def _leaves(kind: str, values, cast) -> dict:
    """One recorder field: ``{"<kind>:<id>": value}`` for every node."""
    return {f"{kind}:{i}": cast(v) for i, v in enumerate(values)}


class _Observer:
    """Reads the run state at the schedule's snapshot points.

    It charges the bit ledger, writes flight-recorder checkpoints and
    counts the simulator's diagnostics, which :meth:`finish` returns.
    In process it runs between kernels; in a sharded run the parent runs
    it while every worker is parked at a snapshot barrier. Ledger charges
    compare the state with the previous snapshot, so both run modes charge
    exactly the same counts.
    """

    def __init__(self, cinst: ColumnarInstance, state, recorder, ledger) -> None:
        self.cinst, self.s, self.recorder, self.ledger = cinst, state, recorder, ledger
        if ledger is not None:
            self.client_degrees = cinst.client_degrees
            self.facility_degrees = cinst.facility_degrees
        self.active = cinst.n
        self.active_edges = self.unfrozen_edges = cinst.num_edges
        self.tight_edges = self.open_ads = self.failed_accepts = 0

    def __call__(self, label: str) -> None:
        cinst, s, ledger, recorder = self.cinst, self.s, self.ledger, self.recorder
        if label.startswith("greedy:iter:"):
            self.greedy_charges(int(label.rsplit(":", 1)[1]))
            if recorder is not None:
                recorder.observe(label, {
                    "open": _leaves("facility", s["is_open"], bool),
                    "assignment": _leaves("client", s["assignment"], int),
                })
        elif label.startswith("dual:level:"):
            if ledger is not None:
                # A facility announces tightness once, to every neighbour.
                tight_edges = int(self.facility_degrees[s["tight"]].sum())
                ledger.dual_level(
                    int(label.rsplit(":", 1)[1]), self.unfrozen_edges,
                    tight_edges - self.tight_edges,
                )
                self.tight_edges = tight_edges
                self.unfrozen_edges = int(self.client_degrees[~s["frozen"]].sum())
            if recorder is not None:
                # cli_* sorts by facility id within a client, so each list
                # ascends like the loop engine's sorted witness sets.
                flags = s["witness"][cinst.cli_edge]
                bounds = zip(cinst.cli_ptr[:-1], cinst.cli_ptr[1:])
                witnesses = [cinst.cli_fac[lo:hi][flags[lo:hi]] for lo, hi in bounds]
                recorder.observe(label, {
                    "alpha": _leaves("client", s["alphas"], float),
                    "frozen": _leaves("client", s["frozen"], bool),
                    "witnesses": _leaves("client", witnesses, lambda w: [int(f) for f in w]),
                    "tight": _leaves("facility", s["tight"], bool),
                })
        elif label == "dual:ladder":
            if not s["frozen"].all():
                j = int(np.flatnonzero(~s["frozen"])[0])
                raise AlgorithmError(
                    f"client {j} has no witness after the final level; "
                    "this contradicts the ladder's terminal property"
                )
        elif label == "dual:rounding":
            if ledger is not None:
                # Only coin-opened facilities advertise; forced ones open later.
                self.open_ads = int(self.facility_degrees[s["is_open"]].sum())
            if recorder is not None:
                recorder.observe(label, {"open": _leaves("facility", s["is_open"], bool)})

    def greedy_charges(self, iteration: int) -> None:
        """Count one iteration's failed accepts and charge its traffic."""
        if not self.active:
            # No client is active: no coins, no traffic.
            return
        s = self.s
        active = int(np.count_nonzero(s["active"]))
        offered = int(np.count_nonzero(s["has_offer"]))
        served, self.active = self.active - active, active
        # Every offered client accepted; an accept fails unless it served.
        self.failed_accepts += offered - served
        if self.ledger is not None:
            member = int(np.count_nonzero(s["member"]))
            self.ledger.greedy_iteration(iteration, self.active_edges, member, offered, served)
            self.active_edges = int(self.client_degrees[s["active"]].sum())

    def finish(self, variant: Variant) -> dict[str, Any]:
        """Charge the closing phase (greedy force / dual rounding) and
        return the simulator's protocol counters for the final state."""
        s = self.s
        greedy = variant is Variant.GREEDY
        forced = int(np.count_nonzero(s["forced_mask"]))
        # A forcing client had no open choice, so each facility it forced
        # was closed until then: the distinct targets are the forced opens.
        targets = (s["forced_target"] if greedy else s["target"])[s["forced_mask"]]
        diagnostics: dict[str, Any] = {
            "num_open": int(np.count_nonzero(s["is_open"])),
            "num_forced_opens": int(np.unique(targets).size),
            "num_forced_clients": forced,
        }
        if greedy:
            diagnostics["total_failed_accepts"] = self.failed_accepts
        else:
            witnesses = int(np.count_nonzero(s["witness"]))
            diagnostics["num_tight"] = int(np.count_nonzero(s["tight"]))
            diagnostics["mean_witnesses"] = witnesses / max(self.cinst.n, 1)
        ledger = self.ledger
        if ledger is not None and not greedy:
            ledger.dual_rounding(self.cinst.n, self.open_ads, forced)
        elif ledger is not None:
            open_ads = 0
            if self.active:
                # A leftover client hears from each neighbour that was
                # open before the force phase.
                was_open = s["is_open"].copy()
                was_open[targets] = False
                cinst = self.cinst
                open_ads = int(np.count_nonzero(was_open[cinst.g_fac] & s["active"][cinst.g_cli]))
            ledger.greedy_force(self.active_edges, open_ads, self.active, forced)
        return diagnostics


# ----------------------------------------------------------------------
# The kernel schedule
# ----------------------------------------------------------------------


def _schedule(
    cinst, variant, params, seed, s, shard, f, c, sync, snapshot,
    *, open_fraction, policy, hook=None,
) -> None:
    """One shard's kernel schedule over facility slice ``f`` and client
    slice ``c``, with state arrays ``s``.

    ``sync()`` is a barrier across shards and ``snapshot(label)`` a point
    where the caller reads the state. In process there is one shard:
    ``sync`` does nothing and ``snapshot`` is the :class:`_Observer`. A
    shard worker turns each snapshot into one more barrier, and the
    sharded parent runs this same schedule with empty slices, which makes
    every phase a no-op, so its barriers always match the workers'.

    Each phase runs its kernel once per block of its slice; the padded
    facility blocks hold only the edge order the variant reads.
    """
    order = "g" if variant is Variant.GREEDY else "byc"
    fblocks = [(b0, b1, cinst.padded(b0, b1, order)) for b0, b1 in _facility_blocks(cinst, *f)]
    cblocks = _client_blocks(*c)
    coins = CoinPlane(seed, *f)
    if variant is Variant.GREEDY:
        accepted_partial = s["accepted_partial"][shard]
        offers = [_ClientView.block(cinst, b0, b1) for b0, b1 in cblocks]
        narrowed_at = cinst.n  # active clients the views were last built over
        for iteration in range(1, params.num_iterations + 1):
            # ``active`` last changed before the previous snapshot barrier,
            # so every shard reads the same count here.
            live = int(np.count_nonzero(s["active"]))
            busy = live > 0
            if busy and live * _NARROW_RATIO <= narrowed_at:
                narrowed_at = live
                _narrow_to_active(cinst, fblocks, offers, s)
            scale = params.scale_of_iteration(iteration)
            if busy:
                for b0, b1, pad in fblocks:
                    _greedy_facility_phase(
                        cinst, pad, params, scale, coins, b0, b1,
                        active=s["active"], is_open=s["is_open"],
                        priorities=s["priorities"], best_size=s["best_size"],
                        member=s["member"],
                    )
            sync()
            if busy:
                accepted_partial[...] = 0
                for view in offers:
                    accepted_partial += _greedy_client_offer_phase(
                        cinst, view, member=s["member"], priorities=s["priorities"],
                        best_fac=s["best_fac"], has_offer=s["has_offer"],
                    )
            sync()
            if busy:
                accepted = s["accepted_partial"].sum(axis=0)
                for b0, b1, _ in fblocks:
                    _greedy_facility_open_phase(
                        cinst, accepted, open_fraction, b0, b1,
                        is_open=s["is_open"], best_size=s["best_size"],
                        success=s["success"],
                    )
            sync()
            if busy:
                for b0, b1 in cblocks:
                    _greedy_client_serve_phase(
                        b0, b1, success=s["success"], best_fac=s["best_fac"],
                        has_offer=s["has_offer"], assignment=s["assignment"],
                        active=s["active"],
                    )
            sync()
            snapshot(f"greedy:iter:{iteration}")
        # Force phase: decisions are made against the open set as of the
        # end of the iterations; forced openings land afterwards.
        forcing = bool(s["active"].any())
        if forcing:
            for b0, b1 in cblocks:
                _greedy_force_compute_phase(
                    cinst, b0, b1, is_open=s["is_open"], active=s["active"],
                    assignment=s["assignment"], forced_mask=s["forced_mask"],
                    forced_target=s["forced_target"],
                )
        sync()
        if forcing:
            for b0, b1 in cblocks:
                _greedy_force_apply_phase(
                    b0, b1, is_open=s["is_open"], forced_mask=s["forced_mask"],
                    forced_target=s["forced_target"],
                )
        sync()
        return
    slack = 1e-12 * np.maximum(cinst.opening, params.eff_max)
    for level in range(1, params.num_scales + 1):
        threshold = params.threshold(level)
        # Once every client is frozen no alpha, payment, tightness or
        # witness can change, so the level's phases are skipped; ``frozen``
        # last changed before the previous snapshot barrier.
        moving = not s["frozen"].all()
        if moving:
            for b0, b1 in cblocks:
                _dual_client_alpha_phase(
                    b0, b1, threshold, hook, level,
                    alphas=s["alphas"], frozen=s["frozen"], gamma=s["gamma"],
                )
        sync()
        if moving:
            for b0, b1, pad in fblocks:
                _dual_facility_phase(
                    cinst, pad, slack, b0, b1,
                    alphas=s["alphas"], tight=s["tight"], witness=s["witness"],
                )
        sync()
        if moving:
            for b0, b1 in cblocks:
                _dual_client_freeze_phase(
                    cinst, b0, b1, witness=s["witness"], frozen=s["frozen"]
                )
        sync()
        snapshot(f"dual:level:{level}")
    snapshot("dual:ladder")
    for b0, b1 in cblocks:
        _dual_client_select_phase(cinst, b0, b1, witness=s["witness"], target=s["target"])
    sync()
    for b0, b1, pad in fblocks:
        _dual_facility_round_phase(
            cinst, pad, params, policy, coins, b0, b1,
            alphas=s["alphas"], target=s["target"], is_open=s["is_open"],
        )
    sync()
    snapshot("dual:rounding")
    for b0, b1 in cblocks:
        _dual_join_compute_phase(
            cinst, b0, b1, witness=s["witness"], is_open=s["is_open"],
            target=s["target"], assignment=s["assignment"], forced_mask=s["forced_mask"],
        )
    sync()
    for b0, b1 in cblocks:
        _dual_join_apply_phase(
            b0, b1, forced_mask=s["forced_mask"], target=s["target"], is_open=s["is_open"]
        )
    sync()


def _narrow_to_active(cinst, fblocks, offers, s) -> None:
    """Rebuild the greedy views, in place, over the active clients only.

    A dropped slot was an exact ``0.0`` term of its row's prefix sums and
    never a member, so every kept prefix value and every membership is
    what the wider view computes. The dropped edges' ``member`` flags and
    the dropped clients' ``has_offer``/``best_fac`` are cleared here to
    what a full pass writes for an inactive client, so the ledger's sums
    read the same. An offer view left with no client is removed.
    """
    active, member = s["active"], s["member"]
    for index, (b0, b1, pad) in enumerate(fblocks):
        member[pad.edges] = False
        fblocks[index] = (b0, b1, pad.restricted(pad.valid & active[pad.cli]))
    kept = []
    for view in offers:
        s["has_offer"][view.ids] = False
        s["best_fac"][view.ids] = 0
        keep = active[view.ids]
        if keep.any():
            kept.append(view.restricted(cinst, keep))
    offers[:] = kept


def _state_specs(cinst: ColumnarInstance, variant: Variant, rows: int):
    """Name -> (shape, dtype) of one run's mutable state arrays.

    ``rows`` sizes the per-party partial accept counts of the greedy
    offer phase (one row per shard, plus one for the sharded parent).
    """
    m, n, num_edges = cinst.m, cinst.n, cinst.num_edges
    specs: dict[str, tuple[tuple[int, ...], str]] = {"is_open": ((m,), "?")}
    if variant is Variant.GREEDY:
        specs.update(
            {
                "active": ((n,), "?"),
                "assignment": ((n,), "i8"),
                "priorities": ((m,), "f8"),
                "best_size": ((m,), "i8"),
                "success": ((m,), "?"),
                "member": ((num_edges,), "?"),
                "best_fac": ((n,), "i8"),
                "has_offer": ((n,), "?"),
                "forced_mask": ((n,), "?"),
                "forced_target": ((n,), "i8"),
                "accepted_partial": ((rows, m), "i8"),
            }
        )
    else:
        specs.update(
            {
                "alphas": ((n,), "f8"),
                "frozen": ((n,), "?"),
                "tight": ((m,), "?"),
                "witness": ((num_edges,), "?"),
                "target": ((n,), "i8"),
                "assignment": ((n,), "i8"),
                "forced_mask": ((n,), "?"),
                "gamma": ((n,), "f8"),
            }
        )
    return specs


def _init_state(cinst: ColumnarInstance, variant: Variant, s) -> None:
    """Starting values on zeroed state arrays."""
    if variant is Variant.GREEDY:
        s["active"][...] = True
        s["assignment"][...] = -1
    else:
        _, _, starts, _ = _client_segments(cinst, 0, cinst.n)
        s["gamma"][...] = np.minimum.reduceat(cinst.cli_cost, starts)


def _run(
    cinst: ColumnarInstance,
    variant: Variant,
    params: TradeoffParameters,
    seed: int,
    *,
    shards: int = 1,
    open_fraction: float = 0.5,
    policy: RoundingPolicy | None = None,
    recorder=None,
    ledger=None,
) -> tuple[np.ndarray, np.ndarray, dict[str, Any]]:
    """Run one variant in process (``shards <= 1``) or sharded; returns
    the open mask, the assignment and the diagnostics."""
    policy = policy or RoundingPolicy()
    if shards > 1:
        return _run_sharded(
            cinst, variant, params, seed, shards=shards,
            open_fraction=open_fraction, policy=policy,
            recorder=recorder, ledger=ledger,
        )
    s = {
        name: np.zeros(shape, dtype=dtype)
        for name, (shape, dtype) in _state_specs(cinst, variant, 1).items()
    }
    _init_state(cinst, variant, s)
    observer = _Observer(cinst, s, recorder, ledger)
    _schedule(
        cinst, variant, params, seed, s, 0, (0, cinst.m), (0, cinst.n),
        lambda: None, observer, open_fraction=open_fraction, policy=policy,
        hook=_TEST_COLUMNAR_DUAL_ALPHA_RAISE_HOOK,
    )
    diagnostics = observer.finish(variant)
    return s["is_open"], s["assignment"], diagnostics


# ----------------------------------------------------------------------
# Sharded execution over shared memory
# ----------------------------------------------------------------------

_ALIGN = 64


def _state_layout(specs):
    """Byte offsets (aligned) and total size for the shared state segment."""
    offsets: dict[str, int] = {}
    cursor = 0
    for name, (shape, dtype) in specs.items():
        nbytes = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
        offsets[name] = cursor
        cursor += (nbytes + _ALIGN - 1) // _ALIGN * _ALIGN
    return offsets, max(cursor, 1)


def _state_views(shm, specs, offsets):
    return {
        name: np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=offsets[name])
        for name, (shape, dtype) in specs.items()
    }


def _split_ranges(total: int, shards: int) -> list[tuple[int, int]]:
    bounds = np.linspace(0, total, shards + 1).astype(np.int64)
    return [(int(bounds[s]), int(bounds[s + 1])) for s in range(shards)]


def _shard_worker(
    cinst, shm_name, specs, offsets, variant_value, params, seed, policy,
    open_fraction, shard, f, c, link,
) -> None:
    """One shard: runs :func:`_schedule` against the shared state.

    ``cinst`` is the parent's plane, inherited through ``fork`` (pickled
    under ``spawn``); the worker only reads it.

    ``link`` is this shard's pipe to the parent: a barrier is an empty
    message up and an empty release message down; a failure is reported
    as a non-empty message up, after which the worker exits.
    """

    def sync() -> None:
        link.send_bytes(b"")
        if not link.poll(_BARRIER_TIMEOUT_S):
            raise TimeoutError(f"no barrier release in {_BARRIER_TIMEOUT_S:.0f} s")
        link.recv_bytes()

    shm = None
    try:
        shm = shared_memory.SharedMemory(name=shm_name)
        arrays = _state_views(shm, specs, offsets)
        _schedule(
            cinst, Variant(variant_value), params, seed, arrays, shard, f, c,
            sync, lambda label: sync(), open_fraction=open_fraction, policy=policy,
        )
    except Exception as error:  # noqa: BLE001 — shipped to the parent
        try:
            link.send_bytes(f"{type(error).__name__}: {error}".encode())
        except OSError:
            pass  # the parent is gone or already tearing the run down
    finally:
        if shm is not None:
            shm.close()
        link.close()


class _ShardLinks:
    """The parent's end of the shard barrier: one pipe per worker.

    The parent is the barrier's coordinator: :meth:`wait` blocks until
    every shard has arrived, then releases them all. Its single blocking
    call also watches every worker's process sentinel, so a shard that
    dies — even one killed while parked at a barrier — fails the run at
    once with its exit code, instead of leaving the parent blocked until
    the barrier timeout.
    """

    def __init__(self, links, workers) -> None:
        self.links = links
        self.workers = workers

    def wait(self) -> None:
        pending = dict(zip(self.links, range(len(self.links))))
        sentinels = {w.sentinel: s for s, w in enumerate(self.workers)}
        deadline = time.monotonic() + _BARRIER_TIMEOUT_S
        while pending:
            ready = multiprocessing.connection.wait(
                [*pending, *sentinels], max(0.0, deadline - time.monotonic())
            )
            if not ready:
                raise AlgorithmError(
                    f"sharded columnar run failed: shards {sorted(pending.values())} "
                    f"missed a barrier for {_BARRIER_TIMEOUT_S:.0f} s"
                )
            for handle in ready:
                shard = pending.pop(handle, None)
                if shard is None:  # a sentinel: the worker has exited
                    raise self.failure(sentinels[handle])
                try:
                    report = handle.recv_bytes()
                except (EOFError, OSError):
                    raise self.failure(shard) from None
                if report:
                    raise self.failure(shard, report.decode())
        for shard, link in enumerate(self.links):
            try:
                link.send_bytes(b"")
            except OSError:
                raise self.failure(shard) from None

    def failure(self, shard: int, detail: str = "") -> AlgorithmError:
        """The error for a failed shard: its own report, else its exit code."""
        link, worker = self.links[shard], self.workers[shard]
        try:
            while not detail and link.poll(0):
                detail = link.recv_bytes().decode()
        except (EOFError, OSError):
            pass
        if not detail:
            worker.join(5)
            detail = f"worker exited with code {worker.exitcode}"
        return AlgorithmError(f"sharded columnar run failed: shard {shard}: {detail}")


def _run_sharded(
    cinst: ColumnarInstance,
    variant: Variant,
    params: TradeoffParameters,
    seed: int,
    *,
    shards: int,
    open_fraction: float,
    policy: RoundingPolicy,
    recorder=None,
    ledger=None,
) -> tuple[np.ndarray, np.ndarray, dict[str, Any]]:
    """Drive ``shards`` worker processes over one shared state segment.

    The parent coordinates every barrier (see :class:`_ShardLinks`) by
    running :func:`_schedule` itself with empty slices. At each snapshot
    it runs the :class:`_Observer` before releasing the snapshot barrier,
    while every worker is parked, so recordings and ledger charges are
    taken at exactly the same protocol points as in process and never
    overlap the next phase's writes.
    """
    specs = _state_specs(cinst, variant, shards + 1)
    offsets, total = _state_layout(specs)
    shm = shared_memory.SharedMemory(create=True, size=total)
    ctx = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    )
    pipes = [ctx.Pipe() for _ in range(shards)]
    workers: list[Any] = []
    try:
        arrays = _state_views(shm, specs, offsets)
        _init_state(cinst, variant, arrays)
        ranges_f = _split_ranges(cinst.m, shards)
        ranges_c = _split_ranges(cinst.n, shards)
        workers = [
            ctx.Process(
                target=_shard_worker,
                args=(
                    cinst, shm.name, specs, offsets, variant.value, params,
                    seed, policy, open_fraction, shard, ranges_f[shard],
                    ranges_c[shard], pipes[shard][1],
                ),
                daemon=True,
            )
            for shard in range(shards)
        ]
        for worker in workers:
            worker.start()
        for _, child_end in pipes:
            child_end.close()
        wait = _ShardLinks([parent_end for parent_end, _ in pipes], workers).wait
        observer = _Observer(cinst, arrays, recorder, ledger)

        def snapshot(label: str) -> None:
            observer(label)
            wait()

        _schedule(
            cinst, variant, params, seed, arrays, shards, (0, 0), (0, 0),
            wait, snapshot, open_fraction=open_fraction, policy=policy,
        )
        diagnostics = observer.finish(variant)
        for worker in workers:
            worker.join(timeout=_BARRIER_TIMEOUT_S)
        return arrays["is_open"].copy(), arrays["assignment"].copy(), diagnostics
    finally:
        # SIGKILL, not SIGTERM: a forked worker inherits the parent's
        # Python signal handlers (``repro serve`` turns SIGTERM into a
        # drain flag), and it holds no lock a kill could strand.
        for worker in workers:
            if worker.is_alive():
                worker.kill()
        for worker in workers:
            worker.join(timeout=5)
        for parent_end, child_end in pipes:
            parent_end.close()
            child_end.close()
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:
            pass


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnarSolveResult:
    """Array-native outcome of one columnar solve (no per-client dicts).

    Built by :func:`solve_columnar` for instances far past what the dense
    result types can hold; ``cost``/``feasible`` are computed with
    array reductions over the edge plane.
    """

    instance: ColumnarInstance
    params: TradeoffParameters
    variant: Variant
    open_mask: np.ndarray  # (m,) bool
    assignment: np.ndarray  # (n,) int64 — facility id per client
    cost: float
    wall_seconds: float = 0.0
    shards: int = 1
    metrics: Any = None  # NetworkMetrics from the bit ledger, if kept
    timeline: Any = None  # RoundTimeline from the bit ledger, if kept
    diagnostics: Any = None  # the simulator's protocol counters

    @property
    def open_facilities(self) -> frozenset[int]:
        """Open facility ids as a set (cheap: open sets are small)."""
        return frozenset(int(i) for i in np.flatnonzero(self.open_mask))

    @property
    def feasible(self) -> bool:
        """Whether every client is assigned to an open neighboring facility."""
        return bool(
            (self.assignment >= 0).all() and self.open_mask[self.assignment].all()
        )


def solve_columnar(
    instance,
    k: int,
    variant: Variant | str = Variant.GREEDY,
    seed: int = 0,
    rounding: RoundingPolicy | None = None,
    open_fraction: float = 0.5,
    shards: int = 1,
    recorder=None,
    with_ledger: bool = True,
    params: TradeoffParameters | None = None,
) -> ColumnarSolveResult:
    """End-to-end columnar solve on the edge plane (million-node entry).

    ``instance`` may be a :class:`ColumnarInstance` or a dense
    :class:`FacilityLocationInstance` (converted once). This never
    materializes dense matrices or per-client Python dicts: parameters
    come from :func:`columnar_parameters` unless ``params`` pins them,
    the solution stays in arrays, and the cost/feasibility checks are
    array gathers. The modeled CONGEST traffic (``metrics``/``timeline``)
    comes from a :class:`repro.net.columnar.ColumnarBitLedger` unless
    disabled; ``diagnostics`` holds the simulator's protocol counters.
    """
    cinst = instance
    if not isinstance(cinst, ColumnarInstance):
        cinst = ColumnarInstance.from_instance(instance)
    variant = Variant(variant)
    if params is None:
        params = columnar_parameters(cinst, k, variant)
    ledger = ColumnarBitLedger(params) if with_ledger else None
    start = time.perf_counter()
    is_open, assignment, diagnostics = _run(
        cinst, variant, params, seed, shards=shards, open_fraction=open_fraction,
        policy=rounding, recorder=recorder, ledger=ledger,
    )
    wall = time.perf_counter() - start
    if recorder is not None:
        recorder.observe_final(
            np.flatnonzero(is_open), assignment, cinst.m, cinst.n
        )
    cost = _solution_cost(cinst, is_open, assignment)
    return ColumnarSolveResult(
        instance=cinst,
        params=params,
        variant=variant,
        open_mask=is_open,
        assignment=assignment,
        cost=cost,
        wall_seconds=wall,
        shards=max(1, int(shards)),
        metrics=ledger.metrics if ledger is not None else None,
        timeline=ledger.timeline if ledger is not None else None,
        diagnostics=diagnostics,
    )


def _solution_cost(cinst: ColumnarInstance, is_open, assignment) -> float:
    """Opening plus connection cost, via an edge-plane gather.

    Summed the way :attr:`FacilityLocationSolution.cost` sums: builtin
    ``sum`` of opening costs over the ``frozenset`` of open ids, plus
    builtin ``sum`` of connection costs in client order, so every engine
    prints the same float on every Python version. Raises when a client
    is assigned to a facility it has no edge to — the same validation the
    dense solution type performs element-wise.
    """
    if (assignment < 0).any():
        j = int(np.flatnonzero(assignment < 0)[0])
        raise AlgorithmError(f"client {j} left unassigned by columnar solve")
    if not is_open[assignment].all():
        j = int(np.flatnonzero(~is_open[assignment])[0])
        raise AlgorithmError(
            f"client {j} assigned to closed facility {int(assignment[j])}"
        )
    # Each client's edge to its assigned facility. Facility ids are unique
    # within a client segment, so every client matched exactly once iff
    # there are as many matches as clients.
    positions = np.empty(cinst.n, dtype=np.int64)
    for c0, c1 in _client_blocks(0, cinst.n):
        lo, hi, starts, lengths = _client_segments(cinst, c0, c1)
        hit = cinst.cli_fac[lo:hi] == np.repeat(assignment[c0:c1], lengths)
        found = np.flatnonzero(hit)
        if found.size < c1 - c0:
            bad = int(np.flatnonzero(~np.logical_or.reduceat(hit, starts))[0]) + c0
            raise AlgorithmError(
                f"client {bad} assigned to non-neighbor facility "
                f"{int(assignment[bad])}"
            )
        positions[c0:c1] = lo + found
    opening_costs = cinst.opening.tolist()
    opening = sum(opening_costs[i] for i in frozenset(np.flatnonzero(is_open).tolist()))
    # A memoryview yields plain floats, which builtin sum adds without a list.
    return float(opening + sum(memoryview(cinst.cli_cost[positions])))
