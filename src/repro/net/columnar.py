"""Columnar message-plane accounting and inbox buffer reuse.

Two pieces live here:

* :class:`ColumnarBitLedger` — the CONGEST cost model for the columnar
  engine. The columnar engine never materializes
  :class:`~repro.net.message.Message` objects (that is the point: a
  million-node round cannot afford one Python object per edge), but the
  paper's complexity claims are still about rounds, messages, and bits —
  so each kernel phase reports its *counts* to the ledger, which charges
  them with the exact per-field bit prices
  :mod:`repro.net.message` uses (64-bit floats, 8 bits per kind
  character, ``1 + max(1, (N - 1).bit_length())`` bits for a node id) and
  accumulates them into the same :class:`~repro.net.metrics.NetworkMetrics`
  / :class:`~repro.obs.timeline.RoundTimeline` shapes every other engine
  produces. Downstream consumers (manifests, service payloads,
  ``repro compare``) cannot tell the difference.
* :class:`InboxPool` — list-buffer reuse for the object-graph
  :class:`~repro.net.simulator.Simulator`. Delivery used to allocate a
  fresh list per receiving node per round; the pool loans cleared lists
  and takes them back at the round boundary, making steady-state
  delivery allocation-free.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.net.message import scalar_bits
from repro.net.metrics import NetworkMetrics

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.net.message import Message
    from repro.obs.timeline import RoundTimeline

__all__ = ["ColumnarBitLedger", "InboxPool"]


class ColumnarBitLedger:
    """Modeled CONGEST traffic for one columnar run.

    Kernel drivers report phase counts (how many edges carried an alpha
    value, how many clients accepted an offer, ...) and the ledger maps
    each protocol phase to one synchronous communication round of
    uniform-size messages. The mapping mirrors what the object-graph
    protocol nodes actually send:

    ==================  =========================================  ==========
    modeled round       one message per                            payload
    ==================  =========================================  ==========
    ``greedy/active``   active-client edge                         1 bit
    ``greedy/propose``  member edge of a proposing star            float
    ``greedy/accept``   client that accepted an offer              node id
    ``greedy/serve``    served client + newly opened facility      node id
    ``greedy/force``    leftover client forcing a facility open    node id
    ``dual/alpha``      unfrozen-client edge                       float
    ``dual/tight``      edge of a facility that just became tight  1 bit
    ``dual/freeze``     client that just froze                     1 bit
    ``dual/select``     client announcing its cheapest witness     node id
    ``dual/open``       edge of a coin-opened facility             1 bit
    ``dual/join``       client joining (or forcing) a facility     node id
    ==================  =========================================  ==========
    """

    def __init__(self, num_facilities: int, num_clients: int, num_edges: int) -> None:
        self.num_facilities = int(num_facilities)
        self.num_clients = int(num_clients)
        self.num_edges = int(num_edges)
        num_nodes = self.num_facilities + self.num_clients
        #: Bits to name one node: the largest id priced as an int payload.
        self.id_bits = scalar_bits(max(num_nodes, 2) - 1)
        self.metrics = NetworkMetrics()
        self._entries: list[tuple[int, int, int]] = []  # (round, msgs, bits)

    # ------------------------------------------------------------------
    # Internal charging
    # ------------------------------------------------------------------

    def _charge(self, kind: str, count: int, payload_bits: int) -> tuple[int, int]:
        """Charge ``count`` messages of one kind; returns (msgs, bits)."""
        count = int(count)
        if count <= 0:
            return 0, 0
        per_message = 8 * len(kind) + payload_bits
        metrics = self.metrics
        metrics.total_messages += count
        metrics.total_bits += per_message * count
        metrics.max_message_bits = max(metrics.max_message_bits, per_message)
        metrics.messages_by_kind[kind] += count
        return count, per_message * count

    def _round(self, *phases: tuple[str, int, int]) -> None:
        """Close one modeled synchronous round of the given phases."""
        metrics = self.metrics
        metrics.rounds += 1
        messages = 0
        bits = 0
        for kind, count, payload_bits in phases:
            m, b = self._charge(kind, count, payload_bits)
            messages += m
            bits += b
        metrics.max_messages_per_round = max(
            metrics.max_messages_per_round, messages
        )
        self._entries.append((metrics.rounds, messages, bits))

    # ------------------------------------------------------------------
    # Phase reports (called once per protocol iteration/level)
    # ------------------------------------------------------------------

    def greedy_iteration(
        self, active_edges: int, proposals: int, offers: int, served: int, opened: int
    ) -> None:
        """One scaled-greedy iteration: beacon, propose, accept, resolve."""
        self._round(("greedy/active", active_edges, 1))
        self._round(("greedy/propose", proposals, 64))
        self._round(("greedy/accept", offers, self.id_bits))
        self._round(
            ("greedy/serve", served, self.id_bits),
            ("greedy/open", opened, 1),
        )

    def greedy_force(self, forced: int) -> None:
        """Terminal force round for clients with no open neighbor."""
        self._round(("greedy/force", forced, self.id_bits))

    def dual_level(
        self, unfrozen: int, unfrozen_edges: int, tight_edges: int, newly_frozen: int
    ) -> None:
        """One dual-ascent level: alpha broadcast, tightness, freezes.

        ``tight_edges`` counts the edges of the facilities that became
        tight at this level: each announces once, to every neighbour.
        """
        self._round(("dual/alpha", unfrozen_edges, 64))
        self._round(("dual/tight", tight_edges, 1))
        self._round(("dual/freeze", newly_frozen, 1))

    def dual_rounding(self, selections: int, open_edges: int, joins: int) -> None:
        """Terminal rounding: witness selection, open ads, joins."""
        self._round(("dual/select", selections, self.id_bits))
        self._round(("dual/open", open_edges, 1))
        self._round(("dual/join", joins, self.id_bits))

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def to_metrics(self) -> NetworkMetrics:
        """The accumulated :class:`NetworkMetrics` (shared, not copied)."""
        return self.metrics

    def to_timeline(self, num_nodes: int) -> "RoundTimeline":
        """A per-round timeline of the modeled traffic, engine-tagged.

        ``wall_ms`` is zero on every entry: the modeled rounds have no
        measured duration (the engine's real wall-clock is a property of
        the whole solve, reported separately).
        """
        from repro.obs.timeline import RoundTimeline, RoundTimelineEntry

        entries = [
            RoundTimelineEntry(
                round_number=round_number,
                wall_ms=0.0,
                messages=messages,
                bits=bits,
                drops=0,
                alive=num_nodes,
                finished=0,
                engine="columnar",
            )
            for round_number, messages, bits in self._entries
        ]
        return RoundTimeline(entries)


class InboxPool:
    """Reusable pool of inbox lists for the round engine.

    ``acquire`` hands out an empty list (recycled when possible);
    ``release_all`` clears every loaned list and returns it to the free
    pool. After warm-up the delivery path allocates nothing: the pool
    high-water mark is the peak number of simultaneously receiving nodes.
    """

    def __init__(self) -> None:
        self._free: list[list["Message"]] = []
        self._loaned: list[list["Message"]] = []

    def acquire(self) -> list["Message"]:
        """An empty inbox list, owned by the pool until ``release_all``."""
        inbox = self._free.pop() if self._free else []
        self._loaned.append(inbox)
        return inbox

    def release_all(self) -> None:
        """Reclaim every loaned inbox (clearing contents in place)."""
        for inbox in self._loaned:
            inbox.clear()
        self._free.extend(self._loaned)
        self._loaned.clear()

    @property
    def pooled(self) -> int:
        """Lists currently sitting in the free pool (for tests/benches)."""
        return len(self._free)
