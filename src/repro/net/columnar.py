"""The columnar engine's CONGEST cost model.

The columnar engine never builds a :class:`~repro.net.message.Message`
(a million-node round cannot afford one Python object per edge), yet
the paper's claims are about rounds, messages and bits. So the kernel
schedule reports, at each snapshot, how many messages of each wire kind
the object-graph protocol sends, and :class:`ColumnarBitLedger` charges
them into the :class:`~repro.net.metrics.NetworkMetrics` and
:class:`~repro.obs.timeline.RoundTimeline` shapes every engine produces:
it appends one round record per round, from round 0, and closes each
into the metrics the way the simulator does.

The kinds are the node modules' own (:mod:`repro.core.greedy_nodes`,
:mod:`repro.core.dual_ascent_nodes`), priced by
:func:`~repro.net.message.message_bits` and placed in the rounds the
nodes' schedules put them in; ``docs/ALGORITHM.md`` tables each kind,
its payload and its round. On a fault-free run the ledger's metrics
equal the simulator's field for field, and so does every round's
record in ``(round_number, messages, bits, drops)``.
"""

from __future__ import annotations

from repro.core import dual_ascent_nodes as dual
from repro.core import greedy_nodes as greedy
from repro.core.parameters import TradeoffParameters
from repro.net.message import message_bits
from repro.net.metrics import NetworkMetrics
from repro.obs.timeline import RoundTimeline, RoundTimelineEntry

__all__ = ["ColumnarBitLedger"]

#: The payload of each kind that carries one; every other kind carries
#: none, because its sender is implicit.
_PAYLOADS = {
    greedy.PROPOSE: {"priority": 0.0},
    dual.ALPHA: {"alpha": 0.0},
    dual.SELECT: {"alpha": 0.0},
}


class ColumnarBitLedger:
    """Modeled CONGEST traffic of one columnar run on schedule ``params``.

    Each report covers a stretch of the protocol's schedule; the closing
    one of either variant ends the run at the round the simulator does.
    ``timeline`` holds a record for every closed round, each with
    ``alive`` = every node, no wall-clock and ``engine="columnar"``.
    """

    def __init__(self, params: TradeoffParameters) -> None:
        self.params = params
        self.metrics = NetworkMetrics()
        self.timeline = RoundTimeline()
        # The open round and the traffic charged to it so far.
        self._round = self._messages = self._bits = 0
        self._close_through(0)

    def _close_through(self, last: int) -> None:
        """Record every round up to ``last``, whether it sent or not."""
        while self._round <= last:
            entry = RoundTimelineEntry(
                round_number=self._round, wall_ms=0.0, messages=self._messages,
                bits=self._bits, drops=0, alive=self.params.num_nodes,
                finished=0, engine="columnar",
            )
            self.timeline.append(entry)
            self.metrics.close_round(entry)
            self._round += 1
            self._messages = self._bits = 0

    def _send(self, round_number: int, kind: str, count: int) -> None:
        """Charge ``count`` messages of ``kind`` sent in ``round_number``."""
        if count <= 0:
            return
        self._close_through(round_number - 1)
        bits = message_bits(kind, _PAYLOADS.get(kind, {}))
        metrics = self.metrics
        metrics.total_messages += count
        metrics.total_bits += bits * count
        metrics.max_message_bits = max(metrics.max_message_bits, bits)
        metrics.messages_by_kind[kind] += count
        self._messages += count
        self._bits += bits * count

    def greedy_iteration(
        self, iteration: int, active_edges: int, proposals: int, offers: int, served: int
    ) -> None:
        """One proposal iteration: ACTIVE, PROPOSE, ACCEPT, DECIDE."""
        first = greedy.ROUNDS_PER_ITERATION * (iteration - 1)
        self._send(first + 1, greedy.ACTIVE, active_edges)
        self._send(first + 2, greedy.PROPOSE, proposals)
        self._send(first + 3, greedy.ACCEPT, offers)
        self._send(first + 4, greedy.SERVE, served)

    def greedy_force(self, probes: int, open_ads: int, leftover: int, forced: int) -> None:
        """The force phase, then the end of the run.

        ``leftover`` clients probe and hear from their open neighbours;
        ``forced`` of them force a facility open, the rest join, and all
        are served. The last round only delivers those serves, so a run
        with no leftover client ends one round sooner.
        """
        first = greedy.ROUNDS_PER_ITERATION * self.params.num_iterations
        self._send(first + 1, greedy.PROBE, probes)
        self._send(first + 2, greedy.OPEN_AD, open_ads)
        self._send(first + 3, greedy.JOIN, leftover - forced)
        self._send(first + 3, greedy.FORCE, forced)
        self._send(first + 4, greedy.SERVE, leftover)
        rounds = greedy.schedule_length(self.params)
        self._close_through(rounds if leftover else rounds - 1)

    def dual_level(self, level: int, unfrozen_edges: int, tight_edges: int) -> None:
        """One ascent level: ALPHA, TIGHT, and a FREEZE that sends nothing.

        ``tight_edges`` counts the edges of the facilities that became
        tight at this level: each announces once, to every neighbour.
        """
        first = dual.ROUNDS_PER_LEVEL * (level - 1)
        self._send(first + 1, dual.ALPHA, unfrozen_edges)
        self._send(first + 2, dual.TIGHT, tight_edges)

    def dual_rounding(self, clients: int, open_ads: int, forced: int) -> None:
        """The rounding phase, then the end of the run.

        Every client selects a witness; coin-opened facilities advertise
        to every neighbour; ``forced`` clients force a witness open, the
        rest join, and all are served.
        """
        first = dual.ROUNDS_PER_LEVEL * self.params.num_scales
        self._send(first + 1, dual.SELECT, clients)
        self._send(first + 2, dual.OPEN_AD, open_ads)
        self._send(first + 3, dual.JOIN, clients - forced)
        self._send(first + 3, dual.FORCE, forced)
        self._send(first + 4, dual.SERVE, clients)
        self._close_through(dual.dual_schedule_length(self.params))
