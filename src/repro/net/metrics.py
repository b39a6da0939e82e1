"""Network-cost accounting: rounds, messages, bits, congestion.

The paper's complexity claims are about exactly two resources — the number
of synchronous rounds and the number of bits per message. The simulator
feeds every sent message through :class:`NetworkMetrics` (one batch per
round, :meth:`NetworkMetrics.record_messages`) and every closed
:class:`~repro.obs.timeline.RoundTimelineEntry` through
:meth:`NetworkMetrics.close_round`, so after a run the caller can read
off:

* ``rounds`` — rounds executed,
* ``total_messages`` / ``total_bits`` — traffic volume,
* ``max_message_bits`` — the largest single message (the CONGEST bound),
* ``max_messages_per_round`` — peak per-round traffic,
* per-kind message counts — useful for protocol-level regression tests,
* per-kind and per-round *drop* counts — fault injection loses concrete
  messages, and knowing *which* protocol step lost them (a dropped SERVE
  confirmation is much worse than a dropped ACTIVE beacon) is what makes
  fault experiments explainable.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.obs.registry import MetricsRegistry
    from repro.obs.timeline import RoundTimelineEntry

__all__ = ["NetworkMetrics"]

_BITS = operator.attrgetter("bits")
_KIND = operator.attrgetter("kind")


@dataclass
class NetworkMetrics:
    """Mutable accumulator of network costs for one simulation run.

    It keeps totals only: ``rounds``, ``max_messages_per_round`` and
    ``drops_by_round`` are set from the run's round records by
    :meth:`close_round`, which both message planes call.
    """

    rounds: int = 0
    total_messages: int = 0
    total_bits: int = 0
    max_message_bits: int = 0
    max_messages_per_round: int = 0
    dropped_messages: int = 0
    retransmitted_messages: int = 0
    retransmitted_bits: int = 0
    ack_messages: int = 0
    ack_bits: int = 0
    duplicated_messages: int = 0
    messages_by_kind: Counter = field(default_factory=Counter)
    drops_by_kind: Counter = field(default_factory=Counter)
    drops_by_round: Counter = field(default_factory=Counter)

    def close_round(self, entry: "RoundTimelineEntry") -> None:
        """Take one closed round record's share of the per-round aggregates."""
        self.rounds = entry.round_number
        self.max_messages_per_round = max(self.max_messages_per_round, entry.messages)
        if entry.drops:
            self.drops_by_round[entry.round_number] += entry.drops

    def record_message(self, message: Message) -> None:
        """Account one *sent* message (dropped ones are recorded separately)."""
        self.record_messages((message,))

    def record_messages(self, messages: Sequence[Message]) -> None:
        """Account one round's sent messages in one pass.

        Per-kind counts keep first-seen kind order. Each message's
        precomputed ``bits`` is read once, and every total is updated once
        per call rather than once per message.
        """
        if not messages:
            return
        sizes = list(map(_BITS, messages))
        self.total_messages += len(sizes)
        self.total_bits += sum(sizes)
        self.max_message_bits = max(self.max_message_bits, max(sizes))
        self.messages_by_kind.update(map(_KIND, messages))

    def record_drop(self, message: Message | None = None) -> None:
        """Account one message lost to fault injection.

        Passing the lost message attributes the drop by kind, so fault
        analyses can tell *what* was lost; the round it was lost in
        reaches ``drops_by_round`` through the round's record.
        """
        self.dropped_messages += 1
        if message is not None:
            self.drops_by_kind[message.kind] += 1

    def record_retransmit(self, message: Message) -> None:
        """Account one retransmitted copy (reliable-delivery sublayer).

        A retransmission is real traffic: it is charged into the message
        and bit totals exactly like a fresh send (so the CONGEST envelope
        sees it), *and* tracked separately so the bandwidth price of
        reliability stays visible.
        """
        self.record_message(message)
        self.retransmitted_messages += 1
        self.retransmitted_bits += message.bits

    def record_ack(self, message: Message) -> None:
        """Account one explicit ACK of a retransmitted copy (charged)."""
        self.record_message(message)
        self.ack_messages += 1
        self.ack_bits += message.bits

    def record_duplicate(self, message: Message) -> None:
        """Account one fault-injected duplicate delivery (not charged:
        the network copied the message, the sender paid only once)."""
        self.duplicated_messages += 1

    @property
    def mean_message_bits(self) -> float:
        """Average bits per message (0 when no message was sent)."""
        if self.total_messages == 0:
            return 0.0
        return self.total_bits / self.total_messages

    def summary(self) -> dict[str, Any]:
        """Dictionary for tables and experiment records.

        Counts are ints, ``mean_message_bits`` is a float, and the per-kind
        / per-round breakdowns are plain ``dict`` with string keys so they
        survive JSON round-trips into experiment records.
        """
        return {
            "rounds": self.rounds,
            "total_messages": self.total_messages,
            "total_bits": self.total_bits,
            "max_message_bits": self.max_message_bits,
            "mean_message_bits": self.mean_message_bits,
            "max_messages_per_round": self.max_messages_per_round,
            "dropped_messages": self.dropped_messages,
            "retransmitted_messages": self.retransmitted_messages,
            "retransmitted_bits": self.retransmitted_bits,
            "ack_messages": self.ack_messages,
            "ack_bits": self.ack_bits,
            "duplicated_messages": self.duplicated_messages,
            "messages_by_kind": dict(self.messages_by_kind),
            "drops_by_kind": dict(self.drops_by_kind),
            "drops_by_round": {
                str(r): count for r, count in sorted(self.drops_by_round.items())
            },
        }

    def publish(self, registry: "MetricsRegistry") -> None:
        """Publish the current totals into a metrics registry.

        Scalar totals become gauges under the ``net_`` prefix; the per-kind
        message and drop breakdowns become ``kind``-labeled gauges. Safe to
        call repeatedly (gauges overwrite).
        """
        registry.gauge("net_rounds").set(self.rounds)
        registry.gauge("net_messages_total").set(self.total_messages)
        registry.gauge("net_bits_total").set(self.total_bits)
        registry.gauge("net_max_message_bits").set(self.max_message_bits)
        registry.gauge("net_max_messages_per_round").set(self.max_messages_per_round)
        registry.gauge("net_dropped_messages").set(self.dropped_messages)
        registry.gauge("net_retransmitted_messages").set(self.retransmitted_messages)
        registry.gauge("net_retransmitted_bits").set(self.retransmitted_bits)
        registry.gauge("net_ack_messages").set(self.ack_messages)
        registry.gauge("net_ack_bits").set(self.ack_bits)
        registry.gauge("net_duplicated_messages").set(self.duplicated_messages)
        for kind, count in self.messages_by_kind.items():
            registry.gauge("net_messages_by_kind").set(count, kind=kind)
        for kind, count in self.drops_by_kind.items():
            registry.gauge("net_drops_by_kind").set(count, kind=kind)
