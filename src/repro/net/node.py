"""The node protocol: what a distributed algorithm implements.

A protocol is a set of :class:`Node` subclasses. The simulator drives them
through exactly two hooks:

* :meth:`Node.on_setup` — called once, before round 1. Messages sent here
  are delivered in round 1.
* :meth:`Node.on_round` — called every round with the messages delivered to
  the node this round. Messages sent here are delivered next round.

Nodes communicate *only* through :meth:`RoundContext.send`; the simulator
rejects sends to non-neighbors, so information can never bypass the network
topology. A node signals local termination by setting ``self.finished``;
the simulation ends when every node has finished and no message is in
flight.

Within a round nodes are invoked in increasing node-id order, but since a
message sent in round ``r`` is only visible in round ``r + 1``, the
invocation order cannot leak information — the semantics are those of a
fully synchronous network.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, TYPE_CHECKING

import numpy as np

from repro.exceptions import MessageSizeError, NotANeighborError, SimulationError
from repro.net.message import Message, message_bits
from repro.net.rng import node_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.net.simulator import Simulator

__all__ = ["Node", "RoundContext"]

# Builds a Message from an already wrapped payload and the bits that
# send/broadcast priced for it with message_bits, skipping Message.__new__
# (which prices every message it builds). This is the only place a
# message's size is passed in rather than priced: broadcast prices its
# payload once for all of its receivers.
_new_message = tuple.__new__


def _oversize(message: Message, budget: int) -> MessageSizeError:
    return MessageSizeError(
        f"message {message!r} is {message.bits} bits, exceeding the "
        f"{budget}-bit budget"
    )


class Node:
    """Base class for protocol nodes.

    Attributes:

    ``node_id``
        This node's identifier in the topology.
    ``neighbors``
        Frozenset of neighbor identifiers, set by the simulator before
        :meth:`on_setup`.
    ``rng``
        A private ``numpy.random.Generator``; all of the node's coin flips
        must come from here so runs are reproducible. It is built on the
        first draw: ``node_rng(seed, node_id)`` for the seed the simulator
        keyed it to (:meth:`seed_rng`), ``default_rng(0)`` for a node
        driven without one. A node that never draws builds none.
    ``finished``
        Set to ``True`` by the node itself when its part of the protocol is
        complete.
    ``crashed``
        Set by the simulator's fault injection; a crashed node is not
        invoked and its outgoing messages are discarded. A node with a
        scheduled recovery round rejoins later: the simulator clears the
        flag and calls :meth:`on_recover` so the node can reset its
        volatile state.
    """

    def __init__(self, node_id: int) -> None:
        self.node_id = int(node_id)
        self.neighbors: frozenset[int] = frozenset()
        self._rng: np.random.Generator | None = None
        self._rng_seed: int | None = None
        self.finished = False
        self.crashed = False

    @property
    def rng(self) -> np.random.Generator:
        if self._rng is None:
            if self._rng_seed is None:
                self._rng = np.random.default_rng(0)
            else:
                self._rng = node_rng(self._rng_seed, self.node_id)
        return self._rng

    def seed_rng(self, seed: int) -> None:
        """Key :attr:`rng` to ``node_rng(seed, node_id)``, built on the
        first draw; a stream built before is dropped."""
        self._rng_seed = seed
        self._rng = None

    def on_setup(self, ctx: "RoundContext") -> None:
        """One-time initialization hook (round 0). Override as needed."""

    def on_round(self, ctx: "RoundContext", inbox: list[Message]) -> None:
        """Per-round hook. Override in protocol implementations."""
        raise NotImplementedError

    def on_recover(self, ctx: "RoundContext") -> None:
        """Crash-recovery hook: the node rejoins with volatile state reset.

        Called by the simulator at the start of the node's scheduled
        recovery round, before :meth:`on_round` runs again. Override to
        clear whatever in-protocol scratch state would not have survived a
        real crash (durable decisions — e.g. a facility's committed
        opening — are assumed journaled and survive). The default keeps
        everything, which models a node that merely paused.
        """

    def __repr__(self) -> str:
        state = "finished" if self.finished else "running"
        return f"{type(self).__name__}(id={self.node_id}, {state})"


class RoundContext:
    """Per-node, per-round capability handle.

    The context is the only channel through which a node can affect the
    outside world, which is what lets the simulator enforce the model:
    neighbor-only delivery, per-message bit budgets, and (optionally) the
    strict CONGEST rule of at most one message per edge per round.
    """

    def __init__(self, simulator: "Simulator", node: Node, round_number: int) -> None:
        self._simulator = simulator
        self._node = node
        self._round_number = round_number
        self._sent_to: set[int] = set()
        # The simulator's pending list; it is cleared in place each round,
        # never replaced, so the context can append to it directly.
        self._pending: list[Message] = simulator._pending

    def rebind(self, node: Node, round_number: int) -> None:
        """Point this context at another node (or round) and reset state.

        The simulator reuses one context object across all node
        invocations of a round instead of allocating one per node — a
        measurable win on the hot path. Contexts are only valid during
        the ``on_setup``/``on_round``/``on_recover`` call they are passed
        to, so nodes must not retain them; rebinding enforces that any
        stale reference now acts for the wrong node.
        """
        self._node = node
        self._round_number = round_number
        self._sent_to.clear()

    @property
    def round_number(self) -> int:
        """The current round (0 during setup)."""
        return self._round_number

    @property
    def node_id(self) -> int:
        """Identifier of the node this context belongs to."""
        return self._node.node_id

    def send(self, receiver: int, kind: str, **payload: Any) -> None:
        """Queue a message for delivery to ``receiver`` next round.

        Raises
        ------
        NotANeighborError
            If ``receiver`` is not adjacent to this node.
        MessageSizeError
            If the simulator enforces a bit budget and the message exceeds
            it.
        SimulationError
            If strict CONGEST mode is on and this node already sent to
            ``receiver`` this round, or a payload value is not a supported
            scalar.
        """
        node = self._node
        if receiver not in node.neighbors:
            raise NotANeighborError(
                f"node {node.node_id} attempted to send to non-neighbor "
                f"{receiver}"
            )
        simulator = self._simulator
        if simulator.enforce_single_message_per_edge:
            self._claim_edge(receiver)
        payload = MappingProxyType(payload)
        bits = message_bits(kind, payload)
        message = _new_message(
            Message,
            (node.node_id, receiver, kind, payload, self._round_number, bits),
        )
        budget = simulator.max_message_bits
        if budget is not None and bits > budget:
            raise _oversize(message, budget)
        self._pending.append(message)

    def broadcast(self, kind: str, **payload: Any) -> None:
        """Send the same message to every neighbor, in increasing id order.

        The payload is priced once, and one read-only copy of it is shared
        by every receiver's message. Strict CONGEST and the bit budget are
        enforced exactly as for :meth:`send`.
        """
        node = self._node
        simulator = self._simulator
        receivers = simulator.topology.neighbor_order(node.node_id)
        if not receivers:
            return
        strict = simulator.enforce_single_message_per_edge
        budget = simulator.max_message_bits
        payload = MappingProxyType(payload)
        bits = message_bits(kind, payload)
        sender = node.node_id
        round_number = self._round_number
        append = self._pending.append
        for receiver in receivers:
            if strict:
                self._claim_edge(receiver)
            message = _new_message(
                Message, (sender, receiver, kind, payload, round_number, bits)
            )
            if budget is not None and bits > budget:
                raise _oversize(message, budget)
            append(message)

    def _claim_edge(self, receiver: int) -> None:
        """Strict CONGEST: record this round's one message to ``receiver``."""
        if receiver in self._sent_to:
            raise SimulationError(
                f"node {self._node.node_id} sent two messages to {receiver} "
                f"in round {self._round_number} (strict CONGEST mode)"
            )
        self._sent_to.add(receiver)

    def log(self, event: str, **data: Any) -> None:
        """Record a structured trace event (no-op when tracing is off).

        The ``enabled`` guard makes the disabled path a single attribute
        check: with the default :class:`~repro.net.trace.NullTrace`,
        ``record`` is never even called.
        """
        trace = self._simulator.trace
        if trace.enabled:
            trace.record(self._round_number, self._node.node_id, event, data)

    def count(self, name: str, amount: float = 1, **labels: Any) -> None:
        """Increment a registry counter (no-op without a registry).

        Guarded exactly like :meth:`log`: when no
        :class:`~repro.obs.registry.MetricsRegistry` is attached to the
        simulator, the cost is a single ``None`` check and the registry
        machinery is never touched.
        """
        registry = self._simulator.registry
        if registry is not None:
            registry.counter(name).inc(amount, **labels)
