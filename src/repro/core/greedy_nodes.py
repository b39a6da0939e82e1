"""Node logic of the flagship trade-off algorithm (scaled parallel greedy).

The protocol realizes the PODC 2005 round/approximation trade-off as a
parallel greedy over *star efficiencies*, discretized into
``num_scales = ceil(sqrt(k))`` geometric thresholds with
``num_settle = ceil(k / num_scales)`` conflict-resolution iterations per
threshold (see :mod:`repro.core.parameters` and DESIGN.md).

Timeline
--------
Each proposal iteration ``t`` occupies four simulator rounds:

1. **ACTIVE** — every still-unconnected client broadcasts ``active`` to its
   neighbor facilities (and processes ``serve`` confirmations from the
   previous iteration).
2. **PROPOSE** — every facility computes, over the clients that announced
   themselves active, its largest star whose efficiency qualifies at the
   current threshold (for an already-open facility the opening cost is
   sunk, so only connection costs count). Qualifying facilities draw a
   random priority and send ``propose(priority)`` to their star clients.
3. **ACCEPT** — every active client accepts the highest-priority proposal
   it received (``accept``), ignoring the rest. The random priorities
   implement the classic parallel-greedy symmetry breaking: competing
   facilities win a random subset of the contested clients.
4. **DECIDE** — a closed facility opens when at least half of its star
   accepted (opening for fewer would blow its efficiency past the
   threshold); an open facility absorbs every accepter. Serving facilities
   confirm with ``serve``.

After all iterations a constant-round *force phase* guarantees
feasibility: leftover clients probe for open neighbors, join the cheapest
one, and failing that force their cheapest neighbor facility open. By the
last scale the threshold equals the maximum single-client star cost, so a
forced opening never exceeds what the final threshold already permits.

Every message carries at most one float plus a constant-size tag —
``O(log N)`` bits for polynomially-bounded costs.
"""

from __future__ import annotations

import math
from typing import Mapping

from repro.core.healing import (
    SelfHealingClientMixin,
    SelfHealingPolicy,
    answer_heal_messages,
)
from repro.core.parameters import TradeoffParameters
from repro.net.message import Message
from repro.net.node import Node, RoundContext

__all__ = [
    "GreedyFacilityNode",
    "GreedyClientNode",
    "schedule_length",
    "phase_of_round",
]

# Message kinds (constant-size protocol alphabet). The force-phase kinds
# OPEN_AD, JOIN, FORCE and SERVE are shared with the dual-ascent variant.
ACTIVE = "act"
PROPOSE = "prp"
ACCEPT = "acc"
SERVE = "srv"
PROBE = "prb"
OPEN_AD = "oad"
JOIN = "join"
FORCE = "frc"

#: Simulator rounds per proposal iteration (ACTIVE, PROPOSE, ACCEPT, DECIDE).
ROUNDS_PER_ITERATION = 4
_FORCE_PHASE_ROUNDS = 5


def schedule_length(params: TradeoffParameters) -> int:
    """Total simulator rounds the protocol runs for a given schedule."""
    return ROUNDS_PER_ITERATION * params.num_iterations + _FORCE_PHASE_ROUNDS


def phase_of_round(params: TradeoffParameters, round_number: int) -> tuple[str, int]:
    """Map a simulator round to ``(phase_name, iteration)``.

    Phases are ``"active" | "propose" | "accept" | "decide"`` during the
    proposal iterations (with the 1-based iteration index) and
    ``"force1" .. "force5"`` afterwards (iteration 0). Rounds past the end
    of the schedule map to ``("done", 0)``.
    """
    iterations_end = ROUNDS_PER_ITERATION * params.num_iterations
    if round_number <= iterations_end:
        iteration = 1 + (round_number - 1) // ROUNDS_PER_ITERATION
        offset = (round_number - 1) % ROUNDS_PER_ITERATION
        return ("active", "propose", "accept", "decide")[offset], iteration
    force_offset = round_number - iterations_end
    if force_offset <= _FORCE_PHASE_ROUNDS:
        return f"force{force_offset}", 0
    return "done", 0


class GreedyFacilityNode(Node):
    """A facility in the scaled parallel greedy protocol.

    Parameters
    ----------
    node_id:
        Simulator identifier (equal to the facility index).
    opening_cost:
        The facility's opening cost ``f_i``.
    client_costs:
        Mapping from *client node id* to connection cost ``c_ij`` — the
        facility's local input (it knows its incident edges, nothing else).
    params:
        The globally known schedule.
    """

    #: Fraction of the proposed star that must accept before a closed
    #: facility opens. 0.5 is the analyzed rule (opening on fewer would
    #: push the realized per-client cost past 2x the threshold); ablation
    #: E16 sweeps this knob from "open on any accept" (0) to "demand the
    #: full star" (1).
    open_fraction: float = 0.5

    def __init__(
        self,
        node_id: int,
        opening_cost: float,
        client_costs: Mapping[int, float],
        params: TradeoffParameters,
        open_fraction: float = 0.5,
    ) -> None:
        super().__init__(node_id)
        self.opening_cost = float(opening_cost)
        self.client_costs = dict(client_costs)
        self.params = params
        self.open_fraction = float(open_fraction)
        self.is_open = False
        self.opened_at_round: int | None = None
        self.was_forced = False
        self.was_healed = False
        self.served_clients: set[int] = set()
        self._proposed_star: tuple[int, ...] = ()

    def on_recover(self, ctx: RoundContext) -> None:
        """Volatile reset: the in-flight proposal did not survive the crash.

        Durable state — ``is_open``, ``served_clients`` — is journaled and
        kept; a recovered open facility still serves late joiners.
        """
        self._proposed_star = ()

    # -- protocol ------------------------------------------------------

    def on_round(self, ctx: RoundContext, inbox: list[Message]) -> None:
        phase, iteration = phase_of_round(self.params, ctx.round_number)
        if phase == "propose":
            self._propose(ctx, inbox, iteration)
        elif phase == "decide":
            self._decide(ctx, inbox)
        elif phase == "force2":
            self._answer_probes(ctx, inbox)
        elif phase == "force4":
            self._handle_join_and_force(ctx, inbox)
            self.finished = True
        elif phase in ("force5", "done"):
            # Under faults, retransmitted JOIN/FORCE can arrive late and
            # healing clients may escalate; keep answering both forever.
            self._handle_join_and_force(ctx, inbox)
            answer_heal_messages(self, ctx, inbox)
            self.finished = True
        # "active", "accept", "force1", "force3" are client-talk rounds.

    def _propose(
        self, ctx: RoundContext, inbox: list[Message], iteration: int
    ) -> None:
        """PROPOSE: find the largest qualifying star over active clients."""
        active = sorted(
            msg.sender for msg in inbox if msg.kind == ACTIVE
        )
        self._proposed_star = ()
        if not active:
            return
        scale = self.params.scale_of_iteration(iteration)
        star = self._best_star(active, scale)
        if not star:
            return
        self._proposed_star = star
        priority = float(self.rng.random())
        ctx.log("propose", scale=scale, size=len(star), priority=priority)
        ctx.count("protocol_proposals_total", variant="greedy")
        for client in star:
            ctx.send(client, PROPOSE, priority=priority)

    def _best_star(self, active: list[int], scale: int) -> tuple[int, ...]:
        """Largest prefix star qualifying at ``scale`` (empty if none).

        Clients are ordered by connection cost (node id as tie-break, so
        the computation is deterministic); for an open facility the opening
        cost is sunk and only the marginal connection costs count.
        """
        fee = 0.0 if self.is_open else self.opening_cost
        ordered = sorted(active, key=lambda j: (self.client_costs[j], j))
        total = fee
        best_size = 0
        for size, client in enumerate(ordered, start=1):
            total += self.client_costs[client]
            if self.params.qualifies(total / size, scale):
                best_size = size
        return tuple(ordered[:best_size])

    def _decide(self, ctx: RoundContext, inbox: list[Message]) -> None:
        """DECIDE: open when enough of the star accepted; confirm service."""
        accepted = sorted(
            msg.sender
            for msg in inbox
            if msg.kind == ACCEPT and msg.sender in set(self._proposed_star)
        )
        if not accepted:
            return
        if not self.is_open:
            needed = max(1, math.ceil(len(self._proposed_star) * self.open_fraction))
            if len(accepted) < needed:
                ctx.log("underfilled", got=len(accepted), needed=needed)
                return
            self.is_open = True
            self.opened_at_round = ctx.round_number
            ctx.log("open", accepted=len(accepted))
            ctx.count("protocol_opens_total", variant="greedy")
        for client in accepted:
            self.served_clients.add(client)
            ctx.send(client, SERVE)

    def _answer_probes(self, ctx: RoundContext, inbox: list[Message]) -> None:
        """FORCE phase: tell probing clients whether this facility is open."""
        if not self.is_open:
            return
        for msg in inbox:
            if msg.kind == PROBE:
                ctx.send(msg.sender, OPEN_AD)

    def _handle_join_and_force(self, ctx: RoundContext, inbox: list[Message]) -> None:
        """FORCE phase: serve joiners; open unconditionally when forced."""
        for msg in inbox:
            if msg.kind == JOIN and self.is_open:
                self.served_clients.add(msg.sender)
                ctx.send(msg.sender, SERVE)
            elif msg.kind == FORCE:
                if not self.is_open:
                    self.is_open = True
                    self.opened_at_round = ctx.round_number
                    self.was_forced = True
                    ctx.log("forced_open", by=msg.sender)
                    ctx.count("protocol_forced_opens_total", variant="greedy")
                self.served_clients.add(msg.sender)
                ctx.send(msg.sender, SERVE)


class GreedyClientNode(SelfHealingClientMixin, Node):
    """A client in the scaled parallel greedy protocol.

    Parameters
    ----------
    node_id:
        Simulator identifier (``num_facilities + client index``).
    facility_costs:
        Mapping from *facility node id* to connection cost — the client's
        local input.
    params:
        The globally known schedule.
    healing:
        Optional :class:`~repro.core.healing.SelfHealingPolicy`; when set,
        an unserved client keeps running past the schedule and escalates
        to its cheapest responsive facility instead of finishing unserved.
    """

    def __init__(
        self,
        node_id: int,
        facility_costs: Mapping[int, float],
        params: TradeoffParameters,
        healing: SelfHealingPolicy | None = None,
    ) -> None:
        super().__init__(node_id)
        self.facility_costs = dict(facility_costs)
        self.params = params
        self.connected_to: int | None = None
        self.connected_at_round: int | None = None
        self.failed_accepts = 0
        self.used_force = False
        self._accepted: int | None = None
        self._init_healing(healing)

    def on_recover(self, ctx: RoundContext) -> None:
        """Volatile reset: a pending accept did not survive the crash."""
        self._accepted = None

    @property
    def connected(self) -> bool:
        """Whether the client has a confirmed serving facility."""
        return self.connected_to is not None

    # -- protocol ------------------------------------------------------

    def on_round(self, ctx: RoundContext, inbox: list[Message]) -> None:
        phase, _iteration = phase_of_round(self.params, ctx.round_number)
        self._absorb_serves(ctx, inbox, phase)
        if self.connected:
            self.finished = True
            return
        if phase == "active":
            ctx.broadcast(ACTIVE)
        elif phase == "accept":
            self._accept_best(ctx, inbox)
        elif phase == "force1":
            ctx.broadcast(PROBE)
        elif phase == "force3":
            self._join_or_force(ctx, inbox)
        elif phase in ("force5", "done"):
            if self.healing is not None:
                # Self-healing: stay alive past the schedule and escalate
                # until served or out of attempts.
                self._heal_tick(ctx, inbox)
            else:
                # A lost SERVE (fault injection) can leave a client
                # unserved; it still terminates so the run can end and
                # report the gap.
                self.finished = True

    # A SERVE confirmation is due exactly two rounds after the client sent
    # ACCEPT (or JOIN/FORCE): at the next "active" round, at "force1" after
    # the last decide, or at "force5" after the force-phase handshake.
    _SERVE_DUE_PHASES = frozenset({"active", "force1", "force5"})

    def _absorb_serves(
        self, ctx: RoundContext, inbox: list[Message], phase: str
    ) -> None:
        """Process service confirmations; also count failed accepts."""
        serves = [msg.sender for msg in inbox if msg.kind == SERVE]
        if serves and not self.connected:
            # Multiple serves can only happen under faults; keep cheapest.
            best = min(serves, key=lambda i: (self.facility_costs[i], i))
            self.connected_to = best
            self.connected_at_round = ctx.round_number
            ctx.log("connected", facility=best)
            ctx.count("protocol_connects_total", variant="greedy")
        if phase in self._SERVE_DUE_PHASES:
            if not serves and self._accepted is not None:
                self.failed_accepts += 1
            self._accepted = None

    def _accept_best(self, ctx: RoundContext, inbox: list[Message]) -> None:
        """ACCEPT: take the highest-priority proposal, if any."""
        proposals = [msg for msg in inbox if msg.kind == PROPOSE]
        if not proposals:
            return
        best = max(proposals, key=lambda msg: (msg["priority"], -msg.sender))
        self._accepted = best.sender
        ctx.log("accept", facility=best.sender, offers=len(proposals))
        ctx.send(best.sender, ACCEPT)

    def _join_or_force(self, ctx: RoundContext, inbox: list[Message]) -> None:
        """FORCE phase: join the cheapest open neighbor, else force one open."""
        open_neighbors = [msg.sender for msg in inbox if msg.kind == OPEN_AD]
        if open_neighbors:
            target = min(open_neighbors, key=lambda i: (self.facility_costs[i], i))
            ctx.send(target, JOIN)
            ctx.log("join", facility=target)
        else:
            target = min(
                self.facility_costs, key=lambda i: (self.facility_costs[i], i)
            )
            self.used_force = True
            ctx.send(target, FORCE)
            ctx.log("force", facility=target)
        self._accepted = target
