"""Node logic of the dual-ascent variant (primal-dual mirror of the paper).

This variant realizes the same round/approximation trade-off idea through
the LP dual: clients hold budgets ``alpha_j`` that climb a geometric ladder
of ``k`` levels (:meth:`repro.core.parameters.TradeoffParameters.linear`),
facilities become *tight* when accumulated payments
``P_i = sum_j max(0, alpha_j - c_ij)`` reach the opening cost, and tight
facilities freeze the budgets of clients that can afford them. Discretizing
the classic Jain–Vazirani continuous ascent into ``k`` multiplicative jumps
is what trades rounds for approximation: each jump can overshoot tightness
by at most the ladder base ``(eff_max/eff_min)^(1/k)``.

Timeline
--------
Each level ``l`` occupies three simulator rounds:

1. **ALPHA** — every unfrozen client raises ``alpha_j`` to
   ``max(gamma_j, threshold(l))`` (``gamma_j`` = its cheapest connection
   cost) and broadcasts it.
2. **TIGHT** — facilities fold the new budgets into their payments; a
   facility crossing ``P_i >= f_i`` declares itself tight with one
   broadcast, in that level only: ``sum deg(i)`` announcements per run.
3. **FREEZE** — a client re-checks every tight facility it has heard of
   but cannot yet afford, in ascending facility id, against its current
   budget. One whose connection cost the budget covers becomes a *witness*
   and the first such freezes the client. Frozen clients keep listening
   and keep recording later witnesses (which may be cheaper); their budget
   no longer grows, so they forget the tight facilities they cannot afford.

By the last level every client has a witness: the final threshold equals
the maximum single-client star cost, at which point the client's own
contribution alone pays for its cheapest facility.

A constant-round *rounding phase* then converts tight facilities into open
ones (see :class:`RoundingPolicy` — "select_all" opens every facility some
client selected; "randomized" opens proportionally to selected payment
mass, the paper's randomized-rounding step), followed by the deterministic
fallback that force-opens a leftover client's cheapest witness, so
feasibility is unconditional.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Mapping

from repro.core.greedy_nodes import FORCE, JOIN, OPEN_AD, SERVE
from repro.core.healing import (
    SelfHealingClientMixin,
    SelfHealingPolicy,
    answer_heal_messages,
)
from repro.core.parameters import TradeoffParameters
from repro.exceptions import AlgorithmError
from repro.flags import flag
from repro.net.message import Message
from repro.net.node import Node, RoundContext

__all__ = [
    "DualFacilityNode",
    "DualClientNode",
    "RoundingPolicy",
    "dual_schedule_length",
    "dual_phase_of_round",
]

# Message kinds of the ascent and of the selection; the join/force
# handshake reuses the greedy variant's kinds.
ALPHA = "alp"
TIGHT = "tgt"
SELECT = "sel"

#: Simulator rounds per ascent level (ALPHA, TIGHT, FREEZE).
ROUNDS_PER_LEVEL = 3
_ROUNDING_ROUNDS = 5
_PAYMENT_RTOL = 1e-12


@dataclass(frozen=True)
class RoundingPolicy:
    """How tight facilities are converted into open facilities.

    Attributes
    ----------
    mode:
        ``"select_all"`` — every facility selected by at least one client
        opens (deterministic). ``"randomized"`` — a selected facility opens
        with probability ``min(1, c_round * ln(N) * mass / f_i)`` where
        ``mass`` is the selected payment volume; leftovers are handled by
        the deterministic fallback. The randomized mode is the paper's
        rounding step and the subject of ablation E6.
    """

    mode: str = flag(
        "select_all", "--rounding", choices=("select_all", "randomized"),
        help="rounding policy (dual_ascent only)")
    c_round: float = flag(
        1.0, "--c-round", help="the rounding constant (randomized only)")

    def __post_init__(self) -> None:
        if self.mode not in ("select_all", "randomized"):
            raise AlgorithmError(
                f"unknown rounding mode {self.mode!r}; "
                "expected 'select_all' or 'randomized'"
            )
        if self.c_round <= 0:
            raise AlgorithmError(f"c_round must be positive, got {self.c_round}")


def dual_schedule_length(params: TradeoffParameters) -> int:
    """Total simulator rounds of the dual-ascent protocol."""
    return ROUNDS_PER_LEVEL * params.num_scales + _ROUNDING_ROUNDS


def dual_phase_of_round(
    params: TradeoffParameters, round_number: int
) -> tuple[str, int]:
    """Map a simulator round to ``(phase_name, level)``.

    Phases are ``"alpha" | "tight" | "freeze"`` with a 1-based level during
    the ascent and ``"round1" .. "round5"`` afterwards (level 0).
    """
    ascent_end = ROUNDS_PER_LEVEL * params.num_scales
    if round_number <= ascent_end:
        level = 1 + (round_number - 1) // ROUNDS_PER_LEVEL
        offset = (round_number - 1) % ROUNDS_PER_LEVEL
        return ("alpha", "tight", "freeze")[offset], level
    rounding_offset = round_number - ascent_end
    if rounding_offset <= _ROUNDING_ROUNDS:
        return f"round{rounding_offset}", 0
    return "done", 0


class DualFacilityNode(Node):
    """A facility in the dual-ascent protocol."""

    def __init__(
        self,
        node_id: int,
        opening_cost: float,
        client_costs: Mapping[int, float],
        params: TradeoffParameters,
        policy: RoundingPolicy,
    ) -> None:
        super().__init__(node_id)
        self.opening_cost = float(opening_cost)
        self.client_costs = dict(client_costs)
        self.params = params
        self.policy = policy
        self.alphas: dict[int, float] = {}
        self.is_tight = False
        self.tight_at_level: int | None = None
        self.is_open = False
        self.was_forced = False
        self.was_healed = False
        self.served_clients: set[int] = set()

    @property
    def payment(self) -> float:
        """Current accumulated payment ``P_i``.

        Excesses are added left to right in arrival order, the order the
        other engines accumulate in; one that is not positive (``-0.0``
        and NaN included) adds ``0.0``, as ``max(0.0, excess)`` would.
        """
        costs = self.client_costs
        total = 0
        for j, alpha in self.alphas.items():
            excess = alpha - costs[j]
            total += excess if excess > 0.0 else 0.0
        return total

    def on_round(self, ctx: RoundContext, inbox: list[Message]) -> None:
        phase, level = dual_phase_of_round(self.params, ctx.round_number)
        # Budgets are folded in *every* phase, not only TIGHT: under the
        # reliable-delivery sublayer a retransmitted ALPHA can arrive a
        # round or two late, and discarding it would lose real payment.
        for msg in inbox:
            if msg.kind == ALPHA:
                self.alphas[msg.sender] = float(msg["alpha"])
        if phase == "tight":
            self._update_payments(ctx, level)
        elif phase == "round2":
            self._decide_open(ctx, inbox)
        elif phase == "round4":
            self._handle_force(ctx, inbox)
            self.finished = True
        elif phase in ("round5", "done"):
            # Retransmitted JOIN/FORCE arrive late and healing clients
            # escalate here; keep answering both forever.
            self._handle_force(ctx, inbox)
            answer_heal_messages(self, ctx, inbox)
            self.finished = True

    def _update_payments(self, ctx: RoundContext, level: int) -> None:
        """TIGHT: announce tightness on crossing (``on_round`` has already
        folded this inbox's budgets in)."""
        # The tolerance must scale with the budget ladder, not only with
        # f_i: when f_i is many orders of magnitude below the budgets,
        # float cancellation in (alpha - c) can swallow f_i entirely and
        # the exact-arithmetic tightness at the terminal level would never
        # be observed.
        slack = _PAYMENT_RTOL * max(self.opening_cost, self.params.eff_max)
        threshold = self.opening_cost - slack
        if not self.is_tight and self.payment >= threshold:
            self.is_tight = True
            self.tight_at_level = level
            ctx.log("tight", level=level, payment=self.payment)
            ctx.count("protocol_tight_total", variant="dual_ascent")
            # Announced once: a client whose budget grows later re-checks
            # the tight facilities it remembers (DualClientNode._recheck).
            ctx.broadcast(TIGHT)

    def _decide_open(self, ctx: RoundContext, inbox: list[Message]) -> None:
        """ROUNDING: open per policy and advertise to every neighbor.

        Clients then pick the cheapest *open* witness, so randomized
        rounding with a small constant genuinely trades opening cost
        (fewer facilities) against connection cost (longer detours) —
        exactly the knob ablation E6 sweeps.
        """
        selectors = [msg for msg in inbox if msg.kind == SELECT]
        if not selectors:
            return
        if self.policy.mode == "select_all":
            opens = True
        else:
            mass = sum(
                max(0.0, float(msg["alpha"]) - self.client_costs[msg.sender])
                for msg in selectors
            )
            scale = math.log(max(self.params.num_nodes, 2))
            probability = min(
                1.0, self.policy.c_round * scale * mass / max(self.opening_cost, 1e-300)
            )
            opens = bool(self.rng.random() < probability)
            ctx.log("round_coin", probability=probability, opens=opens)
        if not opens:
            return
        self.is_open = True
        ctx.log("open", selectors=len(selectors), payment=self.payment)
        ctx.count("protocol_opens_total", variant="dual_ascent")
        ctx.broadcast(OPEN_AD)

    def _handle_force(self, ctx: RoundContext, inbox: list[Message]) -> None:
        """Serve joiners; open unconditionally for forcing clients."""
        for msg in inbox:
            if msg.kind == JOIN and self.is_open:
                self.served_clients.add(msg.sender)
                ctx.send(msg.sender, SERVE)
            elif msg.kind == FORCE:
                if not self.is_open:
                    self.is_open = True
                    self.was_forced = True
                    ctx.log("forced_open", by=msg.sender)
                    ctx.count("protocol_forced_opens_total", variant="dual_ascent")
                self.served_clients.add(msg.sender)
                ctx.send(msg.sender, SERVE)


class DualClientNode(SelfHealingClientMixin, Node):
    """A client in the dual-ascent protocol."""

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
        self.gamma = min(facility_costs.values())
        self.alpha = 0.0
        self.frozen = False
        self.frozen_at_level: int | None = None
        self.witnesses: set[int] = set()
        # Tight facilities heard of but not affordable yet, ascending id.
        self._heard: list[int] = []
        self.connected_to: int | None = None
        self.used_force = False
        self._init_healing(healing)

    @property
    def connected(self) -> bool:
        """Whether the client has a confirmed serving facility."""
        return self.connected_to is not None

    def on_round(self, ctx: RoundContext, inbox: list[Message]) -> None:
        phase, level = dual_phase_of_round(self.params, ctx.round_number)
        if self._absorb(ctx, inbox) or (phase == "freeze" and self._heard):
            self._recheck(ctx, level)
        if phase == "alpha":
            if not self.frozen:
                self.alpha = max(self.gamma, self.params.threshold(level))
                ctx.log("alpha_raise", level=level, alpha=self.alpha)
                ctx.count("protocol_alpha_raises_total", variant="dual_ascent")
                ctx.broadcast(ALPHA, alpha=self.alpha)
        elif phase == "round1":
            self._select(ctx)
        elif phase == "round3":
            if not self.connected:
                self._join_or_force(ctx, inbox)
        elif phase in ("round5", "done"):
            if self.healing is not None and not self.connected:
                self._heal_tick(ctx, inbox)
            else:
                self.finished = True
        if self.connected:
            self.finished = True

    def _absorb(self, ctx: RoundContext, inbox: list[Message]) -> bool:
        """Remember tight announcements and record service confirmations.

        Returns whether a tight announcement arrived.
        """
        heard = False
        for msg in inbox:
            if msg.kind == TIGHT:
                heard = True
                facility = msg.sender
                if facility not in self.witnesses and facility not in self._heard:
                    bisect.insort(self._heard, facility)
            elif msg.kind == SERVE and not self.connected:
                self.connected_to = msg.sender
                ctx.log("connected", facility=msg.sender)
                ctx.count("protocol_connects_total", variant="dual_ascent")
        return heard

    def _recheck(self, ctx: RoundContext, level: int) -> None:
        """Make every remembered tight facility the budget covers a witness.

        The walk ascends by facility id, the order of a sorted inbox, so
        the first witness found is the one ``settle`` records.
        """
        bound = self.alpha * (1 + 1e-12)
        costs = self.facility_costs
        unaffordable = []
        for facility in self._heard:
            if costs[facility] <= bound:
                self.witnesses.add(facility)
                if not self.frozen:
                    self.frozen = True
                    self.frozen_at_level = level
                    ctx.log("settle", level=level, witness=facility)
                    ctx.count("protocol_settles_total", variant="dual_ascent")
            else:
                unaffordable.append(facility)
        # A frozen budget never grows again, so what it cannot afford now
        # it never will.
        self._heard = [] if self.frozen else unaffordable

    def _cheapest_witness(self) -> int:
        if not self.witnesses:
            if self.healing is not None:
                # Under faults every TIGHT announcement can be lost; with
                # healing enabled the client degrades gracefully to its
                # cheapest neighbor (healing will repair a bad pick).
                return min(
                    self.facility_costs,
                    key=lambda i: (self.facility_costs[i], i),
                )
            raise AlgorithmError(
                f"client node {self.node_id} reached rounding with no witness; "
                "the final ascent level should make this impossible"
            )
        return min(self.witnesses, key=lambda i: (self.facility_costs[i], i))

    def _select(self, ctx: RoundContext) -> None:
        """ROUNDING: point at the cheapest witness."""
        target = self._cheapest_witness()
        ctx.log("select", facility=target, alpha=self.alpha)
        ctx.send(target, SELECT, alpha=self.alpha)

    def _join_or_force(self, ctx: RoundContext, inbox: list[Message]) -> None:
        """Join the cheapest *open* witness; failing that, force one open."""
        open_witnesses = [
            msg.sender
            for msg in inbox
            if msg.kind == OPEN_AD and msg.sender in self.witnesses
        ]
        if open_witnesses:
            target = min(
                open_witnesses, key=lambda i: (self.facility_costs[i], i)
            )
            ctx.send(target, JOIN)
            ctx.log("join", facility=target)
        else:
            target = self._cheapest_witness()
            self.used_force = True
            ctx.send(target, FORCE)
            ctx.log("force", facility=target)
