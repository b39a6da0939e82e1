"""Fault injection for robustness experiments (extension E11/E17).

The PODC 2005 model assumes reliable synchronous links; fault injection is
an *extension* this repository adds so the deterministic-fallback and
self-healing steps of the algorithm can be exercised under adversity. The
fault family is composable — one :class:`FaultPlan` may combine any subset
of:

* **iid message drops** — each message is lost independently with
  probability ``drop_probability``;
* **bursty (correlated) loss** — a per-link Gilbert–Elliott two-state
  channel (:class:`GilbertElliottLoss`): each directed link wanders between
  a *good* and a *bad* state round by round and loses messages with the
  state's loss probability, producing the loss bursts real networks show;
* **directional link failures** — :class:`LinkFailure` kills one direction
  of one edge over a round window (the reverse direction keeps working);
* **network partitions** — :class:`NetworkPartition` severs all traffic
  between node groups for a round interval, then heals;
* **message duplication** — a delivered message arrives twice with
  probability ``duplicate_probability`` (protocols must be idempotent);
* **node crashes, optionally with recovery** — a node listed in
  ``crash_rounds`` stops executing at the beginning of the given round; if
  it also appears in ``recovery_rounds`` it rejoins at that later round
  with its volatile state reset (see
  :meth:`repro.net.node.Node.on_recover`).

Fault decisions use their own random streams derived from the plan's seed,
so enabling faults does not perturb any node's coin flips — a faulty run
and a fault-free run of the same protocol are coin-for-coin comparable.
Each sub-model draws from its own derived stream, so adding burst loss
does not shift the iid-drop stream either. The simulator calls
:meth:`FaultPlan.reset` at setup, so one plan object can be reused across
runs without advancing any stream (reproducibility is per-run, not
per-object).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.exceptions import SimulationError
from repro.net.message import Message
from repro.net.rng import derive_rng

__all__ = [
    "FaultPlan",
    "GilbertElliottLoss",
    "LinkFailure",
    "NetworkPartition",
]

# Sub-stream keys: each fault model owns a derived RNG so composing models
# never shifts another model's draws. 0xFA is the historical iid-drop key.
_KEY_IID_DROP = 0xFA
_KEY_DUPLICATE = 0xD1
_KEY_BURST = 0x6E


def _check_probability(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise SimulationError(f"{name} must lie in [0, 1], got {value}")
    return float(value)


@dataclass(frozen=True)
class GilbertElliottLoss:
    """Two-state (good/bad) burst-loss channel, per directed link.

    Every directed link carries an independent Markov chain: in the *good*
    state messages are lost with probability ``loss_good`` (usually 0), in
    the *bad* state with ``loss_bad`` (usually near 1). The chain moves
    good→bad with ``p_good_to_bad`` and bad→good with ``p_bad_to_good``
    once per round, so losses cluster into bursts whose mean length is
    ``1 / p_bad_to_good`` rounds.
    """

    p_good_to_bad: float
    p_bad_to_good: float
    loss_good: float = 0.0
    loss_bad: float = 1.0

    def __post_init__(self) -> None:
        for name in ("p_good_to_bad", "p_bad_to_good", "loss_good", "loss_bad"):
            _check_probability(name, getattr(self, name))


@dataclass(frozen=True)
class LinkFailure:
    """One direction of one edge fails over a round window.

    Messages from ``sender`` to ``receiver`` delivered in rounds
    ``[start_round, end_round]`` (inclusive; ``end_round=None`` means
    forever) are lost. The reverse direction is unaffected — declare a
    second :class:`LinkFailure` for a bidirectional cut.
    """

    sender: int
    receiver: int
    start_round: int = 1
    end_round: int | None = None

    def __post_init__(self) -> None:
        if self.start_round < 1:
            raise SimulationError(
                f"link failure start_round must be >= 1, got {self.start_round}"
            )
        if self.end_round is not None and self.end_round < self.start_round:
            raise SimulationError(
                f"link failure window is empty: "
                f"[{self.start_round}, {self.end_round}]"
            )

    def severs(self, sender: int, receiver: int, round_number: int) -> bool:
        """Whether this failure eats a ``sender -> receiver`` delivery now."""
        return (
            sender == self.sender
            and receiver == self.receiver
            and round_number >= self.start_round
            and (self.end_round is None or round_number <= self.end_round)
        )


@dataclass(frozen=True)
class NetworkPartition:
    """All traffic between node groups is severed for a round interval.

    ``groups`` lists disjoint node sets; during rounds ``[start_round,
    end_round]`` a message whose endpoints lie in different groups is lost.
    Nodes not listed in any group form one implicit extra group, so a
    single-group partition cuts that group off from the rest of the
    network.
    """

    groups: tuple[frozenset[int], ...]
    start_round: int
    end_round: int

    def __init__(
        self,
        groups: Iterable[Iterable[int]],
        start_round: int,
        end_round: int,
    ) -> None:
        object.__setattr__(
            self, "groups", tuple(frozenset(int(n) for n in g) for g in groups)
        )
        object.__setattr__(self, "start_round", int(start_round))
        object.__setattr__(self, "end_round", int(end_round))
        if not self.groups:
            raise SimulationError("partition needs at least one node group")
        if self.start_round < 1 or self.end_round < self.start_round:
            raise SimulationError(
                f"partition window is invalid: "
                f"[{self.start_round}, {self.end_round}]"
            )
        seen: set[int] = set()
        for group in self.groups:
            if group & seen:
                raise SimulationError("partition groups must be disjoint")
            seen |= group

    def _side(self, node: int) -> int:
        for index, group in enumerate(self.groups):
            if node in group:
                return index
        return -1  # the implicit "rest of the network" group

    def severs(self, sender: int, receiver: int, round_number: int) -> bool:
        """Whether this partition eats a delivery between the two nodes."""
        if not self.start_round <= round_number <= self.end_round:
            return False
        return self._side(sender) != self._side(receiver)


class _BurstChannel:
    """Per-link Gilbert–Elliott chain state (lazily created)."""

    __slots__ = ("bad", "last_round", "rng")

    def __init__(self, rng: np.random.Generator) -> None:
        self.bad = False
        self.last_round = 0
        self.rng = rng


@dataclass
class FaultPlan:
    """Configuration of injected faults for one simulation run.

    Parameters
    ----------
    drop_probability:
        Independent loss probability applied to every message.
    crash_rounds:
        Mapping ``node_id -> round`` after whose beginning the node is dead.
    seed:
        Seed of the fault injector's private random streams.
    burst:
        Optional :class:`GilbertElliottLoss` correlated-loss channel.
    link_failures:
        Directional per-link failures (:class:`LinkFailure`).
    partitions:
        Network partitions over round intervals (:class:`NetworkPartition`).
    duplicate_probability:
        Probability that a delivered message arrives twice.
    recovery_rounds:
        Mapping ``node_id -> round`` at which a crashed node rejoins with
        reset volatile state; every listed node must also appear in
        ``crash_rounds`` with an earlier round.
    """

    drop_probability: float = 0.0
    crash_rounds: Mapping[int, int] = field(default_factory=dict)
    seed: int = 0
    burst: GilbertElliottLoss | None = None
    link_failures: Sequence[LinkFailure] = ()
    partitions: Sequence[NetworkPartition] = ()
    duplicate_probability: float = 0.0
    recovery_rounds: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_probability("drop_probability", self.drop_probability)
        _check_probability("duplicate_probability", self.duplicate_probability)
        for node, rnd in self.crash_rounds.items():
            if rnd < 1:
                raise SimulationError(
                    f"crash round for node {node} must be >= 1, got {rnd}"
                )
        for node, rnd in self.recovery_rounds.items():
            crash = self.crash_rounds.get(node)
            if crash is None:
                raise SimulationError(
                    f"node {node} has a recovery round but no crash round"
                )
            if rnd <= crash:
                raise SimulationError(
                    f"node {node} recovers at round {rnd}, not after its "
                    f"crash at round {crash}"
                )
        self.link_failures = tuple(self.link_failures)
        self.partitions = tuple(self.partitions)
        self.reset()

    # ------------------------------------------------------------------
    # Stream lifecycle
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Re-derive every fault stream from the seed.

        Called by the simulator at setup, so reusing one plan object
        across two runs yields identical fault decisions in both — the
        streams are per-run, never carried over from a previous run.
        Each stream is derived on its first draw, so a run that never
        drops or duplicates at random builds none.
        """
        self._rng: np.random.Generator | None = None
        self._dup_rng: np.random.Generator | None = None
        self._burst_channels: dict[tuple[int, int], _BurstChannel] = {}

    # ------------------------------------------------------------------
    # Per-message decisions
    # ------------------------------------------------------------------

    def should_drop(self, message: Message, round_number: int | None = None) -> bool:
        """Decide (reproducibly) whether this delivery is lost.

        ``round_number`` is the delivery round; it defaults to
        ``message.round_sent + 1`` (the synchronous-delivery contract).
        Deterministic models (link failures, partitions) are consulted
        first so they never consume random draws.
        """
        rnd = round_number if round_number is not None else message.round_sent + 1
        for failure in self.link_failures:
            if failure.severs(message.sender, message.receiver, rnd):
                return True
        for partition in self.partitions:
            if partition.severs(message.sender, message.receiver, rnd):
                return True
        if self.drop_probability > 0.0:
            if self._rng is None:
                self._rng = derive_rng(self.seed, _KEY_IID_DROP)
            if bool(self._rng.random() < self.drop_probability):
                return True
        if self.burst is not None and self._burst_drop(message, rnd):
            return True
        return False

    def _burst_drop(self, message: Message, round_number: int) -> bool:
        """Advance the link's two-state chain to this round; draw the loss."""
        model = self.burst
        assert model is not None
        key = (message.sender, message.receiver)
        channel = self._burst_channels.get(key)
        if channel is None:
            channel = _BurstChannel(
                derive_rng(self.seed, _KEY_BURST, message.sender, message.receiver)
            )
            self._burst_channels[key] = channel
        while channel.last_round < round_number:
            flip = model.p_bad_to_good if channel.bad else model.p_good_to_bad
            if bool(channel.rng.random() < flip):
                channel.bad = not channel.bad
            channel.last_round += 1
        loss = model.loss_bad if channel.bad else model.loss_good
        if loss <= 0.0:
            return False
        if loss >= 1.0:
            return True
        return bool(channel.rng.random() < loss)

    def should_duplicate(self, message: Message) -> bool:
        """Decide (reproducibly) whether this delivery arrives twice."""
        if self.duplicate_probability <= 0.0:
            return False
        if self._dup_rng is None:
            self._dup_rng = derive_rng(self.seed, _KEY_DUPLICATE)
        return bool(self._dup_rng.random() < self.duplicate_probability)

    # ------------------------------------------------------------------
    # Node lifecycle
    # ------------------------------------------------------------------

    def crashes_at(self, node_id: int, round_number: int) -> bool:
        """Whether ``node_id`` crashes at the start of ``round_number``."""
        return self.crash_rounds.get(node_id) == round_number

    def recovers_at(self, node_id: int, round_number: int) -> bool:
        """Whether ``node_id`` rejoins at the start of ``round_number``."""
        return self.recovery_rounds.get(node_id) == round_number

    # ------------------------------------------------------------------
    # Static validation
    # ------------------------------------------------------------------

    def validate(self, max_rounds: int) -> list[dict[str, Any]]:
        """Diagnose schedule entries that can never fire within a horizon.

        ``crashes_at``/``recovers_at`` use exact round equality, so a crash
        scheduled past ``max_rounds`` silently never happens. Rather than
        ignoring it, the simulator calls this at run start and surfaces
        each finding as a ``fault_plan_warning`` trace event and in the run
        diagnostics.
        """
        warnings: list[dict[str, Any]] = []
        for node, rnd in sorted(self.crash_rounds.items()):
            if rnd > max_rounds:
                warnings.append(
                    {
                        "issue": "crash_after_horizon",
                        "node": node,
                        "round": rnd,
                        "max_rounds": max_rounds,
                    }
                )
        for node, rnd in sorted(self.recovery_rounds.items()):
            if rnd > max_rounds and self.crash_rounds.get(node, 0) <= max_rounds:
                warnings.append(
                    {
                        "issue": "recovery_after_horizon",
                        "node": node,
                        "round": rnd,
                        "max_rounds": max_rounds,
                    }
                )
        for index, partition in enumerate(self.partitions):
            if partition.start_round > max_rounds:
                warnings.append(
                    {
                        "issue": "partition_after_horizon",
                        "partition": index,
                        "round": partition.start_round,
                        "max_rounds": max_rounds,
                    }
                )
        for index, failure in enumerate(self.link_failures):
            if failure.start_round > max_rounds:
                warnings.append(
                    {
                        "issue": "link_failure_after_horizon",
                        "link": index,
                        "round": failure.start_round,
                        "max_rounds": max_rounds,
                    }
                )
        return warnings

    @property
    def is_trivial(self) -> bool:
        """True when the plan injects nothing."""
        return (
            self.drop_probability <= 0.0
            and not self.crash_rounds
            and self.burst is None
            and not self.link_failures
            and not self.partitions
            and self.duplicate_probability <= 0.0
        )
