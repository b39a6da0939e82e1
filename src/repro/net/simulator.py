"""The synchronous round engine.

:class:`Simulator` owns a topology, one :class:`~repro.net.node.Node` per
topology node, the metrics accumulator, optional fault injection and
optional tracing. Its contract:

* **Synchrony.** A message submitted in round ``r`` is delivered at the
  start of round ``r + 1``. During a round every (alive, unfinished-or-
  receiving) node is invoked exactly once.
* **Isolation.** Nodes interact only through messages; the engine validates
  neighbor-only sends and, optionally, the strict CONGEST discipline of one
  message per edge per round and a per-message bit budget.
* **Determinism.** Given the same topology, nodes, seed and fault plan, two
  runs produce identical traffic and identical final node states.
* **Termination.** The run ends when every node has ``finished`` and no
  message is in flight, or when ``max_rounds`` is reached — in which case
  :class:`~repro.exceptions.RoundLimitExceededError` is raised unless the
  caller opted into truncated runs with ``allow_truncation=True``.
"""

from __future__ import annotations

import operator
import time
from typing import Callable, Mapping, Sequence

from repro.exceptions import RoundLimitExceededError, SimulationError
from repro.net.faults import FaultPlan
from repro.net.message import Message
from repro.net.metrics import NetworkMetrics
from repro.net.node import Node, RoundContext
from repro.net.reliability import (
    ACK_KIND,
    PendingRetry,
    ReliabilityPolicy,
    ReliabilityStats,
)
from repro.net.topology import Topology
from repro.net.trace import NullTrace, Trace
from repro.obs.probes import RoundProbe
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import Tracer
from repro.obs.timeline import RoundTimeline, RoundTimelineEntry
from repro.obs.watchdogs import Watchdog

__all__ = ["InboxPool", "Simulator"]

# Deterministic inbox order — (sender, kind) — realized as two stable
# single-attribute sorts. A single attrgetter("sender", "kind") key
# allocates one tuple per message per sort; the single-attribute getters
# return existing objects, so the two-pass sort allocates nothing. The
# second (primary-key) pass is also nearly free: deliveries append in
# sender order, so after the kind pass the list is close to
# sender-sorted and timsort runs in ~linear time.
_INBOX_ORDER_SECONDARY = operator.attrgetter("kind")
_INBOX_ORDER_PRIMARY = operator.attrgetter("sender")

# Shared inbox for nodes that received nothing this round. Handing every
# such node the same list avoids one allocation per silent node per
# round; protocol hooks treat their inbox as read-only (and the engine
# never sorts a list of fewer than two messages), so sharing is safe.
_EMPTY_INBOX: list[Message] = []


class InboxPool:
    """Reusable pool of inbox lists for the round engine.

    ``acquire`` hands out an empty list (recycled when possible);
    ``release_all`` clears every loaned list and returns it to the free
    pool. After warm-up the delivery path allocates nothing: the pool
    high-water mark is the peak number of simultaneously receiving nodes.
    """

    def __init__(self) -> None:
        self._free: list[list[Message]] = []
        self._loaned: list[list[Message]] = []

    def acquire(self) -> list[Message]:
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


class Simulator:
    """Synchronous message-passing simulator.

    Parameters
    ----------
    topology:
        The communication graph.
    nodes:
        One node per topology identifier; either a sequence in id order or a
        mapping ``id -> node``. Node ids must match topology ids exactly.
    seed:
        Experiment seed. Node ``i`` draws from ``node_rng(seed, i)``,
        built on its first draw (see :meth:`~repro.net.node.Node.seed_rng`),
        so nodes that never draw cost no generator.
    fault_plan:
        Optional fault injection (drops, bursts, partitions, link cuts,
        duplication, crashes with optional recovery — see
        :mod:`repro.net.faults`). The plan's random streams are reset at
        setup, so one plan object can be reused across runs.
    reliability:
        Optional :class:`~repro.net.reliability.ReliabilityPolicy`
        enabling the ACK/retransmit sublayer: deliveries lost to fault
        injection are retransmitted with bounded retries and per-round
        backoff, retransmissions and ACKs are charged into the metrics,
        and the ``reliability_stats`` attribute accumulates
        retries/acks/gave-up totals. Zero overhead when no fault fires.
    max_message_bits:
        When set, any message exceeding this many bits raises
        :class:`~repro.exceptions.MessageSizeError` at send time. Leave
        ``None`` to only *measure* sizes via metrics.
    enforce_single_message_per_edge:
        Strict CONGEST discipline: a node may send at most one message per
        neighbor per round.
    trace:
        Pass a :class:`~repro.net.trace.Trace` to record protocol events.
    probes:
        Optional :class:`~repro.obs.probes.RoundProbe` instances observed
        at every round boundary; their merged output is embedded in the
        round's timeline entry (``probe`` field). With no probes attached
        the per-round cost is a single truthiness check.
    watchdogs:
        Optional :class:`~repro.obs.watchdogs.Watchdog` invariant checks
        run at every round boundary (after probes, before the trace's
        round hook, so violations stream ahead of the round line).
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry`; when given,
        the simulator publishes per-round instruments (round wall-clock
        histogram, message counters) and the final
        :meth:`~repro.net.metrics.NetworkMetrics.publish` summary into it,
        and protocol nodes can publish through
        :meth:`~repro.net.node.RoundContext.count`.
    tracer:
        Optional :class:`~repro.obs.spans.Tracer`; when given, every
        executed round is recorded as a ``sim.round`` child span of the
        tracer's current span, annotated with the round's record (its
        fields, ``round`` for ``round_number``, and the probe
        observations such as dual sums). Spans observe only — they never
        alter the run.
    recorder:
        Optional :class:`~repro.obs.recorder.FlightRecorder`; when given,
        every round boundary is digested into the recording (node state
        and the message plane by kind), enabling replay verification and
        divergence bisection. Like the tracer, purely observational, and
        a single ``None`` check when absent.
    """

    def __init__(
        self,
        topology: Topology,
        nodes: Sequence[Node] | Mapping[int, Node],
        seed: int = 0,
        fault_plan: FaultPlan | None = None,
        reliability: ReliabilityPolicy | None = None,
        max_message_bits: int | None = None,
        enforce_single_message_per_edge: bool = False,
        trace: Trace | None = None,
        probes: Sequence[RoundProbe] = (),
        watchdogs: Sequence[Watchdog] = (),
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        recorder=None,
    ) -> None:
        self._topology = topology
        self._nodes = _normalize_nodes(topology, nodes)
        self._seed = int(seed)
        self._fault_plan = fault_plan or FaultPlan()
        self.reliability = reliability
        self.reliability_stats = ReliabilityStats()
        self.fault_warnings: list[dict] = []
        self._retransmits: list[PendingRetry] = []
        self.max_message_bits = max_message_bits
        self.enforce_single_message_per_edge = enforce_single_message_per_edge
        self.trace: Trace = trace if trace is not None else NullTrace()
        self.probes: tuple[RoundProbe, ...] = tuple(probes)
        self.watchdogs: tuple[Watchdog, ...] = tuple(watchdogs)
        self.registry: MetricsRegistry | None = registry
        self.tracer: Tracer | None = tracer
        self.recorder = recorder
        self.metrics = NetworkMetrics()
        self.timeline = RoundTimeline()
        self._round = 0
        self._pending: list[Message] = []  # sent this round, delivered next
        # Inbox lists are pooled and reused across rounds: delivery used
        # to allocate one fresh list per receiving node per round.
        self._inbox_pool = InboxPool()
        self._started = False
        for node in self._nodes:
            node.neighbors = topology.neighbors(node.node_id)
            node.seed_rng(self._seed)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def topology(self) -> Topology:
        """The communication graph."""
        return self._topology

    @property
    def nodes(self) -> tuple[Node, ...]:
        """All nodes, in id order."""
        return tuple(self._nodes)

    def node(self, node_id: int) -> Node:
        """The node with the given id."""
        return self._nodes[node_id]

    @property
    def current_round(self) -> int:
        """The last executed round number (0 before the first round)."""
        return self._round

    @property
    def pending_messages(self) -> tuple[Message, ...]:
        """Messages submitted this round, awaiting next-round delivery.

        This is the message plane the flight recorder digests: at the
        round boundary it holds exactly the traffic the round produced.
        """
        return tuple(self._pending)

    @property
    def all_finished(self) -> bool:
        """Whether every alive node has declared itself finished."""
        return all(n.finished or n.crashed for n in self._nodes)

    # ------------------------------------------------------------------
    # Engine
    # ------------------------------------------------------------------

    def setup(self) -> None:
        """Run every node's :meth:`~repro.net.node.Node.on_setup` hook.

        Called automatically by :meth:`run`; exposed separately so tests
        can single-step simulations with :meth:`step`.
        """
        if self._started:
            raise SimulationError("setup() may only run once")
        self._started = True
        # Fresh fault streams per run: a plan reused across simulators
        # must make identical decisions in each (coin-for-coin contract).
        self._fault_plan.reset()
        self._run_round(self._setup_nodes)

    def step(self) -> None:
        """Execute exactly one synchronous round."""
        if not self._started:
            self.setup()
        self._round += 1
        self._run_round(self._round_nodes)

    def _run_round(self, body: Callable[[], None]) -> None:
        """Run one round's ``body`` and close the round's record.

        Setup is round 0 and every step one round after it; each gets its
        record here, from the traffic and drops the metrics took during
        ``body`` plus the messages the round leaves in flight.
        """
        metrics = self.metrics
        start = time.perf_counter()
        messages, bits, drops = (
            metrics.total_messages, metrics.total_bits, metrics.dropped_messages
        )
        body()
        metrics.record_messages(self._pending)
        self._close_round(
            RoundTimelineEntry(
                round_number=self._round,
                wall_ms=(time.perf_counter() - start) * 1e3,
                messages=metrics.total_messages - messages,
                bits=metrics.total_bits - bits,
                drops=metrics.dropped_messages - drops,
                alive=sum(1 for n in self._nodes if not n.crashed),
                finished=sum(1 for n in self._nodes if n.finished),
                probe=self._observe_probes(),
                engine="simulator",
            )
        )

    def _setup_nodes(self) -> None:
        ctx = RoundContext(self, self._nodes[0], 0)
        for node in self._nodes:
            ctx.rebind(node, round_number=0)
            node.on_setup(ctx)

    def _round_nodes(self) -> None:
        self._apply_fault_lifecycle()
        inboxes = self._deliver()
        round_number = self._round
        # One context per round, rebound per node (RoundContext.rebind)
        # rather than allocated per node. The simulator keeps no
        # reference to it, so a finished simulator is freed by reference
        # counting instead of waiting for the cyclic collector.
        ctx = RoundContext(self, self._nodes[0], round_number)
        for node in self._nodes:
            if node.crashed:
                continue
            inbox = inboxes.get(node.node_id)
            if inbox is None:
                # A finished node with nothing delivered has nothing to
                # react to: skipping its invocation is observationally
                # identical (its hooks are no-ops on an empty inbox) and
                # removes the bulk of the tail-phase per-round cost.
                if node.finished:
                    continue
                inbox = _EMPTY_INBOX
            elif len(inbox) > 1:
                inbox.sort(key=_INBOX_ORDER_SECONDARY)
                inbox.sort(key=_INBOX_ORDER_PRIMARY)
            ctx.rebind(node, round_number)
            node.on_round(ctx, inbox)
        # Round over: every inbox has been consumed; reclaim the buffers.
        self._inbox_pool.release_all()

    def _apply_fault_lifecycle(self) -> None:
        """Apply scheduled crashes and recoveries at the round boundary.

        Crashes take effect *before* delivery: a node that crashes at the
        beginning of round ``r`` neither receives nor — retroactively —
        sends in round ``r`` (its in-flight messages are accounted as
        drops). A recovering node rejoins before delivery, so it receives
        from this round on; :meth:`~repro.net.node.Node.on_recover` runs
        first so the node can reset its volatile state.
        """
        if self._fault_plan.is_trivial:
            return
        for node in self._nodes:
            if not node.crashed and self._fault_plan.crashes_at(
                node.node_id, self._round
            ):
                node.crashed = True
                if self.trace.enabled:
                    self.trace.record(
                        self._round, node.node_id, "node_crashed", {}
                    )
            elif node.crashed and self._fault_plan.recovers_at(
                node.node_id, self._round
            ):
                node.crashed = False
                node.on_recover(RoundContext(self, node, self._round))
                if self.trace.enabled:
                    self.trace.record(
                        self._round, node.node_id, "node_recovered", {}
                    )

    def _deliver(self) -> dict[int, list[Message]]:
        """Route pending traffic and due retransmissions through the faults.

        Returns per-node inboxes. The fast path — trivial fault plan, no
        reliability sublayer — routes without consulting any fault model,
        so fault-free runs pay nothing for the resilience machinery.
        """
        inboxes: dict[int, list[Message]] = {}
        acquire = self._inbox_pool.acquire
        trivial = self._fault_plan.is_trivial
        if trivial and not self._retransmits:
            for message in self._pending:
                inbox = inboxes.get(message.receiver)
                if inbox is None:
                    inboxes[message.receiver] = inbox = acquire()
                inbox.append(message)
            self._pending.clear()
            return inboxes
        deliverable: list[tuple[Message, int]] = [
            (message, 0) for message in self._pending
        ]
        self._pending.clear()
        if self._retransmits:
            still_waiting: list[PendingRetry] = []
            for retry in self._retransmits:
                if retry.due_round > self._round:
                    still_waiting.append(retry)
                    continue
                if self._nodes[retry.message.sender].crashed:
                    continue  # a dead sender retransmits nothing
                self.metrics.record_retransmit(retry.message)
                self.reliability_stats.retries += 1
                if self.registry is not None:
                    self.registry.counter("reliable_retries_total").inc(
                        kind=retry.message.kind
                    )
                deliverable.append((retry.message, retry.attempts))
            self._retransmits = still_waiting
        for message, attempts in deliverable:
            if self._nodes[message.sender].crashed:
                # A node that crashed before delivery never really sent.
                self.metrics.record_drop(message)
                continue
            if self._nodes[message.receiver].crashed:
                # Delivered into a dead node: lost, but (unlike a dead
                # sender) worth retrying — the receiver may recover.
                self.metrics.record_drop(message)
                self._schedule_retry(message, attempts)
                continue
            if not trivial and self._fault_plan.should_drop(message, self._round):
                self.metrics.record_drop(message)
                self._schedule_retry(message, attempts)
                continue
            inbox = inboxes.get(message.receiver)
            if inbox is None:
                inboxes[message.receiver] = inbox = acquire()
            inbox.append(message)
            if not trivial and self._fault_plan.should_duplicate(message):
                inbox.append(message)
                self.metrics.record_duplicate(message)
            if attempts > 0:
                self._acknowledge(message, attempts)
        return inboxes

    def _schedule_retry(self, message: Message, attempts: int) -> None:
        """Queue the next retransmission, or give the message up for dead."""
        if self.reliability is None:
            return
        if attempts >= self.reliability.max_retries:
            self.reliability_stats.gave_up += 1
            if self.registry is not None:
                self.registry.counter("reliable_gave_up_total").inc(
                    kind=message.kind
                )
            if self.trace.enabled:
                self.trace.record(
                    self._round,
                    message.sender,
                    "reliable_gave_up",
                    {"kind": message.kind, "receiver": message.receiver},
                )
            return
        next_attempt = attempts + 1
        self._retransmits.append(
            PendingRetry(
                message=message,
                attempts=next_attempt,
                due_round=self._round + self.reliability.backoff * next_attempt,
            )
        )

    def _acknowledge(self, message: Message, attempts: int) -> None:
        """Explicitly ACK a delivered retransmission (charged traffic).

        The ACK itself crosses the faulty network: if it is lost the
        sender, none the wiser, retransmits once more and the receiver
        sees a duplicate — exactly the at-least-once semantics real
        retransmit protocols give, which is why the protocol layers must
        stay idempotent.
        """
        if self.reliability is None:
            return
        ack = Message(
            sender=message.receiver,
            receiver=message.sender,
            kind=ACK_KIND,
            round_sent=self._round,
        )
        self.metrics.record_ack(ack)
        self.reliability_stats.acks += 1
        if self.registry is not None:
            self.registry.counter("reliable_acks_total").inc()
        if self._fault_plan.should_drop(ack, self._round + 1):
            self.metrics.record_drop(ack)
            self.reliability_stats.duplicates += 1
            self._schedule_retry(message, attempts)

    def _observe_probes(self) -> dict | None:
        """The round's merged probe observations (``None`` without probes)."""
        if not self.probes:
            return None
        observed: dict = {}
        for probe in self.probes:
            observed.update(probe.observe(self, self._round))
        return observed

    def _close_round(self, entry: RoundTimelineEntry) -> None:
        """Append the round's record; everything per-round reads it.

        The metrics' per-round aggregates, the watchdogs, the registry's
        round instruments, the ``sim.round`` span, the recorder and the
        trace's round hook each take the record as it is.
        """
        self.timeline.append(entry)
        self.metrics.close_round(entry)
        for watchdog in self.watchdogs:
            watchdog.check(self, entry)
        if self.registry is not None:
            self.registry.counter("sim_rounds_total").inc()
            self.registry.histogram("sim_round_wall_ms").observe(entry.wall_ms)
            self.registry.histogram("sim_round_messages").observe(entry.messages)
        if self.tracer is not None:
            attributes = entry.to_dict()
            attributes["round"] = attributes.pop("round_number")
            attributes.update(attributes.pop("probe", None) or {})
            self.tracer.add_span(
                "sim.round",
                start_unix=time.time() - entry.wall_ms / 1e3,
                duration_s=entry.wall_ms / 1e3,
                attributes=attributes,
            )
        if self.recorder is not None:
            self.recorder.on_simulator_round(self, entry.round_number)
        self.trace.on_round_end(entry)

    def run(self, max_rounds: int, allow_truncation: bool = False) -> NetworkMetrics:
        """Run until global termination or ``max_rounds``.

        Returns the metrics accumulator. Raises
        :class:`~repro.exceptions.RoundLimitExceededError` if the protocol
        has not terminated after ``max_rounds`` rounds, unless
        ``allow_truncation`` is set (used by experiments that deliberately
        cut protocols short).
        """
        if max_rounds < 0:
            raise SimulationError(f"max_rounds must be >= 0, got {max_rounds}")
        self.fault_warnings = self._fault_plan.validate(max_rounds)
        if self.fault_warnings and self.trace.enabled:
            for warning in self.fault_warnings:
                self.trace.record(0, -1, "fault_plan_warning", warning)
        if not self._started:
            self.setup()
        while not (self.all_finished and not self._pending and not self._retransmits):
            if self._round >= max_rounds:
                if allow_truncation:
                    if self.registry is not None:
                        self.metrics.publish(self.registry)
                    return self.metrics
                unfinished = [
                    n.node_id for n in self._nodes if not (n.finished or n.crashed)
                ]
                raise RoundLimitExceededError(
                    f"protocol did not terminate within {max_rounds} rounds; "
                    f"{len(unfinished)} nodes still running "
                    f"(first few: {unfinished[:5]})"
                )
            self.step()
        for watchdog in self.watchdogs:
            watchdog.finalize(self)
        if self.registry is not None:
            self.metrics.publish(self.registry)
        return self.metrics


def _normalize_nodes(
    topology: Topology, nodes: Sequence[Node] | Mapping[int, Node]
) -> list[Node]:
    """Validate and order the node collection against the topology."""
    if isinstance(nodes, Mapping):
        ordered = [nodes.get(i) for i in range(topology.num_nodes)]
        missing = [i for i, n in enumerate(ordered) if n is None]
        if missing:
            raise SimulationError(f"missing nodes for ids {missing[:5]}")
        result = [n for n in ordered if n is not None]
    else:
        result = list(nodes)
    if len(result) != topology.num_nodes:
        raise SimulationError(
            f"got {len(result)} nodes for a topology of {topology.num_nodes}"
        )
    for expected, node in enumerate(result):
        if node.node_id != expected:
            raise SimulationError(
                f"node at position {expected} has id {node.node_id}; "
                "node ids must match topology ids"
            )
    return result
