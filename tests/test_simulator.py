"""Unit tests for repro.net.simulator using tiny hand-written protocols."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.exceptions import (
    MessageSizeError,
    NotANeighborError,
    RoundLimitExceededError,
    SimulationError,
)
from repro.net.faults import FaultPlan
from repro.net.node import Node
from repro.net.simulator import Simulator
from repro.net.topology import Topology
from repro.net.trace import Trace


class PingPong(Node):
    """Node 0 pings; node 1 pongs back; both finish after the exchange."""

    def on_setup(self, ctx):
        if self.node_id == 0:
            ctx.send(1, "ping")

    def on_round(self, ctx, inbox):
        for msg in inbox:
            if msg.kind == "ping":
                ctx.send(msg.sender, "pong")
                self.finished = True
            elif msg.kind == "pong":
                self.finished = True


class Flooder(Node):
    """Classic BFS flooding: learn a token, forward it once."""

    def __init__(self, node_id):
        super().__init__(node_id)
        self.heard_at: int | None = None

    def on_setup(self, ctx):
        if self.node_id == 0:
            self.heard_at = 0
            ctx.broadcast("token")
            self.finished = True

    def on_round(self, ctx, inbox):
        if self.heard_at is None and any(m.kind == "token" for m in inbox):
            self.heard_at = ctx.round_number
            ctx.broadcast("token")
        if self.heard_at is not None:
            self.finished = True


class ChattyNode(Node):
    """Sends a configurable message each round (for policy tests)."""

    payload: dict = {}
    duplicate = False
    target_non_neighbor = False

    def on_round(self, ctx, inbox):
        if self.node_id == 0 and ctx.round_number == 1:
            if self.target_non_neighbor:
                ctx.send(2, "x")
            else:
                ctx.send(1, "x", **self.payload)
                if self.duplicate:
                    ctx.send(1, "x")
        self.finished = True


class IdleNode(Node):
    """Never finishes; used for round-limit tests."""

    def on_round(self, ctx, inbox):
        pass


def test_ping_pong_completes_in_two_rounds():
    simulator = Simulator(Topology.path(2), [PingPong(0), PingPong(1)])
    metrics = simulator.run(max_rounds=10)
    assert metrics.rounds == 2
    assert metrics.total_messages == 2
    assert simulator.all_finished


def test_flooding_reaches_distance_in_matching_rounds():
    topology = Topology.path(5)
    nodes = [Flooder(i) for i in range(5)]
    simulator = Simulator(topology, nodes)
    simulator.run(max_rounds=10)
    assert [n.heard_at for n in nodes] == [0, 1, 2, 3, 4]


def test_flooding_on_ring_uses_both_directions():
    nodes = [Flooder(i) for i in range(6)]
    Simulator(Topology.ring(6), nodes).run(max_rounds=10)
    assert [n.heard_at for n in nodes] == [0, 1, 2, 3, 2, 1]


def test_send_to_non_neighbor_rejected():
    node = ChattyNode(0)
    node.target_non_neighbor = True
    simulator = Simulator(Topology.path(3), [node, ChattyNode(1), ChattyNode(2)])
    with pytest.raises(NotANeighborError):
        simulator.run(max_rounds=5)


def test_message_bit_budget_enforced():
    node = ChattyNode(0)
    node.payload = {"big": "x" * 100}  # 800+ bits
    simulator = Simulator(
        Topology.path(2), [node, ChattyNode(1)], max_message_bits=64
    )
    with pytest.raises(MessageSizeError):
        simulator.run(max_rounds=5)


def test_strict_congest_one_message_per_edge():
    node = ChattyNode(0)
    node.duplicate = True
    simulator = Simulator(
        Topology.path(2),
        [node, ChattyNode(1)],
        enforce_single_message_per_edge=True,
    )
    with pytest.raises(SimulationError, match="two messages"):
        simulator.run(max_rounds=5)


def test_round_limit_raises_with_unfinished_nodes():
    simulator = Simulator(Topology.path(2), [IdleNode(0), IdleNode(1)])
    with pytest.raises(RoundLimitExceededError, match="2 nodes still running"):
        simulator.run(max_rounds=3)


def test_round_limit_truncation_allowed():
    simulator = Simulator(Topology.path(2), [IdleNode(0), IdleNode(1)])
    metrics = simulator.run(max_rounds=3, allow_truncation=True)
    assert metrics.rounds == 3


def test_negative_max_rounds_rejected():
    simulator = Simulator(Topology.path(2), [IdleNode(0), IdleNode(1)])
    with pytest.raises(SimulationError):
        simulator.run(max_rounds=-1)


def test_node_id_mismatch_rejected():
    with pytest.raises(SimulationError, match="ids must match"):
        Simulator(Topology.path(2), [PingPong(1), PingPong(0)])


def test_wrong_node_count_rejected():
    with pytest.raises(SimulationError):
        Simulator(Topology.path(3), [PingPong(0), PingPong(1)])


def test_nodes_as_mapping():
    simulator = Simulator(Topology.path(2), {1: PingPong(1), 0: PingPong(0)})
    simulator.run(max_rounds=5)
    assert simulator.all_finished


def test_mapping_with_missing_node_rejected():
    with pytest.raises(SimulationError, match="missing nodes"):
        Simulator(Topology.path(2), {0: PingPong(0)})


def test_setup_twice_rejected():
    simulator = Simulator(Topology.path(2), [PingPong(0), PingPong(1)])
    simulator.setup()
    with pytest.raises(SimulationError):
        simulator.setup()


def test_full_drop_plan_blocks_delivery():
    nodes = [Flooder(i) for i in range(3)]
    plan = FaultPlan(drop_probability=1.0)
    simulator = Simulator(Topology.path(3), nodes, fault_plan=plan)
    simulator.run(max_rounds=4, allow_truncation=True)
    assert nodes[1].heard_at is None
    assert simulator.metrics.dropped_messages > 0


def test_crashed_node_stops_participating():
    nodes = [Flooder(i) for i in range(4)]
    plan = FaultPlan(crash_rounds={1: 1})  # node 1 dies before round 1 runs
    simulator = Simulator(Topology.path(4), nodes, fault_plan=plan)
    simulator.run(max_rounds=10, allow_truncation=True)
    assert nodes[1].crashed
    # The token cannot get past the crashed node on a path.
    assert nodes[2].heard_at is None
    assert nodes[3].heard_at is None


def test_crash_at_round_one_retracts_in_flight_messages():
    # Node 0 broadcasts at setup and dies before round 1 delivers: a node
    # that crashed before delivery never really sent, so its in-flight
    # traffic is accounted as dropped and nobody hears the token.
    nodes = [Flooder(i) for i in range(3)]
    plan = FaultPlan(crash_rounds={0: 1})
    simulator = Simulator(Topology.star(2), nodes, fault_plan=plan)
    simulator.run(max_rounds=5, allow_truncation=True)
    assert nodes[1].heard_at is None
    assert nodes[2].heard_at is None
    assert simulator.metrics.dropped_messages == 2
    assert simulator.metrics.drops_by_kind["token"] == 2


def test_crash_after_finished_still_terminates():
    plan = FaultPlan(crash_rounds={0: 2})
    simulator = Simulator(
        Topology.path(2), [PingPong(0), PingPong(1)], fault_plan=plan
    )
    metrics = simulator.run(max_rounds=10)
    # Node 0 dies at the start of round 2, so the pong lands in a dead
    # node (one drop) — but a crashed node counts as terminated.
    assert simulator.all_finished
    assert simulator.node(0).crashed
    assert metrics.dropped_messages == 1


def test_recovery_invokes_on_recover_and_node_rejoins():
    class Beacon(Node):
        """Node 0 re-broadcasts every round; others remember receipt."""

        def __init__(self, node_id):
            super().__init__(node_id)
            self.heard_at: int | None = None
            self.recoveries = 0

        def on_recover(self, ctx):
            self.recoveries += 1
            self.heard_at = None  # volatile state resets on rejoin

        def on_round(self, ctx, inbox):
            if self.node_id == 0:
                if ctx.round_number <= 4:
                    ctx.broadcast("beep")
                else:
                    self.finished = True
                return
            if self.heard_at is None and any(m.kind == "beep" for m in inbox):
                self.heard_at = ctx.round_number
            if ctx.round_number > 4:
                self.finished = True

    nodes = [Beacon(0), Beacon(1)]
    plan = FaultPlan(crash_rounds={1: 1}, recovery_rounds={1: 3})
    simulator = Simulator(Topology.path(2), nodes, fault_plan=plan)
    simulator.run(max_rounds=10)
    assert nodes[1].recoveries == 1
    assert not nodes[1].crashed
    # The round-1 beacon fell into the dead node; recovery applies before
    # delivery, so the round-2 beacon lands right as the node rejoins.
    assert nodes[1].heard_at == 3
    assert simulator.metrics.dropped_messages == 1


def test_crash_and_recovery_trace_events():
    trace = Trace()
    nodes = [IdleNode(0), IdleNode(1)]
    plan = FaultPlan(crash_rounds={1: 1}, recovery_rounds={1: 2})
    simulator = Simulator(Topology.path(2), nodes, fault_plan=plan, trace=trace)
    simulator.run(max_rounds=4, allow_truncation=True)
    crashed = trace.events(event="node_crashed")
    recovered = trace.events(event="node_recovered")
    assert [e.round_number for e in crashed] == [1]
    assert [e.round_number for e in recovered] == [2]


def test_duplicate_delivery_counted_and_idempotent():
    nodes = [Flooder(i) for i in range(2)]
    plan = FaultPlan(duplicate_probability=1.0)
    simulator = Simulator(Topology.path(2), nodes, fault_plan=plan)
    simulator.run(max_rounds=6)
    assert nodes[1].heard_at == 1
    assert simulator.metrics.duplicated_messages > 0
    # Duplicates are injected copies, not charged sends.
    assert simulator.metrics.total_messages == 2


def test_fault_plan_warnings_surface_on_run():
    trace = Trace()
    nodes = [PingPong(0), PingPong(1)]
    plan = FaultPlan(crash_rounds={0: 50})
    simulator = Simulator(Topology.path(2), nodes, fault_plan=plan, trace=trace)
    simulator.run(max_rounds=10)
    assert [w["issue"] for w in simulator.fault_warnings] == [
        "crash_after_horizon"
    ]
    events = trace.events(event="fault_plan_warning")
    assert len(events) == 1


def test_determinism_across_runs():
    def run_once():
        nodes = [Flooder(i) for i in range(5)]
        simulator = Simulator(Topology.ring(5), nodes, seed=9)
        simulator.run(max_rounds=10)
        return simulator.metrics.summary()

    assert run_once() == run_once()


@pytest.mark.parametrize("variant", ["greedy", "dual_ascent"])
@pytest.mark.parametrize("stepped", [False, True], ids=["run", "step"])
def test_finished_simulator_is_freed_without_the_cyclic_collector(variant, stepped):
    from repro.core.algorithm import DistributedFacilityLocation
    from repro.fl.generators import uniform_instance

    runner = DistributedFacilityLocation(
        uniform_instance(8, 24, seed=1), k=4, variant=variant, seed=0
    )
    gc.collect()
    gc.disable()
    try:
        simulator = runner.build_simulator()
        if stepped:
            while not simulator.all_finished or simulator.pending_messages:
                simulator.step()
        else:
            simulator.run(max_rounds=runner.schedule_rounds())
        assert simulator.metrics.total_messages > 0
        alive = weakref.ref(simulator)
        del simulator
        assert alive() is None
    finally:
        gc.enable()


def test_trace_records_via_context():
    class Tracer(Node):
        def on_round(self, ctx, inbox):
            ctx.log("tick", value=self.node_id)
            self.finished = True

    trace = Trace()
    simulator = Simulator(Topology.path(2), [Tracer(0), Tracer(1)], trace=trace)
    simulator.run(max_rounds=3)
    assert len(trace.events(event="tick")) == 2


def test_inbox_sorted_by_sender():
    received: list[list[int]] = []

    class Collector(Node):
        def on_setup(self, ctx):
            if self.node_id != 0:
                ctx.send(0, "m")
                self.finished = True

        def on_round(self, ctx, inbox):
            if self.node_id == 0 and inbox:
                received.append([m.sender for m in inbox])
            self.finished = True

    simulator = Simulator(Topology.star(4), [Collector(i) for i in range(5)])
    simulator.run(max_rounds=3)
    assert received == [[1, 2, 3, 4]]


class Announcer(Node):
    """Node 0 runs ``action(ctx)`` in round 1; every node then finishes."""

    action = staticmethod(lambda ctx: None)

    def on_round(self, ctx, inbox):
        if self.node_id == 0 and ctx.round_number == 1:
            self.action(ctx)
        self.finished = True


def _announce(action, topology=None, **options):
    nodes = [Announcer(i) for i in range(4)]
    nodes[0].action = action
    simulator = Simulator(topology or Topology.star(3), nodes, **options)
    simulator.run(max_rounds=5)
    return simulator


def test_broadcast_after_send_in_strict_mode_rejected():
    def send_then_broadcast(ctx):
        ctx.send(2, "x")
        ctx.broadcast("y")

    with pytest.raises(SimulationError, match="sent two messages to 2"):
        _announce(send_then_broadcast, enforce_single_message_per_edge=True)


def test_strict_broadcast_alone_passes():
    simulator = _announce(
        lambda ctx: ctx.broadcast("y", v=1.0), enforce_single_message_per_edge=True
    )
    assert simulator.metrics.messages_by_kind == {"y": 3}


def test_broadcast_over_budget_rejected_with_the_message():
    with pytest.raises(MessageSizeError) as excinfo:
        _announce(lambda ctx: ctx.broadcast("y", big="x" * 20), max_message_bits=64)
    assert "Message(0->1 @r1 y[big='xxxxxxxxxxxxxxxxxxxx'])" in str(excinfo.value)
    assert "168 bits, exceeding the 64-bit budget" in str(excinfo.value)


def test_broadcast_within_budget_passes():
    simulator = _announce(lambda ctx: ctx.broadcast("y", v=1.0), max_message_bits=72)
    assert simulator.metrics.max_message_bits == 72


@pytest.mark.parametrize("payload", [[1, 2], {"a": 1}, (1,)])
def test_broadcast_and_send_reject_container_payloads(payload):
    with pytest.raises(SimulationError, match="unsupported"):
        _announce(lambda ctx: ctx.broadcast("y", v=payload))
    with pytest.raises(SimulationError, match="unsupported"):
        _announce(lambda ctx: ctx.send(1, "y", v=payload))


def test_broadcast_reaches_every_neighbor_in_id_order_with_one_shared_payload():
    pending = []

    def broadcast(ctx):
        ctx.broadcast("y", v=2.5, n=7)
        pending.extend(simulator.pending_messages)

    nodes = [Announcer(i) for i in range(4)]
    nodes[0].action = broadcast
    simulator = Simulator(Topology.star(3), nodes)
    simulator.run(max_rounds=5)
    bits = 8 + 64 + (1 + 3)  # kind "y", a float, the int 7
    assert [m.receiver for m in pending] == [1, 2, 3]
    assert len({id(m.payload) for m in pending}) == 1
    assert all(m.bits == bits and m.round_sent == 1 for m in pending)
    assert simulator.metrics.total_bits == 3 * bits


def test_messages_are_read_only_inside_on_round():
    checked: list[int] = []

    class Mutator(Node):
        def on_setup(self, ctx):
            if self.node_id == 0:
                ctx.send(1, "m", x=1)
                ctx.broadcast("b", x=1)

        def on_round(self, ctx, inbox):
            for msg in inbox:
                with pytest.raises(AttributeError):
                    msg.kind = "forged"
                with pytest.raises(TypeError):
                    msg.payload["x"] = 2
                assert msg["x"] == 1
                checked.append(msg.receiver)
            self.finished = True

    Simulator(Topology.star(2), [Mutator(i) for i in range(3)]).run(max_rounds=3)
    assert checked == [1, 1, 2]
