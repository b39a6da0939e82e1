"""Golden pin of the message-passing simulator's paper-visible outputs.

The simulator is the engine behind the paper's Theta(k)-round,
O(log N)-bit measurements, so any change to its hot path must leave
those measurements byte-identical. Each case below runs one full
distributed solve and hashes, in order:

* ``metrics.summary()`` as JSON, key order included (``messages_by_kind``
  keeps first-seen kind order, so batching or reordering the accounting
  shows up here);
* the per-round timeline tuples ``(round, messages, bits, drops, alive,
  finished)``;
* the flight recorder's ``sim:round:<r>`` digests (node state plus every
  message's sender, receiver, kind and payload) and its ``final`` digest
  (open set and assignment).

The cases cover greedy and dual ascent on the four sweep families at
24x96 with k in {4, 16}; one run under strict CONGEST (one message per
edge per round) with a bit budget it stays within; and one run with a
fault plan plus the ACK/retransmit sublayer, which exercises the
retransmit, ACK, duplicate and drop accounting.
"""

from __future__ import annotations

import hashlib
import json

from repro.core.algorithm import DistributedFacilityLocation
from repro.fl.generators import make_instance
from repro.net.faults import FaultPlan
from repro.net.reliability import ReliabilityPolicy
from repro.obs.recorder import FlightRecorder

FAMILIES = ("uniform", "euclidean", "clustered", "set_cover")
VARIANTS = ("greedy", "dual_ascent")
KS = (4, 16)
INSTANCE_SEED = 11

#: sha256 over every case's outputs, generated with the simulator that
#: still priced each message from a frozen dataclass on every read.
GOLDEN = "dc3e851caec9214561c95aea46fd6f3ec08bcf279f1f5dd72a49afe7c9bece55"


def _run_digest(runner: DistributedFacilityLocation, simulator, recorder) -> str:
    metrics = simulator.run(max_rounds=runner.round_budget())
    runner._extract(simulator, metrics)
    timeline = [
        (e.round_number, e.messages, e.bits, e.drops, e.alive, e.finished)
        for e in simulator.timeline
    ]
    checkpoints = [
        (c.label, c.digest)
        for c in recorder.checkpoints
        if c.label.startswith("sim:round:") or c.label == "final"
    ]
    text = json.dumps(
        {"summary": metrics.summary(), "timeline": timeline, "checkpoints": checkpoints}
    )
    return hashlib.sha256(text.encode()).hexdigest()


def _case(instance, k, variant, seed=0, strict=False, **options) -> str:
    recorder = FlightRecorder("simulator")
    runner = DistributedFacilityLocation(
        instance, k, variant=variant, seed=seed, recorder=recorder, **options
    )
    simulator = runner.build_simulator()
    simulator.enforce_single_message_per_edge = strict
    return _run_digest(runner, simulator, recorder)


def _case_digests() -> list[str]:
    digests = []
    for family in FAMILIES:
        instance = make_instance(family, 24, 96, INSTANCE_SEED)
        for variant in VARIANTS:
            for k in KS:
                digests.append(_case(instance, k, variant))
    uniform = make_instance("uniform", 24, 96, INSTANCE_SEED)
    digests.append(
        _case(uniform, 4, "dual_ascent", seed=1, strict=True, max_message_bits=96)
    )
    small = make_instance("euclidean", 8, 24, INSTANCE_SEED)
    digests.append(
        _case(
            small,
            4,
            "greedy",
            seed=2,
            fault_plan=FaultPlan(
                drop_probability=0.1, duplicate_probability=0.05, seed=5
            ),
            reliability=ReliabilityPolicy(max_retries=2),
        )
    )
    return digests


def test_simulator_outputs_match_the_golden_pin():
    digest = hashlib.sha256("\n".join(_case_digests()).encode()).hexdigest()
    assert digest == GOLDEN
