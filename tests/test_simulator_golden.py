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

A second pin, :data:`SOLUTION_GOLDEN`, hashes only what a change to the
traffic alone must leave alone: each case's ``final`` digest, its round
count and its ``max_message_bits``. A protocol change that sends fewer
messages moves :data:`GOLDEN` but not :data:`SOLUTION_GOLDEN`.

The cases cover greedy and dual ascent on the four sweep families at
24x96 with k in {4, 16}; one run under strict CONGEST (one message per
edge per round) with a bit budget it stays within; and one run with a
fault plan plus the ACK/retransmit sublayer, which exercises the
retransmit, ACK, duplicate and drop accounting.

A third pin, :data:`FAULT_GOLDEN`, hashes ``metrics.summary()`` and the
timeline tuples of one run per :data:`~repro.analysis.chaos.FAULT_FAMILIES`
plan and variant, with reliable delivery and self-healing on, so the
crash, partition, link and burst drops that feed ``drops_by_round`` are
pinned too.
"""

from __future__ import annotations

import hashlib
import json

from repro.analysis.chaos import FAULT_FAMILIES, build_fault_plan
from repro.core.algorithm import DistributedFacilityLocation, solve_distributed
from repro.core.healing import SelfHealingPolicy
from repro.fl.generators import make_instance
from repro.net.faults import FaultPlan
from repro.net.reliability import ReliabilityPolicy
from repro.obs.recorder import FlightRecorder

FAMILIES = ("uniform", "euclidean", "clustered", "set_cover")
VARIANTS = ("greedy", "dual_ascent")
KS = (4, 16)
INSTANCE_SEED = 11

#: sha256 over every case's outputs. Re-pinned when a tight facility
#: stopped re-broadcasting ``tgt`` at every later level: the eight
#: fault-free dual cases fell from 109,295 messages (75,225 ``tgt``) to
#: 43,789 (9,719 ``tgt``), and nothing but the traffic moved.
GOLDEN = "78c2c339946f639532019596ee6d6e6924e0789ea45fe60578ca45eb1853e8d7"

#: sha256 over every case's ``final`` digest, round count and
#: ``max_message_bits``, generated before tightness became a one-shot
#: announcement; the protocol change had to leave it as it was.
SOLUTION_GOLDEN = "957aca984bceaaadcc80bf33c1a052c00aabd8831aea0a8ddb5af5179e5f65e7"

#: sha256 over the faulty runs' metrics summaries and timeline tuples,
#: generated before the metrics took their per-round aggregates from the
#: timeline; that change had to leave it as it was.
FAULT_GOLDEN = "630c0829bba8dd47fe9b1181d84b33771299d87bd8c69b15d5a08237d1b5b478"


def _timeline(timeline) -> list[tuple[int, ...]]:
    return [
        (e.round_number, e.messages, e.bits, e.drops, e.alive, e.finished)
        for e in timeline
    ]


def _run_digest(
    runner: DistributedFacilityLocation, simulator, recorder
) -> tuple[str, str]:
    metrics = simulator.run(max_rounds=runner.round_budget())
    runner._extract(simulator, metrics)
    timeline = _timeline(simulator.timeline)
    checkpoints = [
        (c.label, c.digest)
        for c in recorder.checkpoints
        if c.label.startswith("sim:round:") or c.label == "final"
    ]
    text = json.dumps(
        {"summary": metrics.summary(), "timeline": timeline, "checkpoints": checkpoints}
    )
    final = next(c.digest for c in recorder.checkpoints if c.label == "final")
    solution = json.dumps([final, metrics.rounds, metrics.max_message_bits])
    return (
        hashlib.sha256(text.encode()).hexdigest(),
        hashlib.sha256(solution.encode()).hexdigest(),
    )


def _case(
    instance, k, variant, seed=0, strict=False, **options
) -> tuple[str, str]:
    recorder = FlightRecorder("simulator")
    runner = DistributedFacilityLocation(
        instance, k, variant=variant, seed=seed, recorder=recorder, **options
    )
    simulator = runner.build_simulator()
    simulator.enforce_single_message_per_edge = strict
    return _run_digest(runner, simulator, recorder)


def _case_digests() -> list[tuple[str, str]]:
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


def _pins() -> tuple[str, str]:
    traffic, solution = zip(*_case_digests())
    return tuple(
        hashlib.sha256("\n".join(digests).encode()).hexdigest()
        for digests in (traffic, solution)
    )


def _fault_pin() -> str:
    instance = make_instance("uniform", 12, 40, INSTANCE_SEED)
    digests = []
    for family in FAULT_FAMILIES:
        for variant in VARIANTS:
            schedule = DistributedFacilityLocation(
                instance, 9, variant=variant
            ).schedule_rounds()
            result = solve_distributed(
                instance,
                9,
                variant,
                seed=1,
                fault_plan=build_fault_plan(family, 0.3, instance, schedule, seed=5),
                reliability=ReliabilityPolicy(),
                healing=SelfHealingPolicy(),
            )
            digests.append(json.dumps({
                "summary": result.metrics.summary(),
                "timeline": _timeline(result.timeline),
            }))
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def test_simulator_outputs_match_the_golden_pin():
    traffic, solution = _pins()
    assert solution == SOLUTION_GOLDEN
    assert traffic == GOLDEN


def test_faulty_runs_match_the_fault_pin():
    assert _fault_pin() == FAULT_GOLDEN


if __name__ == "__main__":  # print the pins of the current simulator
    traffic, solution = _pins()
    print(f"GOLDEN = {traffic!r}\nSOLUTION_GOLDEN = {solution!r}")
    print(f"FAULT_GOLDEN = {_fault_pin()!r}")
