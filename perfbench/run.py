"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload solve_1m --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 16 --trace 0

``--trace 0`` reports the end-to-end metrics of ``perfbench/spec.py``;
``--trace 1`` adds a traced pass and reports the per-layer metrics
instead. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--workload
all`` runs every workload, each in a fresh process.
"""

from __future__ import annotations

import argparse
import importlib
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spec  # noqa: E402
from common import Metric, Outcome, adopt_orphans, emit, end_children, import_program  # noqa: E402


def complete(outcome: Outcome, workload: str, trace: bool) -> Outcome:
    """Fill in the metrics every run of this mode must print.

    A traced run reports every per-layer metric; those of layers this
    workload never calls read 0, with a note saying why.
    """
    outcome.params["operation"] = spec.OPERATIONS[workload]
    if not trace:
        missing = [m.name for m in spec.END_TO_END if m.name not in outcome.metrics]
        if missing:
            raise RuntimeError(f"{workload} did not measure {missing}")
        outcome.params["definitions"] = {m.name: m.meaning for m in spec.END_TO_END}
        return outcome
    outcome.metrics["failed_ops"] = Metric(
        outcome.checks.failed, "count", outcome.checks.attempted
    )
    layers = {}
    for metric in spec.PER_LAYER:
        if metric.name in outcome.metrics:
            layers[metric.name] = outcome.metrics[metric.name]
        else:
            layers[metric.name] = Metric(0.0, metric.unit, 0)
            outcome.notes[metric.name] = f"not exercised: measured on {metric.workload}"
    outcome.metrics = layers
    outcome.params["predictions"] = spec.predictions()
    return outcome


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*spec.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    adopt_orphans()
    try:
        return _run(args)
    finally:
        killed = end_children()
        if killed:
            print(f"perfbench: killed leftover processes {killed}", file=sys.stderr)


def _run(args: argparse.Namespace) -> int:
    if args.workload == "all":
        status = 0
        for workload in spec.WORKLOADS:
            print(f"== {workload}", flush=True)
            status |= subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                check=False,
            ).returncode
        return status
    import_program()
    module = importlib.import_module(args.workload)
    outcome = module.run(args.seed, args.seconds, bool(args.trace))
    emit(complete(outcome, args.workload, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
