"""Chaos harness: sweep fault-intensity grids and gate on resilience.

``repro chaos`` (and the CI ``chaos-smoke`` job) run the full resilience
stack — fault injection + reliable delivery + in-protocol self-healing —
over a grid of *fault families* x *intensities* x *seeds* and assert two
gates per grid cell:

* **feasibility** — at least ``min_feasible_frac`` of the cell's seeds
  must end with every client served *by the protocol itself* (healed
  connections count; post-hoc repair does not);
* **bounded cost inflation** — the mean solution cost over the cell's
  feasible runs must stay within ``max_cost_inflation`` times the
  fault-free cost of the same configuration.

Fault families (:data:`FAULT_FAMILIES`) map one ``intensity in (0, 1]``
knob onto each composable fault model of :mod:`repro.net.faults`:

========== ===========================================================
family     what intensity controls
========== ===========================================================
drop       iid per-message loss probability
burst      Gilbert–Elliott good->bad flip rate (bad state loses 90%)
partition  length of a mid-schedule network split (fraction of rounds)
crash      fraction of facilities crashing (all recover later)
duplicate  per-message duplication probability
link       fraction of clients whose cheapest-facility edge is cut
========== ===========================================================

The report renders as an ASCII table and serializes as a BENCH record
(experiment id ``CHAOS``; ``repro chaos -o`` writes ``BENCH_chaos.json``),
so chaos runs take part in ``repro compare`` like any experiment.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.analysis.aggregate import aggregate
from repro.analysis.experiments import ExperimentResult
from repro.core.algorithm import DistributedFacilityLocation, Variant
from repro.core.healing import SelfHealingPolicy
from repro.exceptions import SimulationError
from repro.fl.instance import FacilityLocationInstance
from repro.net.faults import (
    FaultPlan,
    GilbertElliottLoss,
    LinkFailure,
    NetworkPartition,
)
from repro.net.reliability import ReliabilityPolicy
from repro.perf.cells import SolveCell, run_solve_cell
from repro.perf.executor import SweepExecutor

__all__ = [
    "FAULT_FAMILIES",
    "ChaosGates",
    "ChaosCell",
    "ChaosReport",
    "build_fault_plan",
    "run_chaos",
]

#: Every fault family the harness can sweep.
FAULT_FAMILIES: tuple[str, ...] = (
    "drop",
    "burst",
    "partition",
    "crash",
    "duplicate",
    "link",
)

DEFAULT_INTENSITIES: tuple[float, ...] = (0.05, 0.15, 0.3)


@dataclass(frozen=True)
class ChaosGates:
    """Pass/fail thresholds applied to every (family, intensity) cell."""

    min_feasible_frac: float = 0.8
    max_cost_inflation: float = 3.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_feasible_frac <= 1.0:
            raise SimulationError(
                f"min_feasible_frac must lie in [0, 1], "
                f"got {self.min_feasible_frac}"
            )
        if self.max_cost_inflation < 1.0:
            raise SimulationError(
                f"max_cost_inflation must be >= 1, got {self.max_cost_inflation}"
            )


@dataclass(frozen=True)
class ChaosCell:
    """Outcome of one chaos run (one family/intensity/seed triple)."""

    family: str
    intensity: float
    seed: int
    feasible: bool
    cost_inflation: float  # NaN when infeasible beyond repair
    healed_clients: int
    heal_gave_up: int
    retries: int
    gave_up_messages: int
    unserved: int


@dataclass(frozen=True)
class ChaosReport:
    """Aggregated chaos sweep: per-cell outcomes plus gate verdicts."""

    cells: tuple[ChaosCell, ...]
    gates: ChaosGates
    baseline_cost: float
    config: Mapping[str, Any] = field(default_factory=dict)

    def groups(self) -> dict[tuple[str, float], list[ChaosCell]]:
        """Cells grouped by (family, intensity), insertion-ordered."""
        grouped: dict[tuple[str, float], list[ChaosCell]] = {}
        for cell in self.cells:
            grouped.setdefault((cell.family, cell.intensity), []).append(cell)
        return grouped

    def failures(self) -> list[dict[str, Any]]:
        """Gate violations, one record per failing (family, intensity)."""
        found: list[dict[str, Any]] = []
        for (family, intensity), cells in self.groups().items():
            feasible_frac = sum(c.feasible for c in cells) / len(cells)
            inflations = [
                c.cost_inflation
                for c in cells
                if c.feasible and math.isfinite(c.cost_inflation)
            ]
            mean_inflation = (
                sum(inflations) / len(inflations) if inflations else float("inf")
            )
            if feasible_frac < self.gates.min_feasible_frac:
                found.append(
                    {
                        "family": family,
                        "intensity": intensity,
                        "gate": "feasibility",
                        "observed": feasible_frac,
                        "threshold": self.gates.min_feasible_frac,
                    }
                )
            if mean_inflation > self.gates.max_cost_inflation:
                found.append(
                    {
                        "family": family,
                        "intensity": intensity,
                        "gate": "cost_inflation",
                        "observed": mean_inflation,
                        "threshold": self.gates.max_cost_inflation,
                    }
                )
        return found

    @property
    def passed(self) -> bool:
        """Whether every cell satisfied both gates."""
        return not self.failures()

    def to_experiment_result(self) -> ExperimentResult:
        """Summarize as an :class:`ExperimentResult` (id ``CHAOS``).

        One row per (family, intensity) cell; the ``to_record()`` of the
        returned object is the BENCH record ``repro compare`` reads.
        """
        rows: list[tuple[Any, ...]] = []
        for (family, intensity), cells in self.groups().items():
            feasible_frac = sum(c.feasible for c in cells) / len(cells)
            inflations = [
                c.cost_inflation
                for c in cells
                if c.feasible and math.isfinite(c.cost_inflation)
            ]
            rows.append(
                (
                    family,
                    intensity,
                    feasible_frac,
                    aggregate(inflations).mean if inflations else float("nan"),
                    aggregate([float(c.healed_clients) for c in cells]).mean,
                    aggregate([float(c.retries) for c in cells]).mean,
                    aggregate([float(c.unserved) for c in cells]).mean,
                    int(feasible_frac >= self.gates.min_feasible_frac),
                )
            )
        notes = dict(self.config)
        notes["baseline_cost"] = self.baseline_cost
        notes["min_feasible_frac"] = self.gates.min_feasible_frac
        notes["max_cost_inflation"] = self.gates.max_cost_inflation
        return ExperimentResult(
            experiment_id="CHAOS",
            title="chaos sweep: resilience under composed fault families",
            headers=(
                "family",
                "intensity",
                "feasible_frac",
                "inflation_mean",
                "healed_mean",
                "retries_mean",
                "unserved_mean",
                "gate_ok",
            ),
            rows=tuple(rows),
            notes=notes,
        )

    @property
    def table(self) -> str:
        """Rendered ASCII summary table."""
        return self.to_experiment_result().table


def build_fault_plan(
    family: str,
    intensity: float,
    instance: FacilityLocationInstance,
    schedule_rounds: int,
    seed: int,
) -> FaultPlan:
    """Map one (family, intensity) grid point onto a concrete fault plan.

    ``intensity`` must lie in ``(0, 1]``; the mapping per family is
    documented in the module docstring. All plans stay on the fault
    injector's private random streams, so cells with different seeds are
    coin-for-coin independent while a repeated cell reproduces exactly.
    """
    if not 0.0 < intensity <= 1.0:
        raise SimulationError(
            f"chaos intensity must lie in (0, 1], got {intensity}"
        )
    if family not in FAULT_FAMILIES:
        raise SimulationError(
            f"unknown fault family {family!r}; expected one of {FAULT_FAMILIES}"
        )
    m = instance.num_facilities
    n = instance.num_clients
    if family == "drop":
        return FaultPlan(drop_probability=min(0.9, intensity), seed=seed)
    if family == "burst":
        return FaultPlan(
            seed=seed,
            burst=GilbertElliottLoss(
                p_good_to_bad=min(0.9, intensity),
                p_bad_to_good=0.5,
                loss_bad=0.9,
            ),
        )
    if family == "partition":
        # Anchor the window at round 2: protocol traffic concentrates in
        # the first iterations (clients fall silent once connected), so a
        # late window would sever an already-quiet network.
        start = 2
        length = max(3, min(schedule_rounds // 2, int(intensity * schedule_rounds)))
        # Split along node-id parity: both sides keep facilities *and*
        # clients, so the protocol limps along rather than halting.
        group = [i for i in range(m + n) if i % 2 == 0]
        return FaultPlan(
            seed=seed,
            partitions=[
                NetworkPartition(
                    groups=[group],
                    start_round=start,
                    end_round=start + length - 1,
                )
            ],
        )
    if family == "crash":
        # A fraction of facilities crash early, staggered over a few
        # rounds, and all recover before the schedule ends: the volatile
        # state they lose and the traffic dropped while dead are the test.
        count = max(1, min(m - 1, round(intensity * m)))
        recovery_delay = max(2, schedule_rounds // 4)
        crash_rounds = {i: 2 + (i % 3) for i in range(count)}
        recovery_rounds = {
            i: crash_rounds[i] + recovery_delay for i in range(count)
        }
        return FaultPlan(
            seed=seed,
            crash_rounds=crash_rounds,
            recovery_rounds=recovery_rounds,
        )
    if family == "duplicate":
        return FaultPlan(duplicate_probability=min(0.9, intensity), seed=seed)
    # family == "link": permanently cut the cheapest-facility edge (both
    # directions) of a fraction of clients — the worst single edge each
    # client can lose, forcing real detours.
    count = max(1, round(intensity * n))
    failures: list[LinkFailure] = []
    for j in range(min(count, n)):
        cheapest = min(
            instance.facilities_of_client(j),
            key=lambda i: (instance.connection_cost(i, j), i),
        )
        client_node = m + j
        failures.append(LinkFailure(sender=cheapest, receiver=client_node))
        failures.append(LinkFailure(sender=client_node, receiver=cheapest))
    return FaultPlan(seed=seed, link_failures=failures)


def run_chaos(
    instance: FacilityLocationInstance,
    k: int,
    variant: Variant | str = Variant.GREEDY,
    families: Sequence[str] = FAULT_FAMILIES,
    intensities: Sequence[float] = DEFAULT_INTENSITIES,
    seeds: Sequence[int] = (0, 1, 2),
    reliability: ReliabilityPolicy | None = None,
    healing: SelfHealingPolicy | None = None,
    gates: ChaosGates | None = None,
    executor: SweepExecutor | None = None,
) -> ChaosReport:
    """Sweep the fault grid and gate every cell.

    ``reliability``/``healing`` default to the standard policies; pass
    ``None`` explicitly via the CLI flags ``--no-reliability`` /
    ``--no-healing`` to measure the unprotected protocol (expect gate
    failures — that contrast is the point of the harness).
    """
    gates = gates or ChaosGates()
    variant = Variant(variant)
    unknown = [f for f in families if f not in FAULT_FAMILIES]
    if unknown:
        raise SimulationError(
            f"unknown fault families {unknown}; expected subset of "
            f"{FAULT_FAMILIES}"
        )
    start = time.perf_counter()
    # The fault-free baseline anchors every inflation ratio, so run it
    # twice under the flight recorder and digest-compare: a
    # non-deterministic baseline would silently skew every gate.
    from repro.obs.recorder import FlightRecorder, diff_recordings

    recorders = []
    baseline = None
    for _ in range(2):
        recorder = FlightRecorder(
            engine="simulator",
            config={"k": k, "variant": variant.value, "seed": 0},
        )
        baseline = DistributedFacilityLocation(
            instance,
            k=k,
            variant=variant,
            seed=0,
            reliability=reliability,
            healing=healing,
            recorder=recorder,
        ).run()
        recorders.append(recorder)
    assert baseline is not None
    report = diff_recordings(*recorders)
    if not report.identical:
        raise SimulationError(
            "chaos harness: fault-free baseline is not deterministic\n"
            + report.render()
        )
    baseline_cost = max(baseline.cost, 1e-12)
    # Timing anchors (partition window, crash/recovery rounds) derive from
    # the protocol schedule, not the resilience tail.
    schedule_rounds = DistributedFacilityLocation(
        instance, k=k, variant=variant
    ).schedule_rounds()
    grid = [
        (family, intensity, seed)
        for family in families
        for intensity in intensities
        for seed in seeds
    ]
    solve_cells = [
        SolveCell(
            instance=instance,
            k=k,
            variant=variant.value,
            seed=seed,
            fault_plan=build_fault_plan(
                family, intensity, instance, schedule_rounds, seed=10_000 + seed
            ),
            reliability=reliability,
            healing=healing,
        )
        for family, intensity, seed in grid
    ]
    outcomes = (executor or SweepExecutor()).map_cells(run_solve_cell, solve_cells)
    cells: list[ChaosCell] = []
    for (family, intensity, seed), outcome in zip(grid, outcomes):
        if outcome.feasible:
            inflation = outcome.cost / baseline_cost
        else:
            # repaired_cost is NaN when no repair exists, so the NaN
            # inflation of an unrepairable run falls out directly.
            inflation = outcome.repaired_cost / baseline_cost
        diag = outcome.diagnostics
        reliability_stats = diag.get("reliability", {})
        cells.append(
            ChaosCell(
                family=family,
                intensity=float(intensity),
                seed=int(seed),
                feasible=outcome.feasible,
                cost_inflation=float(inflation),
                healed_clients=int(diag.get("num_healed_clients", 0)),
                heal_gave_up=int(diag.get("num_heal_gave_up", 0)),
                retries=int(reliability_stats.get("retries", 0)),
                gave_up_messages=int(reliability_stats.get("gave_up", 0)),
                unserved=len(outcome.unserved),
            )
        )
    config = {
        "m": instance.num_facilities,
        "n": instance.num_clients,
        "k": k,
        "variant": variant.value,
        "families": tuple(families),
        "intensities": tuple(float(i) for i in intensities),
        "num_seeds": len(seeds),
        "reliability": reliability is not None,
        "healing": healing is not None,
        "workers": executor.workers if executor is not None else 1,
        "wall_seconds": time.perf_counter() - start,
    }
    return ChaosReport(
        cells=tuple(cells),
        gates=gates,
        baseline_cost=baseline_cost,
        config=config,
    )
