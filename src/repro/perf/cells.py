"""Picklable sweep cells and their module-level worker functions.

A *cell* is one self-contained unit of sweep work: the instance (numpy
arrays pickle cheaply at experiment sizes), the full run configuration,
and nothing else — no open file handles, no simulator state. The worker
functions live at module level so :class:`~repro.perf.executor.
SweepExecutor` can ship them to spawned interpreters by qualified name.

Workers return :class:`CellOutcome`, a flattened plain-data summary of a
run (costs, open set, assignment, network metrics, diagnostics) rather
than the live :class:`~repro.core.algorithm.DistributedRunResult`:
result objects drag the whole timeline/solution graph through pickle,
while outcomes are a few hundred bytes and carry exactly what the
experiment aggregations consume. ``repaired_cost`` is computed inside
the worker (repair needs the instance, which the parent may not want to
re-touch) and is ``NaN`` when the run was infeasible beyond repair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.core.algorithm import (
    DistributedFacilityLocation,
    DistributedRunResult,
    Variant,
    solve_distributed,
)
from repro.core.dual_ascent_nodes import RoundingPolicy
from repro.core.healing import SelfHealingPolicy
from repro.core.parameters import TradeoffParameters
from repro.fl.instance import FacilityLocationInstance
from repro.net.faults import FaultPlan
from repro.net.reliability import ReliabilityPolicy

__all__ = [
    "CellOutcome",
    "SequentialCell",
    "SolveCell",
    "run_sequential_cell",
    "run_solve_cell",
]


@dataclass(frozen=True)
class CellOutcome:
    """Plain-data summary of one run, sufficient for every aggregation."""

    cost: float  # NaN when the run left clients unserved
    feasible: bool
    open_facilities: tuple[int, ...]
    assignment: tuple[tuple[int, int], ...]  # sorted (client, facility)
    unserved: tuple[int, ...]
    rounds: int
    total_messages: int
    total_bits: int
    max_message_bits: int
    mean_message_bits: float
    diagnostics: Mapping[str, Any]
    repaired_cost: float  # NaN when no repair exists


@dataclass(frozen=True)
class SolveCell:
    """One distributed-run configuration (message-passing simulator)."""

    instance: FacilityLocationInstance
    k: int
    variant: str = Variant.GREEDY.value
    seed: int = 0
    rounding: RoundingPolicy | None = None
    open_fraction: float | None = None
    fault_plan: FaultPlan | None = None
    reliability: ReliabilityPolicy | None = None
    healing: SelfHealingPolicy | None = None
    params: TradeoffParameters | None = None
    truncate_rounds: int | None = None


@dataclass(frozen=True)
class SequentialCell:
    """One sequential-emulation configuration (no network simulation).

    ``shards`` applies to the columnar engine only (every other engine
    rejects values other than 1); by the sharding determinism contract
    it never changes the cell's outcome, only its execution layout.
    """

    instance: FacilityLocationInstance
    k: int
    variant: str = Variant.GREEDY.value
    seed: int = 0
    rounding: RoundingPolicy | None = None
    open_fraction: float | None = None
    engine: str = "columnar"
    shards: int = 1


def run_solve_cell(cell: SolveCell) -> CellOutcome:
    """Execute one distributed run and flatten it into a CellOutcome."""
    kwargs: dict[str, Any] = {}
    if cell.rounding is not None:
        kwargs["rounding"] = cell.rounding
    if cell.open_fraction is not None:
        kwargs["open_fraction"] = cell.open_fraction
    if cell.fault_plan is not None:
        kwargs["fault_plan"] = cell.fault_plan
    if cell.reliability is not None:
        kwargs["reliability"] = cell.reliability
    if cell.healing is not None:
        kwargs["healing"] = cell.healing
    if cell.params is not None:
        kwargs["params"] = cell.params
    runner = DistributedFacilityLocation(
        cell.instance, cell.k, variant=cell.variant, seed=cell.seed, **kwargs
    )
    if cell.truncate_rounds is not None:
        result = runner.run_truncated(cell.truncate_rounds)
    else:
        result = runner.run()
    return _outcome(result)


def run_sequential_cell(cell: SequentialCell) -> CellOutcome:
    """Execute one sequential emulation and flatten it into a CellOutcome."""
    kwargs: dict[str, Any] = {}
    if cell.rounding is not None:
        kwargs["rounding"] = cell.rounding
    if cell.open_fraction is not None:
        kwargs["open_fraction"] = cell.open_fraction
    return _outcome(
        solve_distributed(
            cell.instance,
            k=cell.k,
            variant=cell.variant,
            seed=cell.seed,
            engine=cell.engine,
            shards=cell.shards,
            **kwargs,
        )
    )


def _outcome(result: DistributedRunResult) -> CellOutcome:
    cost = result.cost if result.feasible else float("nan")
    try:
        repaired_cost = result.repaired_solution().cost
    except Exception:
        repaired_cost = float("nan")
    assignment: tuple[tuple[int, int], ...] = ()
    if result.solution is not None:
        assignment = tuple(sorted(result.solution.assignment.items()))
    return CellOutcome(
        cost=cost,
        feasible=result.feasible,
        open_facilities=tuple(sorted(result.open_facilities)),
        assignment=assignment,
        unserved=tuple(result.unserved_clients),
        rounds=int(result.metrics.rounds),
        total_messages=int(result.metrics.total_messages),
        total_bits=int(result.metrics.total_bits),
        max_message_bits=int(result.metrics.max_message_bits),
        mean_message_bits=float(result.metrics.mean_message_bits),
        diagnostics=dict(result.diagnostics),
        repaired_cost=float(repaired_cost),
    )
