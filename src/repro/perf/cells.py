"""The picklable sweep cell and its module-level worker function.

A *cell* is one self-contained unit of sweep work: the instance (numpy
arrays pickle cheaply at experiment sizes), the full run configuration
including the engine it runs on, and nothing else — no open file
handles, no simulator state. :class:`SolveCell` is the one cell type and
:func:`run_solve_cell` its worker; it lives at module level so
:class:`~repro.perf.executor.SweepExecutor` can ship it to spawned
interpreters by qualified name.

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
from functools import partial
from typing import Any, Mapping

from repro.core.algorithm import (
    DistributedFacilityLocation,
    DistributedRunResult,
    Variant,
    check_engine,
    solve_distributed,
)
from repro.core.dual_ascent_nodes import RoundingPolicy
from repro.core.healing import SelfHealingPolicy
from repro.core.parameters import TradeoffParameters
from repro.fl.instance import FacilityLocationInstance
from repro.net.faults import FaultPlan
from repro.net.reliability import ReliabilityPolicy

__all__ = ["CellOutcome", "SolveCell", "run_solve_cell"]


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
    """One run configuration, solved on the engine it names.

    ``engine`` is one of :data:`~repro.core.algorithm.ENGINES` and
    ``shards`` splits a columnar solve; neither changes the outcome.
    Every engine takes ``rounding``, ``open_fraction`` and ``params``.
    ``fault_plan``, ``reliability``, ``healing`` and ``truncate_rounds``
    need ``engine="simulator"``; on another engine the cell raises
    :class:`~repro.exceptions.AlgorithmError`.
    """

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
    engine: str = "simulator"
    shards: int = 1


def run_solve_cell(cell: SolveCell) -> CellOutcome:
    """Execute one run on the cell's engine and flatten it into a CellOutcome."""
    options = ("rounding", "open_fraction", "fault_plan", "reliability", "healing", "params")
    kwargs = {
        name: getattr(cell, name) for name in options if getattr(cell, name) is not None
    }
    run = (cell.instance, cell.k, cell.variant, cell.seed)
    if cell.truncate_rounds is None:
        return _outcome(
            solve_distributed(*run, engine=cell.engine, shards=cell.shards, **kwargs)
        )
    check_engine(cell.engine, cell.shards, ["truncate_rounds", *kwargs])
    runner = DistributedFacilityLocation(*run, **kwargs)
    return _outcome(runner.run_truncated(cell.truncate_rounds))


#: The columnar cell and its worker under their former names, kept for
#: the benchmark scripts that import them.
SequentialCell = partial(SolveCell, engine="columnar")
run_sequential_cell = run_solve_cell


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
