"""Add/drop/swap local search for facility location.

A strong practical baseline: starting from an initial open set, repeatedly
apply the first strictly improving move among

* **add** — open one closed facility,
* **drop** — close one open facility (if every client keeps a neighbor),
* **swap** — exchange one open facility for one closed one,

until no move improves or an iteration budget runs out. On metric
instances this neighborhood is known to reach a constant-factor (3 for
add/drop/swap) local optimum; here it serves as the "what a practitioner
would run" reference column of comparison experiment E5.

Cost evaluation for a candidate open set is pure array arithmetic: the cost of
an open set ``S`` is ``sum_{i in S} f_i + sum_j min_{i in S} c_ij``, so a
move evaluation is one masked row-min over the cost matrix.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import AlgorithmError
from repro.fl.instance import FacilityLocationInstance
from repro.fl.solution import FacilityLocationSolution
from repro.baselines.greedy import greedy_solve

__all__ = ["local_search_solve", "open_set_cost"]


def open_set_cost(instance: FacilityLocationInstance, open_set: set[int]) -> float:
    """Cost of the best solution with exactly ``open_set`` open.

    Returns ``inf`` when some client has no neighbor in ``open_set`` (the
    set is infeasible), which lets the move loop treat infeasible drops
    uniformly as non-improving.
    """
    if not open_set:
        return math.inf
    rows = sorted(open_set)
    mins = instance.connection_costs[rows, :].min(axis=0)
    if not np.isfinite(mins).all():
        return math.inf
    opening = float(instance.opening_costs[rows].sum())
    return opening + float(mins.sum())


def _initial_open_set(
    instance: FacilityLocationInstance, initial: str
) -> set[int]:
    if initial == "greedy":
        return set(greedy_solve(instance).open_facilities)
    if initial == "all":
        return set(range(instance.num_facilities))
    raise AlgorithmError(
        f"unknown initial strategy {initial!r}; expected 'greedy' or 'all'"
    )


def local_search_solve(
    instance: FacilityLocationInstance,
    initial: str = "greedy",
    max_moves: int = 10_000,
) -> FacilityLocationSolution:
    """Run first-improvement add/drop/swap local search to a local optimum.

    Parameters
    ----------
    instance:
        The instance.
    initial:
        Starting open set: ``"greedy"`` (default) or ``"all"``.
    max_moves:
        Safety budget on accepted moves; local search on these instance
        sizes converges far earlier, and hitting the cap raises so silent
        truncation cannot skew experiments.
    """
    open_set = _initial_open_set(instance, initial)
    current = open_set_cost(instance, open_set)
    m = instance.num_facilities
    improved = True
    moves = 0
    while improved:
        improved = False
        # Add moves.
        for i in range(m):
            if i in open_set:
                continue
            candidate = open_set | {i}
            cost = open_set_cost(instance, candidate)
            if cost < current - 1e-12:
                open_set, current = candidate, cost
                improved = True
                break
        if improved:
            moves += 1
            if moves > max_moves:
                raise AlgorithmError("local search exceeded its move budget")
            continue
        # Drop moves.
        for i in sorted(open_set):
            candidate = open_set - {i}
            cost = open_set_cost(instance, candidate)
            if cost < current - 1e-12:
                open_set, current = candidate, cost
                improved = True
                break
        if improved:
            moves += 1
            if moves > max_moves:
                raise AlgorithmError("local search exceeded its move budget")
            continue
        # Swap moves.
        for i in sorted(open_set):
            for i2 in range(m):
                if i2 in open_set:
                    continue
                candidate = (open_set - {i}) | {i2}
                cost = open_set_cost(instance, candidate)
                if cost < current - 1e-12:
                    open_set, current = candidate, cost
                    improved = True
                    break
            if improved:
                break
        if improved:
            moves += 1
            if moves > max_moves:
                raise AlgorithmError("local search exceeded its move budget")
    return FacilityLocationSolution.from_open_set(instance, open_set, validate=True)
