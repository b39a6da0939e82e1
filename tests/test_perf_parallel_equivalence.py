"""Parallel sweeps must be byte-identical to serial ones.

The executor's whole contract is that ``--workers N`` is invisible in
the output: same experiment rows, same chaos cells, same solve records,
for any worker count. These tests run real sweeps both ways (>= 3 seeds
each) and compare the full result structures for equality — not just
costs, but every field the reports render.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.analysis import experiments as exp
from repro.analysis.chaos import run_chaos
from repro.fl.generators import make_instance
from repro.perf import SweepExecutor, clear_caches
from repro.perf.cells import SolveCell, run_solve_cell

PARALLEL = SweepExecutor(workers=4)


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


@pytest.mark.parametrize(
    "runner",
    [
        exp.run_e2_ratio_vs_k,
        exp.run_e6_rounding_ablation,
        exp.run_e11_faults,
        exp.run_e16_opening_rule,
        exp.run_e17_fault_families,
    ],
)
def test_experiment_rows_identical(runner):
    serial = runner(quick=True)
    parallel = runner(quick=True, executor=PARALLEL)
    assert parallel.headers == serial.headers
    assert parallel.rows == serial.rows
    # notes carry every configuration key plus the run-local wall clock.
    volatile = ("wall_seconds",)
    assert {k: v for k, v in parallel.notes.items() if k not in volatile} == {
        k: v for k, v in serial.notes.items() if k not in volatile
    }


def test_experiment_full_seed_sweep_identical():
    # Un-truncated seed axis: five seeds through both paths.
    serial = exp.run_e16_opening_rule(
        fractions=(0.0, 0.5, 1.0), seeds=(0, 1, 2, 3, 4)
    )
    parallel = exp.run_e16_opening_rule(
        fractions=(0.0, 0.5, 1.0), seeds=(0, 1, 2, 3, 4), executor=PARALLEL
    )
    assert parallel.rows == serial.rows


def test_chaos_grid_identical():
    instance = make_instance("uniform", 10, 30, 3)
    kwargs = dict(
        k=9,
        families=("drop", "partition", "crash"),
        intensities=(0.05, 0.2),
        seeds=(0, 1, 2),
    )
    serial = run_chaos(instance, **kwargs)
    parallel = run_chaos(instance, **kwargs, executor=PARALLEL)
    assert parallel.cells == serial.cells
    assert parallel.baseline_cost == serial.baseline_cost
    # Config matches except the run-local bookkeeping keys.
    volatile = ("wall_seconds", "workers")
    assert {k: v for k, v in parallel.config.items() if k not in volatile} == {
        k: v for k, v in serial.config.items() if k not in volatile
    }
    assert parallel.config["workers"] == 4


@pytest.mark.parametrize(
    "make_cell",
    [partial(SolveCell, engine=engine) for engine in ("simulator", "columnar", "loop")],
    ids=["simulator", "columnar", "loop"],
)
def test_raw_cell_outcomes_identical(make_cell):
    instance = make_instance("euclidean", 10, 30, 3)
    cells = [
        make_cell(instance=instance, k=k, seed=seed)
        for k in (4, 9)
        for seed in range(4)
    ]
    serial = SweepExecutor().map_cells(run_solve_cell, cells)
    parallel = PARALLEL.map_cells(run_solve_cell, cells)
    # CellOutcome is a frozen dataclass: == compares every field,
    # including costs, assignments, metrics and diagnostics.
    assert parallel == serial
