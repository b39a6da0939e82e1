"""``sweep_grid``: the experiment-table workload, run serially.

Four dense families times several instance seeds at 24x96; each
instance runs k in {4, 16} x both variants x two algorithm seeds. Every
cell runs ``run_solve_cell`` (the message-passing simulator) and
``run_sequential_cell`` with its default engine, and each instance gets
one ``cached_lp_value``. Cells are ordered so consecutive cells cycle
through families and configurations, spreading noise evenly.
"""

from __future__ import annotations

import itertools
import math
import time
from contextlib import ExitStack
from typing import Any

from common import (
    SETUP_REPEATS,
    Checks,
    HostSpeed,
    Metric,
    Outcome,
    Spans,
    base_params,
    median,
    ms,
    peak_rss_mb,
    percentile,
    ratio,
    stratified_median,
)

FAMILIES = ("uniform", "euclidean", "clustered", "set_cover")
FACILITIES = 24
CLIENTS = 96
KS = (4, 16)
VARIANTS = ("greedy", "dual_ascent")
ALGORITHM_SEEDS = (0, 1)
#: Seconds one cell takes on 2 vCPUs; it only turns ``--seconds`` into a
#: fixed number of instance seeds, rounded up: the instances differ in cost,
#: so the more a run holds, the less its figures depend on ``--seed``.
CELL_COST_S = 0.092
CELLS_PER_INSTANCE = len(KS) * len(VARIANTS) * len(ALGORITHM_SEEDS)
#: Cells between two samples of the host-speed kernel.
CELLS_PER_HOST_SAMPLE = 4


def check_cell(simulated: Any, sequential: Any, lp_value: float) -> list[str]:
    """Problems with one cell: both engines must agree, and the solution
    must be feasible and no cheaper than the LP lower bound."""
    problems = []
    if simulated.open_facilities != sequential.open_facilities:
        problems.append("open sets differ between simulator and sequential emulation")
    if simulated.assignment != sequential.assignment:
        problems.append("assignments differ between simulator and sequential emulation")
    if not simulated.feasible:
        problems.append("simulator solution infeasible")
    elif not simulated.cost >= lp_value * (1.0 - 1e-9):
        problems.append(f"cost {simulated.cost} below the LP bound {lp_value}")
    return problems


def build_grid(seed: int, seconds: float, facilities: int, clients: int):
    """Instance recipes and the cell order, both fixed by seed and seconds."""
    instances_wanted = seconds / CELL_COST_S / CELLS_PER_INSTANCE
    seeds_per_family = max(1, math.ceil(instances_wanted / len(FAMILIES)))
    recipes = [
        (family, facilities, clients, seed * 1000 + index)
        for index in range(seeds_per_family)
        for family in FAMILIES
    ]
    configs = list(itertools.product(KS, VARIANTS, ALGORITHM_SEEDS))
    cells = [(recipe, config) for config in configs for recipe in recipes]
    return recipes, cells


def _setup(recipes) -> float:
    """Generate every instance and its LP bound from cold caches."""
    from repro.perf import cache

    cache.clear_caches()
    start = time.perf_counter()
    for recipe in recipes:
        cache.cached_lp_value(cache.cached_instance(*recipe))
    return time.perf_counter() - start


class _Sweep:
    def __init__(self, checks: Checks) -> None:
        self.checks = checks
        self.simulator: list[float] = []
        self.sequential: list[float] = []
        self.cells: list[float] = []
        self.strata: list[Any] = []  # (family, configuration) of each cell
        self.outcomes: list[Any] = []

    def run_cell(self, recipe, config) -> None:
        from repro.perf import cache, cells

        k, variant, algorithm_seed = config
        instance = cache.cached_instance(*recipe)
        start = time.perf_counter()
        simulated = cells.run_solve_cell(
            cells.SolveCell(instance, k, variant=variant, seed=algorithm_seed)
        )
        middle = time.perf_counter()
        sequential = cells.run_sequential_cell(
            cells.SequentialCell(instance, k, variant=variant, seed=algorithm_seed)
        )
        end = time.perf_counter()
        self.simulator.append(middle - start)
        self.sequential.append(end - middle)
        self.cells.append(end - start)
        self.strata.append((recipe[0], config))
        self.outcomes.append(simulated)
        self.checks.record(check_cell(simulated, sequential, cache.cached_lp_value(instance)))


def run(
    seed: int,
    seconds: float,
    trace: bool,
    facilities: int = FACILITIES,
    clients: int = CLIENTS,
) -> Outcome:
    """Set up five times from cold caches, then run every cell. A traced
    run follows each cell with its traced twin, so a noise burst hits
    both alike and ``trace_overhead_pct`` compares them."""
    from repro.net.simulator import Simulator
    from repro.perf import cache

    checks = Checks()
    spans = Spans()
    recipes, grid = build_grid(seed, seconds, facilities, clients)
    sweep = _Sweep(checks)
    traced = _Sweep(checks)
    with HostSpeed() as host:
        with ExitStack() as stack:
            if trace:
                stack.enter_context(spans.wrapping(cache, "make_instance", "make_instance"))
                stack.enter_context(spans.wrapping(cache, "solve_lp", "solve_lp"))
            setup_times: list[float] = []
            kernel_at_setup: list[float] = []
            for _ in range(SETUP_REPEATS):
                kernel_at_setup.append(host.sample())
                setup_times.append(_setup(recipes))
        # Block b of CELLS_PER_HOST_SAMPLE cells runs between samples b and b + 1.
        kernel_at_blocks: list[float] = []
        for index, (recipe, config) in enumerate(grid):
            if index % CELLS_PER_HOST_SAMPLE == 0:
                kernel_at_blocks.append(host.sample())
            sweep.run_cell(recipe, config)
            if trace:
                with spans.wrapping(Simulator, "run", "simulator"):
                    traced.run_cell(recipe, config)
        kernel_at_blocks.append(host.sample())
    kernel_at_setup.append(kernel_at_blocks[0])
    factors = host.each_at_reference_speed(
        [1.0] * (len(kernel_at_blocks) - 1), kernel_at_blocks
    )
    scaled_cells = [
        cell * factors[index // CELLS_PER_HOST_SAMPLE] for index, cell in enumerate(sweep.cells)
    ]
    wall = sum(sweep.cells)
    p90, beyond = percentile(sweep.cells, 0.9)

    def gated(setups: list[float], cells: list[float]) -> dict[str, Metric]:
        return {
            "setup_s": Metric(median(setups), "s", len(setups)),
            "throughput_per_s": Metric(len(cells) / sum(cells), "1/s", len(cells)),
            "latency_p50_ms": Metric(
                stratified_median(cells, sweep.strata) * 1e3, "ms", len(cells)
            ),
        }

    end_to_end = gated(host.each_at_reference_speed(setup_times, kernel_at_setup), scaled_cells)
    end_to_end["peak_rss_mb"] = Metric(peak_rss_mb(), "MB", 1)
    details = {
        **{f"raw_{name}": metric for name, metric in gated(setup_times, sweep.cells).items()},
        "host_kernel_ms": Metric(median(host.samples) * 1e3, "ms", len(host.samples)),
        "cell_p50_ms": ms(sweep.cells),
        "cell_p90_ms": Metric(p90 * 1e3, "ms", beyond),
        "simulator_p50_ms": ms(sweep.simulator),
        "sequential_p50_ms": ms(sweep.sequential),
    }
    params = {
        **base_params(seed),
        "facilities": facilities,
        "clients": clients,
        "families": list(FAMILIES),
        "instances": len(recipes),
        "cells": len(grid),
        "ks": list(KS),
        "variants": list(VARIANTS),
        "algorithm_seeds": list(ALGORITHM_SEEDS),
    }
    if not trace:
        return Outcome(end_to_end, details, params, checks)

    stats = cache.cache_stats()
    traced_wall = sum(traced.cells)
    simulator_busy = sum(spans.get("simulator"))
    messages = sum(o.total_messages for o in traced.outcomes)
    layers = {
        "net.simulator.cell_ms_p50": ms(traced.simulator),
        "net.simulator.share": Metric(simulator_busy / traced_wall, "ratio", len(traced.cells)),
        "net.simulator.us_per_message": Metric(
            simulator_busy / max(messages, 1) * 1e6, "us", messages
        ),
        "net.simulator.rounds": Metric(sum(o.rounds for o in traced.outcomes), "count", 1),
        "net.simulator.messages": Metric(messages, "count", 1),
        "net.simulator.max_message_bits": Metric(
            max(o.max_message_bits for o in traced.outcomes), "count", 1
        ),
        "core.sequential_sim.cell_ms_p50": ms(traced.sequential),
        "core.sequential_sim.share": Metric(
            sum(traced.sequential) / traced_wall, "ratio", len(traced.sequential)
        ),
        "baselines.lp.solve_ms_p50": ms(spans.get("solve_lp")),
        "fl.generators.instance_ms_p50": ms(spans.get("make_instance")),
        # Counted since the last set-up cleared the caches.
        "perf.cache.instance_hit_ratio.sweep_grid": ratio(
            stats["instance_hits"], stats["instance_misses"]
        ),
        "perf.cache.lp_hit_ratio.sweep_grid": ratio(stats["lp_hits"], stats["lp_misses"]),
        "trace_overhead_pct": Metric((traced_wall / wall - 1.0) * 100.0, "%", len(traced.cells)),
    }
    details["sweep_wall_s"] = Metric(traced_wall, "s", len(traced.cells))
    details["simulator_busy_s"] = Metric(simulator_busy, "s", len(spans.get("simulator")))
    return Outcome(layers, {**details, **end_to_end}, params, checks)
