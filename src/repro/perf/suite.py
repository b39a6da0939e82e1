"""The ``repro bench --suite micro|macro`` perf suites.

Each suite measures the same three things at a different scale and
writes one deterministic-by-construction ``BENCH_<name>.json``
trajectory point (see :mod:`repro.obs.bench`) that ``repro compare``
can gate in CI:

* ``emulator_greedy`` / ``emulator_dual`` — single-core speedup of the
  columnar sequential emulation over the pure-Python loop engine, with
  the two engines cross-checked for identical open sets and assignments
  on every timed run;
* ``sweep_emulation`` — a (family, k, seed) grid of sequential cells run
  the **legacy** way (loop engine, no memo caches, in-process) and the
  **optimized** way (columnar engine, warm caches,
  :class:`~repro.perf.executor.SweepExecutor` fan-out), with the
  parallel output compared element-for-element against a serial
  optimized run;
* ``sweep_distributed`` — a (k, seed) grid on the message-passing
  simulator, serial vs parallel, reporting cells/sec and rounds/sec.

Every record carries ``inverse_speedup`` style ratios (lower is better)
alongside raw wall-clock so the CI gate can use machine-independent
thresholds; ``byte_identical``/``identical`` are 1.0/0.0 flags that a
threshold of 1.0 turns into hard correctness gates.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Any, Callable

from repro.baselines import solve_lp
from repro.core.algorithm import Variant, solve_distributed
from repro.exceptions import ReproError
from repro.fl.generators import make_instance
from repro.obs.bench import write_bench
from repro.perf.cache import cache_stats, cached_instance, cached_lp_value, clear_caches
from repro.perf.cells import (
    SequentialCell,
    SolveCell,
    run_sequential_cell,
    run_solve_cell,
)
from repro.perf.executor import SweepExecutor

__all__ = ["SUITES", "run_perf_suite"]

SUITES = ("micro", "macro", "scale")

#: Per-suite sizing. ``micro`` is the CI gate (seconds); ``macro`` is the
#: committed trajectory point backing docs/PERFORMANCE.md (a minute or two).
_CONFIGS: dict[str, dict[str, Any]] = {
    "micro": {
        "emulator": {"m": 30, "n": 150, "k": 16, "repeats": 2},
        "sweep": {
            "families": ("uniform", "euclidean"),
            "m": 20,
            "n": 80,
            "k_values": (4, 9),
            "seeds": (0, 1, 2),
        },
        "solve": {"family": "euclidean", "m": 12, "n": 36, "k": 9, "seeds": (0, 1)},
        "lp_repeats": 3,
    },
    "macro": {
        "emulator": {"m": 60, "n": 300, "k": 25, "repeats": 3},
        "sweep": {
            "families": ("uniform", "euclidean", "clustered", "set_cover"),
            "m": 30,
            "n": 120,
            "k_values": (4, 16, 49),
            "seeds": (0, 1, 2, 3, 4),
        },
        "solve": {"family": "euclidean", "m": 20, "n": 60, "k": 16, "seeds": (0, 1, 2)},
        "lp_repeats": 5,
    },
}

#: The ``scale`` suite ladder: columnar solves at m+n = 10^4 → 10^6 on
#: natively sparse instances (client degree 3), greedy variant, k=8.
#: Each rung also names the shard count its sharded-identity check uses.
_SCALE_SIZES: tuple[tuple[str, int, int, int], ...] = (
    ("scale_10k", 200, 9_800, 2),
    ("scale_100k", 2_000, 98_000, 2),
    ("scale_1m", 20_000, 980_000, 4),
)
_SCALE_K = 8
_SCALE_SEED = 7


def run_perf_suite(
    suite: str,
    workers: int = 1,
    out: str | Path = ".",
    name: str | None = None,
    max_nodes: int | None = None,
) -> Path:
    """Run one perf suite and write its ``BENCH_<name>.json``.

    ``name`` defaults to the suite name for ``macro`` and ``scale`` (the
    committed repo-root trajectory file is ``BENCH_macro.json``; the
    scale ladder commits as ``benchmarks/baselines/BENCH_scale.json``)
    and to ``perf_micro`` for ``micro`` (matching the committed CI
    baseline under ``benchmarks/baselines/``). Raises
    :class:`ReproError` if any cross-engine or serial/parallel
    equivalence check fails — a suite that measured a *wrong* fast path
    must not emit a trajectory point.

    ``max_nodes`` (scale suite only) skips ladder rungs with more than
    that many nodes; the committed full-ladder baseline still gates the
    rungs a reduced CI run *does* produce, because ``repro compare``
    treats one-sided records as informational, not regressions.
    """
    if suite not in SUITES:
        raise ReproError(f"unknown perf suite {suite!r}; expected one of {SUITES}")
    if name is None:
        name = suite if suite in ("macro", "scale") else "perf_micro"
    records: dict[str, dict[str, Any]] = {}
    if suite == "scale":
        records["scale_equivalence"] = _scale_equivalence_record()
        for record_name, m, n, shards in _SCALE_SIZES:
            if max_nodes is not None and m + n > max_nodes:
                continue
            records[record_name] = _scale_solve_record(record_name, m, n, shards)
        return write_bench(name, records, out)
    config = _CONFIGS[suite]
    for variant in (Variant.GREEDY, Variant.DUAL_ASCENT):
        key = f"emulator_{'greedy' if variant is Variant.GREEDY else 'dual'}"
        records[key] = _emulator_record(variant, workers=workers, **config["emulator"])
    records["sweep_emulation"] = _sweep_emulation_record(
        workers=workers, **config["sweep"]
    )
    records["sweep_distributed"] = _sweep_distributed_record(
        workers=workers, **config["solve"]
    )
    records["bound_cache"] = _bound_cache_record(
        repeats=config["lp_repeats"], **{
            key: config["solve"][key] for key in ("family", "m", "n")
        }
    )
    records["simulator_churn"] = _simulator_churn_record(
        **{key: config["solve"][key] for key in ("family", "m", "n", "k")}
    )
    return write_bench(name, records, out)


def _timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def _engine_divergence_detail(
    instance: Any, k: int, seed: int, variant: str = Variant.GREEDY.value
) -> str:
    """Bisect a loop/columnar disagreement via the flight recorder.

    Re-runs the offending cell under both sequential engines with
    recording on and renders the :class:`~repro.obs.recorder.
    DivergenceReport`, so the equivalence-check error names the first
    divergent checkpoint, node and field instead of just "diverged".
    """
    from repro.obs.recorder import diff_recordings, record_run

    left = record_run(instance, engine="loop", k=k, seed=seed, variant=variant)
    right = record_run(
        instance, engine="columnar", k=k, seed=seed, variant=variant
    )
    return diff_recordings(left, right).render()


def _emulator_record(
    variant: Variant, m: int, n: int, k: int, repeats: int, workers: int
) -> dict[str, Any]:
    """Loop vs columnar engine on one instance; engines must agree."""
    instance = cached_instance("euclidean", m, n, 3)
    loop_seconds = 0.0
    columnar_seconds = 0.0
    identical = True
    for seed in range(repeats):
        elapsed, loop = _timed(
            lambda: solve_distributed(
                instance, k=k, seed=seed, variant=variant, engine="loop"
            )
        )
        loop_seconds += elapsed
        elapsed, fast = _timed(
            lambda: solve_distributed(
                instance, k=k, seed=seed, variant=variant, engine="columnar"
            )
        )
        columnar_seconds += elapsed
        identical = identical and (
            loop.open_facilities == fast.open_facilities
            and loop.solution.assignment == fast.solution.assignment
        )
    # Deeper than the final-answer check above: one recorded run per
    # engine, compared checkpoint by checkpoint (per-iteration state
    # digests), gated in CI like ``identical``.
    from repro.obs.recorder import diff_recordings, record_run

    digest_identical = diff_recordings(
        record_run(instance, engine="loop", k=k, seed=0, variant=variant.value),
        record_run(
            instance, engine="columnar", k=k, seed=0, variant=variant.value
        ),
    ).identical
    return {
        "source": "perf-suite",
        "wall_seconds": columnar_seconds,
        "params": {"m": m, "n": n, "k": k, "repeats": repeats, "workers": workers},
        "metrics": {
            "loop_seconds": loop_seconds,
            "columnar_seconds": columnar_seconds,
            "speedup": loop_seconds / max(columnar_seconds, 1e-9),
            "inverse_speedup": columnar_seconds / max(loop_seconds, 1e-9),
            "identical": float(identical),
            "digest_identical": float(digest_identical),
        },
    }


def _sweep_emulation_record(
    families: tuple[str, ...],
    m: int,
    n: int,
    k_values: tuple[int, ...],
    seeds: tuple[int, ...],
    workers: int,
) -> dict[str, Any]:
    """The headline macro number: legacy serial sweep vs optimized parallel.

    *Legacy* reproduces the pre-perf-layer path cell for cell: regenerate
    the instance, re-solve the LP bound, and emulate with the loop
    engine, all in-process. *Optimized* is the shipped path: memo caches,
    columnar engine, executor fan-out.
    """

    def legacy() -> list[tuple[Any, ...]]:
        results = []
        for family in families:
            for k in k_values:
                for seed in seeds:
                    instance = make_instance(family, m, n, 3)
                    bound = max(float(solve_lp(instance).value), 1e-12)
                    cell = SequentialCell(instance=instance, k=k, seed=seed, engine="loop")
                    outcome = run_sequential_cell(cell)
                    results.append((outcome.cost / bound, outcome.open_facilities))
        return results

    def optimized(executor: SweepExecutor) -> list[tuple[Any, ...]]:
        cells = []
        bounds = []
        for family in families:
            instance = cached_instance(family, m, n, 3)
            bound = max(cached_lp_value(instance), 1e-12)
            for k in k_values:
                for seed in seeds:
                    cells.append(SequentialCell(instance=instance, k=k, seed=seed))
                    bounds.append(bound)
        outcomes = executor.map_cells(run_sequential_cell, cells)
        return [
            (outcome.cost / bound, outcome.open_facilities)
            for outcome, bound in zip(outcomes, bounds)
        ]

    clear_caches()
    legacy_seconds, legacy_results = _timed(legacy)
    clear_caches()
    serial_seconds, serial_results = _timed(lambda: optimized(SweepExecutor()))
    clear_caches()
    parallel_seconds, parallel_results = _timed(
        lambda: optimized(SweepExecutor(workers=workers))
    )
    if parallel_results != serial_results:
        raise ReproError(
            "perf suite: parallel sweep output diverged from the serial run"
        )
    if legacy_results != serial_results:
        # Map the first mismatching flat index back to its (family, k,
        # seed) cell and bisect it with the flight recorder.
        grid = [
            (family, k, seed)
            for family in families
            for k in k_values
            for seed in seeds
        ]
        index = next(
            i
            for i, (a, b) in enumerate(zip(legacy_results, serial_results))
            if a != b
        )
        family, k, seed = grid[index]
        detail = _engine_divergence_detail(
            cached_instance(family, m, n, 3), k=k, seed=seed
        )
        raise ReproError(
            "perf suite: columnar sweep output diverged from the loop "
            f"engine (cell family={family} k={k} seed={seed})\n{detail}"
        )
    cells = len(legacy_results)
    return {
        "source": "perf-suite",
        "wall_seconds": parallel_seconds,
        "params": {
            "families": list(families),
            "m": m,
            "n": n,
            "k_values": list(k_values),
            "seeds": list(seeds),
            "workers": workers,
        },
        "metrics": {
            "cells": float(cells),
            "legacy_serial_seconds": legacy_seconds,
            "optimized_serial_seconds": serial_seconds,
            "optimized_parallel_seconds": parallel_seconds,
            "cells_per_second": cells / max(parallel_seconds, 1e-9),
            # The headline: the shipped configuration (columnar engine,
            # warm caches, `workers` processes) against the pre-perf-layer
            # serial path, on the same grid.
            "speedup": legacy_seconds / max(parallel_seconds, 1e-9),
            "speedup_serial": legacy_seconds / max(serial_seconds, 1e-9),
            "inverse_speedup": parallel_seconds / max(legacy_seconds, 1e-9),
            "byte_identical": 1.0,
        },
    }


def _sweep_distributed_record(
    family: str, m: int, n: int, k: int, seeds: tuple[int, ...], workers: int
) -> dict[str, Any]:
    """Message-simulator grid, serial vs parallel, rounds/sec throughput."""
    instance = cached_instance(family, m, n, 3)
    cells = [
        SolveCell(instance=instance, k=k, variant=variant, seed=seed)
        for variant in (Variant.GREEDY.value, Variant.DUAL_ASCENT.value)
        for seed in seeds
    ]
    serial_seconds, serial_outcomes = _timed(
        lambda: SweepExecutor().map_cells(run_solve_cell, cells)
    )
    parallel_seconds, parallel_outcomes = _timed(
        lambda: SweepExecutor(workers=workers).map_cells(run_solve_cell, cells)
    )
    if parallel_outcomes != serial_outcomes:
        raise ReproError(
            "perf suite: parallel distributed sweep diverged from the serial run"
        )
    total_rounds = sum(outcome.rounds for outcome in serial_outcomes)
    best_seconds = min(serial_seconds, parallel_seconds)
    return {
        "source": "perf-suite",
        "wall_seconds": parallel_seconds,
        "params": {
            "family": family,
            "m": m,
            "n": n,
            "k": k,
            "seeds": list(seeds),
            "workers": workers,
        },
        "metrics": {
            "cells": float(len(cells)),
            "serial_seconds": serial_seconds,
            "parallel_seconds": parallel_seconds,
            "cells_per_second": len(cells) / max(best_seconds, 1e-9),
            "rounds_per_second": total_rounds / max(best_seconds, 1e-9),
            "byte_identical": 1.0,
        },
    }


def _scale_equivalence_record() -> dict[str, Any]:
    """Oracle-sized digest identity: the scale suite's correctness
    anchor. Every rung above it runs only the columnar engine (nothing
    else fits), so this record proves — per variant, at shards 1 and 4 —
    that the engine being scaled is checkpoint-for-checkpoint identical
    to the loop oracle before any big number is trusted."""
    from repro.obs.recorder import diff_recordings, record_run

    m, n, k, seed = 12, 48, 5, 3
    instance = cached_instance("sparse", m, n, seed)
    compared = 0
    elapsed_total = 0.0
    for variant in (Variant.GREEDY.value, Variant.DUAL_ASCENT.value):
        elapsed, oracle = _timed(
            lambda: record_run(instance, engine="loop", k=k, seed=seed, variant=variant)
        )
        elapsed_total += elapsed
        for shards in (1, 4):
            elapsed, other = _timed(
                lambda: record_run(
                    instance, engine="columnar", k=k, seed=seed, variant=variant,
                    shards=shards,
                )
            )
            elapsed_total += elapsed
            report = diff_recordings(oracle, other)
            compared += 1
            if not report.identical:
                raise ReproError(
                    f"scale suite: columnar (shards={shards}, {variant}) "
                    f"diverged from the loop oracle\n{report.render()}"
                )
    return {
        "source": "perf-suite",
        "wall_seconds": elapsed_total,
        "params": {"m": m, "n": n, "k": k, "seed": seed, "engine": "all", "shards": [1, 4]},
        "metrics": {
            # Any divergence raises above, so reaching this return proves
            # every compared pair was digest-identical.
            "digest_identical": 1.0,
            "engine_pairs_compared": float(compared),
        },
    }


def _scale_solve_record(name: str, m: int, n: int, shards: int) -> dict[str, Any]:
    """One rung of the scale ladder: a native-sparse columnar solve.

    Measures end-to-end wall clock, then re-solves with ``shards`` worker
    processes and requires byte-equal solution arrays — so every rung
    carries its own sharding-identity proof at full size, where the
    flight recorder would be too heavy to afford. Both solves are timed
    untraced, so ``solve_seconds`` and ``sharded_solve_seconds`` compare;
    the tracemalloc peak (the gated ``mem_peak_kb`` budget) comes from a
    third, untimed solve, because tracing slows the solve it watches.
    """
    from repro.core.columnar import ColumnarInstance, solve_columnar
    from repro.obs.spans import measure_peak_memory

    cinst = ColumnarInstance.generate_sparse(m, n, seed=_SCALE_SEED)

    def solve_once():
        return solve_columnar(
            cinst, k=_SCALE_K, variant=Variant.GREEDY, seed=_SCALE_SEED
        )

    elapsed, result = _timed(solve_once)
    _, mem_peak_kb = measure_peak_memory(solve_once)
    if not result.feasible:
        raise ReproError(f"scale suite: columnar solve infeasible at {name}")
    sharded_elapsed, sharded = _timed(
        lambda: solve_columnar(
            cinst, k=_SCALE_K, variant=Variant.GREEDY, seed=_SCALE_SEED,
            shards=shards,
        )
    )
    import numpy as np

    sharded_identical = bool(
        np.array_equal(result.open_mask, sharded.open_mask)
        and np.array_equal(result.assignment, sharded.assignment)
    )
    if not sharded_identical:
        raise ReproError(
            f"scale suite: shards={shards} solution diverged from shards=1 at {name}"
        )
    return {
        "source": "perf-suite",
        "wall_seconds": elapsed,
        "params": {
            "m": m,
            "n": n,
            "nodes": m + n,
            "degree": 3,
            "k": _SCALE_K,
            "seed": _SCALE_SEED,
            "engine": "columnar",
            "shards": shards,
            "cpu_count": os.cpu_count(),
            "variant": "greedy",
        },
        "metrics": {
            "solve_seconds": elapsed,
            "sharded_solve_seconds": sharded_elapsed,
            "mem_peak_kb": mem_peak_kb,
            "cost": float(result.cost),
            "rounds": float(result.metrics.rounds),
            "total_messages": float(result.metrics.total_messages),
            "nodes_per_second": (m + n) / max(elapsed, 1e-9),
            "feasible": float(result.feasible),
            "sharded_identical": float(sharded_identical),
        },
    }


def _simulator_churn_record(family: str, m: int, n: int, k: int) -> dict[str, Any]:
    """Allocation churn of the object-graph round engine's hot paths.

    Two measurements: (a) the inbox ordering itself — the shipped
    two-pass single-attribute stable sort against the tuple-key
    ``attrgetter("sender", "kind")`` sort it replaced, on realistic
    nearly-sender-sorted inboxes; (b) a full message-passing solve's
    round throughput and tracemalloc peak, which the pooled inbox
    buffers keep flat across rounds.
    """
    import operator

    from repro.net.message import Message
    from repro.obs.spans import measure_peak_memory

    kinds = ("alp", "acc", "off", "srv")
    inboxes = [
        [
            Message(sender=s, receiver=0, kind=kinds[(s * 7 + i) % 4], round_sent=1)
            for i, s in enumerate(sorted(range(64)) * 4)
        ]
        for _ in range(200)
    ]
    tuple_key = operator.attrgetter("sender", "kind")
    primary = operator.attrgetter("sender")
    secondary = operator.attrgetter("kind")

    def sort_tuple() -> None:
        for inbox in inboxes:
            sorted(inbox, key=tuple_key)

    def sort_twopass() -> None:
        for inbox in inboxes:
            copy = list(inbox)
            copy.sort(key=secondary)
            copy.sort(key=primary)

    sort_tuple()  # warm both paths before timing
    sort_twopass()
    tuple_seconds, _ = _timed(sort_tuple)
    twopass_seconds, _ = _timed(sort_twopass)

    instance = cached_instance(family, m, n, 3)
    cell = SolveCell(instance=instance, k=k, variant=Variant.GREEDY.value, seed=0)
    elapsed, (outcome, mem_peak_kb) = _timed(
        lambda: measure_peak_memory(lambda: run_solve_cell(cell))
    )
    return {
        "source": "perf-suite",
        "wall_seconds": elapsed,
        "params": {"family": family, "m": m, "n": n, "k": k, "engine": "simulator"},
        "metrics": {
            "sort_tuple_seconds": tuple_seconds,
            "sort_twopass_seconds": twopass_seconds,
            "sort_speedup": tuple_seconds / max(twopass_seconds, 1e-9),
            "solve_seconds": elapsed,
            "rounds_per_second": outcome.rounds / max(elapsed, 1e-9),
            "messages_per_second": outcome.total_messages / max(elapsed, 1e-9),
            "mem_peak_kb": mem_peak_kb,
        },
    }


def _bound_cache_record(family: str, m: int, n: int, repeats: int) -> dict[str, Any]:
    """What the LP memo cache saves on repeated same-instance cells."""
    clear_caches()
    instance = cached_instance(family, m, n, 3)

    def uncached() -> float:
        value = 0.0
        for _ in range(repeats):
            value = float(solve_lp(instance).value)
        return value

    def cached() -> float:
        value = 0.0
        for _ in range(repeats):
            value = cached_lp_value(instance)
        return value

    uncached_seconds, uncached_value = _timed(uncached)
    cached_seconds, cached_value = _timed(cached)
    if cached_value != uncached_value:
        raise ReproError("perf suite: cached LP bound diverged from solve_lp")
    stats = cache_stats()
    return {
        "source": "perf-suite",
        "wall_seconds": cached_seconds,
        "params": {"family": family, "m": m, "n": n, "repeats": repeats},
        "metrics": {
            "uncached_seconds": uncached_seconds,
            "cached_seconds": cached_seconds,
            "speedup": uncached_seconds / max(cached_seconds, 1e-9),
            "lp_hits": float(stats["lp_hits"]),
            "lp_misses": float(stats["lp_misses"]),
        },
    }
