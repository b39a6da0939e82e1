"""The ``repro bench --suite micro|scale`` perf suites.

Each suite writes one ``BENCH_<name>.json`` trajectory point (see
:mod:`repro.obs.bench`) that ``repro compare`` gates in CI. Correctness
is not a metric here: every suite cross-checks the engines it times and
raises :class:`~repro.exceptions.ReproError` on any disagreement, so a
fast path that changed an answer never emits a file.

``micro`` is the ``perf-smoke`` gate:

* ``emulator_greedy`` / ``emulator_dual`` — the columnar engine against
  the pure-Python loop oracle on one instance; the engines must agree on
  the final answer and on every flight-recorder checkpoint digest;
* ``simulator_churn`` — one serial message-passing solve: its wall time
  and its ``tracemalloc`` peak.

``scale`` is the columnar ladder at m+n = 10^4 → 10^6 (one
``scale_<size>`` record per rung), run after a digest check of the
columnar engine against the loop oracle at a size the oracle can solve.

Every timed number is the median of :data:`_REPEATS` untraced runs;
``tracemalloc`` peaks come from one more, untimed run, because tracing
slows the code it watches.
"""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path
from typing import Any, Callable

from repro.core.algorithm import Variant, solve_distributed
from repro.exceptions import ReproError
from repro.obs.bench import write_bench
from repro.perf.cache import cached_instance

__all__ = ["SUITES", "run_perf_suite"]

SUITES = ("micro", "scale")

#: Every timed number in a suite record is the median of this many runs.
_REPEATS = 5

#: ``micro`` sizing as (m, n, k), on euclidean instances (instance seed
#: 3, algorithm seed 0): the engine race, and the serial simulator solve.
_EMULATOR_SIZE = (30, 150, 16)
_SIMULATOR_SIZE = (12, 36, 9)

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
    out: str | Path = ".",
    max_nodes: int | None = None,
) -> Path:
    """Run one perf suite and write its BENCH file.

    The scale suite writes ``BENCH_scale.json`` and the micro suite
    ``BENCH_perf_micro.json``, the names of the committed baselines
    under ``benchmarks/baselines/``. Raises :class:`ReproError` if any
    cross-engine or cross-shard check fails — a suite that measured a
    *wrong* fast path must not emit a trajectory point.

    ``max_nodes`` (scale suite only) skips ladder rungs with more than
    that many nodes; the committed full-ladder baseline still gates the
    rungs a reduced CI run *does* produce, because ``repro compare``
    treats one-sided records as informational, not regressions.
    """
    if suite not in SUITES:
        raise ReproError(f"unknown perf suite {suite!r}; expected one of {SUITES}")
    records: dict[str, dict[str, Any]] = {}
    if suite == "scale":
        _check_scale_equivalence()
        for record_name, m, n, shards in _SCALE_SIZES:
            if max_nodes is not None and m + n > max_nodes:
                continue
            records[record_name] = _scale_solve_record(record_name, m, n, shards)
    else:
        records["emulator_greedy"] = _emulator_record(Variant.GREEDY)
        records["emulator_dual"] = _emulator_record(Variant.DUAL_ASCENT)
        records["simulator_churn"] = _simulator_record()
    return write_bench("scale" if suite == "scale" else "perf_micro", records, out)


def _timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def _median_timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    """Median wall time of :data:`_REPEATS` calls, and the last value."""
    times = []
    for _ in range(_REPEATS):
        elapsed, value = _timed(fn)
        times.append(elapsed)
    return statistics.median(times), value


def _timed_and_traced(fn: Callable[[], Any]) -> tuple[float, Any, float]:
    """:func:`_median_timed`, plus the ``tracemalloc`` peak (kB) of one
    more, untimed call: no timed call runs under the tracer."""
    from repro.obs.spans import measure_peak_memory

    seconds, value = _median_timed(fn)
    _, mem_peak_kb = measure_peak_memory(fn)
    return seconds, value, mem_peak_kb


def _emulator_record(variant: Variant) -> dict[str, Any]:
    """The columnar engine against the loop oracle on one instance.

    Raises :class:`ReproError` unless both engines return the same open
    set and assignment and record the same digest at every checkpoint.
    """
    from repro.obs.recorder import diff_recordings, record_run

    m, n, k = _EMULATOR_SIZE
    instance = cached_instance("euclidean", m, n, 3)

    def solve(engine: str) -> Callable[[], Any]:
        return lambda: solve_distributed(
            instance, k=k, seed=0, variant=variant, engine=engine
        )

    loop_seconds, loop = _median_timed(solve("loop"))
    columnar_seconds, columnar = _median_timed(solve("columnar"))
    if (
        loop.open_facilities != columnar.open_facilities
        or loop.solution.assignment != columnar.solution.assignment
    ):
        raise ReproError(
            f"perf suite: the columnar {variant.value} answer diverged "
            "from the loop oracle"
        )
    report = diff_recordings(
        record_run(instance, engine="loop", k=k, seed=0, variant=variant.value),
        record_run(instance, engine="columnar", k=k, seed=0, variant=variant.value),
    )
    if not report.identical:
        raise ReproError(
            f"perf suite: the columnar {variant.value} recording diverged "
            f"from the loop oracle\n{report.render()}"
        )
    return {
        "source": "perf-suite",
        "wall_seconds": columnar_seconds,
        "params": {
            "m": m,
            "n": n,
            "k": k,
            "repeats": _REPEATS,
            "cpu_count": os.cpu_count(),
        },
        "metrics": {
            "loop_seconds": loop_seconds,
            "inverse_speedup": columnar_seconds / max(loop_seconds, 1e-9),
        },
    }


def _simulator_record() -> dict[str, Any]:
    """One serial message-passing solve: wall time and ``tracemalloc``
    peak, which the pooled inbox buffers keep flat across rounds."""
    m, n, k = _SIMULATOR_SIZE
    instance = cached_instance("euclidean", m, n, 3)
    seconds, _, mem_peak_kb = _timed_and_traced(
        lambda: solve_distributed(instance, k=k, seed=0, variant=Variant.GREEDY)
    )
    return {
        "source": "perf-suite",
        "wall_seconds": seconds,
        "params": {
            "family": "euclidean",
            "m": m,
            "n": n,
            "k": k,
            "engine": "simulator",
            "repeats": _REPEATS,
            "cpu_count": os.cpu_count(),
        },
        "metrics": {"mem_peak_kb": mem_peak_kb},
    }


def _check_scale_equivalence() -> None:
    """Oracle-sized digest identity: the scale suite's correctness anchor.

    Every rung runs only the columnar engine (nothing else fits), so this
    check proves — per variant, at shards 1 and 4 — that the engine being
    scaled is checkpoint-for-checkpoint identical to the loop oracle
    before any big number is taken.
    """
    from repro.obs.recorder import diff_recordings, record_run

    m, n, k, seed = 12, 48, 5, 3
    instance = cached_instance("sparse", m, n, seed)
    for variant in (Variant.GREEDY.value, Variant.DUAL_ASCENT.value):
        oracle = record_run(instance, engine="loop", k=k, seed=seed, variant=variant)
        for shards in (1, 4):
            report = diff_recordings(
                oracle,
                record_run(
                    instance, engine="columnar", k=k, seed=seed, variant=variant,
                    shards=shards,
                ),
            )
            if not report.identical:
                raise ReproError(
                    f"scale suite: columnar (shards={shards}, {variant}) "
                    f"diverged from the loop oracle\n{report.render()}"
                )


def _scale_solve_record(name: str, m: int, n: int, shards: int) -> dict[str, Any]:
    """One rung of the scale ladder: a native-sparse columnar solve.

    Times the solve at one shard and at ``shards`` worker processes and
    requires byte-equal solution arrays — so every rung carries its own
    sharding-identity proof at full size, where the flight recorder would
    be too heavy to afford.
    """
    import numpy as np

    from repro.core.columnar import ColumnarInstance, solve_columnar

    cinst = ColumnarInstance.generate_sparse(m, n, seed=_SCALE_SEED)

    def solve(shard_count: int) -> Callable[[], Any]:
        return lambda: solve_columnar(
            cinst, k=_SCALE_K, variant=Variant.GREEDY, seed=_SCALE_SEED,
            shards=shard_count,
        )

    elapsed, result, mem_peak_kb = _timed_and_traced(solve(1))
    if not result.feasible:
        raise ReproError(f"scale suite: columnar solve infeasible at {name}")
    sharded_elapsed, sharded = _median_timed(solve(shards))
    if not (
        np.array_equal(result.open_mask, sharded.open_mask)
        and np.array_equal(result.assignment, sharded.assignment)
    ):
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
            "sharded_solve_seconds": sharded_elapsed,
            "mem_peak_kb": mem_peak_kb,
            "cost": float(result.cost),
            "rounds": float(result.metrics.rounds),
            "total_messages": float(result.metrics.total_messages),
        },
    }
