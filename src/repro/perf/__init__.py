"""Performance layer: parallel sweeps, memo caches, perf suites.

``repro.perf`` is the harness that makes large evaluation campaigns
cheap (see docs/PERFORMANCE.md):

* :class:`~repro.perf.executor.SweepExecutor` — deterministic
  process-pool fan-out of (instance, k, seed, fault) grid cells whose
  merged output is byte-identical to a serial run;
* :mod:`~repro.perf.cells` — the picklable cell payload, which names
  its engine, and the module-level worker the executor ships to
  spawned interpreters;
* :mod:`~repro.perf.cache` — instance and LP-lower-bound memo caches
  keyed by the run manifest's instance digest, so repeated sweep cells
  skip regeneration and LP re-solves;
* :mod:`~repro.perf.suite` — the ``repro bench --suite micro|scale``
  perf suites emitting ``BENCH_*.json`` trajectory files that the
  ``repro compare`` regression gate consumes; a suite raises instead of
  writing a file when the engines it times disagree.
"""

from repro.perf.cache import (
    cache_stats,
    cached_instance,
    cached_lp_value,
    clear_caches,
)
from repro.perf.cells import CellOutcome, SolveCell, run_solve_cell
from repro.perf.executor import SweepExecutor
from repro.perf.suite import run_perf_suite

__all__ = [
    "CellOutcome",
    "SolveCell",
    "SweepExecutor",
    "cache_stats",
    "cached_instance",
    "cached_lp_value",
    "clear_caches",
    "run_perf_suite",
    "run_solve_cell",
]
