"""E9 (Fig 6): scalability — message simulator vs sequential emulation.

Regenerates the wall-clock series and asserts both implementations agree
(the experiment itself asserts identical costs) and that the emulation is
never slower than the simulator at the largest size. Times both paths as
benchmark entries so their relative cost is tracked over time.
"""

from __future__ import annotations

from benchmarks.conftest import save_result
from repro.analysis.experiments import run_e9_scalability
from repro.core.algorithm import solve_distributed
from repro.fl.generators import uniform_instance


def test_e9_scalability_table(benchmark, artifact_dir, quick):
    result = run_e9_scalability(quick=quick)
    save_result(artifact_dir, result)
    largest = result.rows[-1]
    _n, sim_s, seq_s, speedup, _messages = largest
    assert speedup >= 1.0, "emulation should not be slower at the largest size"

    instance = uniform_instance(20, 100, seed=3)
    benchmark(lambda: solve_distributed(instance, k=9, seed=0))


def test_e9_sequential_anchor(benchmark):
    instance = uniform_instance(20, 100, seed=3)
    benchmark(lambda: solve_distributed(instance, k=9, seed=0, engine="columnar"))
