"""E15 (Fig 11): the "with high probability" claim, measured.

Regenerates the many-seed ratio distribution and asserts the w.h.p.
reading of the theorem: even the worst seed stays under the analytic
envelope, and the distribution is concentrated (worst within 50% of the
median).
"""

from __future__ import annotations

from benchmarks.conftest import save_result
from repro.analysis.experiments import run_e15_concentration
from repro.core.algorithm import solve_distributed
from repro.fl.generators import euclidean_instance


def test_e15_concentration(benchmark, artifact_dir, quick):
    result = run_e15_concentration(quick=quick)
    save_result(artifact_dir, result)
    for row in result.rows:
        _k, p50, p95, worst, spread, envelope = row
        assert worst <= envelope, row
        assert p50 <= p95 <= worst + 1e-12
        assert spread <= 1.5, f"ratio distribution too dispersed: {row}"

    instance = euclidean_instance(20, 60, seed=3)
    benchmark(lambda: solve_distributed(instance, k=16, seed=7, engine="columnar"))
