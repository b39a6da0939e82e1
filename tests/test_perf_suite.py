"""The micro perf suite: record shape, gates, and compare integration."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.exceptions import ReproError
from repro.fl.solution import FacilityLocationSolution
from repro.obs.compare import compare_paths
from repro.perf import clear_caches
from repro.perf.suite import SUITES, run_perf_suite


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


def test_unknown_suite_rejected(tmp_path):
    with pytest.raises(ReproError, match="unknown perf suite"):
        run_perf_suite("mega", out=tmp_path)


def test_suite_names():
    assert SUITES == ("micro", "scale")


def test_micro_suite_emits_gateable_bench(tmp_path):
    path = run_perf_suite("micro", out=tmp_path)
    assert path.name == "BENCH_perf_micro.json"
    doc = json.loads(path.read_text())
    assert doc["type"] == "bench"
    records = doc["records"]
    assert set(records) == {"emulator_greedy", "emulator_dual", "simulator_churn"}
    for record in records.values():
        assert record["wall_seconds"] > 0.0
        assert record["params"]["cpu_count"] >= 1
        # The headline time has one name: no metric repeats wall_seconds.
        assert record["wall_seconds"] not in record["metrics"].values()
    assert records["simulator_churn"]["metrics"]["mem_peak_kb"] > 0.0

    # The emitted file feeds the repro-compare regression gate: identical
    # trajectory points never regress.
    reports = compare_paths(
        path,
        path,
        thresholds={"simulator_churn.mem_peak_kb": 1.25},
        default_threshold=100.0,
    )
    assert all(report.ok for report in reports)


def test_micro_suite_raises_on_engine_disagreement(tmp_path, monkeypatch):
    """A columnar answer that differs from the loop oracle's is an error,
    not a metric: the suite writes no file."""
    from repro.perf import suite

    solve = suite.solve_distributed

    def perturbed(instance, *args, engine="simulator", **kwargs):
        result = solve(instance, *args, engine=engine, **kwargs)
        if engine != "columnar":
            return result
        assignment = dict(result.solution.assignment)
        assignment[0] = (assignment[0] + 1) % instance.num_facilities
        return dataclasses.replace(
            result,
            solution=FacilityLocationSolution(
                instance, result.open_facilities, assignment, validate=False
            ),
        )

    monkeypatch.setattr(suite, "solve_distributed", perturbed)
    with pytest.raises(ReproError, match="diverged from the loop oracle"):
        run_perf_suite("micro", out=tmp_path)
    assert not list(tmp_path.iterdir())


def test_scale_suite_reduced_ladder(tmp_path):
    """``max_nodes`` trims the ladder (the CI shape); gates still hold."""
    path = run_perf_suite("scale", out=tmp_path, max_nodes=10_000)
    assert path.name == "BENCH_scale.json"
    records = json.loads(path.read_text())["records"]
    assert set(records) == {"scale_10k"}
    rung = records["scale_10k"]
    assert rung["params"]["engine"] == "columnar"
    assert rung["params"]["shards"] > 1
    assert rung["metrics"]["mem_peak_kb"] > 0.0
    assert rung["wall_seconds"] > 0.0
    assert "solve_seconds" not in rung["metrics"]


def test_scale_rung_times_both_solves_untraced(monkeypatch):
    """Every timed solve runs with tracemalloc off; the memory peak comes
    from one more, untimed solve. This holds for the scale rung's
    ``wall_seconds`` and ``sharded_solve_seconds`` and for the simulator
    record's ``wall_seconds``."""
    import tracemalloc

    from repro.core import columnar
    from repro.core.algorithm import DistributedFacilityLocation
    from repro.perf import suite

    timing = [False]
    calls: list[tuple[bool, bool, int]] = []
    solve = columnar.solve_columnar
    run = DistributedFacilityLocation.run
    timed = suite._timed

    def watched_solve(*args, **kwargs):
        calls.append((timing[0], tracemalloc.is_tracing(), kwargs.get("shards", 1)))
        return solve(*args, **kwargs)

    def watched_run(self):
        calls.append((timing[0], tracemalloc.is_tracing(), 0))
        return run(self)

    def watched_timed(fn):
        timing[0] = True
        try:
            return timed(fn)
        finally:
            timing[0] = False

    monkeypatch.setattr(columnar, "solve_columnar", watched_solve)
    monkeypatch.setattr(DistributedFacilityLocation, "run", watched_run)
    monkeypatch.setattr(suite, "_timed", watched_timed)
    record = suite._scale_solve_record("scale_tiny", 20, 200, 2)
    repeats = suite._REPEATS
    assert sorted(calls) == sorted(
        [(False, True, 1)] + [(True, False, 1)] * repeats + [(True, False, 2)] * repeats
    )
    assert record["metrics"]["mem_peak_kb"] > 0.0

    calls.clear()
    record = suite._simulator_record()
    assert sorted(calls) == sorted([(False, True, 0)] + [(True, False, 0)] * repeats)
    assert record["metrics"]["mem_peak_kb"] > 0.0
