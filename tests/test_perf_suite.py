"""The micro perf suite: record shape, gates, and compare integration."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ReproError
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
    assert SUITES == ("micro", "macro", "scale")


def test_micro_suite_emits_gateable_bench(tmp_path):
    path = run_perf_suite("micro", workers=2, out=tmp_path)
    assert path.name == "BENCH_perf_micro.json"
    doc = json.loads(path.read_text())
    assert doc["type"] == "bench"
    records = doc["records"]
    assert set(records) == {
        "bound_cache",
        "emulator_greedy",
        "emulator_dual",
        "sweep_emulation",
        "sweep_distributed",
        "simulator_churn",
    }
    # Every correctness flag must be exactly 1.0 — the suite refuses to
    # emit a trajectory point for a fast path that changed answers.
    assert records["emulator_greedy"]["metrics"]["identical"] == 1.0
    assert records["emulator_dual"]["metrics"]["identical"] == 1.0
    assert records["sweep_emulation"]["metrics"]["byte_identical"] == 1.0
    assert records["sweep_distributed"]["metrics"]["byte_identical"] == 1.0
    assert records["sweep_emulation"]["metrics"]["cells"] == 12.0
    for record in records.values():
        assert record["wall_seconds"] >= 0.0

    # The emitted file feeds the repro-compare regression gate: identical
    # trajectory points never regress, and the correctness flags gate at
    # threshold 1.0.
    reports = compare_paths(
        path,
        path,
        thresholds={
            "sweep_emulation.byte_identical": 1.0,
            "emulator_greedy.identical": 1.0,
        },
        default_threshold=100.0,
    )
    assert all(report.ok for report in reports)


def test_suite_name_override(tmp_path):
    path = run_perf_suite("micro", out=tmp_path, name="nightly")
    assert path.name == "BENCH_nightly.json"


def test_scale_suite_reduced_ladder(tmp_path):
    """``max_nodes`` trims the ladder (the CI shape); gates still hold."""
    path = run_perf_suite("scale", out=tmp_path, max_nodes=10_000)
    assert path.name == "BENCH_scale.json"
    records = json.loads(path.read_text())["records"]
    assert set(records) == {"scale_equivalence", "scale_10k"}
    equivalence = records["scale_equivalence"]["metrics"]
    assert equivalence["digest_identical"] == 1.0
    rung = records["scale_10k"]
    assert rung["params"]["engine"] == "columnar"
    assert rung["params"]["shards"] > 1
    assert rung["metrics"]["feasible"] == 1.0
    assert rung["metrics"]["sharded_identical"] == 1.0
    assert rung["metrics"]["mem_peak_kb"] > 0.0
    assert rung["metrics"]["nodes_per_second"] > 0.0


def test_scale_rung_times_both_solves_untraced(monkeypatch):
    """``solve_seconds`` and ``sharded_solve_seconds`` must compare: neither
    solve may be timed under tracemalloc, which only the untimed memory
    solve turns on."""
    import tracemalloc

    from repro.core import columnar
    from repro.perf import suite

    timing = [False]
    calls: list[tuple[bool, bool, int]] = []
    solve = columnar.solve_columnar
    timed = suite._timed

    def watched_solve(*args, **kwargs):
        calls.append((timing[0], tracemalloc.is_tracing(), kwargs.get("shards", 1)))
        return solve(*args, **kwargs)

    def watched_timed(fn):
        timing[0] = True
        try:
            return timed(fn)
        finally:
            timing[0] = False

    monkeypatch.setattr(columnar, "solve_columnar", watched_solve)
    monkeypatch.setattr(suite, "_timed", watched_timed)
    record = suite._scale_solve_record("scale_tiny", 20, 200, 2)
    assert sorted(calls) == [(False, True, 1), (True, False, 1), (True, False, 2)]
    assert record["metrics"]["mem_peak_kb"] > 0.0
