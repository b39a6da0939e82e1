"""The load generator: deterministic shapes, real measurements, gates.

Workload construction must be a pure function of the
:class:`~repro.analysis.loadgen.LoadShape` seed (that is what makes a
committed ``BENCH_loadtest.json`` baseline comparable), the zipf knob
must actually produce duplicate work keys, and a short real run against
the 2-worker TCP router must complete with clean gates and a
well-formed bench record.
"""

from __future__ import annotations

import pytest

from repro.analysis.loadgen import (
    LoadShape,
    LoadtestReport,
    build_workload,
    latency_quantile,
    run_loadtest,
)
from repro.exceptions import ReproError


class TestBuildWorkload:
    def test_deterministic_for_equal_shapes(self):
        shape = LoadShape(num_users=3, requests_per_user=5, seed=11)
        first = build_workload(shape)
        second = build_workload(shape)
        flat_first = [r for script in first.per_user for r in script]
        flat_second = [r for script in second.per_user for r in script]
        assert [r.request_id for r in flat_first] == [
            r.request_id for r in flat_second
        ]
        assert [r.work_key() for r in flat_first] == [
            r.work_key() for r in flat_second
        ]

    def test_different_seeds_differ(self):
        base = LoadShape(num_users=2, requests_per_user=8, seed=0)
        other = LoadShape(num_users=2, requests_per_user=8, seed=1)
        keys = lambda plan: [
            r.work_key() for script in plan.per_user for r in script
        ]
        assert keys(build_workload(base)) != keys(build_workload(other))

    def test_zipf_skew_produces_duplicate_work_keys(self):
        shape = LoadShape(
            num_users=4,
            requests_per_user=10,
            catalog_size=20,
            zipf_s=1.5,
            seed=3,
        )
        plan = build_workload(shape)
        # 40 requests over a zipf-hot catalog must collapse onto far
        # fewer distinct work keys — that is the whole point.
        assert plan.distinct_work_keys() < plan.total_requests / 2

    def test_priority_and_deadline_mixes_are_applied(self):
        shape = LoadShape(
            num_users=4,
            requests_per_user=25,
            low_priority_fraction=0.3,
            high_priority_fraction=0.2,
            deadline_fraction=0.5,
            seed=5,
        )
        requests = [
            r for script in build_workload(shape).per_user for r in script
        ]
        priorities = {r.priority for r in requests}
        assert {"low", "normal", "high"} <= priorities
        with_deadline = sum(1 for r in requests if r.timeout_s is not None)
        assert 0 < with_deadline < len(requests)

    def test_open_schedule_is_bursty_when_asked(self):
        even = build_workload(
            LoadShape(num_users=2, requests_per_user=6, burstiness=0.0)
        )
        bursty = build_workload(
            LoadShape(num_users=2, requests_per_user=6, burstiness=0.8)
        )
        even_offsets = [offset for offset, _ in even.arrivals]
        bursty_offsets = [offset for offset, _ in bursty.arrivals]
        assert len(set(even_offsets)) > len(set(bursty_offsets))

    def test_shape_validation(self):
        with pytest.raises(ReproError):
            LoadShape(mode="sideways")
        with pytest.raises(ReproError):
            LoadShape(num_users=0)
        with pytest.raises(ReproError):
            LoadShape(burstiness=1.0)
        with pytest.raises(ReproError):
            LoadShape(deadline_fraction=2.0)


class TestLatencyQuantile:
    def test_nearest_rank(self):
        samples = [10.0, 20.0, 30.0, 40.0]
        assert latency_quantile(samples, 0.5) == 20.0
        assert latency_quantile(samples, 1.0) == 40.0
        assert latency_quantile([], 0.95) == 0.0

    def test_rejects_bad_quantile(self):
        with pytest.raises(ReproError):
            latency_quantile([1.0], 0.0)


class TestRunLoadtest:
    def test_closed_loop_against_two_worker_router(self):
        shape = LoadShape(
            name="test-closed",
            num_users=2,
            requests_per_user=3,
            catalog_size=4,
            seed=7,
        )
        report = run_loadtest(shape, service_workers=2)
        assert report.gate_failures() == []
        assert report.ok == report.total_requests == 6
        assert report.goodput_rps > 0
        record = report.to_record()
        assert set(record["metrics"]) == {
            "latency_p50_ms",
            "latency_p95_ms",
            "latency_p99_ms",
            "seconds_per_ok",
            "lost",
            "divergent",
            "errors",
        }
        assert record["metrics"]["lost"] == 0
        assert record["params"]["goodput_rps"] > 0
        assert "loadtest" in report.render()

    def test_open_loop_with_bursts(self):
        shape = LoadShape(
            name="test-open",
            mode="open",
            num_users=2,
            requests_per_user=3,
            burstiness=0.6,
            arrival_rate_rps=500.0,
            catalog_size=4,
            seed=9,
        )
        report = run_loadtest(shape, service_workers=2)
        assert report.gate_failures() == []
        assert report.ok == 6
        assert len(report.latencies_ms) == 6

    def test_performance_gates_fire(self):
        shape = LoadShape(
            name="test-gates",
            num_users=1,
            requests_per_user=2,
            catalog_size=2,
            seed=1,
        )
        report = run_loadtest(shape, service_workers=2)
        failures = report.gate_failures(
            max_p95_ms=0.000001, min_goodput_rps=1e9
        )
        assert len(failures) == 2
        assert any("p95" in failure for failure in failures)
        assert any("goodput" in failure for failure in failures)


class TestLoadtestReport:
    def test_correctness_gates_always_fire(self):
        report = LoadtestReport(
            shape=LoadShape(),
            wall_seconds=1.0,
            latencies_ms=(1.0,),
            statuses={"ok": 1, "error": 2},
            lost=("gone",),
            divergent=("bad",),
        )
        failures = report.gate_failures()
        assert len(failures) == 3  # lost, divergent, errors
        assert report.seconds_per_ok == 1.0
