"""Behavioral tests for :class:`repro.service.service.SolveService`:
admission, batching, timeouts, error isolation and the metrics wiring."""

from __future__ import annotations

import pytest

from repro.obs.registry import MetricsRegistry
from repro.perf.cache import clear_caches
from repro.service import ServiceConfig, SolveService
from repro.service.request import InstanceRecipe, SolveRequest


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def request(request_id: str, seed: int = 1, **kwargs) -> SolveRequest:
    return SolveRequest(
        request_id=request_id,
        recipe=InstanceRecipe("uniform", 6, 15, seed),
        k=4,
        **kwargs,
    )


@pytest.fixture(autouse=True)
def _cold_caches():
    clear_caches()
    yield
    clear_caches()


class TestAdmission:
    def test_rejection_is_answered_and_counted(self):
        service = SolveService(
            config=ServiceConfig(max_queue_depth=1), clock=FakeClock()
        )
        assert service.submit(request("a")).accepted
        assert not service.submit(request("b")).accepted
        rejected = service.fetch("b")
        assert rejected is not None
        assert rejected.status == "rejected"
        summary = service.metrics_summary()
        assert summary["requests_accepted"] == 1
        assert summary["requests_rejected"] == 1
        assert summary["queue_depth"] == 1

    def test_queue_depth_gauge_tracks_pending(self):
        service = SolveService(clock=FakeClock())
        service.submit(request("a"))
        service.submit(request("b", seed=2))
        assert service.pending == 2
        service.process_pending()
        assert service.pending == 0
        assert service.metrics_summary()["queue_depth"] == 0


class TestProcessing:
    def test_duplicates_solved_once_and_marked(self):
        service = SolveService(clock=FakeClock())
        for rid in ("a", "b", "c"):
            service.submit(request(rid))  # identical work
        responses = service.process_pending()
        assert [r.request_id for r in responses] == ["a", "b", "c"]
        assert [r.status for r in responses] == ["ok", "ok", "ok"]
        assert [r.dedup for r in responses] == [False, True, True]
        costs = {r.result["cost"] for r in responses}
        assert len(costs) == 1
        summary = service.metrics_summary()
        assert summary["dedup_hits"] == 2
        assert summary["batch_size_mean"] == 3.0
        assert summary["batch_unique_mean"] == 1.0

    def test_timeout_answered_without_solving(self):
        clock = FakeClock()
        service = SolveService(clock=clock)
        service.submit(request("late", timeout_s=1.0))
        service.submit(request("fine"))
        clock.advance(5.0)
        responses = service.process_pending()
        by_id = {r.request_id: r for r in responses}
        assert by_id["late"].status == "timeout"
        assert by_id["fine"].status == "ok"
        assert service.metrics_summary()["timeouts"] == 1

    def test_error_isolated_to_its_work_unit(self):
        service = SolveService(clock=FakeClock())
        service.submit(request("bad", rounding="not_a_mode"))
        service.submit(request("good", seed=2))
        responses = service.process_pending()
        by_id = {r.request_id: r for r in responses}
        assert by_id["bad"].status == "error"
        assert "rounding" in by_id["bad"].error
        assert by_id["good"].status == "ok"
        assert service.metrics_summary()["responses_error"] == 1

    def test_run_until_drained_respects_batch_size(self):
        service = SolveService(
            config=ServiceConfig(max_batch_size=2), clock=FakeClock()
        )
        for i in range(5):
            service.submit(request(f"r{i}", seed=i))
        responses = service.run_until_drained()
        assert len(responses) == 5
        summary = service.metrics_summary()
        assert summary["batches"] == 3  # 2 + 2 + 1
        assert {r.batch_index for r in responses} == {0, 1, 2}

    def test_responses_are_retained_for_fetch(self):
        service = SolveService(clock=FakeClock())
        service.submit(request("a"))
        service.process_pending()
        fetched = service.fetch("a")
        assert fetched is not None and fetched.status == "ok"
        # Re-fetching within the TTL keeps working (non-destructive).
        assert service.fetch("a") is not None

    def test_result_ttl_eviction(self):
        clock = FakeClock()
        service = SolveService(
            config=ServiceConfig(result_ttl_s=10.0), clock=clock
        )
        service.submit(request("a"))
        service.process_pending()
        clock.advance(11.0)
        assert service.fetch("a") is None

    def test_event_counts_cover_every_recorded_event(self):
        from collections import Counter

        from repro.core.algorithm import solve_distributed
        from repro.fl.generators import make_instance
        from repro.net.trace import Trace

        recipe = InstanceRecipe("uniform", 10, 2500, 5)
        service = SolveService(clock=FakeClock())
        service.submit(SolveRequest(
            request_id="many", recipe=recipe, k=4, variant="dual_ascent",
            seed=1, capture_events=True,
        ))
        (response,) = service.process_pending()
        trace = Trace()
        solve_distributed(
            make_instance("uniform", 10, 2500, 5), 4, "dual_ascent", seed=1, trace=trace
        )
        counts = Counter(event.event for event in trace)
        assert len(trace) > 10_000
        assert response.result["events_by_kind"] == dict(sorted(counts.items()))


class TestMetrics:
    def test_cache_hit_counters_prove_shared_setup(self):
        service = SolveService(clock=FakeClock())
        # Same recipe, different algorithm seeds: two unique work units
        # sharing one instance materialization.
        service.submit(request("a", seed=1))
        service.submit(
            SolveRequest(
                request_id="b",
                recipe=InstanceRecipe("uniform", 6, 15, 1),
                k=4,
                seed=7,
            )
        )
        service.process_pending()
        assert service.metrics_summary()["cache_hits_instance"] >= 1

    def test_latency_quantiles_populated(self):
        clock = FakeClock()
        service = SolveService(clock=clock)
        service.submit(request("a"))
        clock.advance(0.25)
        service.process_pending()
        summary = service.metrics_summary()
        assert summary["latency_count"] == 1
        assert summary["latency_p50_s"] > 0
        assert summary["latency_p95_s"] >= summary["latency_p50_s"]

    def test_solves_count_the_engine_that_ran(self):
        # A default request is answered on columnar; events, a recording
        # or spans keep a request on the simulator.
        from repro.obs.spans import Tracer

        def solves(service, *requests):
            for item in requests:
                service.submit(item)
            assert all(r.status == "ok" for r in service.process_pending())
            summary = service.metrics_summary()
            return {e: summary[f"solves_{e}"] for e in ("simulator", "columnar", "loop")}

        assert solves(SolveService(clock=FakeClock()), request("a")) == {
            "simulator": 0, "columnar": 1, "loop": 0,
        }
        assert solves(
            SolveService(clock=FakeClock()),
            request("events", capture_events=True),
            request("recorded", seed=2, record=True),
        ) == {"simulator": 2, "columnar": 0, "loop": 0}
        assert solves(
            SolveService(clock=FakeClock(), tracer=Tracer()), request("traced")
        ) == {"simulator": 1, "columnar": 0, "loop": 0}
        assert solves(
            SolveService(clock=FakeClock()), request("named", engine="loop")
        ) == {"simulator": 0, "columnar": 0, "loop": 1}

    def test_shared_registry_is_respected(self):
        registry = MetricsRegistry()
        service = SolveService(registry=registry, clock=FakeClock())
        service.submit(request("a"))
        service.process_pending()
        assert "service.requests" in registry
        assert registry.counter("service.requests").total == 1
