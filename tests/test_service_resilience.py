"""Tests for the fault-tolerance layer: taxonomy, retries, crash
recovery, shedding, rate limiting, drain, and the typed socket errors."""

from __future__ import annotations

import os
import socket
import threading
import time
from io import StringIO
from pathlib import Path

import pytest

from repro.exceptions import ReproError
from repro.service import (
    RETRIABLE_REJECT_REASONS,
    FatalServiceError,
    ResilientExecutor,
    RetriableServiceError,
    RetryingServiceClient,
    RetryPolicy,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    SolveRequest,
    SolveResponse,
    SolveService,
    StreamServiceClient,
    TokenBucket,
    WorkerCrashError,
    serve_jsonl,
)
from repro.service.queue import AdmissionQueue
from repro.service.request import InstanceRecipe, priority_level
from repro.service.server import ServiceProtocol


class FakeClock:
    """Steppable monotonic clock for deterministic tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TickingClock:
    """A clock that advances by ``step`` on every read."""

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def request(request_id: str = "r", seed: int = 1, **kwargs) -> SolveRequest:
    return SolveRequest(
        request_id=request_id,
        recipe=InstanceRecipe("uniform", 6, 15, seed),
        k=4,
        **kwargs,
    )


# ----------------------------------------------------------------------
# Error taxonomy


class TestTaxonomy:
    def test_hierarchy(self):
        assert issubclass(ServiceError, ReproError)
        assert issubclass(RetriableServiceError, ServiceError)
        assert issubclass(FatalServiceError, ServiceError)
        assert issubclass(WorkerCrashError, RetriableServiceError)
        assert not issubclass(FatalServiceError, RetriableServiceError)

    def test_draining_is_not_retriable(self):
        assert "draining" not in RETRIABLE_REJECT_REASONS
        assert RETRIABLE_REJECT_REASONS == {
            "queue_full",
            "rate_limited",
            "shed_low_priority",
        }


# ----------------------------------------------------------------------
# Retry policy and token bucket


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ReproError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ReproError):
            RetryPolicy(backoff_base_s=-1)
        with pytest.raises(ReproError):
            RetryPolicy(jitter=1.5)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            backoff_base_s=0.1, backoff_factor=2.0, backoff_max_s=0.5, jitter=0.0
        )
        import random

        rng = random.Random(0)
        sleeps = [policy.backoff_s(a, rng) for a in range(5)]
        assert sleeps[:3] == [0.1, 0.2, 0.4]
        assert sleeps[3] == sleeps[4] == 0.5  # capped

    def test_jitter_is_seed_deterministic_and_bounded(self):
        import random

        policy = RetryPolicy(backoff_base_s=1.0, jitter=0.5)
        a = [policy.backoff_s(0, random.Random(7)) for _ in range(3)]
        b = [policy.backoff_s(0, random.Random(7)) for _ in range(3)]
        assert a == b  # same seed, same schedule
        assert all(0.5 <= s <= 1.0 for s in a)


class TestTokenBucket:
    def test_burst_then_starve_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=2.0, clock=clock)
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()  # burst spent, no time passed
        clock.advance(1.0)
        assert bucket.try_acquire()  # one token refilled
        assert not bucket.try_acquire()

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=3.0, clock=clock)
        clock.advance(60.0)
        assert bucket.tokens == 3.0

    def test_validation(self):
        with pytest.raises(ReproError):
            TokenBucket(rate=0)
        with pytest.raises(ReproError):
            TokenBucket(rate=1, burst=0.5)


# ----------------------------------------------------------------------
# ResilientExecutor: serial, pool, watchdog


def _flaky_cell(cell):
    """Crash on first execution of each cell, succeed after.

    The marker file (``cell[0]``) carries the crash state across
    attempts — and across processes in pool mode, where the crash is a
    hard ``os._exit`` so the pool breaks exactly like a real segfault.
    """
    marker, value, in_pool = cell
    if not os.path.exists(marker):
        Path(marker).touch()
        if in_pool:
            os._exit(17)
        raise WorkerCrashError("injected serial crash")
    return value * 10


def _wedge_once_cell(cell):
    """Sleep far past the watchdog on first execution, then answer."""
    marker, value = cell
    if not os.path.exists(marker):
        Path(marker).touch()
        time.sleep(30.0)
    return value + 1


class TestResilientExecutorSerial:
    def test_serial_retry_recovers(self, tmp_path):
        executor = ResilientExecutor(workers=1, max_attempts=3)
        cells = [(str(tmp_path / f"m{i}"), i, False) for i in range(3)]
        assert executor.map_cells(_flaky_cell, cells) == [0, 10, 20]
        report = executor.last_report
        assert report.retries == 3  # each cell crashed exactly once
        assert report.attempts == (2, 2, 2)
        assert report.respawns == 0

    def test_serial_budget_exhaustion_is_contained(self, tmp_path):
        def always_crash(cell):
            if cell == 1:
                raise WorkerCrashError("hopeless")
            return cell

        executor = ResilientExecutor(workers=1, max_attempts=2)
        results = executor.map_cells(always_crash, [0, 1, 2])
        assert results[0] == 0 and results[2] == 2  # neighbours untouched
        assert results[1]["crash"] is True
        assert "retry budget exhausted" in results[1]["error"]
        assert executor.last_report.attempts == (1, 2, 1)

    def test_empty_batch(self):
        executor = ResilientExecutor()
        assert executor.map_cells(_flaky_cell, []) == []
        assert executor.last_report.attempts == ()

    def test_validation(self):
        with pytest.raises(ReproError):
            ResilientExecutor(workers=0)
        with pytest.raises(ReproError):
            ResilientExecutor(max_attempts=0)
        with pytest.raises(ReproError):
            ResilientExecutor(cell_timeout_s=0)


class TestResilientExecutorPool:
    def test_pool_crash_respawns_and_recovers(self, tmp_path):
        executor = ResilientExecutor(workers=2, max_attempts=3)
        cells = [(str(tmp_path / f"m{i}"), i, True) for i in range(4)]
        assert executor.map_cells(_flaky_cell, cells) == [0, 10, 20, 30]
        report = executor.last_report
        assert report.respawns >= 1  # at least the fast-path pool died
        assert report.retries >= 1
        assert all(count >= 1 for count in report.attempts)

    def test_watchdog_abandons_wedged_cell(self, tmp_path):
        executor = ResilientExecutor(
            workers=2, max_attempts=3, cell_timeout_s=0.5
        )
        cells = [(str(tmp_path / f"w{i}"), i) for i in range(2)]
        assert executor.map_cells(_wedge_once_cell, cells) == [1, 2]
        report = executor.last_report
        # The wedged fast-path pool was abandoned; the re-executions ran
        # in isolation pools. (An unfinished fast-path cell is *not*
        # charged an attempt — the pool's death may not be its fault —
        # so attempts stay at 1 per cell here.)
        assert report.respawns >= 1
        assert all(count >= 1 for count in report.attempts)


# ----------------------------------------------------------------------
# Priority shedding and rate limiting


class TestPriorityShedding:
    def test_priority_levels(self):
        assert priority_level("low") < priority_level("normal")
        assert priority_level("normal") < priority_level("high")
        with pytest.raises(ReproError):
            priority_level("urgent")

    def test_high_water_refuses_incoming_low(self):
        queue = AdmissionQueue(max_depth=4, clock=FakeClock(), high_water=2)
        assert queue.offer(request("a")).accepted
        assert queue.offer(request("b")).accepted
        refused = queue.offer(request("c", priority="low"))
        assert not refused.accepted
        assert refused.reason == "shed_low_priority"
        assert queue.offer(request("d")).accepted  # normal still admits

    def test_full_queue_evicts_newest_lower_priority(self):
        queue = AdmissionQueue(max_depth=3, clock=FakeClock())
        queue.offer(request("low-old", priority="low"))
        queue.offer(request("norm", priority="normal"))
        queue.offer(request("low-new", priority="low"))
        outcome = queue.offer(request("vip", priority="high"))
        assert outcome.accepted
        assert [q.request.request_id for q in outcome.shed] == ["low-new"]
        queued = [q.request.request_id for q in queue.drain()[0]]
        assert queued == ["low-old", "norm", "vip"]

    def test_full_queue_without_victim_rejects(self):
        queue = AdmissionQueue(max_depth=2, clock=FakeClock())
        queue.offer(request("a", priority="high"))
        queue.offer(request("b", priority="high"))
        outcome = queue.offer(request("c", priority="high"))
        assert not outcome.accepted and outcome.reason == "queue_full"

    def test_high_water_validation(self):
        with pytest.raises(ReproError):
            AdmissionQueue(max_depth=4, high_water=5)
        with pytest.raises(ReproError):
            AdmissionQueue(max_depth=4, high_water=0)

    def test_service_answers_shed_victims(self):
        service = SolveService(
            config=ServiceConfig(max_queue_depth=1), clock=FakeClock()
        )
        service.submit(request("victim", priority="low"))
        outcome = service.submit(request("vip", priority="high"))
        assert outcome.accepted
        shed = service.fetch("victim")
        assert shed.status == "rejected"
        assert shed.error == "shed_low_priority"
        assert service.metrics_summary()["sheds"] == 1


class TestRateLimiting:
    def test_per_client_bucket(self):
        clock = FakeClock()
        service = SolveService(
            config=ServiceConfig(
                rate_limit_per_client=1.0, rate_limit_burst=2.0
            ),
            clock=clock,
        )
        assert service.submit(request("a", client_id="alice")).accepted
        assert service.submit(request("b", client_id="alice")).accepted
        refused = service.submit(request("c", client_id="alice"))
        assert not refused.accepted and refused.reason == "rate_limited"
        # The refusal is itself an answered, fetchable response.
        assert service.fetch("c").error == "rate_limited"
        # Other clients have their own bucket.
        assert service.submit(request("d", client_id="bob")).accepted
        clock.advance(1.0)  # alice's bucket refills one token
        assert service.submit(request("e", client_id="alice")).accepted
        assert service.metrics_summary()["rate_limited"] == 1


# ----------------------------------------------------------------------
# Two-phase deadline expiry


class TestTwoPhaseExpiry:
    def test_queue_phase(self):
        clock = FakeClock()
        service = SolveService(clock=clock)
        service.submit(request("stale", timeout_s=5.0))
        clock.advance(6.0)
        (response,) = service.process_pending()
        assert response.status == "timeout"
        summary = service.metrics_summary()
        assert summary["timeouts_queue"] == 1
        assert summary["timeouts_execute"] == 0

    def test_execute_phase(self):
        # Every clock read ticks by 1s: the deadline (offer at t=1,
        # timeout 1.5 -> 2.5) survives the drain check at t=2 but fails
        # the execution-start re-check at t=3.
        service = SolveService(clock=TickingClock(step=1.0))
        service.submit(request("edge", timeout_s=1.5))
        (response,) = service.process_pending()
        assert response.status == "timeout"
        assert "before execution start" in response.error
        summary = service.metrics_summary()
        assert summary["timeouts_queue"] == 0
        assert summary["timeouts_execute"] == 1


# ----------------------------------------------------------------------
# Graceful drain


class TestDrain:
    def test_begin_drain_refuses_new_work(self):
        service = SolveService(clock=FakeClock())
        service.begin_drain()
        assert service.draining
        outcome = service.submit(request("late"))
        assert not outcome.accepted and outcome.reason == "draining"
        answered = service.fetch("late")
        assert answered.status == "draining"
        assert service.metrics_summary()["drain_rejections"] == 1

    def test_shutdown_flushes_queued_work(self):
        service = SolveService()
        service.submit(request("a", seed=1))
        service.submit(request("b", seed=2))
        responses = service.shutdown(drain=True)
        assert {r.request_id: r.status for r in responses} == {
            "a": "ok",
            "b": "ok",
        }
        assert service.pending == 0
        assert service.draining

    def test_zero_timeout_answers_leftovers_draining(self):
        service = SolveService(clock=FakeClock())
        service.submit(request("a"))
        service.submit(request("b"))
        responses = service.shutdown(drain=True, drain_timeout_s=0.0)
        assert [r.status for r in responses] == ["draining", "draining"]
        assert [r.request_id for r in responses] == ["a", "b"]  # seq order
        for rid in ("a", "b"):
            assert service.fetch(rid).status == "draining"
        assert service.metrics_summary()["drain_rejections"] == 2

    def test_shutdown_without_drain_rejects_everything(self):
        service = SolveService()
        service.submit(request("a"))
        responses = service.shutdown(drain=False)
        assert [r.status for r in responses] == ["draining"]

    def test_bare_server_and_bare_cli_share_the_drain_budget(self):
        """An embedded server and a bare ``repro serve`` drain within one
        budget, ServiceConfig's ``drain_timeout_s``."""
        from repro.cli import _options, build_parser

        args = build_parser().parse_args(["serve"])
        assert ServiceConfig(**_options(args, ServiceConfig)) == ServiceConfig()
        budget = ServiceConfig().drain_timeout_s
        assert budget == 30.0
        # Every server drains through a bare drain line; a clock ticking
        # just past the budget per read leaves the queued request undone.
        for step, status in ((budget + 1, "draining"), (budget - 1, "ok")):
            service = SolveService(clock=TickingClock(step))
            service.submit(request("a"))
            replies = list(ServiceProtocol(service).handle({"type": "drain"}))
            assert [r.get("status") for r in replies] == [status, None]

    def test_drain_protocol_line(self):
        service = SolveService()
        protocol = ServiceProtocol(service)
        service.submit(request("a"))
        replies = list(protocol.handle({"type": "drain"}))
        assert replies[-1]["type"] == "drain_done"
        assert replies[-1]["count"] == 1
        assert replies[0]["status"] == "ok"
        assert protocol.shutting_down

    def test_serve_jsonl_drain_signal(self):
        class TriggerAfter:
            """Looks idle for ``n`` is_set() polls, then stays set."""

            def __init__(self, n: int) -> None:
                self.n = n

            def is_set(self) -> bool:
                self.n -= 1
                return self.n < 0

        import json

        lines = (
            "".join(
                json.dumps(request(rid, seed=s).to_wire()) + "\n"
                for rid, s in (("a", 1), ("b", 2))
            )
            + "never reached: the drain signal fires first\n"
        )
        out = StringIO()
        serve_jsonl(
            SolveService(config=ServiceConfig(drain_timeout_s=5.0)),
            StringIO(lines),
            out,
            drain_signal=TriggerAfter(2),
        )
        payloads = [json.loads(line) for line in out.getvalue().splitlines()]
        kinds = [p.get("type") for p in payloads]
        assert kinds.count("ack") == 2  # both solves admitted pre-drain
        done = next(p for p in payloads if p.get("type") == "drain_done")
        assert done["count"] == 2
        statuses = [p["status"] for p in payloads if "status" in p]
        assert statuses == ["ok", "ok"]


# ----------------------------------------------------------------------
# RetryingServiceClient


class ScriptedClient:
    """Fake client whose submit/flush/fetch follow a per-call script."""

    def __init__(self, script: dict[str, list]) -> None:
        self.script = script
        self.closed = False

    def _next(self, op: str):
        queue = self.script.get(op)
        if not queue:
            return None
        step = queue.pop(0)
        if isinstance(step, Exception):
            raise step
        return step

    def submit(self, request) -> bool:
        outcome = self._next("submit")
        return True if outcome is None else outcome

    def flush(self):
        self._next("flush")
        return []

    def fetch(self, request_id: str):
        return self._next("fetch")

    def close(self) -> None:
        self.closed = True


class TestRetryingServiceClient:
    @staticmethod
    def policy(attempts: int = 3) -> RetryPolicy:
        return RetryPolicy(
            max_attempts=attempts, backoff_base_s=0.0, jitter=0.0
        )

    def test_reconnects_after_transport_loss(self):
        clients: list[ScriptedClient] = []

        def factory() -> ScriptedClient:
            script = (
                {"flush": [RetriableServiceError("reset")]}
                if not clients
                else {
                    "fetch": [SolveResponse(request_id="r", status="ok")]
                }
            )
            client = ScriptedClient(script)
            clients.append(client)
            return client

        retrying = RetryingServiceClient(
            factory, policy=self.policy(), sleep=lambda _: None
        )
        response = retrying.solve(request("r"))
        assert response.status == "ok"
        assert len(clients) == 2  # the broken client was replaced
        assert clients[0].closed  # and closed on the way out
        assert retrying.stats.reconnects == 1
        assert retrying.stats.retries == 1

    def test_retriable_rejection_is_resubmitted(self):
        rejected = SolveResponse(
            request_id="r", status="rejected", error="queue_full"
        )
        ok = SolveResponse(request_id="r", status="ok")
        client = ScriptedClient({"fetch": [rejected, ok]})
        retrying = RetryingServiceClient(
            lambda: client, policy=self.policy(), sleep=lambda _: None
        )
        assert retrying.solve(request("r")).status == "ok"

    def test_non_retriable_rejection_is_terminal(self):
        draining = SolveResponse(
            request_id="r", status="draining", error="draining"
        )
        client = ScriptedClient({"fetch": [draining]})
        retrying = RetryingServiceClient(
            lambda: client, policy=self.policy(), sleep=lambda _: None
        )
        response = retrying.solve(request("r"))
        assert response.status == "draining"
        assert retrying.stats.retries == 0

    def test_budget_exhaustion_synthesizes_error_response(self):
        def factory() -> ScriptedClient:
            return ScriptedClient(
                {"flush": [RetriableServiceError("down")] * 10}
            )

        retrying = RetryingServiceClient(
            factory, policy=self.policy(attempts=2), sleep=lambda _: None
        )
        response = retrying.solve(request("r"))
        assert response.status == "error"
        assert "retry budget exhausted" in response.error
        assert retrying.stats.exhausted == 1

    def test_fetch_exhaustion_raises_fatal(self):
        def factory() -> ScriptedClient:
            return ScriptedClient(
                {"fetch": [RetriableServiceError("down")] * 10}
            )

        retrying = RetryingServiceClient(
            factory, policy=self.policy(attempts=2), sleep=lambda _: None
        )
        with pytest.raises(FatalServiceError, match="after 2 attempt"):
            retrying.fetch("r")

    def test_backoff_sleeps_follow_policy(self):
        sleeps: list[float] = []

        def factory() -> ScriptedClient:
            return ScriptedClient(
                {"flush": [RetriableServiceError("down")] * 10}
            )

        retrying = RetryingServiceClient(
            factory,
            policy=RetryPolicy(
                max_attempts=3,
                backoff_base_s=0.1,
                backoff_factor=2.0,
                jitter=0.0,
            ),
            sleep=sleeps.append,
        )
        retrying.solve(request("r"))
        assert sleeps == [0.1, 0.2]

    def test_end_to_end_against_real_service(self):
        service = SolveService()
        with RetryingServiceClient(
            lambda: ServiceClient(service),
            policy=self.policy(),
            sleep=lambda _: None,
        ) as retrying:
            responses = retrying.solve_many(
                [request("a", seed=1), request("b", seed=2)]
            )
        assert [r.status for r in responses] == ["ok", "ok"]


# ----------------------------------------------------------------------
# Socket client typed errors


class TestSocketTypedErrors:
    def test_connect_failure_is_retriable(self, tmp_path):
        with pytest.raises(RetriableServiceError, match="cannot connect"):
            StreamServiceClient(path=str(tmp_path / "nope.sock"), timeout_s=0.5)

    def test_recv_timeout_then_fatal_until_reconnect(self, tmp_path):
        path = str(tmp_path / "mute.sock")
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        server.bind(path)
        server.listen(1)
        accepted: list[socket.socket] = []

        def accept_and_hold() -> None:
            conn, _ = server.accept()
            accepted.append(conn)  # never reply, never close

        thread = threading.Thread(target=accept_and_hold, daemon=True)
        thread.start()
        client = StreamServiceClient(path=path, timeout_s=0.3)
        try:
            with pytest.raises(RetriableServiceError, match="timed out"):
                client.fetch("anything")
            # The half-read connection is now poisoned: every further
            # use is fatal until a fresh client is built.
            with pytest.raises(FatalServiceError, match="undefined state"):
                client.fetch("anything")
        finally:
            client.close()
            thread.join(timeout=2)
            for conn in accepted:
                conn.close()
            server.close()

    def test_server_eof_is_retriable(self, tmp_path):
        path = str(tmp_path / "eof.sock")
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        server.bind(path)
        server.listen(1)

        def accept_and_close() -> None:
            conn, _ = server.accept()
            with conn.makefile("r") as stream:
                stream.readline()  # consume the request: clean FIN, not RST
            conn.close()

        thread = threading.Thread(target=accept_and_close, daemon=True)
        thread.start()
        client = StreamServiceClient(path=path, timeout_s=2.0)
        try:
            with pytest.raises(
                RetriableServiceError, match="closed the connection"
            ):
                client.fetch("anything")
        finally:
            client.close()
            thread.join(timeout=2)
            server.close()
