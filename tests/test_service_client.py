"""Tests for the wire codec, the line protocol and both clients
(in-process and stream, here over a Unix socket)."""

from __future__ import annotations

import io
import threading

import pytest

from repro.exceptions import ReproError
from repro.service import (
    ServiceClient,
    ServiceProtocol,
    SolveService,
    StreamServiceClient,
    decode_line,
    encode_line,
    serve_jsonl,
    serve_socket,
)
from repro.service.request import InstanceRecipe, SolveRequest


def request(request_id: str, seed: int = 1) -> SolveRequest:
    return SolveRequest(
        request_id=request_id,
        recipe=InstanceRecipe("uniform", 6, 15, seed),
        k=4,
    )


class TestCodec:
    def test_round_trip_is_deterministic(self):
        payload = {"b": 2, "a": 1, "type": "solve"}
        line = encode_line(payload)
        assert line == '{"a":1,"b":2,"type":"solve"}\n'
        assert decode_line(line) == payload

    def test_rejects_junk(self):
        with pytest.raises(ReproError, match="empty"):
            decode_line("   \n")
        with pytest.raises(ReproError, match="undecodable"):
            decode_line("{not json")
        with pytest.raises(ReproError, match="object"):
            decode_line("[1, 2]")


class TestServiceProtocol:
    def test_solve_flush_fetch_metrics(self):
        protocol = ServiceProtocol(SolveService())
        ack = list(protocol.handle(request("a").to_wire()))
        assert ack == [{"type": "ack", "request_id": "a", "accepted": True}]
        replies = list(protocol.handle({"type": "flush"}))
        assert replies[-1] == {"type": "flush_done", "count": 1}
        assert replies[0]["request_id"] == "a"
        assert replies[0]["status"] == "ok"
        fetched = list(protocol.handle({"type": "fetch", "request_id": "a"}))
        assert fetched[0]["status"] == "ok"
        metrics = list(protocol.handle({"type": "metrics"}))
        assert metrics[0]["metrics"]["responses_ok"] == 1

    def test_malformed_solve_gets_a_nack(self):
        protocol = ServiceProtocol(SolveService())
        (ack,) = protocol.handle({"type": "solve", "request_id": "bad", "k": 0})
        assert ack["accepted"] is False
        assert "malformed" in ack["reason"]

    def test_unknown_type_and_unknown_fetch(self):
        protocol = ServiceProtocol(SolveService())
        (reply,) = protocol.handle({"type": "frobnicate"})
        assert reply["type"] == "error"
        (reply,) = protocol.handle({"type": "fetch", "request_id": "ghost"})
        assert reply["type"] == "error"

    def test_shutdown_flips_the_flag(self):
        protocol = ServiceProtocol(SolveService())
        (reply,) = protocol.handle({"type": "shutdown"})
        assert reply == {"type": "bye"}
        assert protocol.shutting_down

    def test_full_metrics_carries_the_registry_snapshot(self):
        from repro.obs.metrics_io import SNAPSHOT_SCHEMA

        protocol = ServiceProtocol(SolveService())
        list(protocol.handle(request("a").to_wire()))
        list(protocol.handle({"type": "flush"}))
        (plain,) = protocol.handle({"type": "metrics"})
        assert "snapshot" not in plain
        (full,) = protocol.handle({"type": "metrics", "full": True})
        snapshot = full["snapshot"]
        assert snapshot["schema"] == SNAPSHOT_SCHEMA
        assert "service.requests" in snapshot["metrics"]
        # The flat summary rides along unchanged in both shapes.
        assert full["metrics"] == plain["metrics"]


class TestServeJsonl:
    def test_stream_session_with_implicit_eof_flush(self):
        lines = [
            encode_line(request("a").to_wire()),
            encode_line(request("b").to_wire()),  # duplicate work of a
        ]
        out = io.StringIO()
        served = serve_jsonl(
            SolveService(), io.StringIO("".join(lines)), out, emit_metrics=True
        )
        assert served == 2
        replies = [decode_line(line) for line in out.getvalue().splitlines()]
        kinds = [r["type"] for r in replies]
        # Two acks, the implicit EOF flush (2 responses + marker), metrics.
        assert kinds == [
            "ack", "ack", "response", "response", "flush_done", "metrics",
        ]
        assert replies[3]["dedup"] is True
        assert replies[-1]["metrics"]["dedup_hits"] == 1

    def test_bad_line_answers_error_and_continues(self):
        stream = io.StringIO("this is not json\n" + encode_line(request("a").to_wire()))
        out = io.StringIO()
        serve_jsonl(SolveService(), stream, out)
        replies = [decode_line(line) for line in out.getvalue().splitlines()]
        assert replies[0]["type"] == "error"
        assert replies[1] == {"type": "ack", "request_id": "a", "accepted": True}


class TestServiceClientRejection:
    def test_solve_many_answers_rejections_in_place(self):
        from repro.service import ServiceConfig

        client = ServiceClient(SolveService(config=ServiceConfig(max_queue_depth=1)))
        responses = client.solve_many([request("a"), request("b", seed=2)])
        assert [r.status for r in responses] == ["ok", "rejected"]


class TestSocketTransport:
    def test_full_session_over_the_socket(self, tmp_path):
        socket_path = str(tmp_path / "repro.sock")
        service = SolveService()
        ready = threading.Event()
        server = threading.Thread(
            target=serve_socket, args=(service, socket_path, ready)
        )
        server.start()
        try:
            assert ready.wait(10)
            with StreamServiceClient(path=socket_path) as client:
                assert client.submit(request("a"))
                assert client.submit(request("a2"))  # duplicate work
                responses = client.flush()
                assert [r.request_id for r in responses] == ["a", "a2"]
                assert [r.dedup for r in responses] == [False, True]
                refetched = client.fetch("a")
                assert refetched is not None and refetched.status == "ok"
                assert client.fetch("ghost") is None
                assert client.metrics()["dedup_hits"] == 1

            # State survives across connections (fetch on a new one).
            with StreamServiceClient(path=socket_path) as client:
                again = client.fetch("a")
                assert again is not None and again.status == "ok"
                client.shutdown()
        finally:
            server.join(10)
        assert not server.is_alive()
