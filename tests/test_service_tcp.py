"""The concurrent socket servers, the stream client, and the transport.

Covers the wire side of serving: the accept loop behind ``serve_tcp``
and ``serve_socket`` (concurrent connections, drain, malformed frames,
each over both address families), the pipelined use of
:class:`~repro.service.client.StreamServiceClient` (many in-flight
requests, out-of-order completion by request id, composition with
:class:`RetryingServiceClient`), and the
:class:`~repro.service.transport.LineTransport` helper whose framing +
typed-error mapping + poisoning discipline the client relies on.
"""

from __future__ import annotations

import socket
import threading

import pytest

from repro.exceptions import ReproError
from repro.service import (
    RetryingServiceClient,
    RetryPolicy,
    RouterConfig,
    ServiceRouter,
    SolveService,
    StreamServiceClient,
    serve_socket,
    serve_tcp,
)
from repro.service.request import InstanceRecipe, SolveRequest
from repro.service.resilience import (
    FatalServiceError,
    RetriableServiceError,
)
from repro.service.transport import LineTransport, parse_hostport

FAMILIES = ["unix", "tcp"]


def make_request(rid: str, seed: int = 1, k: int = 4) -> SolveRequest:
    return SolveRequest(
        request_id=rid,
        recipe=InstanceRecipe("uniform", 6, 15, seed),
        k=k,
    )


@pytest.fixture
def server(tmp_path):
    """Start a server thread; yields ``start(service, family="tcp",
    **kwargs) -> (endpoint, thread)``, where ``endpoint`` holds the
    client's ``address=`` or ``path=`` keyword."""

    def start(service, family="tcp", **kwargs):
        ready = threading.Event()
        bound: dict[str, int] = {}
        if family == "unix":
            path = str(tmp_path / "svc.sock")
            target, args = serve_socket, (service, path)
        else:
            target, args = serve_tcp, (service, "127.0.0.1", 0)
            kwargs["on_bound"] = lambda port: bound.update(port=port)
        thread = threading.Thread(
            target=target,
            args=args,
            kwargs={"ready": ready, **kwargs},
            daemon=True,
        )
        thread.start()
        assert ready.wait(10.0), f"{family} server failed to start"
        if family == "unix":
            return {"path": path}, thread
        return {"address": f"127.0.0.1:{bound['port']}"}, thread

    return start


class TestServeTcp:
    def test_round_trip_single_service(self, server):
        endpoint, thread = server(SolveService())
        with StreamServiceClient(**endpoint) as client:
            assert client.submit(make_request("t0"))
            responses = client.flush()
            assert [r.status for r in responses] == ["ok"]
            assert client.fetch("t0").status == "ok"
            client.shutdown()
        thread.join(timeout=10.0)
        assert not thread.is_alive()

    def test_router_behind_tcp(self, server):
        router = ServiceRouter(RouterConfig(num_workers=2))
        endpoint, thread = server(router)
        with StreamServiceClient(**endpoint) as client:
            for index in range(4):
                assert client.submit(make_request(f"r{index}", seed=index % 2))
            responses = {r.request_id: r for r in client.flush()}
            assert all(r.status == "ok" for r in responses.values())
            assert responses["r2"].dedup and responses["r3"].dedup
            metrics = client.metrics()
            assert metrics["route_workers"] == 2
            client.shutdown()
        thread.join(timeout=10.0)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_concurrent_connections(self, server, family):
        endpoint, thread = server(SolveService(), family)
        # An idle connection must not block another client's traffic.
        idle = StreamServiceClient(**endpoint)
        try:
            with StreamServiceClient(**endpoint, timeout_s=10.0) as busy:
                assert busy.submit(make_request("c0"))
                assert [r.status for r in busy.flush()] == ["ok"]
        finally:
            idle.close()
        with StreamServiceClient(**endpoint) as client:
            client.shutdown()
        thread.join(timeout=10.0)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_malformed_frame_answers_error_and_survives(self, server, family):
        endpoint, thread = server(SolveService(), family)
        with StreamServiceClient(**endpoint) as client:
            reply = client.raw_request("this is not json")
            assert reply["type"] == "error"
            # Same connection still works afterwards.
            assert client.submit(make_request("after-junk"))
            assert [r.status for r in client.flush()] == ["ok"]
            client.shutdown()
        thread.join(timeout=10.0)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_drain_signal_stops_the_server(self, server, family):
        service = SolveService()
        drain = threading.Event()
        endpoint, thread = server(
            service, family, drain_signal=drain, drain_timeout_s=5.0
        )
        # A client sitting idle on an open connection must not pin the
        # server past the drain.
        with StreamServiceClient(**endpoint) as idle:
            assert isinstance(idle.metrics(), dict)
            drain.set()
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        assert service.draining

    def test_refuses_to_replace_a_regular_file(self, tmp_path):
        path = tmp_path / "not-a-socket"
        path.write_text("user data\n")
        with pytest.raises(ReproError, match="not a socket"):
            serve_socket(SolveService(), path)
        assert path.read_text() == "user data\n"


class TestAsyncServiceClient:
    """Pipelined (``submit_nowait``) use of the stream client."""

    def test_pipelined_submits_resolve_out_of_order(self, server):
        endpoint, thread = server(SolveService())
        with StreamServiceClient(**endpoint, max_in_flight=3) as client:
            rids = [f"p{i}" for i in range(6)]
            for index, rid in enumerate(rids):
                client.submit_nowait(make_request(rid, seed=index % 2))
            assert client.in_flight <= 3  # the bound drained the rest
            client.flush()
            # Collect in reverse submission order: matching is by id.
            for rid in reversed(rids):
                response = client.take_response(rid) or client.fetch(rid)
                assert response is not None and response.status == "ok"
            assert all(client.accepted(rid) for rid in rids)
            client.shutdown()
        thread.join(timeout=10.0)

    def test_rejection_reasons_surface_after_drain(self, server):
        from repro.service import ServiceConfig

        service = SolveService(config=ServiceConfig(max_queue_depth=1))
        endpoint, thread = server(service)
        with StreamServiceClient(**endpoint) as client:
            client.submit_nowait(make_request("keep", seed=1))
            client.submit_nowait(make_request("spill", seed=2))
            acks = client.drain_acks()
            assert acks["keep"] is True
            assert acks["spill"] is False
            assert client.rejection_reason("spill") == "queue_full"
            client.shutdown()
        thread.join(timeout=10.0)

    def test_pipelining_over_unix_socket(self, server):
        # Pipelining is a protocol property, not a TCP one — and this
        # exercises the server's split read/write buffers directly.
        endpoint, thread = server(SolveService(), "unix")
        with StreamServiceClient(**endpoint) as client:
            for index in range(4):
                client.submit_nowait(make_request(f"u{index}", seed=index % 2))
            responses = client.flush()
            assert sorted(r.request_id for r in responses) == [
                "u0",
                "u1",
                "u2",
                "u3",
            ]
            assert all(r.status == "ok" for r in responses)
            client.shutdown()
        thread.join(timeout=10.0)

    def test_composes_with_retrying_client(self, server):
        endpoint, thread = server(SolveService())
        retrying = RetryingServiceClient(
            lambda: StreamServiceClient(**endpoint),
            policy=RetryPolicy(max_attempts=3, backoff_base_s=0.0, jitter=0.0),
            sleep=lambda _s: None,
        )
        retrying.current.abort()  # simulate a mid-session connection reset
        responses = retrying.solve_many(
            [make_request("retry-0"), make_request("retry-1", seed=2)]
        )
        assert [r.status for r in responses] == ["ok", "ok"]
        assert retrying.stats.reconnects >= 1
        retrying.close()
        with StreamServiceClient(**endpoint) as client:
            client.shutdown()
        thread.join(timeout=10.0)

    def test_rejects_bad_construction(self):
        with pytest.raises(ReproError):
            StreamServiceClient()
        with pytest.raises(ReproError):
            StreamServiceClient(address="127.0.0.1:1", max_in_flight=0)


class TestParseHostport:
    def test_parses_host_and_port(self):
        assert parse_hostport("127.0.0.1:9000") == ("127.0.0.1", 9000)
        assert parse_hostport("example.org:80") == ("example.org", 80)

    def test_strips_ipv6_brackets(self):
        assert parse_hostport("[::1]:9000") == ("::1", 9000)

    def test_rejects_junk(self):
        for bad in ("no-port", ":9000", "host:", "host:not-a-port", "host:70000"):
            with pytest.raises(ReproError):
                parse_hostport(bad)


class TestLineTransport:
    """Unit coverage of the shared frame/error/poisoning helper."""

    def make_pair(self, timeout_s: float = 0.5):
        ours, theirs = socket.socketpair()
        return LineTransport(ours, timeout_s, peer="test-peer"), theirs

    def test_round_trip_and_raw_newline(self):
        transport, peer = self.make_pair()
        transport.send_payload({"type": "ping"})
        assert peer.recv(1024) == b'{"type":"ping"}\n'
        transport.send_raw("no-newline")  # appended automatically
        assert peer.recv(1024) == b"no-newline\n"
        peer.sendall(b'{"type":"pong"}\n')
        assert transport.recv_payload() == {"type": "pong"}
        transport.close()
        peer.close()

    def test_recv_timeout_poisons_the_connection(self):
        transport, peer = self.make_pair(timeout_s=0.1)
        with pytest.raises(RetriableServiceError):
            transport.recv_payload()  # nothing sent: timeout
        assert transport.broken
        with pytest.raises(FatalServiceError):
            transport.send_payload({"type": "ping"})
        with pytest.raises(FatalServiceError):
            transport.recv_payload()
        transport.close()
        peer.close()

    def test_peer_close_is_retriable(self):
        transport, peer = self.make_pair()
        peer.close()
        with pytest.raises(RetriableServiceError):
            transport.recv_payload()
        assert transport.broken
        transport.close()

    def test_pipelined_lines_survive_interleaved_writes(self):
        # The regression that motivated split reader/writer streams: a
        # combined "rw" makefile dropped buffered read data on write.
        transport, peer = self.make_pair()
        peer.sendall(b'{"n":1}\n{"n":2}\n{"n":3}\n')
        assert transport.recv_payload() == {"n": 1}
        transport.send_payload({"type": "interleaved-write"})
        assert transport.recv_payload() == {"n": 2}
        assert transport.recv_payload() == {"n": 3}
        transport.close()
        peer.close()

    def test_abort_then_recv_is_retriable(self):
        transport, peer = self.make_pair()
        transport.abort()
        with pytest.raises(RetriableServiceError):
            transport.recv_payload()
        assert transport.broken
        transport.close()
        peer.close()

    def test_junk_line_raises_repro_error(self):
        transport, peer = self.make_pair()
        peer.sendall(b"not json\n")
        with pytest.raises(ReproError):
            transport.recv_payload()
        transport.close()
        peer.close()

    def test_close_is_idempotent_and_silent(self):
        transport, peer = self.make_pair()
        transport.close()
        transport.close()
        peer.close()
