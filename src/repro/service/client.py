"""Clients of the solve service, plus the JSONL wire codec.

Two clients share one mental model — submit requests, flush, collect
responses by request id:

* :class:`ServiceClient` wraps an in-process
  :class:`~repro.service.service.SolveService`; tests, examples and the
  stdin transport use it.
* :class:`StreamServiceClient` speaks the line protocol (see
  :mod:`repro.service.server` for the protocol table) to a
  ``repro serve --tcp HOST:PORT`` front end or a
  ``repro serve --socket PATH`` server. Its submits either round-trip
  or pipeline many in-flight requests per connection; the framed I/O,
  typed-error mapping and broken-connection poisoning live in
  :class:`~repro.service.transport.LineTransport`.

The codec pair :func:`encode_line` / :func:`decode_line` (re-exported
from :mod:`repro.service.transport`) defines the wire format: one
compact, key-sorted JSON object per line. Key sorting makes encoded
bytes deterministic, which the equivalence tests rely on when diffing
served against direct results.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterable

from repro.exceptions import ReproError
from repro.obs.spans import Tracer
from repro.service.request import SolveRequest, SolveResponse
from repro.service.service import SolveService
from repro.service.transport import (
    LineTransport,
    connect_tcp,
    connect_unix,
    decode_line,
    encode_line,
    parse_hostport,
)

__all__ = [
    "ServiceClient",
    "StreamServiceClient",
    "TcpServiceClient",
    "decode_line",
    "encode_line",
]


def _stamp_trace(request: SolveRequest, tracer: Tracer) -> SolveRequest:
    """Return ``request`` carrying the tracer's current span context.

    Requests that already carry a ``trace_ctx`` keep it — the caller's
    causal chain wins over the client's session span.
    """
    if request.trace_ctx is not None:
        return request
    context = tracer.current_context()
    if context is None:
        return request
    return dataclasses.replace(request, trace_ctx=context)


class ServiceClient:
    """In-process convenience wrapper around a :class:`SolveService`.

    ``tracer``, when given, makes each :meth:`solve_many` call a
    ``client.session`` root span and stamps its context onto every
    submitted request (unless the request already carries one), so the
    whole pipeline — queue, batch, worker, simulator rounds — hangs off
    one connected trace tree.
    """

    def __init__(
        self,
        service: SolveService | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.service = service if service is not None else SolveService()
        self.tracer = tracer

    def submit(self, request: SolveRequest) -> bool:
        """Offer one request; True when admitted."""
        return self.service.submit(request).accepted

    def flush(self) -> list[SolveResponse]:
        """Process every queued request; responses in arrival order."""
        return self.service.run_until_drained()

    def fetch(self, request_id: str) -> SolveResponse | None:
        """Retained response for ``request_id``, or ``None``."""
        return self.service.fetch(request_id)

    def metrics(self) -> dict[str, Any]:
        """The service's flat metrics summary."""
        return self.service.metrics_summary()

    def solve(self, request: SolveRequest) -> SolveResponse:
        """Submit one request and drive it to completion."""
        return self.solve_many([request])[0]

    def solve_many(self, requests: Iterable[SolveRequest]) -> list[SolveResponse]:
        """Submit a batch and drive it to completion.

        Responses come back in submission order; rejected requests are
        answered in place (``status="rejected"``) rather than raising,
        so one overloaded moment doesn't discard the whole batch.
        """
        submitted = list(requests)
        if self.tracer is not None:
            with self.tracer.span(
                "client.session", requests=len(submitted)
            ):
                submitted = [
                    _stamp_trace(request, self.tracer)
                    for request in submitted
                ]
                for request in submitted:
                    self.service.submit(request)
                self.service.run_until_drained()
        else:
            for request in submitted:
                self.service.submit(request)
            self.service.run_until_drained()
        out: list[SolveResponse] = []
        for request in submitted:
            response = self.service.fetch(request.request_id)
            if response is None:  # store evicted it already: tiny TTLs only
                response = SolveResponse(
                    request_id=request.request_id,
                    status="error",
                    error="response evicted before fetch",
                )
            out.append(response)
        return out


class StreamServiceClient:
    """Line-protocol client over TCP or a Unix socket.

    Parameters
    ----------
    address:
        ``HOST:PORT`` of a ``repro serve --tcp`` front end.
    path:
        Alternatively, the path of a ``repro serve --socket`` server.
        Exactly one of ``address`` and ``path`` must be given.
    timeout_s:
        Per-read/write transport timeout.
    max_in_flight:
        Bound on unread acks before :meth:`submit_nowait` reads the
        oldest one.
    tracer:
        When given, submitted requests are stamped with the tracer's
        current span context (``trace`` wire field), so a tracing server
        parents its spans under this client — one trace tree across the
        socket boundary.

    :meth:`submit` round-trips: it sends the solve line and waits for
    its ack. :meth:`submit_nowait` *pipelines*: it writes the solve line
    and returns without reading the ack, so many requests ride the
    connection back-to-back instead of paying one round trip each. The
    server answers lines strictly in arrival order, so the reply stream
    holds the pipelined acks (each carrying its ``request_id``) ahead of
    whatever the next verb's replies are; every verb that reads a reply
    first consumes the acks queued ahead of it. ``max_in_flight`` is not
    decoration: the server writes each ack immediately, so a client that
    pipelined without ever reading would eventually fill both socket
    buffers and deadlock against its own submit.

    Completion is matched by ``request_id``, never by position:
    :meth:`flush` files its responses by id for :meth:`take_response`,
    so callers may collect in any order. Usable as a context manager;
    :meth:`close` drops the connection (the server keeps running),
    while :meth:`shutdown` asks the server process to exit. Typical
    pipelined session::

        with StreamServiceClient(address="127.0.0.1:9000") as client:
            for request in requests:         # no round trips here
                client.submit_nowait(request)
            responses = client.flush()       # acks + responses resolved

    Transport failures surface as the typed taxonomy from
    :mod:`repro.service.resilience` (via the shared
    :class:`~repro.service.transport.LineTransport`): a receive timeout,
    connection reset, broken pipe or server-side EOF raises
    :class:`~repro.service.resilience.RetriableServiceError` and marks
    the connection broken, after which every call raises
    :class:`~repro.service.resilience.FatalServiceError` until a fresh
    client is built — which is what
    :class:`~repro.service.resilience.RetryingServiceClient` does.
    """

    def __init__(
        self,
        address: str | None = None,
        path: str | None = None,
        timeout_s: float = 30.0,
        max_in_flight: int = 64,
        tracer: Tracer | None = None,
    ) -> None:
        if max_in_flight < 1:
            raise ReproError(
                f"max_in_flight must be >= 1, got {max_in_flight}"
            )
        if (address is None) == (path is None):
            raise ReproError(
                "StreamServiceClient needs exactly one of "
                "address='HOST:PORT' or path=<unix socket>"
            )
        self.timeout_s = float(timeout_s)
        self.max_in_flight = int(max_in_flight)
        self.tracer = tracer
        self._transport: LineTransport
        if path is not None:
            self._transport = connect_unix(str(path), self.timeout_s)
        else:
            host, port = parse_hostport(str(address))
            self._transport = connect_tcp(host, port, self.timeout_s)
        #: Submitted ids whose acks have not been read yet, oldest first.
        self._awaiting_acks: list[str] = []
        #: Ack outcomes seen so far: request_id -> accepted bool.
        self._acks: dict[str, bool] = {}
        #: Rejection reasons for refused submits: request_id -> reason.
        self._rejections: dict[str, str] = {}
        #: Responses of the last flush not yet taken, keyed by request_id.
        self._responses: dict[str, SolveResponse] = {}

    def __enter__(self) -> "StreamServiceClient":
        """Context-manager entry; the connection is already open."""
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Context-manager exit: drop the connection."""
        self.close()

    def close(self) -> None:
        """Drop the connection (the server keeps serving others)."""
        self._transport.close()

    def abort(self) -> None:
        """Sever the transport abruptly, with no clean close.

        A testing/chaos hook: the next operation on this client fails
        with a :class:`~repro.service.resilience.RetriableServiceError`,
        which is exactly what a mid-session connection reset looks like
        from the caller's side.
        """
        self._transport.abort()

    def raw_request(self, line: str) -> dict[str, Any]:
        """Send one raw line (no codec) and decode the reply.

        Exists for protocol and chaos testing — it is how the chaos
        harness injects malformed frames through a live connection. The
        newline is appended when missing.
        """
        self.drain_acks()
        self._transport.send_raw(line)
        return self._transport.recv_payload()

    # ------------------------------------------------------------------
    # Submission

    @property
    def in_flight(self) -> int:
        """Pipelined submits whose acks have not been read yet."""
        return len(self._awaiting_acks)

    def _read_one_ack(self) -> bool:
        """Read the oldest pending ack off the wire, file it, and return
        whether it admitted its request."""
        expected = self._awaiting_acks.pop(0)
        payload = self._transport.recv_payload()
        if payload.get("type") != "ack":
            raise ReproError(
                f"protocol desync: expected ack for {expected!r}, "
                f"got {payload.get('type')!r}"
            )
        request_id = str(payload.get("request_id", expected))
        accepted = bool(payload.get("accepted", False))
        self._acks[request_id] = accepted
        if not accepted:
            self._rejections[request_id] = str(payload.get("reason", ""))
        return accepted

    def drain_acks(self) -> dict[str, bool]:
        """Read every pending ack; the full id → accepted map so far."""
        while self._awaiting_acks:
            self._read_one_ack()
        return dict(self._acks)

    def submit_nowait(self, request: SolveRequest) -> bool:
        """Pipeline one solve request without waiting for its ack.

        Returns ``True``, meaning *pipelined* — admission is not known
        yet. The verdict lands in :meth:`accepted` /
        :meth:`rejection_reason` once acks are read. When the in-flight
        bound is reached, the oldest ack is read first, so a long
        submission loop self-regulates instead of deadlocking.
        """
        if self.tracer is not None:
            request = _stamp_trace(request, self.tracer)
        while len(self._awaiting_acks) >= self.max_in_flight:
            self._read_one_ack()
        self._transport.send_payload(request.to_wire())
        self._awaiting_acks.append(request.request_id)
        return True

    def submit(self, request: SolveRequest) -> bool:
        """Send one solve request; True when the server admitted it.

        Reads every pending ack up to this request's own, in order.
        """
        self.submit_nowait(request)
        accepted = False
        while self._awaiting_acks:
            accepted = self._read_one_ack()
        return accepted

    def accepted(self, request_id: str) -> bool | None:
        """Ack outcome for a submit: True/False, or None while unread."""
        return self._acks.get(request_id)

    def rejection_reason(self, request_id: str) -> str:
        """Server's rejection reason for a refused submit ("" if none)."""
        return self._rejections.get(request_id, "")

    # ------------------------------------------------------------------
    # Completion

    def flush(self) -> list[SolveResponse]:
        """Ask the server to process everything queued.

        The server answers with one response line per completed request
        followed by a ``flush_done`` line carrying the count, so the
        client knows exactly how many lines to read. The responses come
        back in the server's completion order and are also filed by
        ``request_id`` for :meth:`take_response`, replacing the previous
        flush's untaken ones.
        """
        self.drain_acks()
        self._transport.send_payload({"type": "flush"})
        responses: list[SolveResponse] = []
        while True:
            payload = self._transport.recv_payload()
            if payload.get("type") == "flush_done":
                break
            responses.append(SolveResponse.from_wire(payload))
        self._responses = {
            response.request_id: response for response in responses
        }
        return responses

    def take_response(self, request_id: str) -> SolveResponse | None:
        """Pop a response the last :meth:`flush` collected.

        Purely local — no wire traffic. ``None`` when that flush did not
        deliver the id (use :meth:`fetch` to ask the server).
        """
        return self._responses.pop(request_id, None)

    def fetch(self, request_id: str) -> SolveResponse | None:
        """A retained response by id (``None`` when the server has none).

        Takes a response the last :meth:`flush` collected when there is
        one; otherwise round-trips a ``fetch`` line.
        """
        local = self.take_response(request_id)
        if local is not None:
            return local
        self.drain_acks()
        self._transport.send_payload(
            {"type": "fetch", "request_id": request_id}
        )
        payload = self._transport.recv_payload()
        if payload.get("type") == "error":
            return None
        return SolveResponse.from_wire(payload)

    # ------------------------------------------------------------------
    # Service control

    def metrics(self) -> dict[str, Any]:
        """The server's flat metrics summary."""
        self.drain_acks()
        self._transport.send_payload({"type": "metrics"})
        payload = self._transport.recv_payload()
        return dict(payload.get("metrics", {}))

    def shutdown(self) -> None:
        """Ask the server process to stop accepting and exit."""
        self.drain_acks()
        self._transport.send_payload({"type": "shutdown"})
        self._transport.recv_payload()  # the "bye" line


# perfbench/serve_zipf.py imports this name, and the benchmark's files
# change only together with the benchmark itself.
TcpServiceClient = StreamServiceClient
