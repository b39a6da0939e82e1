"""Transports of the solve service: stdin/JSONL, a Unix socket, TCP.

All three transports speak the same line protocol (the codec lives in
:mod:`repro.service.transport`): each input line is one JSON object, and
every line produces at least one reply line, so clients are plain
synchronous request/response loops.

=================== ==================================================
input line          reply line(s)
=================== ==================================================
``{"type":"solve"}`` one ``ack`` line (``accepted`` true/false)
``{"type":"flush"}`` one ``response`` line per completed request, in
                    arrival order, then ``flush_done`` with the count
``{"type":"fetch"}`` the retained ``response`` line, or an ``error``
``{"type":"metrics"}`` one ``metrics`` line (the flat summary dict;
                    with ``"full": true`` the line also carries the
                    complete registry ``snapshot`` payload)
``{"type":"drain"}`` graceful shutdown: one ``response`` line per
                    flushed or drain-rejected request, then
                    ``drain_done`` with the count; the server then
                    stops (``timeout_s``, else the service's
                    ``drain_timeout_s``, bounds the flush)
``{"type":"shutdown"}`` one ``bye`` line; the server then stops
=================== ==================================================

:func:`serve_lines` is the one per-line loop; every transport feeds it.
``repro serve`` (see :mod:`repro.cli`) reads stdin and writes stdout by
default; with ``--socket PATH`` or ``--tcp HOST:PORT`` it binds a
listener instead and serves each connection on its own thread, so an
idle client never blocks a busy one. The service itself is
synchronous: a lock around :meth:`ServiceProtocol.handle` makes
interleaved connections equivalent to some sequential order of their
lines, which is all the protocol promises. The service behind the
protocol may be a :class:`~repro.service.service.SolveService` or a
:class:`~repro.service.router.ServiceRouter`; the transport cannot
tell the difference. Batching still happens inside the service — a
``flush`` after many ``solve`` lines executes them as deduplicated
batches, which is the entire point of the front end. On stdin EOF any
still-queued work is flushed implicitly so piped workloads cannot lose
requests.
"""

from __future__ import annotations

import socket
import stat
import threading
from pathlib import Path
from typing import IO, Any, Callable, ContextManager, Iterable, Iterator, Mapping

from repro.exceptions import ReproError
from repro.obs.metrics_io import snapshot_payload
from repro.service import transport
from repro.service.request import SolveRequest
from repro.service.service import SolveService
from repro.service.store import StoreMiss

__all__ = [
    "ServiceProtocol",
    "serve_jsonl",
    "serve_lines",
    "serve_socket",
    "serve_tcp",
]


class ServiceProtocol:
    """Maps one decoded input payload to its reply payloads.

    Transport-independent: :func:`serve_lines` feeds every transport's
    decoded lines through :meth:`handle` and writes back whatever it
    yields. ``shutting_down`` flips once a ``shutdown`` or ``drain``
    payload is seen; the line loop and the accept loop check it.
    """

    def __init__(self, service: SolveService) -> None:
        self.service = service
        self.shutting_down = False

    def handle(self, payload: Mapping[str, Any]) -> Iterator[dict[str, Any]]:
        """Yield the reply payloads for one input payload."""
        kind = payload.get("type", "solve")
        if kind == "solve":
            yield self._handle_solve(payload)
        elif kind == "flush":
            responses = self.service.run_until_drained()
            for response in responses:
                yield response.to_wire()
            yield {"type": "flush_done", "count": len(responses)}
        elif kind == "fetch":
            request_id = str(payload.get("request_id", ""))
            found = self.service.lookup(request_id)
            if isinstance(found, StoreMiss):
                yield {
                    "type": "error",
                    "error": (
                        f"no retained response for {request_id!r} "
                        f"({found.reason})"
                    ),
                    "reason": found.reason,
                }
            else:
                yield found.to_wire()
        elif kind == "metrics":
            if payload.get("full"):
                yield {
                    "type": "metrics",
                    "metrics": self.service.metrics_summary(),
                    "snapshot": snapshot_payload(self.service.registry),
                }
            else:
                yield {
                    "type": "metrics",
                    "metrics": self.service.metrics_summary(),
                }
        elif kind == "drain":
            timeout = payload.get("timeout_s")
            responses = self.service.shutdown(
                drain=True,
                drain_timeout_s=float(timeout) if timeout is not None else None,
            )
            for response in responses:
                yield response.to_wire()
            yield {"type": "drain_done", "count": len(responses)}
            self.shutting_down = True
        elif kind == "shutdown":
            self.shutting_down = True
            yield {"type": "bye"}
        else:
            yield {"type": "error", "error": f"unknown line type {kind!r}"}

    def _handle_solve(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        try:
            request = SolveRequest.from_wire(payload)
        except (ReproError, KeyError, TypeError, ValueError) as error:
            return {
                "type": "ack",
                "request_id": str(payload.get("request_id", "")),
                "accepted": False,
                "reason": f"malformed request: {error}",
            }
        outcome = self.service.submit(request)
        ack: dict[str, Any] = {
            "type": "ack",
            "request_id": request.request_id,
            "accepted": outcome.accepted,
        }
        if not outcome.accepted:
            ack["reason"] = outcome.reason
        return ack


def serve_lines(
    reader: Iterable[str],
    writer: IO[str],
    protocol: ServiceProtocol,
    lock: ContextManager[Any],
    stop: Callable[[], bool] | None = None,
) -> int:
    """Serve one stream of protocol lines until EOF or shutdown.

    Each non-blank line is decoded outside ``lock`` and handled inside
    it; the replies are encoded and flushed before the next line is
    read. A malformed frame is answered with one ``error`` line and the
    stream keeps going. ``stop``, when given, is checked before each
    line is served; once it returns True the loop ends. Returns the
    number of lines served.
    """
    served = 0
    for line in reader:
        if stop is not None and stop():
            break
        if not line.strip():
            continue
        try:
            payload = transport.decode_line(line)
        except ReproError as error:
            replies = [{"type": "error", "error": str(error)}]
        else:
            with lock:
                replies = list(protocol.handle(payload))
        for reply in replies:
            writer.write(transport.encode_line(reply))
        writer.flush()
        served += 1
        if protocol.shutting_down:
            break
    return served


def serve_jsonl(
    service: SolveService,
    stream_in: IO[str],
    stream_out: IO[str],
    emit_metrics: bool = False,
    drain_signal: Any | None = None,
) -> int:
    """Serve the line protocol over text streams until EOF or shutdown.

    On EOF, queued work is flushed implicitly (response lines plus the
    ``flush_done`` marker) so ``cat requests.jsonl | repro serve`` always
    answers everything it admitted; ``emit_metrics`` appends one final
    ``metrics`` line. ``drain_signal`` — any object with ``is_set()``,
    e.g. a ``threading.Event`` flipped by a SIGTERM handler — triggers a
    graceful drain when observed between lines: admission stops, queued
    work flushes for up to the service's configured ``drain_timeout_s``
    seconds, the remainder is answered ``status="draining"``, and the
    loop exits. Returns the
    number of lines served.
    """
    protocol = ServiceProtocol(service)

    def drain_requested() -> bool:
        return drain_signal is not None and drain_signal.is_set()

    served = serve_lines(
        stream_in, stream_out, protocol, threading.Lock(), drain_requested
    )
    tail: list[dict[str, Any]] = []
    if drain_requested() and not protocol.shutting_down:
        tail.append({"type": "drain"})
    elif not protocol.shutting_down and service.pending:
        tail.append({"type": "flush"})
    if emit_metrics:
        tail.append({"type": "metrics"})
    for payload in tail:
        for reply in protocol.handle(payload):
            stream_out.write(transport.encode_line(reply))
    stream_out.flush()
    return served


def _serve_connection(
    conn: socket.socket, protocol: ServiceProtocol, lock: threading.Lock
) -> None:
    """Serve one client connection until EOF, shutdown, or failure."""
    try:
        # Separate reader/writer streams: a combined "rw" makefile drops
        # its read-ahead buffer on write, which would lose pipelined
        # lines that arrived while a reply was being written.
        with conn, conn.makefile(
            "r", encoding="utf-8", newline="\n"
        ) as reader, conn.makefile(
            "w", encoding="utf-8", newline="\n"
        ) as writer:
            serve_lines(reader, writer, protocol, lock)
    except (OSError, ValueError):
        # A dropped/reset/half-closed client connection is the client's
        # failure, not the server's: keep serving the rest.
        pass


def _listen(family: int, address: Any, label: str) -> socket.socket:
    """A listening stream socket bound to ``address``; ``ReproError``
    (naming ``label``) when the address cannot be bound."""
    listener = socket.socket(family, socket.SOCK_STREAM)
    if family == socket.AF_INET:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        listener.bind(address)
    except OSError as error:
        listener.close()
        raise ReproError(f"cannot bind {label}: {error}") from error
    listener.listen(16)
    return listener


def _accept_loop(
    listener: socket.socket,
    service: Any,
    ready: Any | None,
    drain_signal: Any | None,
) -> int:
    """Accept connections on ``listener``, one thread each, until a
    ``shutdown``/``drain`` line or ``drain_signal``; returns the number
    of connections served."""
    protocol = ServiceProtocol(service)
    lock = threading.Lock()
    connections = 0
    threads: list[threading.Thread] = []
    # Poll between accepts so the drain signal and a shutdown line
    # handled on a connection thread are both noticed promptly.
    listener.settimeout(0.25)
    if ready is not None:
        ready.set()
    while not protocol.shutting_down:
        if drain_signal is not None and drain_signal.is_set():
            with lock:
                service.shutdown(drain=True)
            break
        try:
            conn, _ = listener.accept()
        except socket.timeout:
            continue
        except OSError:
            break
        connections += 1
        thread = threading.Thread(
            target=_serve_connection,
            args=(conn, protocol, lock),
            daemon=True,
            name=f"repro-serve-{connections}",
        )
        thread.start()
        threads.append(thread)
    for thread in threads:
        # Bounded join: an idle client blocked in readline must not pin
        # the server's exit; the threads are daemons either way.
        thread.join(timeout=1.0)
    return connections


def serve_socket(
    service: SolveService,
    path: str | Path,
    ready: Any | None = None,
    drain_signal: Any | None = None,
) -> int:
    """Serve the line protocol on a Unix domain socket at ``path``.

    A stale socket left at ``path`` is replaced; any other file there
    raises ``ReproError`` and is left alone. Service state — queue,
    store, metrics — persists across connections, so a client may
    submit, disconnect, and re-fetch later within the result TTL.
    ``ready``, when given, is an object with a ``set()`` method (e.g.
    ``threading.Event``) signalled once the socket is listening — the
    test hook that avoids connect races.

    Connections, the drain signal and a client-sent ``shutdown`` or
    ``drain`` line behave exactly as in :func:`serve_tcp`. Returns the
    number of connections served.
    """
    socket_path = Path(path)
    try:
        mode = socket_path.lstat().st_mode
    except FileNotFoundError:
        pass
    else:
        if not stat.S_ISSOCK(mode):
            raise ReproError(
                f"refusing to serve on {str(socket_path)!r}: "
                "it exists and is not a socket"
            )
        socket_path.unlink()
    with _listen(
        socket.AF_UNIX, str(socket_path), f"Unix socket {str(socket_path)!r}"
    ) as listener:
        try:
            return _accept_loop(listener, service, ready, drain_signal)
        finally:
            socket_path.unlink(missing_ok=True)


def serve_tcp(
    service: Any,
    host: str,
    port: int,
    ready: Any | None = None,
    on_bound: Callable[[int], None] | None = None,
    drain_signal: Any | None = None,
) -> int:
    """Serve the line protocol on a TCP socket, one thread per connection.

    ``service`` is anything exposing the
    :class:`~repro.service.service.SolveService` surface — including a
    :class:`~repro.service.router.ServiceRouter`. ``port=0`` binds an
    ephemeral port; ``on_bound``, when given, is called with the actual
    port before the first accept (how tests and the CLI learn the
    address), and ``ready`` (an object with ``set()``, e.g. a
    ``threading.Event``) is signalled once the socket is listening.

    The server survives misbehaving clients: a connection that resets,
    half-sends a frame, or vanishes mid-reply only ends *that*
    connection. ``drain_signal`` (an ``is_set()`` object, e.g. an event
    flipped by SIGTERM) is polled between accepts, also while clients
    sit idle on open connections: once set, the service drains
    gracefully — bounded by its configured ``drain_timeout_s`` — and the
    server exits.
    A client-sent ``drain`` or ``shutdown`` line stops the server the
    same way. Returns the number of connections served.
    """
    with _listen(
        socket.AF_INET, (host, int(port)), f"TCP server to {host}:{port}"
    ) as listener:
        if on_bound is not None:
            on_bound(listener.getsockname()[1])
        return _accept_loop(listener, service, ready, drain_signal)
