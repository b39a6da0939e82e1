"""Line framing, the wire codec, and the stream client's transport.

Every stream transport of the serving layer — the Unix-domain socket
and the multi-worker TCP front end — speaks the same frame: one
compact, key-sorted JSON object per newline-terminated line. The
client side of that frame, :class:`LineTransport`, also owns the
*failure* discipline:

* a receive timeout, connection reset, broken pipe or server-side EOF
  is a transient transport loss and surfaces as
  :class:`~repro.service.resilience.RetriableServiceError`;
* after any such failure the line buffer may hold half a frame, so the
  connection is *poisoned* — every later call raises
  :class:`~repro.service.resilience.FatalServiceError` until the owner
  builds a fresh connection (which is what
  :class:`~repro.service.resilience.RetryingServiceClient` does);
* operating on a closed file object is protocol misuse and is fatal
  immediately.

:class:`~repro.service.client.StreamServiceClient` composes it. The
codec pair :func:`encode_line` / :func:`decode_line` defines the frame
bytes both directions use (the servers in :mod:`repro.service.server`
call them too) — key sorting makes encoded bytes
deterministic, which the equivalence suite relies on when diffing
served against direct results.
"""

from __future__ import annotations

import json
import socket
from typing import Any, Mapping

from repro.exceptions import ReproError
from repro.service.resilience import (
    FatalServiceError,
    RetriableServiceError,
)

__all__ = [
    "LineTransport",
    "connect_tcp",
    "connect_unix",
    "decode_line",
    "encode_line",
    "parse_hostport",
]


def encode_line(payload: Mapping[str, Any]) -> str:
    """One wire line: compact key-sorted JSON plus the newline."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def decode_line(line: str) -> dict[str, Any]:
    """Inverse of :func:`encode_line`; raises ``ReproError`` on junk."""
    stripped = line.strip()
    if not stripped:
        raise ReproError("empty wire line")
    try:
        payload = json.loads(stripped)
    except json.JSONDecodeError as error:
        raise ReproError(f"undecodable wire line: {error}") from error
    if not isinstance(payload, dict):
        raise ReproError(
            f"wire line must decode to an object, got {type(payload).__name__}"
        )
    return payload


def parse_hostport(address: str) -> tuple[str, int]:
    """Split a ``HOST:PORT`` string into its parts.

    The port is the text after the *last* colon, so bracketed IPv6
    literals (``[::1]:9000``) work; the brackets are stripped from the
    host. Raises ``ReproError`` on anything unparsable.
    """
    host, sep, port_text = address.rpartition(":")
    if not sep or not host:
        raise ReproError(
            f"bad TCP address {address!r}: expected HOST:PORT"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ReproError(
            f"bad TCP port in {address!r}: {port_text!r}"
        ) from None
    if not 0 <= port <= 65535:
        raise ReproError(f"TCP port out of range in {address!r}")
    return host.strip("[]"), port


class LineTransport:
    """Framed line I/O over a connected stream socket, with poisoning.

    Wraps an already-connected ``socket.socket`` (Unix domain or TCP —
    the frame protocol does not care) behind four operations:
    :meth:`send_payload`, :meth:`recv_payload`, the chaos hooks
    :meth:`send_raw` / :meth:`abort`, and :meth:`close`. All failure
    mapping onto the typed taxonomy of
    :mod:`repro.service.resilience`, and the broken-connection
    poisoning that follows a half-read, live here.
    """

    def __init__(self, sock: socket.socket, timeout_s: float, peer: str) -> None:
        self.timeout_s = float(timeout_s)
        self.peer = str(peer)
        self._sock = sock
        self._sock.settimeout(self.timeout_s)
        # Separate reader and writer file objects, deliberately: a
        # combined mode-"rw" makefile discards its read-ahead buffer on
        # every write, silently losing any lines (e.g. pipelined acks)
        # that arrived but were not yet read.
        self._reader = sock.makefile("r", encoding="utf-8", newline="\n")
        self._writer = sock.makefile("w", encoding="utf-8", newline="\n")
        self._broken = False

    @property
    def broken(self) -> bool:
        """True once a transport error has poisoned this connection."""
        return self._broken

    def check_usable(self) -> None:
        """Raise the poisoning error if the connection is broken."""
        if self._broken:
            raise FatalServiceError(
                "connection is in an undefined state after a transport "
                "error; build a fresh client to reconnect"
            )

    def send_payload(self, payload: Mapping[str, Any]) -> None:
        """Write one encoded frame; typed errors on transport failure."""
        self.send_raw(encode_line(payload))

    def send_raw(self, line: str) -> None:
        """Write one raw line (the chaos hook for malformed frames).

        The newline is appended when missing so a deliberately truncated
        frame still terminates and the server can answer it.
        """
        self.check_usable()
        if not line.endswith("\n"):
            line += "\n"
        try:
            self._writer.write(line)
            self._writer.flush()
        except socket.timeout as error:
            self._broken = True
            raise RetriableServiceError(
                f"timed out sending to {self.peer} after {self.timeout_s}s"
            ) from error
        except (BrokenPipeError, ConnectionResetError, OSError) as error:
            self._broken = True
            raise RetriableServiceError(
                f"connection to {self.peer} lost mid-send: {error}"
            ) from error
        except ValueError as error:  # write on a closed file object
            self._broken = True
            raise FatalServiceError(f"client is closed: {error}") from error

    def recv_payload(self) -> dict[str, Any]:
        """Read and decode one frame; typed errors on transport failure."""
        self.check_usable()
        try:
            line = self._reader.readline()
        except socket.timeout as error:
            # After a timeout mid-recv the line buffer may hold a
            # partial frame — nothing on this connection can be trusted.
            self._broken = True
            raise RetriableServiceError(
                f"timed out waiting for {self.peer} after {self.timeout_s}s"
            ) from error
        except (ConnectionResetError, OSError) as error:
            self._broken = True
            raise RetriableServiceError(
                f"connection to {self.peer} reset mid-recv: {error}"
            ) from error
        except ValueError as error:  # read on a closed file object
            self._broken = True
            raise FatalServiceError(f"client is closed: {error}") from error
        if not line:
            self._broken = True
            raise RetriableServiceError(f"{self.peer} closed the connection")
        return decode_line(line)

    def abort(self) -> None:
        """Sever the transport abruptly, with no clean close.

        A testing/chaos hook: the next operation fails with a
        :class:`~repro.service.resilience.RetriableServiceError`, which
        is exactly what a mid-session connection reset looks like from
        the caller's side.
        """
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already disconnected: aborting is a no-op

    def close(self) -> None:
        """Release the connection (never raises)."""
        for stream in (self._writer, self._reader):
            try:
                stream.close()
            except (OSError, ValueError):
                pass  # a broken transport may refuse even to close
        self._sock.close()


def connect_unix(path: str, timeout_s: float) -> LineTransport:
    """Open a :class:`LineTransport` to a Unix-domain socket server."""
    try:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout_s)
        sock.connect(str(path))
    except OSError as error:
        raise RetriableServiceError(
            f"cannot connect to service socket {str(path)!r}: {error}"
        ) from error
    return LineTransport(sock, timeout_s, peer=f"unix:{path}")


def connect_tcp(host: str, port: int, timeout_s: float) -> LineTransport:
    """Open a :class:`LineTransport` to a TCP service front end."""
    try:
        sock = socket.create_connection((host, int(port)), timeout=timeout_s)
    except OSError as error:
        raise RetriableServiceError(
            f"cannot connect to service at {host}:{port}: {error}"
        ) from error
    return LineTransport(sock, timeout_s, peer=f"{host}:{port}")
