"""Trace sinks: where protocol events go when they must leave the process.

:class:`JsonlTraceSink` satisfies the :class:`repro.net.trace.Trace`
interface, so it can be handed to :class:`repro.net.simulator.Simulator`
unchanged. It streams every event as one JSON line to a file (or any
writer), flushing at each round boundary so a crashed or killed run still
leaves a usable prefix on disk. This is the artifact format
``repro inspect`` reads back.

JSONL line schema (one object per line, discriminated by ``type``):

``{"type": "event", "round": r, "node": n, "event": name, "data": {...}}``
    One protocol trace event.
``{"type": "round", "round_number": r, "wall_ms": ..., ...}``
    One :class:`repro.obs.timeline.RoundTimelineEntry`.
``{"type": "manifest", ...}``
    The :class:`repro.obs.manifest.RunRecord`, appended at end of run.
"""

from __future__ import annotations

import io
import json
import os
from pathlib import Path
from typing import Any, Iterator, Mapping, TextIO

from repro.exceptions import ReproError
from repro.net.trace import Trace, TraceEvent
from repro.obs.timeline import RoundTimelineEntry

__all__ = ["JsonlTraceSink", "event_to_dict"]


def event_to_dict(event: TraceEvent) -> dict[str, Any]:
    """The JSONL representation of one trace event."""
    return {
        "type": "event",
        "round": event.round_number,
        "node": event.node_id,
        "event": event.event,
        "data": dict(event.data),
    }


class JsonlTraceSink(Trace):
    """Streaming JSONL trace writer.

    Parameters
    ----------
    target:
        A filesystem path (opened for writing, parent directories created)
        or any text writer with ``write``. When a writer is passed in, the
        caller keeps ownership: :meth:`close` flushes but does not close it.

    The sink retains no events in memory — ``len()`` reports the number of
    events written, and ``events()`` is always empty.
    """

    def __init__(self, target: str | Path | TextIO) -> None:
        super().__init__()
        self._count = 0
        if isinstance(target, (str, Path)):
            path = Path(target)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._stream: TextIO = path.open("w", encoding="utf-8")
            self._owns_stream = True
            self.path: Path | None = path
        else:
            self._stream = target
            self._owns_stream = False
            self.path = None
        self._closed = False

    def record(
        self, round_number: int, node_id: int, event: str, data: Mapping[str, Any]
    ) -> None:
        """Write one event as a JSON line."""
        self.write_json(
            event_to_dict(TraceEvent(round_number, node_id, event, dict(data)))
        )
        self._count += 1

    def write_json(self, obj: Mapping[str, Any]) -> None:
        """Write one arbitrary record as a JSON line (rounds, manifests).

        Raises :class:`~repro.exceptions.ReproError` once the sink is
        closed — a late event (a probe firing after teardown, a reused
        sink object) should fail with a diagnosis, not the underlying
        file object's bare ``ValueError: I/O operation on closed file``.
        """
        if self._closed:
            where = f" {self.path}" if self.path is not None else ""
            raise ReproError(
                f"JsonlTraceSink{where} is closed; events cannot be "
                "recorded after close()"
            )
        self._stream.write(json.dumps(obj, sort_keys=True) + "\n")

    def on_round_end(self, entry: RoundTimelineEntry) -> None:
        """Stream the round's record and flush."""
        record = entry.to_dict()
        record["type"] = "round"
        self.write_json(record)
        self.flush()

    def flush(self) -> None:
        """Flush the underlying stream."""
        self._stream.flush()

    def close(self) -> None:
        """Flush (and fsync owned files) then close the stream.

        The fsync makes the artifact durable before the process can
        exit: a trace whose tail lives only in the page cache is exactly
        the trace you need after a crash. Caller-owned writers are only
        flushed — ownership (and durability policy) stays with the
        caller.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._stream.flush()
        except (ValueError, io.UnsupportedOperation):  # already-closed writer
            return
        if self._owns_stream:
            try:
                os.fsync(self._stream.fileno())
            except (OSError, ValueError, io.UnsupportedOperation):
                pass  # not a real file (StringIO wrapped in a path-less sink)
            self._stream.close()

    def __enter__(self) -> "JsonlTraceSink":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- Trace interface: nothing is retained --------------------------

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(())

    def events(
        self, event: str | None = None, node_id: int | None = None
    ) -> list[TraceEvent]:
        """Always empty: streamed events are not retained in memory."""
        return []

    def render(self) -> str:
        return f"<JsonlTraceSink: {self._count} events streamed>"
