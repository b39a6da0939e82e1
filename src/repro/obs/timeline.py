"""Per-round telemetry: where the rounds, messages and wall-clock went.

The round record is the one per-round store: :class:`repro.net.simulator.
Simulator` appends one :class:`RoundTimelineEntry` per executed round
(round 0 holds the messages submitted during ``setup()``), the columnar
engine's :class:`~repro.net.columnar.ColumnarBitLedger` appends the same
records as it charges, and :meth:`repro.net.metrics.NetworkMetrics.
close_round` takes each run's round count and per-round peaks from them.
The timeline serializes to plain JSON dicts — the same objects the JSONL
trace sink streams as ``{"type": "round", ...}`` lines — and renders as a
fixed-width table for terminals and docs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Iterator, Mapping

from repro.analysis.tables import render_table

__all__ = ["RoundTimelineEntry", "RoundTimeline"]


@dataclass(frozen=True)
class RoundTimelineEntry:
    """Telemetry for one synchronous round.

    ``round_number`` 0 is the setup phase: messages submitted from
    ``on_setup`` hooks are accounted there, with zero wall-clock attributed
    to message delivery (none happens before round 1).

    ``probe`` holds per-round convergence observations (dual sum, induced
    primal cost, anytime ratio, ...) when :class:`~repro.obs.probes.
    RoundProbe` instances are attached to the simulator; it is ``None`` —
    and absent from the JSONL representation — for unprobed runs.

    ``engine`` names the engine that produced the round (``"simulator"``,
    ``"loop"``, ``"columnar"``) so traces from different engines stay
    attributable when diffed; like ``probe`` it is omitted from the JSONL
    representation when ``None``, keeping pre-existing traces byte-stable.
    """

    round_number: int
    wall_ms: float
    messages: int
    bits: int
    drops: int
    alive: int
    finished: int
    probe: Mapping[str, Any] | None = None
    engine: str | None = None

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON representation (used by the JSONL trace format).

        ``probe`` and ``engine`` are omitted when ``None`` so traces
        without them keep the original schema byte-for-byte.
        """
        record = asdict(self)
        if record["probe"] is None:
            del record["probe"]
        if record["engine"] is None:
            del record["engine"]
        return record

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RoundTimelineEntry":
        """Inverse of :meth:`to_dict`; ignores unknown keys."""
        probe = data.get("probe")
        engine = data.get("engine")
        return cls(
            round_number=int(data["round_number"]),
            wall_ms=float(data["wall_ms"]),
            messages=int(data["messages"]),
            bits=int(data["bits"]),
            drops=int(data["drops"]),
            alive=int(data["alive"]),
            finished=int(data["finished"]),
            probe=dict(probe) if probe is not None else None,
            engine=str(engine) if engine is not None else None,
        )


class RoundTimeline:
    """Append-only sequence of per-round telemetry entries."""

    def __init__(self, entries: list[RoundTimelineEntry] | None = None) -> None:
        self._entries: list[RoundTimelineEntry] = list(entries or [])

    def append(self, entry: RoundTimelineEntry) -> None:
        """Record one round's telemetry."""
        self._entries.append(entry)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[RoundTimelineEntry]:
        return iter(self._entries)

    def __getitem__(self, index: int) -> RoundTimelineEntry:
        return self._entries[index]

    @property
    def total_wall_ms(self) -> float:
        """Total wall-clock across all recorded rounds."""
        return sum(e.wall_ms for e in self._entries)

    @property
    def total_messages(self) -> int:
        """Total messages across all recorded rounds (including setup)."""
        return sum(e.messages for e in self._entries)

    def slowest(self, count: int = 5) -> list[RoundTimelineEntry]:
        """The ``count`` slowest rounds by wall-clock, slowest first."""
        return sorted(self._entries, key=lambda e: -e.wall_ms)[:count]

    def to_json(self) -> list[dict[str, Any]]:
        """JSON-serializable list of per-round dicts."""
        return [e.to_dict() for e in self._entries]

    @classmethod
    def from_json(cls, data: list[Mapping[str, Any]]) -> "RoundTimeline":
        """Rebuild a timeline from :meth:`to_json` output."""
        return cls([RoundTimelineEntry.from_dict(d) for d in data])

    def probe_fields(self) -> tuple[str, ...]:
        """Probe keys present in at least one entry, in canonical order.

        Canonically-known fields (:data:`repro.obs.probes.PROBE_FIELDS`)
        come first; any extra fields follow alphabetically.
        """
        from repro.obs.probes import PROBE_FIELDS

        seen: set[str] = set()
        for entry in self._entries:
            if entry.probe:
                seen.update(entry.probe)
        ordered = [f for f in PROBE_FIELDS if f in seen]
        ordered.extend(sorted(seen.difference(PROBE_FIELDS)))
        return tuple(ordered)

    def render(self, title: str = "per-round timeline") -> str:
        """Fixed-width table of the whole timeline.

        When convergence probes were attached, their fields (dual sum,
        induced primal cost, anytime ratio, ...) appear as extra columns.
        """
        probe_fields = self.probe_fields()
        headers = (
            "round", "wall_ms", "messages", "bits", "drops", "alive", "finished",
        ) + probe_fields
        rows = []
        for e in self._entries:
            row = [
                e.round_number, e.wall_ms, e.messages, e.bits, e.drops,
                e.alive, e.finished,
            ]
            probe = e.probe or {}
            for field in probe_fields:
                value = probe.get(field)
                row.append("-" if value is None else value)
            rows.append(tuple(row))
        return render_table(headers, rows, title=title)
