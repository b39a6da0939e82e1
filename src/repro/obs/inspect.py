"""Read a JSONL trace back and summarize it (the ``repro inspect`` engine).

A trace file is a sequence of JSON lines tagged ``event`` / ``round`` /
``manifest`` (see :mod:`repro.obs.sinks`). Inspection degrades gracefully:
a file with only events still yields event statistics; a file with only
round lines still yields the timeline table.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.analysis.tables import render_table
from repro.exceptions import ReproError
from repro.obs.manifest import RunRecord, manifest_path_for
from repro.obs.timeline import RoundTimeline, RoundTimelineEntry

__all__ = ["TraceReport", "load_trace_file", "inspect_trace", "inspect_digests"]


@dataclass
class TraceReport:
    """Parsed content of one JSONL trace artifact."""

    path: Path
    timeline: RoundTimeline = field(default_factory=RoundTimeline)
    manifest: RunRecord | None = None
    events_by_name: Counter = field(default_factory=Counter)
    events_by_round: Counter = field(default_factory=Counter)
    num_events: int = 0
    malformed_lines: int = 0

    def render(self, slowest: int = 5) -> str:
        """The full human-readable inspection report."""
        sections: list[str] = [f"trace: {self.path}"]
        if self.manifest is not None:
            sections.append(self._render_manifest())
            kinds = self.manifest.metrics.get("messages_by_kind") or {}
            if kinds:
                sections.append(
                    render_table(
                        ("kind", "messages"),
                        sorted(kinds.items(), key=lambda kv: (-kv[1], kv[0])),
                        title="messages by kind",
                    )
                )
            drops = self.manifest.metrics.get("drops_by_kind") or {}
            if drops:
                sections.append(
                    render_table(
                        ("kind", "dropped"),
                        sorted(drops.items(), key=lambda kv: (-kv[1], kv[0])),
                        title="dropped messages by kind",
                    )
                )
        if len(self.timeline):
            sections.append(self.timeline.render())
            top = self.timeline.slowest(slowest)
            if top:
                sections.append(
                    render_table(
                        ("round", "wall_ms", "messages", "bits"),
                        [
                            (e.round_number, e.wall_ms, e.messages, e.bits)
                            for e in top
                        ],
                        title=f"slowest {len(top)} rounds",
                    )
                )
        if self.num_events:
            sections.append(
                render_table(
                    ("event", "count"),
                    sorted(
                        self.events_by_name.items(), key=lambda kv: (-kv[1], kv[0])
                    ),
                    title=f"trace events ({self.num_events} total)",
                )
            )
        if self.malformed_lines:
            sections.append(f"warning: skipped {self.malformed_lines} malformed lines")
        if len(sections) == 1:
            sections.append("(no rounds, events or manifest found)")
        return "\n\n".join(sections)

    def _render_manifest(self) -> str:
        manifest = self.manifest
        assert manifest is not None
        rows: list[tuple[str, Any]] = [
            ("instance", manifest.instance_name),
            ("instance_hash", manifest.instance_hash),
            ("size", f"{manifest.num_facilities}x{manifest.num_clients}"),
            ("seed", manifest.seed),
            ("version", manifest.version),
            ("wall_seconds", manifest.wall_seconds),
        ]
        rows.extend(sorted(manifest.parameters.items()))
        for key in ("rounds", "total_messages", "total_bits", "max_message_bits"):
            if key in manifest.metrics:
                rows.append((key, manifest.metrics[key]))
        for key, value in sorted(manifest.outcome.items()):
            if key == "open_facilities":
                value = len(value)
                key = "num_open"
            rows.append((key, value))
        return render_table(("field", "value"), rows, title="run manifest")


def _absorb_line(report: TraceReport, record: Mapping[str, Any]) -> None:
    kind = record.get("type")
    if kind == "event":
        report.num_events += 1
        report.events_by_name[str(record.get("event", "?"))] += 1
        report.events_by_round[int(record.get("round", -1))] += 1
    elif kind == "round":
        report.timeline.append(RoundTimelineEntry.from_dict(record))
    elif kind == "manifest":
        report.manifest = RunRecord.from_dict(record)
    else:
        report.malformed_lines += 1


def load_trace_file(path: str | Path) -> TraceReport:
    """Parse one JSONL trace file into a :class:`TraceReport`.

    Also picks up the sidecar ``<trace>.manifest.json`` when the trace
    itself carries no manifest line (e.g. a run killed mid-flight still
    has whatever the flush-on-round discipline persisted).
    """
    trace_path = Path(path)
    if not trace_path.exists():
        raise ReproError(f"trace file not found: {trace_path}")
    report = TraceReport(path=trace_path)
    with trace_path.open("r", encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                report.malformed_lines += 1
                continue
            if not isinstance(record, dict):
                report.malformed_lines += 1
                continue
            _absorb_line(report, record)
    if report.manifest is None:
        sidecar = manifest_path_for(trace_path)
        if sidecar.exists():
            report.manifest = RunRecord.load_json(sidecar)
    return report


def inspect_trace(path: str | Path, slowest: int = 5) -> str:
    """One-call convenience: parse and render the inspection report."""
    return load_trace_file(path).render(slowest=slowest)


def inspect_digests(path: str | Path) -> str:
    """Summarize a flight recording's per-round state digests.

    Renders one row per checkpoint (label, digest, field count) plus the
    recording's final Merkle root. Used by ``repro inspect`` on a
    recording; ``repro divergence`` diffs two recordings.
    """
    from repro.obs.recorder import load_recording

    recording = load_recording(path)
    rows = [
        (checkpoint.label, checkpoint.digest, len(checkpoint.fields))
        for checkpoint in recording.checkpoints
    ]
    title = (
        f"state digests: {path} (engine={recording.engine}, "
        f"final={recording.final_digest()})"
    )
    return render_table(("checkpoint", "digest", "fields"), rows, title=title)
