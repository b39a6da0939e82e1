"""Unit tests for repro.obs.sinks: JSONL streaming."""

from __future__ import annotations

import io
import json

import pytest

from repro.net.trace import TraceEvent
from repro.obs.sinks import JsonlTraceSink, event_to_dict
from repro.obs.timeline import RoundTimelineEntry


def _entry(round_number: int, **overrides) -> RoundTimelineEntry:
    defaults = dict(
        round_number=round_number,
        wall_ms=1.0,
        messages=2,
        bits=16,
        drops=0,
        alive=3,
        finished=1,
    )
    defaults.update(overrides)
    return RoundTimelineEntry(**defaults)


class TestEventToDict:
    def test_schema(self):
        event = TraceEvent(3, 7, "open", {"x": 1})
        assert event_to_dict(event) == {
            "type": "event",
            "round": 3,
            "node": 7,
            "event": "open",
            "data": {"x": 1},
        }


class TestJsonlTraceSink:
    def test_streams_events_as_json_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(path) as sink:
            sink.record(1, 0, "open", {"x": 1})
            sink.record(2, 1, "connect", {})
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [l["event"] for l in lines] == ["open", "connect"]
        assert lines[0]["round"] == 1 and lines[0]["node"] == 0

    def test_round_boundary_writes_round_line_and_flushes(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlTraceSink(path)
        sink.record(1, 0, "tick", {})
        sink.on_round_end(_entry(1))
        # flush-on-round: the prefix is durable before close().
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [l["type"] for l in lines] == ["event", "round"]
        assert lines[1]["round_number"] == 1
        sink.close()

    def test_retains_nothing_but_counts(self, tmp_path):
        with JsonlTraceSink(tmp_path / "t.jsonl") as sink:
            sink.record(1, 0, "a", {})
            sink.record(1, 1, "b", {})
            assert len(sink) == 2
            assert sink.events() == []
            assert list(sink) == []
            assert sink.enabled

    def test_external_writer_not_closed(self):
        buffer = io.StringIO()
        sink = JsonlTraceSink(buffer)
        sink.record(1, 0, "a", {})
        sink.close()
        assert not buffer.closed
        assert json.loads(buffer.getvalue())["event"] == "a"

    def test_close_is_idempotent(self, tmp_path):
        sink = JsonlTraceSink(tmp_path / "t.jsonl")
        sink.close()
        sink.close()

    def test_record_after_close_raises_clear_error(self, tmp_path):
        from repro.exceptions import ReproError

        path = tmp_path / "t.jsonl"
        sink = JsonlTraceSink(path)
        sink.record(1, 0, "a", {})
        sink.close()
        # Not a raw ValueError from the closed file object: a ReproError
        # naming the sink and its path.
        with pytest.raises(ReproError, match="closed") as excinfo:
            sink.record(2, 0, "b", {})
        assert str(path) in str(excinfo.value)
        with pytest.raises(ReproError, match="closed"):
            sink.write_json({"k": "v"})

    def test_close_fsyncs_owned_streams(self, tmp_path, monkeypatch):
        import os

        synced: list[int] = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            "repro.obs.sinks.os.fsync",
            lambda fd: (synced.append(fd), real_fsync(fd))[1],
        )
        path = tmp_path / "t.jsonl"
        with JsonlTraceSink(path) as sink:
            sink.record(1, 0, "a", {})
        assert synced  # the owned stream was fsynced before closing
        assert json.loads(path.read_text().splitlines()[0])["event"] == "a"

    def test_external_streams_are_not_fsynced(self, monkeypatch):
        calls: list[int] = []
        monkeypatch.setattr(
            "repro.obs.sinks.os.fsync", lambda fd: calls.append(fd)
        )
        buffer = io.StringIO()
        sink = JsonlTraceSink(buffer)
        sink.record(1, 0, "a", {})
        sink.close()
        assert not calls

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "t.jsonl"
        with JsonlTraceSink(path) as sink:
            sink.record(1, 0, "a", {})
        assert path.exists()
