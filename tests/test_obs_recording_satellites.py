"""Satellite features riding with the flight recorder PR.

Covers: histogram snapshots carrying re-derivable bucket counts and the
offline quantile helper; engine tagging of timeline records and
``sim.round`` spans; the ``--digests`` inspection view; the snapshot
branch of ``repro compare``; and the four new CLI verbs.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.algorithm import solve_distributed
from repro.fl.generators import make_instance
from repro.fl.io import save_instance_json
from repro.obs.compare import extract_metrics
from repro.obs.inspect import inspect_digests
from repro.obs.metrics_io import histogram_quantile, snapshot_payload
from repro.obs.recorder import record_run
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import Tracer
from repro.obs.timeline import RoundTimelineEntry


@pytest.fixture()
def snapshot():
    registry = MetricsRegistry()
    histogram = registry.histogram(
        "lat", "latency", buckets=(0.1, 1.0, 10.0)
    )
    for value in (0.05, 0.5, 0.5, 2.0, 20.0):
        histogram.observe(value)
    return histogram, snapshot_payload(registry, meta={"source": "test"})


class TestOfflineQuantiles:
    def test_snapshot_carries_noncumulative_bucket_counts(self, snapshot):
        _, payload = snapshot
        series = payload["metrics"]["lat"]["values"][0]
        assert series["bucket_counts"] == [1, 2, 1, 1]
        assert series["cumulative_buckets"] == [1, 3, 4, 5]

    def test_offline_quantile_matches_live_histogram(self, snapshot):
        histogram, payload = snapshot
        doc = payload["metrics"]["lat"]
        for q in (0.25, 0.5, 0.9, 0.95, 1.0):
            assert histogram_quantile(doc, q) == pytest.approx(
                histogram.quantile(q)
            )

    def test_decumulates_legacy_snapshots(self, snapshot):
        # Snapshots written before this PR lack bucket_counts; the
        # helper falls back to de-cumulating cumulative_buckets.
        histogram, payload = snapshot
        doc = json.loads(json.dumps(payload["metrics"]["lat"]))
        for series in doc["values"]:
            del series["bucket_counts"]
        assert histogram_quantile(doc, 0.5) == pytest.approx(
            histogram.quantile(0.5)
        )

    def test_compare_flattens_snapshot_documents(self, snapshot, tmp_path):
        _, payload = snapshot
        path = tmp_path / "snap.json"
        path.write_text(json.dumps(payload))
        metrics = extract_metrics(path)
        assert metrics["lat.count"] == 5.0
        assert metrics["lat.p95"] == pytest.approx(
            histogram_quantile(payload["metrics"]["lat"], 0.95)
        )


class TestEngineTagging:
    def test_entry_round_trips_engine_and_omits_none(self):
        tagged = RoundTimelineEntry(
            round_number=1,
            wall_ms=0.5,
            messages=3,
            bits=96,
            drops=0,
            alive=5,
            finished=0,
            engine="loop",
        )
        data = tagged.to_dict()
        assert data["engine"] == "loop"
        assert RoundTimelineEntry.from_dict(data).engine == "loop"
        untagged = RoundTimelineEntry(
            round_number=1,
            wall_ms=0.5,
            messages=3,
            bits=96,
            drops=0,
            alive=5,
            finished=0,
        )
        # Pre-existing traces have no engine key; emitting none keeps
        # old and new artifacts byte-compatible.
        assert "engine" not in untagged.to_dict()
        assert RoundTimelineEntry.from_dict(untagged.to_dict()).engine is None

    def test_simulator_tags_timeline_and_round_spans(self):
        instance = make_instance("uniform", 5, 12, seed=1)
        tracer = Tracer()
        result = solve_distributed(instance, k=4, seed=0, tracer=tracer)
        tracer.close()
        assert result.timeline
        assert all(e.engine == "simulator" for e in result.timeline)
        round_spans = [s for s in tracer.finished if s.name == "sim.round"]
        assert round_spans
        assert all(
            s.attributes["engine"] == "simulator" for s in round_spans
        )


def divergent_pair(tmp_path):
    """Two hand-built recordings differing in exactly one round-2 leaf."""
    from repro.obs.recorder import FlightRecorder

    paths = []
    for name, value in (("left.json", 1.0), ("right.json", 2.0)):
        recorder = FlightRecorder(engine="loop")
        recorder.observe("greedy:iter:1", {"open": {"facility:0": True}})
        recorder.observe("greedy:iter:2", {"alpha": {"client:3": value}})
        recorder.observe_final([0], {0: 0}, 2, 4)
        paths.append(str(recorder.write_json(tmp_path / name)))
    return paths


class TestInspectDigests:
    def test_renders_solo_digest_table(self, tmp_path):
        instance = make_instance("euclidean", 6, 15, seed=2)
        recording = record_run(instance, engine="loop", k=4, seed=1)
        solo = inspect_digests(recording.write_json(tmp_path / "rec.json"))
        assert "state digests" in solo
        assert "final=" in solo
        assert "greedy:iter:1" in solo

    def test_flags_first_divergent_checkpoint(self, tmp_path):
        left_path, right_path = divergent_pair(tmp_path)
        both = inspect_digests(left_path, other=right_path)
        assert "<- first divergence" in both
        assert "DIVERGE" in both
        assert "greedy:iter:2" in both


class TestCliVerbs:
    @pytest.fixture()
    def inst_path(self, tmp_path):
        path = tmp_path / "inst.json"
        save_instance_json(make_instance("euclidean", 6, 15, seed=2), path)
        return str(path)

    def record(self, inst_path, tmp_path, name, *extra):
        out = str(tmp_path / name)
        assert main(["record", inst_path, "-k", "4", "-o", out, *extra]) == 0
        return out

    def test_record_replay_divergence_roundtrip(
        self, inst_path, tmp_path, capsys
    ):
        loop = self.record(inst_path, tmp_path, "loop.json", "--engine", "loop")
        col = self.record(
            inst_path, tmp_path, "col.json", "--engine", "columnar"
        )
        assert "final=" in capsys.readouterr().out
        assert main(["replay", loop]) == 0
        assert "replay identical" in capsys.readouterr().out
        assert main(["divergence", loop, col]) == 0
        assert "digest-identical" in capsys.readouterr().out

    def test_divergence_exit_one_and_json(self, tmp_path, capsys):
        a, b = divergent_pair(tmp_path)
        assert main(["divergence", a, b, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["identical"] is False
        assert payload["label"] == "greedy:iter:2"
        assert payload["leaf"] == "client:3"

    def test_explain_walks_causal_chain(self, inst_path, tmp_path, capsys):
        full = self.record(inst_path, tmp_path, "full.json", "--full")
        solo = self.record(inst_path, tmp_path, "solo.json")
        recording = json.loads(open(full).read())
        final = recording["checkpoints"][-1]
        opened = next(
            leaf
            for leaf, value in final["fields"]["open"].items()
            if value == "true"
        )
        capsys.readouterr()
        assert main(["explain", full, opened]) == 0
        assert f"why {opened}" in capsys.readouterr().out
        # A recording without --full cannot explain anything.
        assert main(["explain", solo, opened]) == 1
        assert "no provenance" in capsys.readouterr().err

    def test_inspect_digests_flag(self, inst_path, tmp_path, capsys):
        a = self.record(inst_path, tmp_path, "a.json")
        b = self.record(inst_path, tmp_path, "b.json", "--engine", "columnar")
        capsys.readouterr()
        assert main(["inspect", a, b, "--digests"]) == 0
        out = capsys.readouterr().out
        assert "state digests" in out
        assert "digest-identical" in out
        # A second artifact without --digests is a usage error.
        assert main(["inspect", a, b]) == 1
