"""Tests for repro.obs.compare: thresholds, extraction, regression diffs."""

from __future__ import annotations

import json
import math

import pytest

from repro.cli import main
from repro.exceptions import ReproError
from repro.obs.compare import (
    DEFAULT_THRESHOLDS,
    ComparisonReport,
    MetricDiff,
    compare_metrics,
    compare_paths,
    extract_metrics,
    parse_threshold,
)


class TestParseThreshold:
    def test_parses_name_and_ratio(self):
        assert parse_threshold("cost=1.05") == ("cost", 1.05)

    @pytest.mark.parametrize("spec", ["cost", "=1.0", "cost=abc", "cost=-1"])
    def test_rejects_bad_specs(self, spec):
        with pytest.raises(ReproError):
            parse_threshold(spec)


class TestCompareMetrics:
    def test_statuses(self):
        report = compare_metrics(
            {"cost": 10.0, "rounds": 8, "total_bits": 100, "extra_old": 1.0},
            {"cost": 11.0, "rounds": 6, "total_bits": 100, "extra_new": 2.0},
            thresholds={"cost": 1.05},
        )
        by_name = {d.name: d for d in report.diffs}
        assert by_name["cost"].status == "regression"
        assert by_name["rounds"].status == "improved"
        assert by_name["total_bits"].status == "ok"
        assert by_name["extra_old"].status == "missing"
        assert by_name["extra_new"].status == "missing"
        assert not report.ok
        assert [d.name for d in report.regressions] == ["cost"]

    def test_missing_side_never_fails(self):
        report = compare_metrics({"only_old": 1.0}, {"only_new": 2.0})
        assert report.ok

    def test_default_threshold_checks_unknown_metrics(self):
        old, new = {"custom": 1.0}, {"custom": 3.0}
        assert compare_metrics(old, new).diffs[0].status == "unchecked"
        report = compare_metrics(old, new, default_threshold=2.0)
        assert report.diffs[0].status == "regression"

    def test_defaults_reach_bench_metrics_by_record_suffix(self):
        old = {"scale_10k.rounds": 36.0, "scale_10k.cost": 100.0, "E3.k_max": 1.0}
        new = {"scale_10k.rounds": 37.0, "scale_10k.cost": 101.0, "E3.k_max": 9.0}
        by_name = {d.name: d for d in compare_metrics(old, new).diffs}
        assert by_name["scale_10k.rounds"].threshold == 1.0
        assert by_name["scale_10k.rounds"].status == "regression"
        assert by_name["scale_10k.cost"].threshold == DEFAULT_THRESHOLDS["cost"]
        assert by_name["scale_10k.cost"].status == "ok"
        assert by_name["E3.k_max"].status == "unchecked"
        # A full-name threshold wins over the suffix default.
        report = compare_metrics(old, new, thresholds={"scale_10k.rounds": 1.1})
        assert report.ok

    def test_zero_baseline(self):
        report = compare_metrics(
            {"drops": 0.0, "still_zero": 0.0},
            {"drops": 1.0, "still_zero": 0.0},
            thresholds={"drops": 1.5, "still_zero": 1.5},
        )
        by_name = {d.name: d for d in report.diffs}
        # Anything appearing where the baseline had nothing is a regression.
        assert by_name["drops"].status == "regression"
        assert by_name["drops"].ratio == math.inf
        assert by_name["still_zero"].status == "ok"

    def test_defaults_are_lower_is_better_and_strict_on_rounds(self):
        assert DEFAULT_THRESHOLDS["rounds"] == 1.0
        assert DEFAULT_THRESHOLDS["max_message_bits"] == 1.0
        report = compare_metrics({"rounds": 40}, {"rounds": 41})
        assert not report.ok

    def test_render_and_to_dict(self):
        report = compare_metrics({"cost": 1.0}, {"cost": 2.0})
        text = report.render()
        assert "REGRESSION" in text and "cost" in text
        payload = report.to_dict()
        assert payload["ok"] is False
        assert payload["metrics"][0]["name"] == "cost"
        json.dumps(payload)  # must be strict-JSON serializable


def _solve_with_trace(tmp_path, name, k=4):
    trace = tmp_path / f"{name}.jsonl"
    code = main(
        [
            "solve",
            "--family",
            "uniform",
            "-m",
            "6",
            "-n",
            "15",
            "--seed",
            "3",
            "-k",
            str(k),
            "--trace",
            str(trace),
        ]
    )
    assert code == 0
    return trace


class TestExtractMetrics:
    def test_from_manifest_and_trace(self, tmp_path, capsys):
        trace = _solve_with_trace(tmp_path, "run")
        capsys.readouterr()
        from_trace = extract_metrics(trace)
        from_manifest = extract_metrics(tmp_path / "run.manifest.json")
        for flat in (from_trace, from_manifest):
            assert flat["rounds"] > 0
            assert flat["cost"] > 0
            assert "ratio_vs_lp" in flat

    def test_from_bench_document(self, tmp_path):
        bench = tmp_path / "BENCH_x.json"
        bench.write_text(
            json.dumps(
                {
                    "type": "bench",
                    "records": {
                        "E1": {
                            "wall_seconds": 2.0,
                            "metrics": {"ratio_max": 1.4},
                            "params": {"m": 20},
                        }
                    },
                }
            )
        )
        flat = extract_metrics(bench)
        assert flat == {"E1.wall_seconds": 2.0, "E1.ratio_max": 1.4}

    def test_unknown_artifact_rejected(self, tmp_path):
        bad = tmp_path / "x.json"
        bad.write_text("{\"whatever\": 1}")
        with pytest.raises(ReproError, match="unrecognized"):
            extract_metrics(bad)
        with pytest.raises(ReproError, match="not found"):
            extract_metrics(tmp_path / "absent.json")


class TestComparePaths:
    def test_identical_traces_ok(self, tmp_path, capsys):
        a = _solve_with_trace(tmp_path, "a")
        b = _solve_with_trace(tmp_path, "b")
        capsys.readouterr()
        (report,) = compare_paths(a, b)
        assert report.ok

    def test_directory_mode_pairs_by_name(self, tmp_path, capsys):
        old_dir, new_dir = tmp_path / "old", tmp_path / "new"
        for directory in (old_dir, new_dir):
            directory.mkdir()
            _solve_with_trace(directory, "run")
        capsys.readouterr()
        reports = compare_paths(old_dir, new_dir)
        # run.jsonl and run.manifest.json both exist on both sides.
        assert len(reports) == 2
        assert all(r.ok for r in reports)

    def test_mixed_file_and_directory_rejected(self, tmp_path, capsys):
        trace = _solve_with_trace(tmp_path, "a")
        capsys.readouterr()
        with pytest.raises(ReproError, match="not a mix"):
            compare_paths(trace, tmp_path)

    def test_disjoint_directories_rejected(self, tmp_path):
        old_dir, new_dir = tmp_path / "old", tmp_path / "new"
        old_dir.mkdir()
        new_dir.mkdir()
        (old_dir / "a.json").write_text('{"type": "manifest"}')
        (new_dir / "b.json").write_text('{"type": "manifest"}')
        with pytest.raises(ReproError, match="no artifact"):
            compare_paths(old_dir, new_dir)


class TestCompareCli:
    """The acceptance criterion: injected regression -> non-zero exit."""

    def test_injected_regression_fails(self, tmp_path, capsys):
        trace = _solve_with_trace(tmp_path, "a")
        manifest = json.loads((tmp_path / "a.manifest.json").read_text())
        manifest["outcome"]["cost"] *= 1.5
        regressed = tmp_path / "b.manifest.json"
        regressed.write_text(json.dumps(manifest))
        capsys.readouterr()
        code = main(
            [
                "compare",
                str(tmp_path / "a.manifest.json"),
                str(regressed),
                "--threshold",
                "cost=1.05",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "regression" in captured.out
        assert "regressed" in captured.err

    def test_clean_compare_passes_with_json_output(self, tmp_path, capsys):
        trace = _solve_with_trace(tmp_path, "a")
        capsys.readouterr()
        code = main(["compare", str(trace), str(trace), "--json"])
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert payload[0]["ok"] is True

    def test_threshold_spec_error_is_reported(self, tmp_path, capsys):
        code = main(["compare", "x", "y", "--threshold", "nonsense"])
        assert code == 1
        assert "threshold" in capsys.readouterr().err


def _claim_record(ratio: float, value: float, bound: float = 1.0) -> dict:
    """A BENCH document holding one claim-carrying experiment record."""
    claim = {"value": value, "bound": bound, "better": "lower"}
    record = {"metrics": {"ratio_max": ratio}, "claims": {"margin": claim}}
    return {"type": "bench", "records": {"E1": record}}


class TestClaimRecords:
    """Records with ``claims`` are gated from the files, with no flag."""

    def _compare(self, tmp_path, old: dict, new: dict):
        for name, doc in (("old.json", old), ("new.json", new)):
            (tmp_path / name).write_text(json.dumps(doc))
        (report,) = compare_paths(tmp_path / "old.json", tmp_path / "new.json")
        return {d.name: d.status for d in report.diffs}, report

    def test_broken_claim_bound_fails_without_a_flag(self, tmp_path, capsys):
        old, new = _claim_record(1.5, 0.9), _claim_record(1.5, 0.9, bound=0.8)
        statuses, _ = self._compare(tmp_path, old, new)
        assert statuses == {"E1.claims.margin": "broken", "E1.ratio_max": "ok"}
        code = main(["compare", str(tmp_path / "old.json"), str(tmp_path / "new.json")])
        assert code == 1
        assert "broken" in capsys.readouterr().out

    def test_relative_drift_of_1e_10_passes(self, tmp_path):
        old, drift = _claim_record(1.5, 0.9), 1.0 + 1e-10
        statuses, report = self._compare(
            tmp_path, old, _claim_record(1.5 * drift, 0.9 * drift)
        )
        assert report.ok and set(statuses.values()) == {"ok"}

    @pytest.mark.parametrize(
        "ratio, value, status",
        [(1.5001, 0.9, "changed"), (1.4999, 0.9, "changed"),
         (1.5, 0.9001, "regression"), (1.5, 0.8, "improved")],
    )
    def test_other_numbers_may_not_move_claims_may_improve(
        self, tmp_path, ratio, value, status
    ):
        old, new = _claim_record(1.5, 0.9), _claim_record(ratio, value)
        statuses, report = self._compare(tmp_path, old, new)
        assert sorted(statuses.values()) == sorted([status, "ok"])
        assert report.ok == (status == "improved")

    def test_a_number_missing_on_one_side_fails(self, tmp_path):
        new = _claim_record(1.5, 0.9)
        new["records"]["E1"]["metrics"]["ratio_mean"] = 1.2
        del new["records"]["E1"]["claims"]["margin"]
        statuses, report = self._compare(tmp_path, _claim_record(1.5, 0.9), new)
        assert statuses["E1.ratio_mean"] == statuses["E1.claims.margin"] == "changed"
        assert not report.ok

    def test_record_without_claims_compares_as_before(self, tmp_path):
        """The ``BENCH_scale.json`` shape: thresholds only, no gates."""
        metrics = {"rounds": 36.0, "cost": 100.0, "mem_peak_kb": 19337.0}
        record = {"metrics": metrics, "params": {"m": 2000}, "wall_seconds": 0.28}
        old = {"type": "bench", "records": {"scale_100k": record}}
        new = json.loads(json.dumps(old))
        new["records"]["scale_100k"]["metrics"].update(cost=101.0, mem_peak_kb=9e9)
        statuses, report = self._compare(tmp_path, old, new)
        assert report.ok and all(d.gate is None for d in report.diffs)
        assert statuses == {
            "scale_100k.cost": "ok",
            "scale_100k.mem_peak_kb": "unchecked",
            "scale_100k.rounds": "ok",
            "scale_100k.wall_seconds": "ok",
        }

    def test_malformed_claim_is_an_error(self, tmp_path):
        doc = _claim_record(1.5, 0.9)
        doc["records"]["E1"]["claims"]["margin"]["better"] = "up"
        with pytest.raises(ReproError, match="malformed claim"):
            self._compare(tmp_path, doc, doc)
