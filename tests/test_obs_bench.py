"""Tests for repro.obs.bench: BENCH trajectory files and their writers."""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from repro.analysis.experiments import Claim, ExperimentResult, save_result
from repro.cli import main
from repro.obs.bench import bench_path_for, write_bench


def _experiment_result(experiment_id="E1"):
    return ExperimentResult(
        experiment_id=experiment_id,
        title="demo",
        headers=("k", "ratio", "label"),
        rows=((1, 2.0, "a"), (4, 1.5, "b"), (9, float("nan"), "c")),
        notes={"m": 20},
    )


def _self_compare(path, capsys, *extra):
    """``repro compare path path``: exit code and the one report."""
    capsys.readouterr()
    code = main(["compare", str(path), str(path), "--json", *extra])
    return code, json.loads(capsys.readouterr().out)


class TestExperimentRecord:
    def test_to_record_shape(self):
        record = _experiment_result().to_record()
        assert set(record) == {"params", "metrics"}  # no clock reading
        assert record["params"] == {"m": 20}
        # Column stats over finite numeric cells only; text columns skipped.
        assert record["metrics"]["ratio_max"] == 2.0
        assert record["metrics"]["ratio_mean"] == 1.75
        assert record["metrics"]["k_max"] == 9
        assert "label_max" not in record["metrics"]
        json.dumps(record, allow_nan=False)  # strict JSON, no NaN leakage

    def test_save_result_writes_a_comparable_bench_file(self, tmp_path, capsys):
        """Claims are recorded and gated; clock columns and timed claims
        stay out of both files."""
        result = replace(_experiment_result(), timing_columns=("ratio",))
        claims = (
            Claim("k_max", lambda r: max(r.column("k")), 9, "lower", "k is small"),
            Claim("speedup", lambda r: r.rows[0][1], 1.0, "higher", "", timed=True),
        )
        save_result(tmp_path, result, claims)
        assert (tmp_path / "E1.txt").read_text() == result.untimed().table + "\n"
        assert "ratio" not in (tmp_path / "E1.txt").read_text()
        doc = json.loads((tmp_path / "E1.json").read_text())
        assert doc["type"] == "bench" and doc["name"] == "E1"
        claimed = {"k_max": {"value": 9.0, "bound": 9, "better": "lower"}}
        assert doc["records"] == {
            "E1": {**result.untimed().to_record(), "claims": claimed}
        }
        code, (report,) = _self_compare(tmp_path / "E1.json", capsys)
        assert code == 0
        names = {metric["name"] for metric in report["metrics"]}
        assert {"E1.k_max", "E1.claims.k_max"} <= names
        assert "E1.ratio_max" not in names
        assert all(metric["status"] == "ok" for metric in report["metrics"])

    def test_artifact_directories_compare_by_name(self, tmp_path, capsys):
        """Two artifact directories pair up file by file, no fold step."""
        for side in ("old", "new"):
            (tmp_path / side).mkdir()
            for experiment_id in ("E1", "E2"):
                save_result(tmp_path / side, _experiment_result(experiment_id))
        capsys.readouterr()
        code = main(
            ["compare", str(tmp_path / "old"), str(tmp_path / "new"), "--json"]
        )
        assert code == 0
        reports = json.loads(capsys.readouterr().out)
        assert [Path(r["old"]).name for r in reports] == ["E1.json", "E2.json"]


class TestWriteBench:
    def test_roundtrip_and_determinism(self, tmp_path):
        records = {"E1": {"wall_seconds": 1.0, "metrics": {"x": 2.0}}}
        first = write_bench("micro", records, tmp_path)
        assert first == bench_path_for("micro", tmp_path)
        content_a = first.read_text()
        write_bench("micro", records, tmp_path)
        assert first.read_text() == content_a  # no timestamps, stable bytes
        doc = json.loads(content_a)
        assert doc["type"] == "bench" and doc["name"] == "micro"
        assert doc["records"]["E1"]["metrics"]["x"] == 2.0

    def test_name_is_sanitized(self, tmp_path):
        target = write_bench("e2e/smoke test", {"r": {}}, tmp_path)
        assert target.name == "BENCH_e2e_smoke_test.json"


class TestBenchCli:
    def test_bench_then_compare(self, tmp_path, capsys):
        """``repro bench --suite`` writes a BENCH file ``compare`` gates."""
        assert main(
            ["bench", "--suite", "scale", "--max-nodes", "10000", "-o", str(tmp_path)]
        ) == 0
        bench_file = tmp_path / "BENCH_scale.json"
        assert capsys.readouterr().out.startswith(f"wrote {bench_file}")
        code, (report,) = _self_compare(bench_file, capsys, "--default-threshold", "2")
        assert code == 0
        assert any(m["name"] == "scale_10k.mem_peak_kb" for m in report["metrics"])
