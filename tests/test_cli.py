"""Tests for the command-line interface."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import cli
from repro.analysis import experiments as exp
from repro.analysis.chaos import ChaosGates
from repro.analysis.chaos_serve import ChaosServePlan
from repro.analysis.loadgen import LoadShape
from repro.cli import build_parser, main
from repro.core.dual_ascent_nodes import RoundingPolicy
from repro.fl.io import load_instance_json
from repro.perf.executor import SweepExecutor
from repro.service import RouterConfig, ServiceConfig


class TestGenerate:
    def test_writes_instance(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        code = main(
            [
                "generate",
                "--family",
                "uniform",
                "-m",
                "5",
                "-n",
                "12",
                "--seed",
                "3",
                "-o",
                str(path),
            ]
        )
        assert code == 0
        instance = load_instance_json(path)
        assert instance.num_facilities == 5
        assert instance.num_clients == 12
        assert "wrote" in capsys.readouterr().out


class TestSolve:
    def test_solve_from_family(self, capsys):
        code = main(
            ["solve", "--family", "uniform", "-m", "6", "-n", "15", "-k", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "distributed solve" in out
        assert "ratio_vs_lp" in out

    def test_solve_from_file(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        main(
            ["generate", "--family", "euclidean", "-m", "5", "-n", "10", "-o", str(path)]
        )
        capsys.readouterr()
        code = main(["solve", str(path), "-k", "4", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rounds"] > 0
        assert payload["cost"] > 0
        assert payload["ratio_vs_lp"] >= 0.99

    def test_solve_dual_variant(self, capsys):
        code = main(
            [
                "solve",
                "--family",
                "uniform",
                "-m",
                "5",
                "-n",
                "10",
                "-k",
                "3",
                "--variant",
                "dual_ascent",
                "--rounding",
                "randomized",
                "--c-round",
                "0.5",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["variant"] == "dual_ascent"

    def test_solve_without_source_errors(self, capsys):
        code = main(["solve", "-k", "4"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_shards_off_columnar_errors(self, capsys):
        code = main(
            [
                "solve", "--family", "uniform", "-m", "6", "-n", "15",
                "--engine", "loop", "--shards", "2", "--no-lp",
            ]
        )
        assert code == 1
        assert "does not shard" in capsys.readouterr().err

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_trace_off_simulator_errors_before_writing(self, sparse, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        source = (
            ["--sparse-degree", "3", "-m", "6", "-n", "15"]
            if sparse
            else ["--family", "uniform", "-m", "6", "-n", "15"]
        )
        code = main(
            ["solve", *source, "--engine", "columnar", "--no-lp", "--trace", str(trace)]
        )
        assert code == 1
        assert "trace" in capsys.readouterr().err
        assert not trace.exists()

    @pytest.mark.parametrize("variant", ["greedy", "dual_ascent"])
    def test_columnar_metrics_out_matches_the_simulator(self, variant, tmp_path, capsys):
        gauges = {}
        for engine in ("simulator", "columnar"):
            snap = tmp_path / f"{engine}.json"
            code = main(
                [
                    "solve", "--family", "set_cover", "-m", "10", "-n", "36",
                    "-k", "1", "--variant", variant, "--engine", engine,
                    "--no-lp", "--metrics-out", str(snap),
                ]
            )
            assert code == 0
            metrics = json.loads(snap.read_text())["metrics"]
            gauges[engine] = {
                name: metric["values"]
                for name, metric in metrics.items()
                if name.startswith("net_")
            }
        capsys.readouterr()
        assert gauges["simulator"]["net_messages_total"][0]["value"] > 0
        assert gauges["columnar"] == gauges["simulator"]

    def test_no_lp_skips_ratio(self, capsys):
        code = main(
            [
                "solve",
                "--family",
                "uniform",
                "-m",
                "6",
                "-n",
                "15",
                "-k",
                "4",
                "--no-lp",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "ratio_vs_lp" not in payload
        assert payload["cost"] > 0

    def test_timeline_flag_prints_table(self, capsys):
        code = main(
            [
                "solve",
                "--family",
                "uniform",
                "-m",
                "6",
                "-n",
                "15",
                "-k",
                "4",
                "--timeline",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "per-round timeline" in out
        assert "wall_ms" in out

    def test_trace_writes_jsonl_and_manifest(self, tmp_path, capsys):
        trace_path = tmp_path / "run.jsonl"
        code = main(
            [
                "solve",
                "--family",
                "uniform",
                "-m",
                "6",
                "-n",
                "15",
                "-k",
                "4",
                "--trace",
                str(trace_path),
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace"] == str(trace_path)
        lines = [json.loads(l) for l in trace_path.read_text().splitlines()]
        types = {l["type"] for l in lines}
        assert types == {"event", "round", "manifest"}
        manifest_path = tmp_path / "run.manifest.json"
        assert manifest_path.exists()
        manifest = json.loads(manifest_path.read_text())
        assert manifest["parameters"]["k"] == 4
        assert manifest["metrics"]["messages_by_kind"]


class TestInspect:
    def test_inspect_renders_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "run.jsonl"
        main(
            [
                "solve",
                "--family",
                "uniform",
                "-m",
                "6",
                "-n",
                "15",
                "-k",
                "4",
                "--trace",
                str(trace_path),
            ]
        )
        capsys.readouterr()
        code = main(["inspect", str(trace_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "run manifest" in out
        assert "per-round timeline" in out
        assert "wall_ms" in out and "drops" in out
        assert "messages by kind" in out
        assert "slowest" in out

    def test_inspect_missing_file_errors(self, tmp_path, capsys):
        code = main(["inspect", str(tmp_path / "absent.jsonl")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestBaselines:
    def test_table(self, capsys):
        code = main(["baselines", "--family", "uniform", "-m", "6", "-n", "12"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("greedy", "jain_vazirani", "local_search", "lp_lower_bound", "exact"):
            assert name in out

    def test_incomplete_family_skips_lp_rounding(self, capsys):
        code = main(["baselines", "--family", "sparse", "-m", "6", "-n", "12"])
        assert code == 0
        out = capsys.readouterr().out
        assert "lp_rounding" not in out


class TestExperiment:
    def test_runs_quick_experiment(self, capsys):
        code = main(["experiment", "E3", "--quick"])
        assert code == 0
        out = capsys.readouterr().out
        assert "E3" in out and "rounds" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "E99"])

    def test_all_writes_each_table_and_record(self, tmp_path, capsys, monkeypatch):
        subset = {eid: exp.EXPERIMENTS[eid] for eid in ("E3", "E12")}
        monkeypatch.setattr(exp, "EXPERIMENTS", subset)
        assert main(["experiment", "all", "--quick", "-o", str(tmp_path)]) == 0
        out, err = capsys.readouterr()
        assert "E3:" in out and "E12:" in out
        assert err == ""  # no --workers, no note
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "E12.json", "E12.txt", "E3.json", "E3.txt"
        ]
        doc = json.loads((tmp_path / "E3.json").read_text())
        assert doc["records"]["E3"]["metrics"]["rounds_max"] == 68.0

    def test_workers_note_names_serial_experiments_once(self, capsys, monkeypatch):
        subset = {eid: exp.EXPERIMENTS[eid] for eid in ("E3", "E4", "E12")}
        monkeypatch.setattr(exp, "EXPERIMENTS", subset)
        assert main(["experiment", "all", "--quick", "--workers", "1"]) == 0
        err = capsys.readouterr().err
        assert err.count("note:") == 1
        assert "E3, E4;" in err and "E12" not in err


class TestReport:
    def test_quick_report(self, tmp_path, capsys):
        path = tmp_path / "EXP.md"
        code = main(["report", str(path), "--quick"])
        assert code == 0
        text = path.read_text()
        assert "E1" in text and "E11" in text
        assert "quick configuration" in text


class TestParser:
    def test_parser_builds(self):
        parser = build_parser()
        assert parser.prog == "repro"

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestServe:
    def test_stdin_jsonl_session(self, capsys, monkeypatch):
        import io

        from repro.service import encode_line

        lines = [
            encode_line(
                {
                    "type": "solve",
                    "request_id": "a",
                    "recipe": {"family": "uniform", "m": 6, "n": 15, "seed": 1},
                    "k": 4,
                }
            ),
            encode_line(
                {
                    "type": "solve",
                    "request_id": "b",
                    "recipe": {"family": "uniform", "m": 6, "n": 15, "seed": 1},
                    "k": 4,
                }
            ),
        ]
        monkeypatch.setattr("sys.stdin", io.StringIO("".join(lines)))
        code = main(["serve", "--batch-size", "8", "--metrics"])
        assert code == 0
        replies = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
        ]
        kinds = [r["type"] for r in replies]
        assert kinds == [
            "ack", "ack", "response", "response", "flush_done", "metrics",
        ]
        assert replies[2]["status"] == "ok"
        assert replies[3]["dedup"] is True
        assert replies[-1]["metrics"]["dedup_hits"] == 1

    def test_profile_memory_needs_trace_spans(self, capsys):
        # Workers sample memory only on traced requests' spans, so the
        # flag alone would do nothing.
        assert main(["serve", "--profile-memory"]) == 2
        assert "--profile-memory requires --trace-spans" in capsys.readouterr().err

    def test_socket_and_tcp_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--socket", "x.sock", "--tcp", "127.0.0.1:0"])
        assert exit_info.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_serve_help_lists_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        out = capsys.readouterr().out
        for flag in ("--socket", "--batch-size", "--workers", "--ttl"):
            assert flag in out
        for flag in ("--trace-spans", "--slo", "--profile-memory"):
            assert flag in out

    def test_trace_spans_and_slo_session(self, tmp_path, capsys, monkeypatch):
        import io

        from repro.service import encode_line

        span_log = tmp_path / "spans.jsonl"
        lines = [
            encode_line(
                {
                    "type": "solve",
                    "request_id": "t0",
                    "recipe": {"family": "uniform", "m": 6, "n": 15, "seed": 1},
                    "k": 4,
                }
            )
        ]
        monkeypatch.setattr("sys.stdin", io.StringIO("".join(lines)))
        code = main(
            ["serve", "--trace-spans", str(span_log), "--slo", "default"]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "availability" in err and "OK" in err
        from repro.obs.spans import load_spans_jsonl

        names = {s.name for s in load_spans_jsonl(span_log)}
        assert {
            "service.request",
            "service.batch",
            "service.unit",
            "worker.solve",
            "sim.round",
        } <= names

    def test_slo_breach_fails_the_exit_code(self, capsys, monkeypatch):
        import io

        from repro.service import encode_line

        # A malformed work unit (unknown rounding mode) completes with
        # status=error, breaching the stock availability objective.
        line = encode_line(
            {
                "type": "solve",
                "request_id": "bad",
                "recipe": {"family": "uniform", "m": 6, "n": 15, "seed": 1},
                "k": 4,
                "rounding": "no_such_mode",
            }
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(line))
        code = main(["serve", "--slo", "default"])
        assert code == 1
        err = capsys.readouterr().err
        assert "BREACH" in err and "SLO violation" in err


class TestTraceVerb:
    def _span_log(self, tmp_path):
        from repro.obs.spans import Tracer, write_spans_jsonl

        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        path = tmp_path / "spans.jsonl"
        write_spans_jsonl(tracer.export(), path)
        return path

    def test_tree_renders_with_critical_path(self, tmp_path, capsys):
        path = self._span_log(tmp_path)
        assert main(["trace", "tree", str(path)]) == 0
        out = capsys.readouterr().out
        assert "root" in out and "child" in out
        assert out.splitlines()[0].startswith("*")

    def test_export_writes_trace_event_json(self, tmp_path, capsys):
        path = self._span_log(tmp_path)
        out_file = tmp_path / "trace.json"
        assert main(["trace", "export", str(path), "-o", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        assert payload["traceEvents"]
        assert all(e["ph"] == "X" for e in payload["traceEvents"])

    def test_missing_span_log_errors(self, tmp_path, capsys):
        code = main(["trace", "tree", str(tmp_path / "absent.jsonl")])
        assert code == 1
        assert "span log not found" in capsys.readouterr().err


class TestTopVerb:
    def test_renders_snapshot_and_spans(self, tmp_path, capsys):
        # Produce both artifacts through the solve CLI itself.
        snap = tmp_path / "metrics.json"
        spans = tmp_path / "spans.jsonl"
        main(
            [
                "solve",
                "--family",
                "uniform",
                "-m",
                "6",
                "-n",
                "15",
                "-k",
                "4",
                "--metrics-out",
                str(snap),
                "--spans",
                str(spans),
                "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics_out"] == str(snap)
        assert payload["spans"] == str(spans)
        assert main(["top", str(snap), "--spans", str(spans)]) == 0
        out = capsys.readouterr().out
        assert "metrics snapshot" in out
        assert "net_messages_total" in out
        assert "slowest spans" in out
        assert "algo.run" in out

    def test_wrong_schema_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "nope"}))
        assert main(["top", str(bad)]) == 1
        assert "snapshot" in capsys.readouterr().err


def _other_value(field, value) -> tuple[str, object]:
    """A command-line text for ``field`` that parses to a value other
    than ``value``, and the value it parses to."""
    choices = field.metadata["argparse"].get("choices")
    if choices:
        other = next(choice for choice in choices if choice != value)
        return other, other
    if isinstance(value, str):
        return value + "2", value + "2"
    if isinstance(value, float) or "float" in str(field.type):
        other = value / 2 if value else 0.5
        return str(other), other
    other = value + 1 if value is not None else 1
    return str(other), other


@pytest.mark.parametrize(
    ("argv", "configs"),
    [
        pytest.param(argv, configs, id=argv[0])
        for argv, configs in (
            # `serve` runs without a router unless --service-workers asks.
            (["serve"], (ServiceConfig(), RouterConfig(num_workers=1))),
            (["loadtest"], (LoadShape(),)),
            (["chaos-serve"], (ChaosServePlan(),)),
            (["chaos"], (ChaosGates(), SweepExecutor())),
            (["experiment", "E1"], (SweepExecutor(),)),
            (["solve"], (RoundingPolicy(),)),
            (["record", "-o", "out.json"], (RoundingPolicy(),)),
        )
    ],
)
def test_config_flags_take_the_dataclass_defaults(argv, configs):
    parser = build_parser()

    def built(extra: list[str]) -> list[object]:
        args = parser.parse_args([*argv, *extra])
        return [type(c)(**cli._options(args, type(c))) for c in configs]

    # Bare argv builds the default configs...
    assert built([]) == list(configs)
    # ...and each generated flag, given a non-default value, changes
    # exactly its own field.
    checked = 0
    for index, config in enumerate(configs):
        for field in dataclasses.fields(config):
            if "flag" not in field.metadata:
                continue
            option = field.metadata["flag"][-1]
            bare = getattr(config, field.name)
            if isinstance(bare, bool):
                extra, expected = [option], True
            else:
                text, expected = _other_value(field, bare)
                extra = [option, text]
            changed = built(extra)[index]
            assert changed == dataclasses.replace(config, **{field.name: expected}), extra
            checked += 1
    assert checked >= 1


_SMALL_LOADTEST = [
    "loadtest", "--users", "1", "--requests", "2", "--catalog", "2",
    "--service-workers", "1", "-m", "4", "-n", "8",
]


@pytest.mark.parametrize(
    ("argv", "key", "keys"),
    [
        (
            [
                "chaos", "--family", "uniform", "-m", "6", "-n", "15",
                "-k", "4", "--families", "duplicate", "--intensities", "0.2",
                "--num-seeds", "1",
            ],
            "CHAOS",
            ["passed", "failures", "baseline_cost", "record"],
        ),
        (
            [
                "chaos-serve", "--requests", "3", "--workers", "1",
                "--crash-rate", "0", "-m", "4", "-n", "8", "-k", "2",
            ],
            "CHAOS_SERVE",
            ["passed", "failures", "statuses", "injected", "client_stats", "record"],
        ),
        (_SMALL_LOADTEST, "smoke", ["passed", "failures", "record"]),
    ],
    ids=["chaos", "chaos-serve", "loadtest"],
)
def test_gated_verbs_share_one_report(argv, key, keys, tmp_path, capsys):
    artifact = tmp_path / "out" / "artifact.json"
    assert main([*argv, "-o", str(artifact), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == keys
    assert payload["passed"] is True and payload["failures"] == []
    written = json.loads(artifact.read_text())
    assert written["type"] == "bench"
    assert written["records"] == {key: payload["record"]}
    # Without --json: the table, then where the artifact went.
    assert main([*argv, "-o", str(artifact)]) == 0
    assert capsys.readouterr().out.rstrip().endswith(f"wrote {artifact}")
    # The artifact is a BENCH file that repro compare reads.
    compare = ["compare", str(artifact), str(artifact), "--json"]
    assert main([*compare, "--default-threshold", "1"]) == 0
    (report,) = json.loads(capsys.readouterr().out)
    assert report["metrics"]
    assert all(metric["status"] == "ok" for metric in report["metrics"])


def test_loadtest_always_verifies_served_bytes(monkeypatch, capsys):
    from repro.analysis import loadgen

    with pytest.raises(SystemExit):
        main([*_SMALL_LOADTEST, "--no-verify"])
    capsys.readouterr()
    # An oracle that disagrees with every served answer must fail the run.
    monkeypatch.setattr(loadgen, "direct_signature", lambda request: "tampered")
    assert main([*_SMALL_LOADTEST, "--json"]) == 1
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["passed"] is False
    assert payload["record"]["metrics"]["divergent"] == 2
    assert "error: loadtest gate failed: 2 ok response(s) diverge" in captured.err
