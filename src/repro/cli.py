"""Command-line interface.

Everything the library does is reachable from the shell::

    repro generate --family euclidean -m 20 -n 60 --seed 3 -o inst.json
    repro solve inst.json -k 16 --variant greedy
    repro solve --family uniform -m 20 -n 60 --seed 3 -k 16
    repro solve inst.json -k 16 --trace run.jsonl --timeline --no-lp
    repro solve inst.json -k 16 --watchdogs --trace run.jsonl
    repro inspect run.jsonl
    repro compare old.manifest.json new.manifest.json --threshold cost=1.05
    repro bench benchmarks/_artifacts --name micro -o benchmarks/baselines
    repro bench --suite micro --workers 2 -o benchmarks/baselines
    repro bench --suite macro --workers 4 -o .
    repro bench --suite scale --max-nodes 100000 -o .
    repro solve --sparse-degree 3 -m 2000 -n 98000 --seed 7 -k 8 \\
        --engine columnar --shards 2 --no-lp --digest
    repro baselines inst.json
    repro experiment E3 --quick
    repro chaos --family uniform -m 6 -n 18 -k 9 --num-seeds 3 -o chaos.json
    repro report EXPERIMENTS.md --quick
    cat requests.jsonl | repro serve --batch-size 16 --metrics
    repro serve --socket /tmp/repro.sock --workers 4
    repro solve inst.json -k 16 --spans spans.jsonl --metrics-out metrics.json
    cat requests.jsonl | repro serve --trace-spans spans.jsonl --slo default
    repro trace tree spans.jsonl --depth 4
    repro trace export spans.jsonl -o trace.json
    repro top metrics.json --spans spans.jsonl
    repro record inst.json -k 16 --engine loop -o run.rec.json
    repro record inst.json -k 16 --engine loop --full -o full.rec.json
    repro replay run.rec.json --engine columnar
    repro divergence left.rec.json right.rec.json
    repro inspect run.rec.json --digests other.rec.json
    repro explain full.rec.json facility:3

(Installed as the ``repro`` console script; also runnable as
``python -m repro.cli``.)
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from repro.analysis import experiments as exp
from repro.analysis.tables import render_table
from repro.baselines import (
    exact_solve,
    greedy_solve,
    jain_vazirani_solve,
    local_search_solve,
    lp_rounding_solve,
    mettu_plaxton_solve,
    solve_lp,
)
from repro.core.algorithm import ENGINES, Variant, solve_distributed
from repro.core.dual_ascent_nodes import RoundingPolicy
from repro.exceptions import ReproError
from repro.fl.generators import FAMILIES, make_instance
from repro.fl.instance import FacilityLocationInstance
from repro.fl.io import load_instance_json, save_instance_json
from repro.obs.bench import collect_records, write_bench
from repro.obs.compare import compare_paths, parse_threshold
from repro.obs.inspect import inspect_trace
from repro.obs.manifest import RunRecord, manifest_path_for
from repro.obs.sinks import JsonlTraceSink
from repro.obs.watchdogs import default_watchdogs

__all__ = ["main", "build_parser"]

_EXPERIMENTS = {
    "E1": exp.run_e1_tradeoff_table,
    "E2": exp.run_e2_ratio_vs_k,
    "E3": exp.run_e3_rounds_vs_k,
    "E4": exp.run_e4_message_bits,
    "E5": exp.run_e5_baselines_table,
    "E6": exp.run_e6_rounding_ablation,
    "E7": exp.run_e7_rho_sensitivity,
    "E8": exp.run_e8_families_table,
    "E9": exp.run_e9_scalability,
    "E10": exp.run_e10_variants_table,
    "E11": exp.run_e11_faults,
    "E12": exp.run_e12_ladder_necessity,
    "E13": exp.run_e13_settle_ablation,
    "E14": exp.run_e14_anytime,
    "E15": exp.run_e15_concentration,
    "E16": exp.run_e16_opening_rule,
    "E17": exp.run_e17_fault_families,
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests and docs tooling)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed facility-location approximation (PODC 2005 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate an instance to JSON")
    _add_instance_source(gen, require_family=True)
    gen.add_argument("-o", "--output", required=True, help="output JSON path")

    solve = sub.add_parser("solve", help="run the distributed algorithm")
    solve.add_argument("instance", nargs="?", help="instance JSON path")
    _add_instance_source(solve, require_family=False)
    _add_recipe_arguments(
        solve,
        default_engine="simulator",
        engine_help="execution engine (default: the message-passing simulator; "
        "the emulation engines skip network simulation, and columnar "
        "scales to million-node instances)",
        shards_help="worker processes for --engine columnar (shared-memory "
        "node-range sharding; never changes the output bytes)",
    )
    solve.add_argument(
        "--sparse-degree",
        type=int,
        metavar="D",
        help="generate the instance natively on the columnar edge plane "
        "(-m/-n/--seed, D candidate facilities per client) instead of "
        "loading one; the columnar engine never densifies it, so this is "
        "the entry point for million-node solves (other engines "
        "materialize the dense matrix — oracle sizes only)",
    )
    solve.add_argument(
        "--digest",
        action="store_true",
        help="also print the canonical final-checkpoint digest of the "
        "solution (cheap cross-engine identity check; same hash the "
        "flight recorder puts at its `final` checkpoint)",
    )
    solve.add_argument("--json", action="store_true", help="machine-readable output")
    solve.add_argument(
        "--trace",
        metavar="PATH",
        help="stream a JSONL trace (events + per-round telemetry + manifest) "
        "to PATH; a sidecar .manifest.json is written next to it",
    )
    solve.add_argument(
        "--timeline",
        action="store_true",
        help="print the per-round timeline table after solving",
    )
    solve.add_argument(
        "--no-lp",
        action="store_true",
        help="skip the LP lower bound (omits ratio_vs_lp; use on large instances)",
    )
    solve.add_argument(
        "--watchdogs",
        action="store_true",
        help="attach the invariant watchdogs (feasibility, dual monotonicity, "
        "CONGEST envelope); violations become trace events",
    )
    solve.add_argument(
        "--strict-watchdogs",
        action="store_true",
        help="like --watchdogs, but the first violation aborts the run",
    )
    solve.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the run's metrics-registry snapshot as JSON to PATH "
        "(same schema as the service metrics op with \"full\": true)",
    )
    solve.add_argument(
        "--spans",
        metavar="PATH",
        help="trace the solve as spans and write a JSONL span log to PATH "
        "(render with `repro trace tree`, export with `repro trace export`)",
    )
    solve.add_argument(
        "--profile-memory",
        action="store_true",
        help="sample the tracemalloc peak over the solve (reported as "
        "mem_peak_kb; with --spans it lands on the span, otherwise in "
        "the solve output)",
    )

    inspect = sub.add_parser(
        "inspect", help="summarize a JSONL trace written by solve --trace"
    )
    inspect.add_argument(
        "trace",
        help="JSONL trace path (or a flight-recording JSON with --digests)",
    )
    inspect.add_argument(
        "other",
        nargs="?",
        help="with --digests: a second recording to diff against",
    )
    inspect.add_argument(
        "--slowest", type=int, default=5, help="how many slowest rounds to show"
    )
    inspect.add_argument(
        "--digests",
        action="store_true",
        help="treat the artifact as a flight recording (repro record) and "
        "show its per-checkpoint state digests; with a second artifact, "
        "flag the first divergent checkpoint",
    )

    record = sub.add_parser(
        "record",
        help="run one solve under the deterministic flight recorder and "
        "write the recording artifact",
    )
    record.add_argument("instance", nargs="?", help="instance JSON path")
    _add_instance_source(record, require_family=False)
    _add_recipe_arguments(
        record,
        default_engine="loop",
        engine_help="which engine to record (default loop)",
        shards_help="worker processes for --engine columnar (digests are "
        "shard-count independent by the determinism contract)",
    )
    record.add_argument(
        "--full",
        action="store_true",
        help="also log the causal message-provenance DAG (loop engine "
        "only); enables `repro explain`",
    )
    record.add_argument(
        "-o", "--output", required=True, help="recording output path (JSON)"
    )

    replay = sub.add_parser(
        "replay",
        help="re-run a recording's embedded solve recipe and assert "
        "digest-identity (exit 1 on mismatch)",
    )
    replay.add_argument("recording", help="recording JSON written by repro record")
    replay.add_argument(
        "--engine",
        choices=ENGINES,
        default=None,
        help="override the recorded engine (cross-engine digest check)",
    )

    divergence = sub.add_parser(
        "divergence",
        help="diff two recordings and bisect to the first divergent "
        "round, node and field (exit 1 when divergent)",
    )
    divergence.add_argument("left", help="first recording JSON")
    divergence.add_argument("right", help="second recording JSON")
    divergence.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    explain = sub.add_parser(
        "explain",
        help="render the causal chain behind one actor's outcome from a "
        "--full recording (e.g. why facility:3 opened)",
    )
    explain.add_argument("recording", help="recording JSON written with --full")
    explain.add_argument(
        "actor",
        help="actor id, e.g. facility:3 or client:11",
    )

    compare = sub.add_parser(
        "compare",
        help="diff two run artifacts (or directories) under regression thresholds",
    )
    compare.add_argument("old", help="baseline artifact: trace .jsonl, manifest, BENCH file, or directory")
    compare.add_argument("new", help="candidate artifact of the same kind")
    compare.add_argument(
        "--threshold",
        action="append",
        default=[],
        metavar="NAME=RATIO",
        help="per-metric regression threshold (repeatable), e.g. cost=1.05",
    )
    compare.add_argument(
        "--default-threshold",
        type=float,
        default=None,
        metavar="RATIO",
        help="threshold applied to metrics without an explicit one "
        "(such metrics are otherwise reported but unchecked)",
    )
    compare.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    bench = sub.add_parser(
        "bench",
        help="fold benchmark artifacts into a versioned BENCH_<name>.json, "
        "or run a perf suite (--suite) and emit its trajectory point",
    )
    bench.add_argument(
        "source",
        nargs="?",
        help="artifact directory (benchmarks/_artifacts), a pytest-benchmark "
        "JSON export, or a single record/manifest file (omit with --suite)",
    )
    bench.add_argument(
        "--suite",
        choices=["micro", "macro", "scale"],
        help="run the named perf suite instead of folding artifacts "
        "(see docs/PERFORMANCE.md)",
    )
    bench.add_argument(
        "--max-nodes",
        type=int,
        default=None,
        help="scale suite only: skip rungs whose m+n exceeds this "
        "(CI runs the reduced ladder; the committed baseline is full)",
    )
    bench.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the suite's parallel sweeps (default 1)",
    )
    bench.add_argument(
        "--name",
        help="trajectory name (required without --suite; defaults to the "
        "suite's canonical name with it)",
    )
    bench.add_argument(
        "-o",
        "--output",
        default=".",
        help="output directory or explicit file path (default: cwd)",
    )

    base = sub.add_parser("baselines", help="run every sequential baseline")
    base.add_argument("instance", nargs="?", help="instance JSON path")
    _add_instance_source(base, require_family=False)

    expcmd = sub.add_parser("experiment", help="run one experiment E1..E17")
    expcmd.add_argument("id", choices=sorted(_EXPERIMENTS, key=_experiment_key))
    expcmd.add_argument("--quick", action="store_true")
    expcmd.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the experiment's sweep cells (default 1; "
        "output is identical whatever the value)",
    )

    report = sub.add_parser("report", help="regenerate EXPERIMENTS.md")
    report.add_argument("output", nargs="?", default="EXPERIMENTS.md")
    report.add_argument("--quick", action="store_true")

    serve = sub.add_parser(
        "serve",
        help="run the batched solve service (JSONL on stdin/stdout, or a "
        "Unix socket with --socket); see docs/ARCHITECTURE.md",
    )
    serve.add_argument(
        "--socket",
        metavar="PATH",
        help="bind a Unix domain socket at PATH instead of serving stdin",
    )
    serve.add_argument(
        "--tcp",
        metavar="HOST:PORT",
        help="bind a TCP socket instead of serving stdin (port 0 picks an "
        "ephemeral port, printed to stderr); connections are served "
        "concurrently",
    )
    serve.add_argument(
        "--service-workers",
        type=int,
        default=1,
        metavar="K",
        help="backend service workers behind a consistent-hash router; "
        "requests route on their work key so dedup and result reuse "
        "survive sharding (default 1 = no router)",
    )
    serve.add_argument(
        "--hash-replicas",
        type=int,
        default=64,
        help="vnodes per worker on the routing hash ring "
        "(with --service-workers > 1; default 64)",
    )
    serve.add_argument(
        "--shared-cache-ttl",
        type=float,
        default=300.0,
        help="seconds a cross-worker shared-cache entry stays servable "
        "(with --service-workers > 1; 0 disables the TTL; default 300)",
    )
    serve.add_argument(
        "--shared-cache-size",
        type=int,
        default=512,
        help="cross-worker shared-cache capacity "
        "(with --service-workers > 1; default 512)",
    )
    serve.add_argument(
        "--max-depth",
        type=int,
        default=256,
        help="admission-queue capacity; offers beyond it are rejected "
        "(default 256)",
    )
    serve.add_argument(
        "--batch-size",
        type=int,
        default=32,
        help="most live requests per executed batch (default 32)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes per batch (default 1; responses are "
        "identical whatever the value)",
    )
    serve.add_argument(
        "--ttl",
        type=float,
        default=300.0,
        help="seconds a completed response stays fetchable (default 300)",
    )
    serve.add_argument(
        "--max-results",
        type=int,
        default=1024,
        help="result-store capacity (default 1024)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help="seconds of graceful drain on SIGTERM (or a drain line): "
        "queued work flushes within this budget, the remainder is "
        "answered status=draining (default 30)",
    )
    serve.add_argument(
        "--high-water",
        type=int,
        default=None,
        help="queue depth at which incoming low-priority work is shed "
        "(default: disabled)",
    )
    serve.add_argument(
        "--rate-limit",
        type=float,
        default=None,
        metavar="RPS",
        help="per-client-id token-bucket refill rate in requests/second "
        "(default: disabled)",
    )
    serve.add_argument(
        "--rate-burst",
        type=float,
        default=8.0,
        help="token-bucket burst capacity with --rate-limit (default 8)",
    )
    serve.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="per-cell execution budget when a worker crashes or wedges "
        "(default 3)",
    )
    serve.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock watchdog per pool cell; a cell still running "
        "past it is treated like a crash and retried (default: disabled)",
    )
    serve.add_argument(
        "--metrics",
        action="store_true",
        help="append one metrics-summary line at EOF (stdin mode only)",
    )
    serve.add_argument(
        "--trace-spans",
        metavar="PATH",
        help="trace every request through the pipeline and write the span "
        "log (JSONL) to PATH when the server exits",
    )
    serve.add_argument(
        "--profile-memory",
        action="store_true",
        help="with --trace-spans: sample tracemalloc peaks on worker solve "
        "spans (reported as mem_peak_kb)",
    )
    serve.add_argument(
        "--slo",
        metavar="SPEC",
        help="evaluate SLOs when the server exits and fail (exit 1) on "
        "violation; SPEC is a JSON file or the literal 'default' "
        "(availability 99%%, p95 latency under 2s)",
    )

    loadtest = sub.add_parser(
        "loadtest",
        help="drive a deterministic traffic shape against a multi-worker "
        "TCP front end, measure latency quantiles and goodput, verify "
        "served results against direct solves, and emit a "
        "BENCH_loadtest.json record for repro compare gating",
    )
    loadtest.add_argument(
        "--mode",
        choices=("closed", "open"),
        default="closed",
        help="closed = synchronous users (next request after the previous "
        "completes); open = scheduled arrivals through one pipelined "
        "connection (default closed)",
    )
    loadtest.add_argument(
        "--users",
        type=int,
        default=4,
        help="concurrent users; closed mode gives each its own "
        "connection and thread (default 4)",
    )
    loadtest.add_argument(
        "--requests",
        type=int,
        default=6,
        help="requests per user (default 6)",
    )
    loadtest.add_argument(
        "--service-workers",
        type=int,
        default=2,
        metavar="K",
        help="backend workers behind the router started for the test "
        "(ignored with --address; default 2)",
    )
    loadtest.add_argument(
        "--catalog",
        type=int,
        default=12,
        help="distinct recipes in the traffic catalog — the number of "
        "distinct work keys the run can produce (default 12)",
    )
    loadtest.add_argument(
        "--zipf",
        type=float,
        default=1.1,
        help="zipf skew of recipe popularity; larger = hotter duplicates "
        "= more dedup/shared-cache traffic (default 1.1)",
    )
    loadtest.add_argument(
        "--arrival-rate",
        type=float,
        default=200.0,
        metavar="RPS",
        help="open mode: scheduled arrivals per second (default 200)",
    )
    loadtest.add_argument(
        "--burstiness",
        type=float,
        default=0.0,
        help="open mode, in [0,1): 0 spaces arrivals evenly, higher "
        "collapses groups into bursts at the same average rate "
        "(default 0)",
    )
    loadtest.add_argument(
        "--deadline-fraction",
        type=float,
        default=0.0,
        help="fraction of requests carrying a tight queue deadline, so "
        "timeout paths fire under load (default 0)",
    )
    loadtest.add_argument(
        "--low-priority-fraction",
        type=float,
        default=0.0,
        help="fraction of requests tagged priority=low (default 0)",
    )
    loadtest.add_argument(
        "--high-priority-fraction",
        type=float,
        default=0.0,
        help="fraction of requests tagged priority=high (default 0)",
    )
    loadtest.add_argument("-m", "--facilities", type=int, default=12)
    loadtest.add_argument("-n", "--clients", type=int, default=12)
    loadtest.add_argument(
        "--seed",
        type=int,
        default=0,
        help="master seed; equal shapes generate byte-equal workloads "
        "(default 0)",
    )
    loadtest.add_argument(
        "--name",
        default="smoke",
        help="record id inside the BENCH_loadtest.json file "
        "(default smoke)",
    )
    loadtest.add_argument(
        "--address",
        metavar="HOST:PORT",
        help="drive an external repro serve --tcp front end instead of "
        "starting one inside the test (no shutdown is sent)",
    )
    loadtest.add_argument(
        "--bench-out",
        metavar="PATH",
        help="write the BENCH_loadtest.json trajectory file (PATH may be "
        "a directory; the canonical filename is used)",
    )
    loadtest.add_argument(
        "--max-p95-ms",
        type=float,
        default=None,
        help="fail (exit 1) when p95 latency exceeds this budget",
    )
    loadtest.add_argument(
        "--max-p99-ms",
        type=float,
        default=None,
        help="fail (exit 1) when p99 latency exceeds this budget",
    )
    loadtest.add_argument(
        "--min-goodput",
        type=float,
        default=None,
        metavar="RPS",
        help="fail (exit 1) when goodput drops below this floor",
    )
    loadtest.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the byte-identity check of served results against "
        "direct solves (on by default; lost/divergent always gate)",
    )
    loadtest.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    trace = sub.add_parser(
        "trace",
        help="inspect span logs written by --spans / --trace-spans",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    tree = trace_sub.add_parser(
        "tree", help="render the span tree with critical-path highlighting"
    )
    tree.add_argument("spans", help="span log path (JSONL)")
    tree.add_argument(
        "--depth",
        type=int,
        default=None,
        help="prune subtrees deeper than this (per-round spans get noisy)",
    )
    export = trace_sub.add_parser(
        "export",
        help="convert a span log to Chrome/Perfetto trace_event JSON",
    )
    export.add_argument("spans", help="span log path (JSONL)")
    export.add_argument(
        "-o",
        "--output",
        required=True,
        help="output path for the trace_event JSON "
        "(load it in chrome://tracing or ui.perfetto.dev)",
    )

    top = sub.add_parser(
        "top",
        help="one-shot (or interval) view of a metrics snapshot file, "
        "optionally with the slowest spans of a span log",
    )
    top.add_argument(
        "snapshot",
        help="metrics snapshot JSON written by solve --metrics-out or the "
        "service metrics op with \"full\": true",
    )
    top.add_argument(
        "--spans",
        metavar="PATH",
        help="also show the slowest spans of this span log",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=0.0,
        help="re-read and re-render every INTERVAL seconds (0 = one-shot)",
    )
    top.add_argument(
        "--count",
        type=int,
        default=0,
        help="with --interval: stop after COUNT renders (0 = forever)",
    )

    chaos = sub.add_parser(
        "chaos",
        help="sweep a fault-intensity grid and gate on feasibility and "
        "bounded cost inflation",
    )
    chaos.add_argument("instance", nargs="?", help="instance JSON path")
    _add_instance_source(chaos, require_family=False)
    chaos.add_argument("-k", type=int, default=9, help="round-budget parameter")
    chaos.add_argument(
        "--variant",
        choices=[v.value for v in Variant],
        default=Variant.GREEDY.value,
    )
    chaos.add_argument(
        "--families",
        nargs="+",
        default=None,
        metavar="FAMILY",
        help="fault families to sweep (default: all); see repro.analysis.chaos",
    )
    chaos.add_argument(
        "--intensities",
        nargs="+",
        type=float,
        default=None,
        metavar="X",
        help="intensity grid in (0, 1] (default: 0.05 0.15 0.3)",
    )
    chaos.add_argument(
        "--num-seeds", type=int, default=3, help="seeds per grid cell"
    )
    chaos.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the fault grid (default 1; the report "
        "is identical whatever the value)",
    )
    chaos.add_argument(
        "--no-reliability",
        action="store_true",
        help="disable the ACK/retransmit sublayer (measure the raw protocol)",
    )
    chaos.add_argument(
        "--no-healing",
        action="store_true",
        help="disable in-protocol self-healing",
    )
    chaos.add_argument(
        "--min-feasible-frac",
        type=float,
        default=0.8,
        help="feasibility gate per grid cell (default 0.8)",
    )
    chaos.add_argument(
        "--max-inflation",
        type=float,
        default=3.0,
        help="mean cost-inflation gate per grid cell (default 3.0)",
    )
    chaos.add_argument(
        "-o",
        "--output",
        metavar="PATH",
        help="write the bench_record JSON artifact (repro bench / compare "
        "compatible) to PATH",
    )
    chaos.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    chaos_serve = sub.add_parser(
        "chaos-serve",
        help="run the service-level chaos harness (worker kills, slow "
        "cells, connection drops, malformed frames) against a live "
        "service and gate on exactly-one-terminal-response and "
        "byte-identical results",
    )
    chaos_serve.add_argument(
        "--family",
        choices=sorted(FAMILIES),
        default="uniform",
        help="generator family for the workload (default uniform)",
    )
    chaos_serve.add_argument("-m", "--facilities", type=int, default=6)
    chaos_serve.add_argument("-n", "--clients", type=int, default=15)
    chaos_serve.add_argument(
        "--requests",
        type=int,
        default=12,
        help="workload size; every third request duplicates an earlier "
        "one so dedup is exercised under faults (default 12)",
    )
    chaos_serve.add_argument(
        "-k",
        "--ks",
        nargs="+",
        type=int,
        default=[4, 9],
        metavar="K",
        help="round-budget values cycled across the workload (default 4 9)",
    )
    chaos_serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker processes per batch; 2+ exercises pool respawn "
        "(default 2)",
    )
    chaos_serve.add_argument(
        "--crash-rate",
        type=float,
        default=0.25,
        help="fraction of cells whose first execution kills its worker "
        "(default 0.25)",
    )
    chaos_serve.add_argument(
        "--slow-rate",
        type=float,
        default=0.0,
        help="fraction of cells that stall once before answering "
        "(default 0)",
    )
    chaos_serve.add_argument(
        "--slow-sleep",
        type=float,
        default=0.4,
        help="stall duration for slow cells, seconds (default 0.4)",
    )
    chaos_serve.add_argument(
        "--cell-timeout",
        type=float,
        default=30.0,
        help="per-cell watchdog, seconds; set below --slow-sleep to turn "
        "stalls into watchdog retries (default 30)",
    )
    chaos_serve.add_argument(
        "--drop-every",
        type=int,
        default=0,
        help="with --socket: sever the client connection before every "
        "Nth request (default 0 = never)",
    )
    chaos_serve.add_argument(
        "--malformed-every",
        type=int,
        default=0,
        help="with --socket: inject a malformed frame before every Nth "
        "request (default 0 = never)",
    )
    chaos_serve.add_argument(
        "--socket",
        action="store_true",
        help="drive a real Unix-socket server in a thread instead of the "
        "in-process client (required for drop/malformed injection)",
    )
    chaos_serve.add_argument(
        "--max-attempts",
        type=int,
        default=4,
        help="per-cell execution budget under crash injection (default 4)",
    )
    chaos_serve.add_argument(
        "--seed",
        type=int,
        default=0,
        help="fault-assignment seed (which cells crash/stall is a "
        "deterministic function of it)",
    )
    chaos_serve.add_argument(
        "-o",
        "--output",
        metavar="PATH",
        help="write the bench_record JSON artifact (repro compare "
        "compatible) to PATH",
    )
    chaos_serve.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    return parser


def _experiment_key(experiment_id: str) -> int:
    return int(experiment_id[1:])


def _add_instance_source(
    parser: argparse.ArgumentParser, require_family: bool
) -> None:
    parser.add_argument(
        "--family",
        choices=sorted(FAMILIES),
        required=require_family,
        help="generator family",
    )
    parser.add_argument("-m", "--facilities", type=int, default=10)
    parser.add_argument("-n", "--clients", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0, help="instance seed")


def _add_recipe_arguments(
    parser: argparse.ArgumentParser,
    default_engine: str,
    *,
    engine_help: str,
    shards_help: str,
) -> None:
    """The solve recipe flags shared by ``solve`` and ``record``."""
    parser.add_argument("-k", type=int, default=9, help="round-budget parameter")
    parser.add_argument(
        "--variant",
        choices=[v.value for v in Variant],
        default=Variant.GREEDY.value,
    )
    parser.add_argument("--algo-seed", type=int, default=0, help="algorithm seed")
    parser.add_argument(
        "--rounding",
        choices=["select_all", "randomized"],
        default="select_all",
        help="rounding policy (dual_ascent only)",
    )
    parser.add_argument("--c-round", type=float, default=1.0)
    # Each verb lists its default engine first in --help.
    parser.add_argument(
        "--engine",
        choices=[default_engine]
        + [engine for engine in ENGINES if engine != default_engine],
        default=default_engine,
        help=engine_help,
    )
    parser.add_argument("--shards", type=int, default=1, help=shards_help)


def _load_instance(args: argparse.Namespace) -> FacilityLocationInstance:
    path = getattr(args, "instance", None)
    if path:
        return load_instance_json(path)
    if not args.family:
        raise ReproError(
            "provide an instance JSON path or --family/-m/-n/--seed"
        )
    return make_instance(args.family, args.facilities, args.clients, args.seed)


def _cmd_generate(args: argparse.Namespace) -> int:
    instance = make_instance(args.family, args.facilities, args.clients, args.seed)
    save_instance_json(instance, args.output)
    print(f"wrote {args.output}: {instance}")
    return 0


def _solve_instances(
    args: argparse.Namespace,
) -> tuple[FacilityLocationInstance | None, Any]:
    """Resolve the solve target: ``(dense instance, columnar instance)``.

    With ``--sparse-degree`` the columnar form is generated directly on
    the edge plane and the dense form stays ``None`` — only engines that
    genuinely need the matrix (anything but columnar) materialize it.
    """
    if args.sparse_degree is None:
        return _load_instance(args), None
    if args.instance or args.family:
        raise ReproError(
            "--sparse-degree generates its own instance from -m/-n/--seed; "
            "drop the instance path / --family"
        )
    from repro.core.columnar import ColumnarInstance

    cinst = ColumnarInstance.generate_sparse(
        args.facilities,
        args.clients,
        args.seed,
        client_degree=args.sparse_degree,
    )
    if args.engine == "columnar":
        return None, cinst
    return cinst.to_instance(), cinst


def _cmd_solve(args: argparse.Namespace) -> int:
    instance, cinst = _solve_instances(args)
    simulator = args.engine == "simulator"
    for name, value in (
        ("--trace", args.trace),
        ("--watchdogs", args.watchdogs),
        ("--strict-watchdogs", args.strict_watchdogs),
        ("--spans", args.spans),
    ):
        if value and not simulator:
            raise ReproError(f"{name} requires --engine simulator")
    for name, value in (
        ("--metrics-out", args.metrics_out),
        ("--timeline", args.timeline),
    ):
        if value and args.engine == "loop":
            raise ReproError(
                f"{name} needs a message plane: --engine simulator or columnar"
            )
    lp_value: float | None = None
    if not args.no_lp:
        if instance is None:
            raise ReproError(
                "the LP bound would densify the instance; pass --no-lp "
                "with --sparse-degree + --engine columnar"
            )
        lp_value = solve_lp(instance).value
    sink = JsonlTraceSink(args.trace) if args.trace else None
    watchdogs = ()
    if args.watchdogs or args.strict_watchdogs:
        watchdogs = default_watchdogs(strict=args.strict_watchdogs)
    tracer = None
    if args.spans:
        from repro.obs.spans import Tracer

        tracer = Tracer(profile_memory=args.profile_memory)
    registry = None
    if args.metrics_out:
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
    policy = RoundingPolicy(mode=args.rounding, c_round=args.c_round)
    # Observers only the message-passing simulator feeds. The quality
    # probe (with the LP bound computed above) turns the per-round trace
    # and timeline into an anytime ratio estimate.
    observers: dict[str, Any] = {}
    if simulator:
        observers = {
            "trace": sink,
            "probe_quality": bool(args.trace or args.timeline),
            "lower_bound": lp_value,
            "watchdogs": watchdogs,
            "tracer": tracer,
            "registry": registry,
        }

    def run():
        if instance is None:
            # --sparse-degree on columnar: the edge plane has no dense
            # form, so it is solved where it lives.
            from repro.core.columnar import solve_columnar

            return solve_columnar(
                cinst,
                k=args.k,
                variant=args.variant,
                seed=args.algo_seed,
                rounding=policy,
                shards=args.shards,
            )
        return solve_distributed(
            instance,
            k=args.k,
            variant=args.variant,
            seed=args.algo_seed,
            rounding=policy,
            engine=args.engine,
            shards=args.shards,
            **observers,
        )

    mem_peak_kb: float | None = None
    try:
        if args.profile_memory and tracer is None:
            from repro.obs.spans import measure_peak_memory

            result, mem_peak_kb = measure_peak_memory(run)
        else:
            result = run()
    except ReproError:
        if sink is not None:
            sink.close()
        raise
    metrics = result.metrics
    payload: dict[str, Any] = {
        "instance": (instance or cinst).name,
        "k": args.k,
        "variant": args.variant,
        "engine": args.engine,
        "shards": args.shards,
        "cost": result.cost,
        "feasible": result.feasible,
        "num_open": len(result.open_facilities),
        "rounds": metrics.rounds,
        "total_messages": metrics.total_messages,
        "max_message_bits": metrics.max_message_bits,
        "wall_seconds": result.wall_seconds,
    }
    if instance is not None:
        # A sparse plane's open set runs to thousands of ids; num_open
        # and the digest summarize it instead.
        payload["open_facilities"] = sorted(result.open_facilities)
    if mem_peak_kb is not None:
        payload["mem_peak_kb"] = mem_peak_kb
    if args.digest:
        from repro.obs.recorder import final_checkpoint

        if instance is None:
            assignment, shape = result.assignment, (cinst.m, cinst.n)
        else:
            assignment = result.solution.assignment if result.feasible else {}
            shape = (instance.num_facilities, instance.num_clients)
        payload["digest"] = final_checkpoint(
            result.open_facilities, assignment, *shape
        ).digest
    extras: dict[str, object] = {}
    if lp_value is not None:
        extras["ratio_vs_lp"] = result.cost / max(lp_value, 1e-12)
        payload["ratio_vs_lp"] = extras["ratio_vs_lp"]
    if watchdogs:
        violations = result.diagnostics.get("invariant_violations", 0)
        extras["invariant_violations"] = violations
        payload["invariant_violations"] = violations
    if sink is not None:
        manifest = RunRecord.from_run(
            result,
            seed=args.algo_seed,
            parameters={
                "k": args.k,
                "variant": args.variant,
                "rounding": args.rounding,
                "c_round": args.c_round,
            },
            wall_seconds=result.wall_seconds,
            extras=extras,
        )
        sink.write_json(manifest.to_dict())
        sink.close()
        manifest_file = manifest.write_json(manifest_path_for(args.trace))
        payload["trace"] = args.trace
        payload["manifest"] = str(manifest_file)
    if tracer is not None:
        from repro.obs.spans import write_spans_jsonl

        tracer.close()
        write_spans_jsonl(tracer.export(), args.spans)
        payload["spans"] = args.spans
    if registry is not None:
        from repro.obs.metrics_io import write_snapshot

        # The simulator published into the registry as it ran; the
        # columnar ledger's totals land here.
        metrics.publish(registry)
        write_snapshot(
            registry,
            args.metrics_out,
            meta={
                "command": "solve",
                "engine": args.engine,
                "instance": payload["instance"],
                "k": args.k,
                "variant": args.variant,
            },
        )
        payload["metrics_out"] = args.metrics_out
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        rows = [(key, value) for key, value in payload.items()]
        print(
            render_table(
                ("field", "value"),
                rows,
                title=f"distributed solve ({args.engine})",
            )
        )
    if args.timeline:
        print(result.timeline.render())
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    if args.digests:
        from repro.obs.inspect import inspect_digests

        print(inspect_digests(args.trace, other=args.other))
        return 0
    if args.other:
        raise ReproError(
            "a second artifact is only meaningful with --digests"
        )
    print(inspect_trace(args.trace, slowest=args.slowest))
    return 0


def _cmd_record(args: argparse.Namespace) -> int:
    from repro.obs.recorder import record_run

    instance = _load_instance(args)
    recording = record_run(
        instance,
        engine=args.engine,
        k=args.k,
        variant=args.variant,
        seed=args.algo_seed,
        rounding=args.rounding,
        c_round=args.c_round,
        full=args.full,
        shards=args.shards,
    )
    target = recording.write_json(args.output)
    print(
        f"wrote {target}: engine={args.engine} "
        f"checkpoints={len(recording.checkpoints)} "
        f"final={recording.final_digest()}"
    )
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.obs.recorder import (
        diff_recordings,
        load_recording,
        replay_recording,
    )

    original = load_recording(args.recording)
    replayed = replay_recording(original, engine=args.engine)
    report = diff_recordings(original, replayed)
    if report.identical:
        print(
            f"replay identical: {report.compared} checkpoint(s), "
            f"final={original.final_digest()}"
        )
        return 0
    print(report.render())
    print("error: replay diverged from the recording", file=sys.stderr)
    return 1


def _cmd_divergence(args: argparse.Namespace) -> int:
    from repro.obs.recorder import diff_recordings, load_recording

    report = diff_recordings(
        load_recording(args.left), load_recording(args.right)
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return 0 if report.identical else 1


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.obs.recorder import load_recording

    recording = load_recording(args.recording)
    if recording.provenance is None:
        raise ReproError(
            f"{args.recording} carries no provenance log; re-record "
            "with `repro record --full --engine loop`"
        )
    print(recording.provenance.explain(args.actor))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    thresholds = dict(parse_threshold(spec) for spec in args.threshold)
    reports = compare_paths(
        args.old,
        args.new,
        thresholds=thresholds,
        default_threshold=args.default_threshold,
    )
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        print("\n\n".join(r.render() for r in reports))
    regressions = sum(len(r.regressions) for r in reports)
    if regressions:
        print(
            f"error: {regressions} metric(s) regressed past threshold",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.suite:
        from repro.perf.suite import run_perf_suite

        target = run_perf_suite(
            args.suite,
            workers=args.workers,
            out=args.output,
            name=args.name,
            max_nodes=args.max_nodes,
        )
        print(f"wrote {target} (suite={args.suite}, workers={args.workers})")
        return 0
    if not args.source:
        print("error: give an artifact source or --suite", file=sys.stderr)
        return 2
    if not args.name:
        print("error: --name is required without --suite", file=sys.stderr)
        return 2
    records = collect_records(args.source)
    target = write_bench(args.name, records, args.output)
    print(f"wrote {target}: {len(records)} record(s)")
    return 0


def _cmd_baselines(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    lp = solve_lp(instance)
    bound = max(lp.value, 1e-12)
    rows: list[tuple[str, float, float]] = []

    def add(label: str, cost: float) -> None:
        rows.append((label, cost, cost / bound))

    add("greedy", greedy_solve(instance).cost)
    add("jain_vazirani", jain_vazirani_solve(instance).cost)
    add("mettu_plaxton", mettu_plaxton_solve(instance).cost)
    add("local_search", local_search_solve(instance).cost)
    if instance.is_complete_bipartite():
        add("lp_rounding", lp_rounding_solve(instance, lp=lp).cost)
    if instance.num_facilities <= 16:
        add("exact", exact_solve(instance).cost)
    rows.append(("lp_lower_bound", lp.value, 1.0))
    print(
        render_table(
            ("algorithm", "cost", "ratio_vs_lp"),
            rows,
            title=f"baselines on {instance.name}",
        )
    )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    import inspect

    from repro.perf.executor import SweepExecutor

    runner = _EXPERIMENTS[args.id]
    kwargs: dict[str, Any] = {"quick": args.quick}
    if args.workers > 1:
        # The timing experiments (E3/E4/E9) measure the serial protocol
        # itself and take no executor; --workers is a no-op for them.
        if "executor" in inspect.signature(runner).parameters:
            kwargs["executor"] = SweepExecutor(workers=args.workers)
        else:
            print(
                f"note: {args.id} has no parallel sweep; ignoring --workers",
                file=sys.stderr,
            )
    result = runner(**kwargs)
    print(result.table)
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.analysis.chaos import (
        DEFAULT_INTENSITIES,
        FAULT_FAMILIES,
        ChaosGates,
        run_chaos,
    )
    from repro.core.healing import SelfHealingPolicy
    from repro.net.reliability import ReliabilityPolicy
    from repro.perf.executor import SweepExecutor

    instance = _load_instance(args)
    report = run_chaos(
        instance,
        k=args.k,
        variant=args.variant,
        families=tuple(args.families) if args.families else FAULT_FAMILIES,
        intensities=(
            tuple(args.intensities) if args.intensities else DEFAULT_INTENSITIES
        ),
        seeds=tuple(range(args.num_seeds)),
        reliability=None if args.no_reliability else ReliabilityPolicy(),
        healing=None if args.no_healing else SelfHealingPolicy(),
        gates=ChaosGates(
            min_feasible_frac=args.min_feasible_frac,
            max_cost_inflation=args.max_inflation,
        ),
        executor=SweepExecutor(workers=args.workers),
    )
    result = report.to_experiment_result()
    if args.output:
        Path(args.output).parent.mkdir(parents=True, exist_ok=True)
        Path(args.output).write_text(json.dumps(result.to_record(), indent=2))
    if args.json:
        payload = {
            "passed": report.passed,
            "failures": report.failures(),
            "baseline_cost": report.baseline_cost,
            "record": result.to_record(),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(result.table)
        if args.output:
            print(f"wrote {args.output}")
    if not report.passed:
        for failure in report.failures():
            print(
                f"error: gate {failure['gate']} failed for "
                f"family={failure['family']} intensity={failure['intensity']}: "
                f"observed {failure['observed']:.3f} vs threshold "
                f"{failure['threshold']:.3f}",
                file=sys.stderr,
            )
        return 1
    return 0


def _cmd_chaos_serve(args: argparse.Namespace) -> int:
    from repro.analysis.chaos_serve import (
        ChaosServePlan,
        build_chaos_workload,
        run_chaos_serve,
    )

    if (args.drop_every or args.malformed_every) and not args.socket:
        print(
            "error: --drop-every/--malformed-every inject transport faults "
            "and need --socket",
            file=sys.stderr,
        )
        return 2
    plan = ChaosServePlan(
        crash_rate=args.crash_rate,
        slow_rate=args.slow_rate,
        slow_sleep_s=args.slow_sleep,
        drop_every=args.drop_every,
        malformed_every=args.malformed_every,
        seed=args.seed,
    )
    requests = build_chaos_workload(
        family=args.family,
        num_facilities=args.facilities,
        num_clients=args.clients,
        ks=tuple(args.ks),
        num_requests=args.requests,
    )
    report = run_chaos_serve(
        requests=requests,
        plan=plan,
        workers=args.workers,
        max_attempts=args.max_attempts,
        cell_timeout_s=args.cell_timeout,
        use_socket=args.socket,
    )
    result = report.to_experiment_result()
    if args.output:
        Path(args.output).parent.mkdir(parents=True, exist_ok=True)
        Path(args.output).write_text(json.dumps(result.to_record(), indent=2))
    if args.json:
        payload = {
            "passed": report.passed,
            "failures": report.failures(),
            "statuses": dict(report.statuses),
            "injected": dict(report.injected),
            "client_stats": dict(report.client_stats),
            "record": result.to_record(),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(result.table)
        if args.output:
            print(f"wrote {args.output}")
    if not report.passed:
        for failure in report.failures():
            print(
                f"error: gate {failure['gate']} failed: "
                f"{json.dumps({k: v for k, v in failure.items() if k != 'gate'})}",
                file=sys.stderr,
            )
        return 1
    return 0


def _install_drain_handler() -> Any | None:
    """SIGTERM → a ``threading.Event`` the serve loops poll for drain.

    Returns ``None`` when signal delivery is unavailable (not the main
    thread, restricted platform); the server then simply has no
    signal-triggered drain path, which is how embedded use works anyway.
    """
    import signal
    import threading

    drain_signal = threading.Event()

    def _on_sigterm(signum: int, frame: Any) -> None:
        drain_signal.set()

    try:
        signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:  # not the main thread
        return None
    return drain_signal


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ServiceConfig, SolveService, serve_jsonl, serve_socket

    if args.socket and args.tcp:
        print("error: --socket and --tcp are mutually exclusive", file=sys.stderr)
        return 2
    if args.service_workers > 1 and (args.trace_spans or args.slo):
        # Router workers keep private registries; span/SLO aggregation
        # across them is not wired up yet.
        print(
            "error: --trace-spans/--slo are single-service features; "
            "drop them or use --service-workers 1",
            file=sys.stderr,
        )
        return 2
    tracer = None
    if args.trace_spans:
        from repro.obs.spans import Tracer

        tracer = Tracer(profile_memory=args.profile_memory)
    service_config = ServiceConfig(
        max_queue_depth=args.max_depth,
        max_batch_size=args.batch_size,
        workers=args.workers,
        result_ttl_s=args.ttl if args.ttl > 0 else None,
        max_results=args.max_results,
        profile_memory=args.profile_memory,
        high_water=args.high_water,
        max_solve_attempts=args.max_attempts,
        cell_timeout_s=args.cell_timeout,
        rate_limit_per_client=args.rate_limit,
        rate_limit_burst=args.rate_burst,
    )
    service: Any
    if args.service_workers > 1:
        from repro.service import RouterConfig, ServiceRouter

        service = ServiceRouter(
            config=RouterConfig(
                num_workers=args.service_workers,
                replicas=args.hash_replicas,
                shared_cache_ttl_s=(
                    args.shared_cache_ttl if args.shared_cache_ttl > 0 else None
                ),
                shared_cache_entries=args.shared_cache_size,
            ),
            service_config=service_config,
        )
        print(
            f"routing across {args.service_workers} service workers "
            f"({args.hash_replicas} ring replicas each)",
            file=sys.stderr,
        )
    else:
        service = SolveService(config=service_config, tracer=tracer)
    drain_signal = _install_drain_handler()
    if args.tcp:
        from repro.service import parse_hostport, serve_tcp

        host, port = parse_hostport(args.tcp)
        serve_tcp(
            service,
            host,
            port,
            on_bound=lambda bound: print(
                f"serving on tcp {host}:{bound}", file=sys.stderr, flush=True
            ),
            drain_signal=drain_signal,
            drain_timeout_s=args.drain_timeout,
        )
    elif args.socket:
        print(f"serving on unix socket {args.socket}", file=sys.stderr)
        serve_socket(
            service,
            args.socket,
            drain_signal=drain_signal,
            drain_timeout_s=args.drain_timeout,
        )
    else:
        serve_jsonl(
            service,
            sys.stdin,
            sys.stdout,
            emit_metrics=args.metrics,
            drain_signal=drain_signal,
            drain_timeout_s=args.drain_timeout,
        )
    if tracer is not None:
        from repro.obs.spans import write_spans_jsonl

        tracer.close()
        write_spans_jsonl(tracer.export(), args.trace_spans)
        print(
            f"wrote {len(tracer.finished)} span(s) to {args.trace_spans}",
            file=sys.stderr,
        )
    if args.slo:
        from repro.obs.slo import SLOMonitor, load_slo_spec

        monitor = SLOMonitor(service.registry, load_slo_spec(args.slo))
        print(monitor.render(), file=sys.stderr)
        if not monitor.all_ok():
            print("error: SLO violation", file=sys.stderr)
            return 1
    return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    from repro.analysis.loadgen import LoadShape, run_loadtest
    from repro.obs.bench import write_bench

    shape = LoadShape(
        name=args.name,
        mode=args.mode,
        num_users=args.users,
        requests_per_user=args.requests,
        arrival_rate_rps=args.arrival_rate,
        burstiness=args.burstiness,
        zipf_s=args.zipf,
        catalog_size=args.catalog,
        num_facilities=args.facilities,
        num_clients=args.clients,
        deadline_fraction=args.deadline_fraction,
        low_priority_fraction=args.low_priority_fraction,
        high_priority_fraction=args.high_priority_fraction,
        seed=args.seed,
    )
    report = run_loadtest(
        shape,
        service_workers=args.service_workers,
        address=args.address,
        check_correctness=not args.no_verify,
    )
    failures = report.gate_failures(
        max_p95_ms=args.max_p95_ms,
        max_p99_ms=args.max_p99_ms,
        min_goodput_rps=args.min_goodput,
    )
    if args.bench_out:
        target = write_bench(
            "loadtest", {shape.name: report.bench_record()}, args.bench_out
        )
    if args.json:
        payload = {
            "passed": not failures,
            "failures": failures,
            "record": report.bench_record(),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(report.render())
        if args.bench_out:
            print(f"wrote {target}")
    if failures:
        for failure in failures:
            print(f"error: loadtest gate failed: {failure}", file=sys.stderr)
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.spans import (
        load_spans_jsonl,
        render_span_tree,
        write_chrome_trace,
    )

    spans = load_spans_jsonl(args.spans)
    if args.trace_command == "tree":
        if not spans:
            print("(empty span log)")
            return 0
        print(render_span_tree(spans, max_depth=args.depth))
        return 0
    target = write_chrome_trace(spans, args.output)
    print(f"wrote {target}: {len(spans)} span(s) as trace_event JSON")
    return 0


def _labels_suffix(entry: dict[str, Any]) -> str:
    labels = entry.get("labels") or {}
    if not labels:
        return ""
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{{{inner}}}="


def _render_top(args: argparse.Namespace) -> str:
    from repro.obs.metrics_io import load_snapshot

    payload = load_snapshot(args.snapshot)
    rows: list[tuple[str, str, str]] = []
    for name, data in sorted(payload.get("metrics", {}).items()):
        kind = str(data.get("type", "?"))
        values = data.get("values", [])
        if kind == "counter":
            rows.append((name, kind, f"{float(data.get('total', 0.0)):g}"))
        elif kind == "gauge":
            rendered = " ".join(
                f"{_labels_suffix(entry)}{float(entry.get('value', 0.0)):g}"
                for entry in values
            )
            rows.append((name, kind, rendered or "-"))
        elif kind == "histogram":
            count = sum(int(entry.get("count", 0)) for entry in values)
            total = sum(float(entry.get("sum", 0.0)) for entry in values)
            mean = total / count if count else 0.0
            rows.append((name, kind, f"n={count} mean={mean:.4g}"))
        else:
            rows.append((name, kind, ""))
    out = render_table(
        ("instrument", "kind", "value"),
        rows,
        title=f"metrics snapshot {args.snapshot}",
    )
    if args.spans:
        from repro.obs.spans import load_spans_jsonl

        spans = load_spans_jsonl(args.spans)
        slowest = sorted(spans, key=lambda s: -s.duration_s)[:10]
        span_rows = [
            (span.name, f"{span.duration_s * 1e3:.2f} ms", span.status)
            for span in slowest
        ]
        out += "\n" + render_table(
            ("span", "wall", "status"),
            span_rows,
            title=f"slowest spans of {args.spans}",
        )
    return out


def _cmd_top(args: argparse.Namespace) -> int:
    import time as _time

    renders = 0
    while True:
        print(_render_top(args))
        renders += 1
        if args.interval <= 0:
            return 0
        if args.count and renders >= args.count:
            return 0
        _time.sleep(args.interval)


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import generate_report

    generate_report(Path(args.output), quick=args.quick)
    print(f"wrote {args.output}")
    return 0


_HANDLERS = {
    "generate": _cmd_generate,
    "solve": _cmd_solve,
    "inspect": _cmd_inspect,
    "record": _cmd_record,
    "replay": _cmd_replay,
    "divergence": _cmd_divergence,
    "explain": _cmd_explain,
    "compare": _cmd_compare,
    "bench": _cmd_bench,
    "baselines": _cmd_baselines,
    "experiment": _cmd_experiment,
    "chaos": _cmd_chaos,
    "chaos-serve": _cmd_chaos_serve,
    "report": _cmd_report,
    "serve": _cmd_serve,
    "loadtest": _cmd_loadtest,
    "trace": _cmd_trace,
    "top": _cmd_top,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
