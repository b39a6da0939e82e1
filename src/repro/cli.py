"""Command-line interface.

Everything the library does is reachable from the shell::

    repro generate --family euclidean -m 20 -n 60 --seed 3 -o inst.json
    repro solve inst.json -k 16 --variant greedy
    repro solve --family uniform -m 20 -n 60 --seed 3 -k 16
    repro solve inst.json -k 16 --trace run.jsonl --timeline --no-lp
    repro solve inst.json -k 16 --watchdogs --trace run.jsonl
    repro inspect run.jsonl
    repro compare old.manifest.json new.manifest.json --threshold cost=1.05
    repro bench --suite micro -o benchmarks/baselines
    repro bench --suite scale --max-nodes 100000 -o .
    repro solve --sparse-degree 3 -m 2000 -n 98000 --seed 7 -k 8 \\
        --engine columnar --shards 2 --no-lp --digest
    repro baselines inst.json
    repro experiment E3 --quick
    repro experiment all --quick -o benchmarks/_artifacts
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
    repro inspect run.rec.json
    repro explain full.rec.json facility:3

(Installed as the ``repro`` console script; also runnable as
``python -m repro.cli``.)
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import json
import sys
from pathlib import Path
from typing import Any, Callable

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
from repro.core.algorithm import ENGINES, Variant, check_engine, solve_distributed
from repro.core.dual_ascent_nodes import RoundingPolicy
from repro.exceptions import ReproError
from repro.fl.generators import FAMILIES, make_instance
from repro.fl.instance import FacilityLocationInstance
from repro.fl.io import load_instance_json, save_instance_json
from repro.obs.bench import write_bench
from repro.obs.compare import compare_paths, parse_threshold
from repro.obs.inspect import inspect_trace
from repro.obs.manifest import RunRecord, manifest_path_for
from repro.obs.sinks import JsonlTraceSink
from repro.obs.watchdogs import default_watchdogs
from repro.perf.executor import SweepExecutor

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests and docs tooling)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed facility-location approximation (PODC 2005 reproduction).",
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_VerbParser
    )

    gen = sub.add_parser("generate", help="generate an instance to JSON")
    _add_instance_source(gen, require_family=True)
    gen.add_argument("-o", "--output", required=True, help="output JSON path")

    solve = sub.add_parser("solve", help="run the distributed algorithm")
    solve.add_argument("instance", nargs="?", help="instance JSON path")
    _add_instance_source(solve)
    _add_recipe_arguments(
        solve,
        default_engine="simulator",
        engine_help="execution engine: the emulation engines skip network "
        "simulation, and columnar scales to million-node instances",
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
    _add_json(solve)
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

    inspect_cmd = sub.add_parser(
        "inspect",
        help="summarize a JSONL trace written by solve --trace, or the "
        "state digests of a recording written by repro record",
    )
    inspect_cmd.add_argument(
        "trace",
        help="JSONL trace path, or a flight-recording JSON (detected from "
        "its content)",
    )
    inspect_cmd.add_argument(
        "--slowest", type=int, default=5, help="how many slowest rounds to show"
    )

    record = sub.add_parser(
        "record",
        help="run one solve under the deterministic flight recorder and "
        "write the recording artifact",
    )
    record.add_argument("instance", nargs="?", help="instance JSON path")
    _add_instance_source(record)
    _add_recipe_arguments(
        record,
        default_engine="loop",
        engine_help="which engine to record",
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
    _add_json(divergence)

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
    _add_json(compare)

    bench = sub.add_parser(
        "bench",
        help="run a perf suite and write its versioned BENCH_<name>.json",
    )
    bench.add_argument(
        "--suite",
        choices=["micro", "scale"],
        required=True,
        help="the perf suite to run: micro times the engines and the "
        "simulator, scale the columnar ladder; exits 1 and writes nothing "
        "when the engines disagree (see docs/PERFORMANCE.md)",
    )
    bench.add_argument(
        "--max-nodes",
        type=int,
        default=None,
        help="scale suite only: skip rungs whose m+n exceeds this "
        "(CI runs the reduced ladder; the committed baseline is full)",
    )
    _add_flag(
        bench,
        "-o",
        "--output",
        default=".",
        help="output directory or explicit file path",
    )

    base = sub.add_parser("baselines", help="run every sequential baseline")
    base.add_argument("instance", nargs="?", help="instance JSON path")
    _add_instance_source(base)

    expcmd = sub.add_parser(
        "experiment", help="run one experiment E1..E17, or all of them"
    )
    expcmd.add_argument("id", choices=[*exp.EXPERIMENTS, "all"])
    expcmd.add_argument("--quick", action="store_true")
    _add_config_flags(expcmd, SweepExecutor)
    expcmd.add_argument(
        "-o",
        "--output",
        metavar="DIR",
        help="also write each experiment's table (ID.txt) and BENCH record "
        "(ID.json) into DIR",
    )

    report = sub.add_parser("report", help="regenerate EXPERIMENTS.md")
    report.add_argument("output", nargs="?", default="EXPERIMENTS.md")
    report.add_argument("--quick", action="store_true")

    sub.add_parser(
        "serve",
        help="run the batched solve service (JSONL on stdin/stdout, or a "
        "Unix socket with --socket); see docs/ARCHITECTURE.md",
        argument_default=argparse.SUPPRESS,
        add_flags=_serve_flags,
    )
    sub.add_parser(
        "loadtest",
        help="drive a deterministic traffic shape against a multi-worker "
        "TCP front end, measure latency quantiles and goodput, verify "
        "served results against direct solves, and emit a "
        "BENCH_loadtest.json record for repro compare gating",
        argument_default=argparse.SUPPRESS,
        add_flags=_loadtest_flags,
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
        help="one-shot view of a metrics snapshot file, "
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

    sub.add_parser(
        "chaos",
        help="sweep a fault-intensity grid and gate on feasibility and "
        "bounded cost inflation",
        add_flags=_chaos_flags,
    )
    sub.add_parser(
        "chaos-serve",
        help="run the service-level chaos harness (worker kills, slow "
        "cells, connection drops, malformed frames) against a live "
        "service and gate on exactly-one-terminal-response and "
        "byte-identical results",
        argument_default=argparse.SUPPRESS,
        add_flags=_chaos_serve_flags,
    )
    return parser


class _VerbParser(argparse.ArgumentParser):
    """A verb's parser; ``add_flags(parser)`` runs on its first parse or help.

    The serve, loadtest, chaos and chaos-serve flags are read from their
    library modules' dataclass fields and signatures, so a verb imports
    those modules only when it is used, not whenever the tree is built.
    """

    def __init__(
        self,
        *args: Any,
        add_flags: Callable[[argparse.ArgumentParser], None] | None = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(*args, **kwargs)
        self._add_flags = add_flags

    def _flags(self) -> None:
        add_flags, self._add_flags = self._add_flags, None
        if add_flags is not None:
            add_flags(self)

    def parse_known_args(self, args: Any = None, namespace: Any = None) -> Any:
        self._flags()
        return super().parse_known_args(args, namespace)

    def format_help(self) -> str:
        self._flags()
        return super().format_help()


def _serve_flags(serve: argparse.ArgumentParser) -> None:
    from repro.service import RouterConfig, ServiceConfig

    address = serve.add_mutually_exclusive_group()
    address.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="bind a Unix domain socket at PATH instead of serving stdin",
    )
    address.add_argument(
        "--tcp",
        default=None,
        metavar="HOST:PORT",
        help="bind a TCP socket instead of serving stdin (port 0 picks an "
        "ephemeral port, printed to stderr); connections are served "
        "concurrently",
    )
    # `repro serve` runs without a router unless --service-workers asks.
    _add_config_flags(serve, RouterConfig, num_workers=1)
    _add_config_flags(serve, ServiceConfig)
    serve.add_argument(
        "--metrics",
        action="store_true",
        default=False,
        help="append one metrics-summary line at EOF (stdin mode only)",
    )
    serve.add_argument(
        "--trace-spans",
        default=None,
        metavar="PATH",
        help="trace every request through the pipeline and write the span "
        "log (JSONL) to PATH when the server exits",
    )
    serve.add_argument(
        "--slo",
        default=None,
        metavar="SPEC",
        help="evaluate SLOs when the server exits and fail (exit 1) on "
        "violation; SPEC is a JSON file or the literal 'default' "
        "(availability 99%%, p95 latency under 2s)",
    )


def _loadtest_flags(loadtest: argparse.ArgumentParser) -> None:
    from repro.analysis.loadgen import LoadShape, run_loadtest

    _add_config_flags(loadtest, LoadShape)
    _add_keyword_flag(
        loadtest,
        run_loadtest,
        "--service-workers",
        type=int,
        metavar="K",
        help="backend workers behind the router started for the test "
        "(ignored with --address)",
    )
    loadtest.add_argument(
        "--address",
        metavar="HOST:PORT",
        help="drive an external repro serve --tcp front end instead of "
        "starting one inside the test (no shutdown is sent)",
    )
    _add_output(loadtest, "loadtest")
    loadtest.add_argument(
        "--max-p95-ms",
        type=float,
        help="fail (exit 1) when p95 latency exceeds this budget",
    )
    loadtest.add_argument(
        "--max-p99-ms",
        type=float,
        help="fail (exit 1) when p99 latency exceeds this budget",
    )
    loadtest.add_argument(
        "--min-goodput",
        dest="min_goodput_rps",
        type=float,
        metavar="RPS",
        help="fail (exit 1) when goodput drops below this floor",
    )
    _add_json(loadtest)


def _chaos_flags(chaos: argparse.ArgumentParser) -> None:
    from repro.analysis.chaos import ChaosGates, run_chaos

    chaos.add_argument("instance", nargs="?", help="instance JSON path")
    _add_instance_source(chaos)
    _add_budget_arguments(chaos)
    _add_keyword_flag(
        chaos,
        run_chaos,
        "--families",
        nargs="+",
        metavar="FAMILY",
        help="fault families to sweep; see repro.analysis.chaos",
    )
    _add_keyword_flag(
        chaos,
        run_chaos,
        "--intensities",
        nargs="+",
        type=float,
        metavar="X",
        help="intensity grid in (0, 1]",
    )
    _add_keyword_flag(
        chaos,
        run_chaos,
        "--num-seeds",
        type=_seed_range,
        dest="seeds",
        metavar="NUM_SEEDS",
        shown=len,
        help="seeds per grid cell",
    )
    _add_config_flags(chaos, SweepExecutor)
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
    _add_config_flags(chaos, ChaosGates)
    _add_output(chaos, "chaos")
    _add_json(chaos)


def _chaos_serve_flags(chaos_serve: argparse.ArgumentParser) -> None:
    from repro.analysis.chaos_serve import (
        ChaosServePlan,
        build_chaos_workload,
        run_chaos_serve,
    )

    workload = functools.partial(
        _add_keyword_flag, chaos_serve, build_chaos_workload
    )
    workload(
        "--family",
        choices=sorted(FAMILIES),
        help="generator family for the workload",
    )
    workload(
        "-m",
        "--facilities",
        dest="num_facilities",
        type=int,
        metavar="FACILITIES",
        help="facilities of every workload instance",
    )
    workload(
        "-n",
        "--clients",
        dest="num_clients",
        type=int,
        metavar="CLIENTS",
        help="clients of every workload instance",
    )
    workload(
        "--requests",
        dest="num_requests",
        type=int,
        metavar="REQUESTS",
        help="workload size; every third request duplicates an earlier "
        "one so dedup is exercised under faults",
    )
    workload(
        "-k",
        "--ks",
        nargs="+",
        type=int,
        metavar="K",
        help="round-budget values cycled across the workload",
    )
    run = functools.partial(_add_keyword_flag, chaos_serve, run_chaos_serve)
    run(
        "--workers",
        type=int,
        help="worker processes per batch; 2+ exercises pool respawn",
    )
    run(
        "--max-attempts",
        type=int,
        help="per-cell execution budget under crash injection",
    )
    run(
        "--cell-timeout",
        dest="cell_timeout_s",
        type=float,
        metavar="CELL_TIMEOUT",
        help="per-cell watchdog, seconds; set below --slow-sleep to turn "
        "stalls into watchdog retries",
    )
    run(
        "--socket",
        dest="use_socket",
        action="store_true",
        help="drive a real Unix-socket server in a thread instead of the "
        "in-process client (required for drop/malformed injection)",
    )
    _add_config_flags(chaos_serve, ChaosServePlan)
    _add_output(chaos_serve, "chaos_serve")
    _add_json(chaos_serve)


def _add_instance_source(
    parser: argparse.ArgumentParser, require_family: bool = False
) -> None:
    """The instance shape ``--family/-m/-n/--seed``."""
    parser.add_argument(
        "--family",
        choices=sorted(FAMILIES),
        required=require_family,
        help="generator family",
    )
    parser.add_argument("-m", "--facilities", type=int, default=10)
    parser.add_argument("-n", "--clients", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0, help="instance seed")


def _add_budget_arguments(parser: argparse.ArgumentParser) -> None:
    """``-k`` and ``--variant``: what every solving verb runs."""
    parser.add_argument("-k", type=int, default=9, help="round-budget parameter")
    parser.add_argument(
        "--variant",
        choices=[v.value for v in Variant],
        default=Variant.GREEDY.value,
    )


def _add_recipe_arguments(
    parser: argparse.ArgumentParser,
    default_engine: str,
    *,
    engine_help: str,
    shards_help: str,
) -> None:
    """The solve recipe flags shared by ``solve`` and ``record``."""
    _add_budget_arguments(parser)
    parser.add_argument("--algo-seed", type=int, default=0, help="algorithm seed")
    _add_config_flags(parser, RoundingPolicy)
    # Each verb lists its default engine first in --help.
    _add_flag(
        parser,
        "--engine",
        choices=[default_engine]
        + [engine for engine in ENGINES if engine != default_engine],
        default=default_engine,
        help=engine_help,
    )
    parser.add_argument("--shards", type=int, default=1, help=shards_help)


def _add_json(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json", action="store_true", default=False, help="machine-readable output"
    )


def _print_output(args: argparse.Namespace, data: Any, text: str) -> None:
    """Print ``data`` as JSON under ``--json``, else the human ``text``."""
    print(json.dumps(data, indent=2) if args.json else text)


# A flag that feeds a config dataclass or a library call leaves its
# default to it: the flag's dest is the field or keyword name, and it
# defaults to argparse.SUPPRESS, for the whole verb (serve, loadtest,
# chaos-serve set argument_default) or per flag, so an omitted flag is
# absent from the namespace and `_options` passes on only the flags that
# were set. Every help states the default that is actually used.


def _add_config_flags(
    parser: argparse.ArgumentParser, config: type, **defaults: Any
) -> None:
    """Add the flag of each field of ``config`` that declares one.

    See :mod:`repro.flags`. ``defaults`` overrides a field's default
    for this verb.
    """
    parser.set_defaults(**defaults)
    for spec in dataclasses.fields(config):
        if "flag" not in spec.metadata:
            continue
        default = defaults.get(spec.name, spec.default)
        kwargs = dict(spec.metadata["argparse"])
        if isinstance(default, bool):
            kwargs["action"] = "store_true"
        else:
            kwargs.setdefault("type", type(default))
            if "choices" not in kwargs:
                # The metavar argparse derives from the flag, not the field.
                name = spec.metadata["flag"][-1].lstrip("-")
                kwargs.setdefault("metavar", name.replace("-", "_").upper())
        action = parser.add_argument(
            *spec.metadata["flag"],
            dest=spec.name,
            default=argparse.SUPPRESS,
            help=spec.metadata["help"],
            **kwargs,
        )
        _state_default(action, default)


def _add_keyword_flag(
    parser: argparse.ArgumentParser,
    function: Callable[..., Any],
    *names: str,
    shown: Callable[[Any], Any] | None = None,
    **kwargs: Any,
) -> None:
    """Add a flag that sets ``function``'s keyword of the same name.

    The help states the keyword's default, passed through ``shown``
    when the flag spells it differently.
    """
    action = parser.add_argument(*names, default=argparse.SUPPRESS, **kwargs)
    default = inspect.signature(function).parameters[action.dest].default
    _state_default(action, default if shown is None else shown(default))


def _add_flag(parser: argparse.ArgumentParser, *names: str, **kwargs: Any) -> None:
    """Add a flag whose help states the default argparse gives it."""
    action = parser.add_argument(*names, **kwargs)
    _state_default(action, action.default)


def _state_default(action: argparse.Action, default: Any) -> None:
    """End ``action``'s help with ``default`` (a switch states none)."""
    if not isinstance(default, bool):
        action.help = f"{action.help} (default {_shown(default)})"


def _shown(value: Any) -> str:
    if value is None:
        return "disabled"
    if isinstance(value, float):
        return f"{value:g}"
    if isinstance(value, (tuple, list)):
        return " ".join(_shown(item) for item in value)
    return str(value)


def _options(args: argparse.Namespace, target: Callable[..., Any]) -> dict[str, Any]:
    """The optional parameters of ``target`` (a function or a config
    dataclass) that the command line set, by name."""
    return {
        name: getattr(args, name)
        for name, parameter in inspect.signature(target).parameters.items()
        if parameter.default is not inspect.Parameter.empty
        and hasattr(args, name)
    }


def _add_output(parser: argparse.ArgumentParser, name: str) -> None:
    """A gated verb's ``-o``: where ``_finish_gated`` writes its BENCH file."""
    parser.set_defaults(bench_name=name)
    parser.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="PATH",
        help=f"write the BENCH_{name}.json record that repro compare "
        "reads (PATH may be a directory; the canonical filename is used)",
    )


def _seed_range(text: str) -> tuple[int, ...]:
    """``--num-seeds N`` as the seeds ``0 .. N-1``."""
    return tuple(range(int(text)))


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
    for name, value in (
        ("--metrics-out", args.metrics_out),
        ("--timeline", args.timeline),
    ):
        if value and args.engine == "loop":
            raise ReproError(
                f"{name} needs a message plane: --engine simulator or columnar"
            )
    watch = args.watchdogs or args.strict_watchdogs
    # The simulator's own observers: the engine check refuses each one
    # asked for on another engine, before any file is opened.
    asked = {"trace": args.trace, "watchdogs": watch, "tracer": args.spans}
    check_engine(args.engine, args.shards, [name for name in asked if asked[name]])
    lp_value: float | None = None
    if not args.no_lp:
        if instance is None:
            raise ReproError(
                "the LP bound would densify the instance; pass --no-lp "
                "with --sparse-degree + --engine columnar"
            )
        lp_value = solve_lp(instance).value
    sink = JsonlTraceSink(args.trace) if args.trace else None
    watchdogs = default_watchdogs(strict=args.strict_watchdogs) if watch else ()
    tracer = None
    if args.spans:
        from repro.obs.spans import Tracer

        tracer = Tracer(profile_memory=args.profile_memory)
    registry = None
    if args.metrics_out:
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
    observers: dict[str, Any] = {
        name: value
        for name, value in (
            ("trace", sink), ("watchdogs", watchdogs), ("tracer", tracer)
        )
        if asked[name]
    }
    if registry is not None:
        # Both engines with a message plane publish their totals into it.
        observers["registry"] = registry
    if args.engine == "simulator":
        # The quality probe (with the LP bound above) turns the per-round
        # trace and timeline into an anytime ratio estimate.
        observers.update(
            probe_quality=bool(args.trace or args.timeline),
            lower_bound=lp_value,
        )
    policy = RoundingPolicy(**_options(args, RoundingPolicy))

    def run():
        if instance is None:
            # --sparse-degree on columnar: the edge plane has no dense
            # form, so it is solved where it lives.
            from repro.core.columnar import solve_columnar

            solved = solve_columnar(
                cinst,
                k=args.k,
                variant=args.variant,
                seed=args.algo_seed,
                rounding=policy,
                shards=args.shards,
            )
            if registry is not None:
                solved.metrics.publish(registry)
            return solved
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
                "rounding": policy.mode,
                "c_round": policy.c_round,
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
    _print_output(
        args,
        payload,
        render_table(
            ("field", "value"),
            list(payload.items()),
            title=f"distributed solve ({args.engine})",
        ),
    )
    if args.timeline:
        print(result.timeline.render())
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.obs.inspect import inspect_digests
    from repro.obs.recorder import RECORDING_SCHEMA

    # A recording is one JSON object; a trace is JSON lines, which fail
    # to parse as one document.
    try:
        document = json.loads(Path(args.trace).read_text())
    except (OSError, ValueError):
        document = None
    if isinstance(document, dict) and document.get("schema") == RECORDING_SCHEMA:
        print(inspect_digests(args.trace))
    else:
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
        rounding=RoundingPolicy(**_options(args, RoundingPolicy)),
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
    _print_output(args, report.to_dict(), report.render())
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
    _print_output(
        args,
        [r.to_dict() for r in reports],
        "\n\n".join(r.render() for r in reports),
    )
    regressions = sum(len(r.regressions) for r in reports)
    if regressions:
        print(
            f"error: {regressions} metric(s) regressed or failed their gate",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.perf.suite import run_perf_suite

    target = run_perf_suite(args.suite, out=args.output, max_nodes=args.max_nodes)
    print(f"wrote {target} (suite={args.suite})")
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
    ids = list(exp.EXPERIMENTS) if args.id == "all" else [args.id]
    executor = SweepExecutor(**_options(args, SweepExecutor))
    serial_only = []
    for experiment_id in ids:
        experiment = exp.EXPERIMENTS[experiment_id]
        kwargs: dict[str, Any] = {"quick": args.quick}
        # The timing experiments (E3/E4/E9) measure the serial protocol
        # itself and take no executor; --workers is a no-op for them.
        if "executor" in inspect.signature(experiment.run).parameters:
            kwargs["executor"] = executor
        else:
            serial_only.append(experiment_id)
        result = experiment.run(**kwargs)
        print(result.table)
        if args.output:
            exp.save_result(args.output, result, experiment.claims)
    if hasattr(args, "workers") and serial_only:
        print(
            f"note: no parallel sweep in {', '.join(serial_only)}; "
            "ignoring --workers there",
            file=sys.stderr,
        )
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.analysis.chaos import ChaosGates, run_chaos
    from repro.core.healing import SelfHealingPolicy
    from repro.net.reliability import ReliabilityPolicy

    instance = _load_instance(args)
    report = run_chaos(
        instance,
        k=args.k,
        reliability=None if args.no_reliability else ReliabilityPolicy(),
        healing=None if args.no_healing else SelfHealingPolicy(),
        gates=ChaosGates(**_options(args, ChaosGates)),
        executor=SweepExecutor(**_options(args, SweepExecutor)),
        **_options(args, run_chaos),
    )
    result = report.to_experiment_result()
    failures = report.failures()
    return _finish_gated(
        args,
        key=result.experiment_id,
        table=result.table,
        record=result.to_record(),
        failures=failures,
        errors=[
            f"gate {f['gate']} failed for family={f['family']} "
            f"intensity={f['intensity']}: observed {f['observed']:.3f} "
            f"vs threshold {f['threshold']:.3f}"
            for f in failures
        ],
        extra={"baseline_cost": report.baseline_cost},
    )


def _cmd_chaos_serve(args: argparse.Namespace) -> int:
    from repro.analysis.chaos_serve import (
        ChaosServePlan,
        build_chaos_workload,
        run_chaos_serve,
    )

    plan = ChaosServePlan(**_options(args, ChaosServePlan))
    options = _options(args, run_chaos_serve)
    if (plan.drop_every or plan.malformed_every) and not options.get("use_socket"):
        print(
            "error: --drop-every/--malformed-every inject transport faults "
            "and need --socket",
            file=sys.stderr,
        )
        return 2
    report = run_chaos_serve(
        requests=build_chaos_workload(**_options(args, build_chaos_workload)),
        plan=plan,
        **options,
    )
    result = report.to_experiment_result()
    failures = report.failures()
    return _finish_gated(
        args,
        key=result.experiment_id,
        table=result.table,
        record=result.to_record(),
        failures=failures,
        errors=[
            f"gate {f['gate']} failed: "
            f"{json.dumps({k: v for k, v in f.items() if k != 'gate'})}"
            for f in failures
        ],
        extra={
            "statuses": dict(report.statuses),
            "injected": dict(report.injected),
            "client_stats": dict(report.client_stats),
        },
    )


def _finish_gated(
    args: argparse.Namespace,
    *,
    key: str,
    table: str,
    record: dict[str, Any],
    failures: list[Any],
    errors: list[str],
    extra: dict[str, Any] | None = None,
) -> int:
    """Report a gated verb (chaos, chaos-serve, loadtest); the exit code.

    Writes ``record`` under ``key`` to the verb's ``-o`` BENCH file,
    prints ``--json`` ``{passed, failures, <extra>, record}`` or else
    the table and a ``wrote`` line, then one ``error:`` line per failed
    gate on stderr; exit 1 if any failed.
    """
    if args.output:
        target = write_bench(args.bench_name, {key: record}, args.output)
        table += f"\nwrote {target}"
    summary = {"passed": not failures, "failures": failures, **(extra or {})}
    _print_output(args, {**summary, "record": record}, table)
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    return 1 if failures else 0


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
    from repro.service import (
        RouterConfig,
        ServiceConfig,
        SolveService,
        serve_jsonl,
        serve_socket,
    )

    service_config = ServiceConfig(**_options(args, ServiceConfig))
    router_config = RouterConfig(**_options(args, RouterConfig))
    if router_config.num_workers > 1 and (args.trace_spans or args.slo):
        # Router workers keep private registries; span/SLO aggregation
        # across them is not wired up yet.
        print(
            "error: --trace-spans/--slo are single-service features; "
            "drop them or use --service-workers 1",
            file=sys.stderr,
        )
        return 2
    if service_config.profile_memory and not args.trace_spans:
        # Workers sample memory only on the spans of a traced request.
        print("error: --profile-memory requires --trace-spans", file=sys.stderr)
        return 2
    tracer = None
    if args.trace_spans:
        from repro.obs.spans import Tracer

        tracer = Tracer(profile_memory=service_config.profile_memory)
    service: Any
    if router_config.num_workers > 1:
        from repro.service import ServiceRouter

        service = ServiceRouter(
            config=router_config, service_config=service_config
        )
        print(
            f"routing across {router_config.num_workers} service workers "
            f"({service.ring.replicas} ring replicas each)",
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
        )
    elif args.socket:
        print(f"serving on unix socket {args.socket}", file=sys.stderr)
        serve_socket(service, args.socket, drain_signal=drain_signal)
    else:
        serve_jsonl(
            service,
            sys.stdin,
            sys.stdout,
            emit_metrics=args.metrics,
            drain_signal=drain_signal,
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

    shape = LoadShape(**_options(args, LoadShape))
    report = run_loadtest(shape, **_options(args, run_loadtest))
    failures = report.gate_failures(**_options(args, report.gate_failures))
    return _finish_gated(
        args,
        key=shape.name,
        table=report.render(),
        record=report.to_record(),
        failures=failures,
        errors=[f"loadtest gate failed: {failure}" for failure in failures],
    )


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


def _cmd_top(args: argparse.Namespace) -> int:
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
    print(
        render_table(
            ("instrument", "kind", "value"),
            rows,
            title=f"metrics snapshot {args.snapshot}",
        )
    )
    if args.spans:
        from repro.obs.spans import load_spans_jsonl

        spans = load_spans_jsonl(args.spans)
        slowest = sorted(spans, key=lambda s: -s.duration_s)[:10]
        span_rows = [
            (span.name, f"{span.duration_s * 1e3:.2f} ms", span.status)
            for span in slowest
        ]
        print(
            render_table(
                ("span", "wall", "status"),
                span_rows,
                title=f"slowest spans of {args.spans}",
            )
        )
    return 0


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
