"""The benchmark's metric catalogue and what each metric should predict.

``BENCHMARK.json`` at the repository root is rendered from this module
(``python3 perfbench/spec.py > BENCHMARK.json``), and the benchmark's
tests fail when the two drift apart.

Every run prints every end-to-end metric, so the four names below are
shared by the workloads; each workload defines them on its own
operation (``OPERATIONS``). Per-layer metrics belong to one workload; a
traced run of any other workload reports them as 0, because that
workload never calls the layer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

COMMAND = ["python3", "perfbench/run.py"]
RUN_SECONDS = 16

WORKLOADS = {
    "solve_1m": "One sparse instance with m+n = 10^6 solved by the columnar engine "
    "(greedy, dual ascent, greedy on 2 shards): the ROADMAP's headline solve.",
    "sweep_grid": "Dense 24x96 instances over four families solved by the simulator "
    "and the sequential emulation: the shape of the paper's ratio-vs-k tables.",
    "serve_zipf": "Two closed-loop TCP users against repro serve with 2 routed "
    "workers, zipf traffic over a catalog 1.75x the shared cache: a served request.",
}

#: What one operation of each workload is; the shared end-to-end metric
#: names are defined on it.
OPERATIONS = {
    "solve_1m": "one columnar solve; latency_p50_ms is the mean over the three "
    "solve kinds of the kind's median solve",
    "sweep_grid": "one sweep cell: a simulator run plus a sequential emulation run; "
    "latency_p50_ms is the mean over family x configuration strata of the "
    "stratum's median cell",
    "serve_zipf": "one request: submit, flush and (when another user's flush "
    "answered it) fetch, as the client sees it",
}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "median of the run's set-ups: three instance generations "
             "(solve_1m), five grid generations plus LP bounds (sweep_grid), "
             "five spawns to first accepted request (serve_zipf); at reference "
             "host speed"),
    EndToEnd("throughput_per_s", "1/s", "higher", 0.25,
             "operations completed per second of the timed window, at reference "
             "host speed"),
    EndToEnd("latency_p50_ms", "ms", "lower", 0.25,
             "median latency of one operation, at reference host speed"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1,
             "peak resident memory of the process doing the work "
             "(the server, for serve_zipf)"),
)


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    workload: str
    moves: str  # the end-to-end metric(s) a change here should move


_SOLVE, _SWEEP, _SERVE = "solve_1m", "sweep_grid", "serve_zipf"
_LAT, _TPUT, _SETUP, _RSS = "latency_p50_ms", "throughput_per_s", "setup_s", "peak_rss_mb"

PER_LAYER = (
    # core.columnar: the edge-plane kernels (solve_1m only).
    PerLayer("core.columnar.generate_s", "s", "lower", _SOLVE, _SETUP),
    PerLayer("core.columnar.parameters_ms", "ms", "lower", _SOLVE, f"{_LAT},{_TPUT}"),
    PerLayer("core.columnar.greedy_kernel_ms", "ms", "lower", _SOLVE, _LAT),
    PerLayer("core.columnar.dual_kernel_ms", "ms", "lower", _SOLVE, _TPUT),
    PerLayer("core.columnar.check_ms", "ms", "lower", _SOLVE, f"{_LAT},{_TPUT}"),
    PerLayer("core.columnar.shard_speedup", "x", "higher", _SOLVE, _TPUT),
    PerLayer("core.columnar.shard1_ms", "ms", "lower", _SOLVE, _LAT),
    PerLayer("core.columnar.shard2_ms", "ms", "lower", _SOLVE, _TPUT),
    PerLayer("core.columnar.edge_plane_mib", "MiB", "lower", _SOLVE, _RSS),
    # net.columnar: the modeled CONGEST bit ledger (solve_1m only).
    PerLayer("net.columnar.ledger_ms.greedy", "ms", "lower", _SOLVE, _LAT),
    PerLayer("net.columnar.ledger_ms.dual_ascent", "ms", "lower", _SOLVE, _TPUT),
    PerLayer("net.columnar.rounds.greedy", "count", "lower", _SOLVE, _LAT),
    PerLayer("net.columnar.messages.greedy", "count", "lower", _SOLVE, _LAT),
    PerLayer("net.columnar.bits.greedy", "count", "lower", _SOLVE, _LAT),
    PerLayer("net.columnar.rounds.dual_ascent", "count", "lower", _SOLVE, _TPUT),
    PerLayer("net.columnar.messages.dual_ascent", "count", "lower", _SOLVE, _TPUT),
    PerLayer("net.columnar.bits.dual_ascent", "count", "lower", _SOLVE, _TPUT),
    # net.simulator: the message-passing simulator (sweep_grid only).
    PerLayer("net.simulator.cell_ms_p50", "ms", "lower", _SWEEP, f"{_LAT},{_TPUT}"),
    PerLayer("net.simulator.share", "ratio", "lower", _SWEEP, _TPUT),
    PerLayer("net.simulator.us_per_message", "us", "lower", _SWEEP, _TPUT),
    PerLayer("net.simulator.rounds", "count", "lower", _SWEEP, _TPUT),
    PerLayer("net.simulator.messages", "count", "lower", _SWEEP, _TPUT),
    PerLayer("net.simulator.max_message_bits", "count", "lower", _SWEEP, _TPUT),
    # core.sequential_sim, baselines.lp, fl.generators (sweep_grid only).
    PerLayer("core.sequential_sim.cell_ms_p50", "ms", "lower", _SWEEP, f"{_LAT},{_TPUT}"),
    PerLayer("core.sequential_sim.share", "ratio", "lower", _SWEEP, _TPUT),
    PerLayer("baselines.lp.solve_ms_p50", "ms", "lower", _SWEEP, _SETUP),
    PerLayer("fl.generators.instance_ms_p50", "ms", "lower", _SWEEP, _SETUP),
    # perf.cache: memo caches, measured on both workloads that use them.
    PerLayer("perf.cache.instance_hit_ratio.sweep_grid", "ratio", "higher", _SWEEP, _TPUT),
    PerLayer("perf.cache.lp_hit_ratio.sweep_grid", "ratio", "higher", _SWEEP, _TPUT),
    PerLayer("perf.cache.instance_hit_ratio.serve_zipf", "ratio", "higher", _SERVE, _LAT),
    PerLayer("perf.cache.lp_hit_ratio.serve_zipf", "ratio", "higher", _SERVE, _LAT),
    # The serving stack (serve_zipf only).
    PerLayer("service.client.submit_ms_p50.repeat", "ms", "lower", _SERVE, _LAT),
    PerLayer("service.client.submit_ms_p50.first", "ms", "lower", _SERVE, _LAT),
    PerLayer("service.client.flush_ms_p50.repeat", "ms", "lower", _SERVE, _LAT),
    PerLayer("service.client.flush_ms_p50.first", "ms", "lower", _SERVE, _TPUT),
    PerLayer("service.tcp.wait_ms_p50", "ms", "lower", _SERVE, _LAT),
    PerLayer("service.router.submit_us_p50.hit", "us", "lower", _SERVE, _LAT),
    PerLayer("service.router.submit_us_p50.routed", "us", "lower", _SERVE, _LAT),
    PerLayer("service.router.flush_ms_p50", "ms", "lower", _SERVE, _TPUT),
    PerLayer("service.router.shared_cache_hit_ratio", "ratio", "higher", _SERVE, _TPUT),
    PerLayer("service.router.route_imbalance", "ratio", "lower", _SERVE, _TPUT),
    PerLayer("service.batcher.dedup_hits", "count", "higher", _SERVE, _TPUT),
    PerLayer("service.batcher.batch_size_mean", "count", "higher", _SERVE, _TPUT),
    PerLayer("service.worker.cell_ms_p50", "ms", "lower", _SERVE, _TPUT),
    PerLayer("service.codec.encode_us", "us", "lower", _SERVE, _LAT),
    PerLayer("service.codec.decode_us", "us", "lower", _SERVE, _LAT),
    # Diagnostics; never gated.
    PerLayer("latency_p99_ms", "ms", "lower", _SERVE, _LAT),
    PerLayer("trace_overhead_pct", "%", "lower", "all", _LAT),
    PerLayer("failed_ops", "count", "lower", "all", _TPUT),
)


def predictions() -> dict[str, dict[str, object]]:
    """Per-layer metric -> the workload it is measured on, the end-to-end
    metric a change to it should move there, and the workloads where
    the same change should move nothing."""
    out: dict[str, dict[str, object]] = {}
    for metric in PER_LAYER:
        elsewhere = [w for w in WORKLOADS if metric.workload not in (w, "all")]
        out[metric.name] = {
            "workload": metric.workload,
            "moves": metric.moves.split(","),
            "no_change_on": elsewhere,
        }
    return out


def benchmark_json() -> dict[str, object]:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
