"""``solve_1m``: one million-node instance, solved by the columnar engine.

The instance comes from ``ColumnarInstance.generate_sparse`` (m+n =
10^6, client degree 3) and is solved at k = 8. One round of the timed
window runs three operations back to back — greedy at shards=1, dual
ascent at shards=1, greedy at shards=2 — so a noise burst hits every
kind alike. The simulator, the LP and the serving stack do no work here.
"""

from __future__ import annotations

import gc
import math
import time
from contextlib import ExitStack
from typing import Any

import numpy as np

from common import (
    NUMPY_KERNEL,
    Checks,
    HostSpeed,
    Metric,
    Outcome,
    Spans,
    base_params,
    l3_cache_bytes,
    median,
    ms,
    peak_rss_mb,
    shm_segments,
    stratified_median,
)

FACILITIES = 20_000
CLIENTS = 980_000
DEGREE = 3
K = 8
#: Seconds one round of three solves takes on 2 vCPUs (7-9 s); it only turns
#: ``--seconds`` into a fixed number of rounds, rounded up so that each kind's
#: median rests on three solves at the benchmark's ``run_seconds``.
ROUND_COST_S = 7.0
#: Set-ups per run: each builds the 10^6-node instance (about 4 s), so
#: fewer than the other workloads' five.
SETUP_REPEATS = 3
KINDS = (("greedy", 1), ("dual_ascent", 1), ("greedy", 2))
#: Seconds :data:`common.NUMPY_KERNEL` takes on the reference host (2 vCPUs).
KERNEL_NOMINAL_S = 0.12
_LEDGER_FIELDS = ("rounds", "total_messages", "total_bits", "max_message_bits")


def edge_plane_bytes(cinst: Any) -> int:
    """Bytes held by the instance's arrays (both edge orderings included)."""
    return sum(
        value.nbytes for value in vars(cinst).values() if isinstance(value, np.ndarray)
    )


def ledger_counts(result: Any) -> tuple[int, ...]:
    metrics = result.metrics
    return tuple(int(getattr(metrics, name)) for name in _LEDGER_FIELDS)


def check_solve(result: Any, reference: Any | None, num_nodes: int) -> list[str]:
    """Problems with one solve's output.

    ``reference`` is an earlier solve of the same variant and seed (any
    shard count): the arrays must be byte-equal, and cost and ledger
    counts must repeat exactly.
    """
    from repro.core.bounds import message_bits_envelope, round_budget

    label = f"{result.variant.value}@shards={result.shards}"
    problems = []
    if not result.feasible:
        problems.append(f"{label}: infeasible solution")
    if result.metrics is not None:
        if result.metrics.rounds > round_budget(K):
            problems.append(f"{label}: {result.metrics.rounds} rounds > budget")
        if result.metrics.max_message_bits > message_bits_envelope(num_nodes):
            problems.append(f"{label}: message bits above the CONGEST envelope")
    if reference is not None:
        for name in ("open_mask", "assignment"):
            ours, theirs = getattr(result, name), getattr(reference, name)
            if ours.dtype != theirs.dtype or ours.tobytes() != theirs.tobytes():
                problems.append(f"{label}: {name} differs from shards={reference.shards}")
        if result.cost != reference.cost:
            problems.append(f"{label}: cost {result.cost!r} != {reference.cost!r}")
        if result.metrics is not None and reference.metrics is not None:
            if ledger_counts(result) != ledger_counts(reference):
                problems.append(f"{label}: ledger counts differ between repeats")
    return problems


class _Solver:
    """Runs and checks solves on one instance, keeping per-kind timings."""

    def __init__(self, cinst: Any, seed: int, checks: Checks) -> None:
        self.cinst = cinst
        self.seed = seed
        self.checks = checks
        self.references: dict[str, Any] = {}
        self.times: dict[tuple[str, int, bool], list[float]] = {}
        self.last: dict[str, Any] = {}

    def solve(self, variant: str, shards: int, with_ledger: bool = True) -> None:
        from repro.core import columnar

        before = shm_segments()
        start = time.perf_counter()
        result = columnar.solve_columnar(
            self.cinst, k=K, variant=variant, seed=self.seed, shards=shards,
            with_ledger=with_ledger,
        )
        elapsed = time.perf_counter() - start
        problems = check_solve(result, self.references.get(variant), self.cinst.num_nodes)
        leaked = shm_segments() - before
        if leaked > 0:
            problems.append(f"{leaked} shared-memory segment(s) left after shards={shards}")
        self.checks.record(problems)
        if with_ledger:
            self.references.setdefault(variant, result)
            self.last[variant] = result
        self.times.setdefault((variant, shards, with_ledger), []).append(elapsed)


def _setup(
    seed: int, facilities: int, clients: int, host: HostSpeed, kernel_at: list[float]
) -> tuple[Any, list[float]]:
    from repro.core import columnar

    times = []
    cinst = None
    for _ in range(SETUP_REPEATS):
        cinst = None
        gc.collect()
        kernel_at.append(host.sample())
        start = time.perf_counter()
        cinst = columnar.ColumnarInstance.generate_sparse(
            facilities, clients, seed=seed, client_degree=DEGREE
        )
        times.append(time.perf_counter() - start)
    return cinst, times


def _traced_solves(solver: _Solver, variant: str, shards: int, spans: Spans) -> None:
    """The same solve with the layer entry points wrapped, plus (at one
    shard) its ledger-free twin and a timed re-check of its output."""
    from repro.core import columnar

    with spans.wrapping(columnar, "columnar_parameters", "core.columnar.parameters"):
        solver.solve(variant, shards)
        if shards > 1:
            return
        solver.solve(variant, shards, with_ledger=False)
    result = solver.last[variant]
    with spans.timed("core.columnar.check"):
        feasible = result.feasible
        # The cost gather the solve itself runs, timed on its own.
        cost = columnar._solution_cost(solver.cinst, result.open_mask, result.assignment)
    agrees = feasible and cost == result.cost
    solver.checks.record([] if agrees else [f"{variant}: re-check disagrees"])


def run(
    seed: int,
    seconds: float,
    trace: bool,
    facilities: int = FACILITIES,
    clients: int = CLIENTS,
) -> Outcome:
    """Set up three times, then run ``rounds`` rounds of the three solve
    kinds. A traced run follows each solve with its traced twin, so a
    noise burst hits both alike and ``trace_overhead_pct`` compares them."""
    from repro.core import columnar

    checks = Checks()
    spans = Spans()
    rounds = max(1, math.ceil(seconds / ROUND_COST_S))
    with HostSpeed(NUMPY_KERNEL, KERNEL_NOMINAL_S) as host:
        with ExitStack() as wrapped:
            if trace:
                wrapped.enter_context(spans.wrapping(
                    columnar.ColumnarInstance, "generate_sparse", "generate"
                ))
            kernel_at: list[float] = []
            cinst, setup_times = _setup(seed, facilities, clients, host, kernel_at)
        solver = _Solver(cinst, seed, checks)
        traced = _Solver(cinst, seed, checks)
        traced.references = solver.references  # traced solves must repeat untraced ones
        solve_times, kinds = [], []
        for _ in range(rounds):
            for variant, shards in KINDS:
                kernel_at.append(host.sample())
                solver.solve(variant, shards)
                solve_times.append(solver.times[(variant, shards, True)][-1])
                kinds.append((variant, shards))
                if trace:
                    _traced_solves(traced, variant, shards, spans)
        kernel_at.append(host.sample())
    plane = edge_plane_bytes(cinst)
    greedy = solver.times[("greedy", 1, True)]
    dual = solver.times[("dual_ascent", 1, True)]
    sharded = solver.times[("greedy", 2, True)]
    scaled = host.each_at_reference_speed(setup_times + solve_times, kernel_at)
    setups, solves = scaled[:len(setup_times)], scaled[len(setup_times):]
    n = len(solves)

    def gated(setups: list[float], solves: list[float]) -> dict[str, Metric]:
        return {
            "setup_s": Metric(median(setups), "s", len(setups)),
            "throughput_per_s": Metric(n / sum(solves), "1/s", n),
            "latency_p50_ms": Metric(stratified_median(solves, kinds) * 1e3, "ms", n),
        }

    end_to_end = gated(setups, solves)
    end_to_end["peak_rss_mb"] = Metric(peak_rss_mb(), "MB", 1)
    raw = {f"raw_{name}": metric for name, metric in gated(setup_times, solve_times).items()}
    details = {
        **raw,
        "host_kernel_ms": Metric(median(host.samples) * 1e3, "ms", len(host.samples)),
        "greedy_solve_ms": Metric(median(greedy) * 1e3, "ms", len(greedy)),
        "dual_solve_ms": Metric(median(dual) * 1e3, "ms", len(dual)),
        "sharded_solve_ms": Metric(median(sharded) * 1e3, "ms", len(sharded)),
        "edge_plane_mib": Metric(plane / 2**20, "MiB", 1),
    }
    params = {
        **base_params(seed),
        "facilities": facilities,
        "clients": clients,
        "edges": cinst.num_edges,
        "client_degree": DEGREE,
        "k": K,
        "rounds": rounds,
        "edge_plane_bytes": plane,
        "l3_cache_bytes": l3_cache_bytes(),
    }
    if not trace:
        return Outcome(end_to_end, details, params, checks)

    t_greedy = traced.times[("greedy", 1, True)]
    t_sharded = traced.times[("greedy", 2, True)]
    bare = {v: traced.times[(v, 1, False)] for v in ("greedy", "dual_ascent")}
    layers = {
        "core.columnar.generate_s": Metric(median(spans.get("generate")), "s", len(setup_times)),
        "core.columnar.parameters_ms": ms(spans.get("core.columnar.parameters")),
        "core.columnar.greedy_kernel_ms": ms(bare["greedy"]),
        "core.columnar.dual_kernel_ms": ms(bare["dual_ascent"]),
        "core.columnar.check_ms": ms(spans.get("core.columnar.check")),
        "core.columnar.shard_speedup": Metric(
            median(t_greedy) / median(t_sharded), "x", len(t_greedy) + len(t_sharded)
        ),
        "core.columnar.shard1_ms": ms(t_greedy),
        "core.columnar.shard2_ms": ms(t_sharded),
        "core.columnar.edge_plane_mib": Metric(plane / 2**20, "MiB", 1),
        "trace_overhead_pct": Metric(
            (median(t_greedy) / median(greedy) - 1.0) * 100.0, "%", len(t_greedy)
        ),
    }
    for variant in ("greedy", "dual_ascent"):
        with_ledger = traced.times[(variant, 1, True)]
        layers[f"net.columnar.ledger_ms.{variant}"] = Metric(
            (median(with_ledger) - median(bare[variant])) * 1e3, "ms", len(with_ledger)
        )
        counts = ledger_counts(traced.last[variant])
        for name, value in zip(("rounds", "messages", "bits"), counts):
            layers[f"net.columnar.{name}.{variant}"] = Metric(value, "count", 1)
    return Outcome(layers, {**details, **end_to_end}, params, checks)
