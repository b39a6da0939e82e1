"""Canonical experiment configurations E1–E17.

The original paper proves analytical bounds and has no measurement
section; this module instantiates every stated claim as a measurable
table/figure (see the experiment index in DESIGN.md). Each ``run_*``
function is deterministic given its arguments and returns an
:class:`ExperimentResult` (structured rows + a rendered ASCII table).

:data:`EXPERIMENTS` maps each id to its runner; it is the one list that
``repro experiment ID|all``, the EXPERIMENTS.md report and the tier-1
artifact gate read. :func:`save_result` writes a result's table and
BENCH record; ``repro experiment all --quick -o benchmarks/_artifacts``
writes the committed artifacts that ``tests/test_experiments.py``
compares exactly.

Every function takes a ``quick`` flag that shrinks the workload to
test-friendly size without changing its structure.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro.analysis.aggregate import aggregate, linear_fit
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
from repro.core.algorithm import (
    DistributedFacilityLocation,
    Variant,
    solve_distributed,
)
from repro.core.bounds import approximation_envelope, round_budget
from repro.core.dual_ascent_nodes import RoundingPolicy
from repro.core.parameters import TradeoffParameters
from repro.fl.generators import decoy_instance, high_spread_instance, make_instance
from repro.net.faults import FaultPlan
from repro.perf.cache import cached_instance, cached_lp_value
from repro.perf.cells import (
    CellOutcome,
    SequentialCell,
    SolveCell,
    run_sequential_cell,
    run_solve_cell,
)
from repro.perf.executor import SweepExecutor

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "save_result",
    "run_e1_tradeoff_table",
    "run_e2_ratio_vs_k",
    "run_e3_rounds_vs_k",
    "run_e4_message_bits",
    "run_e5_baselines_table",
    "run_e6_rounding_ablation",
    "run_e7_rho_sensitivity",
    "run_e8_families_table",
    "run_e9_scalability",
    "run_e10_variants_table",
    "run_e11_faults",
    "run_e12_ladder_necessity",
    "run_e13_settle_ablation",
    "run_e14_anytime",
    "run_e15_concentration",
    "run_e16_opening_rule",
    "run_e17_fault_families",
    "DEFAULT_K_VALUES",
    "DEFAULT_FAMILIES",
]

DEFAULT_K_VALUES: tuple[int, ...] = (1, 4, 9, 16, 25, 36, 49)
QUICK_K_VALUES: tuple[int, ...] = (1, 4, 9, 16)
DEFAULT_FAMILIES: tuple[str, ...] = ("uniform", "euclidean", "clustered", "set_cover")
QUICK_FAMILIES: tuple[str, ...] = ("uniform", "euclidean")


@dataclass(frozen=True)
class ExperimentResult:
    """Structured output of one experiment."""

    experiment_id: str
    title: str
    headers: tuple[str, ...]
    rows: tuple[tuple[Any, ...], ...]
    notes: Mapping[str, Any] = field(default_factory=dict)
    #: Columns read off the clock; they differ run to run, so the
    #: artifact gate skips their metrics (as it skips ``wall_seconds``).
    timing_columns: tuple[str, ...] = ()

    @property
    def table(self) -> str:
        """Rendered ASCII table (what EXPERIMENTS.md embeds)."""
        return render_table(
            self.headers, self.rows, title=f"{self.experiment_id}: {self.title}"
        )

    def column(self, header: str) -> list[Any]:
        """Extract one column by header name."""
        idx = self.headers.index(header)
        return [row[idx] for row in self.rows]

    @property
    def wall_seconds(self) -> float:
        """Wall-clock the experiment took (0.0 for hand-built results)."""
        return float(self.notes.get("wall_seconds", 0.0))

    def to_record(self) -> dict[str, Any]:
        """This experiment's record in a BENCH file (:mod:`repro.obs.bench`).

        :func:`save_result` writes it next to the rendered table, keyed
        by the experiment id. ``params`` carries the experiment
        configuration (the notes); ``metrics`` carries per-column
        mean/max of every numeric table column, which is what
        cross-version regression comparison keys on. NaN/inf cells are
        dropped (they encode "not applicable").
        """
        params = {
            key: _json_safe(value)
            for key, value in sorted(self.notes.items())
            if key != "wall_seconds"
        }
        metrics: dict[str, float] = {}
        for idx, header in enumerate(self.headers):
            values = [
                float(row[idx])
                for row in self.rows
                if isinstance(row[idx], (int, float))
                and not isinstance(row[idx], bool)
                and math.isfinite(row[idx])
            ]
            if values:
                metrics[f"{header}_mean"] = sum(values) / len(values)
                metrics[f"{header}_max"] = max(values)
        return {
            "wall_seconds": self.wall_seconds,
            "params": params,
            "metrics": metrics,
        }


def _json_safe(value: Any) -> Any:
    """Make one record value strict-JSON representable (NaN/inf -> None)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, tuple):
        return [_json_safe(v) for v in value]
    return value


def _timed(
    func: Callable[..., ExperimentResult]
) -> Callable[..., ExperimentResult]:
    """Attach the experiment's wall-clock to its record.

    Benchmark artifacts and EXPERIMENTS.md snapshots carry the timing in
    ``notes["wall_seconds"]``, so cross-version trajectories (BENCH_*.json)
    can track cost *and* speed from the same record.
    """

    @functools.wraps(func)
    def wrapper(*args: Any, **kwargs: Any) -> ExperimentResult:
        start = time.perf_counter()
        result = func(*args, **kwargs)
        notes = dict(result.notes)
        notes["wall_seconds"] = time.perf_counter() - start
        return replace(result, notes=notes)

    return wrapper


#: In-process fallback used whenever a sweep gets no explicit executor.
_SERIAL = SweepExecutor()


def _sweep(
    cells: Sequence[SolveCell], executor: SweepExecutor | None
) -> list[CellOutcome]:
    """Run distributed-solve cells, serially or fanned out, in cell order.

    The ordered merge is what keeps parallel experiments byte-identical
    to serial ones: every aggregation below consumes results positionally.
    """
    return (executor or _SERIAL).map_cells(run_solve_cell, cells)


def _sweep_sequential(
    cells: Sequence[SequentialCell], executor: SweepExecutor | None
) -> list[CellOutcome]:
    """Run sequential-emulation cells, serially or fanned out, in order."""
    return (executor or _SERIAL).map_cells(run_sequential_cell, cells)


def _ratio_sweep(
    family: str,
    m: int,
    n: int,
    k_values: Sequence[int],
    seeds: Sequence[int],
    instance_seed: int = 3,
    executor: SweepExecutor | None = None,
) -> tuple[dict[int, list[float]], float]:
    """Measured distributed ratios per k over seeds, plus the cost spread."""
    instance = cached_instance(family, m, n, instance_seed)
    bound = max(cached_lp_value(instance), 1e-12)
    cells = [
        SolveCell(instance=instance, k=k, seed=s) for k in k_values for s in seeds
    ]
    outcomes = _sweep(cells, executor)
    ratios: dict[int, list[float]] = {}
    for cell, outcome in zip(cells, outcomes):
        ratios.setdefault(cell.k, []).append(outcome.cost / bound)
    return ratios, instance.rho


# ----------------------------------------------------------------------
# E1 (Table 1): the main trade-off
# ----------------------------------------------------------------------


@_timed
def run_e1_tradeoff_table(
    m: int = 20,
    n: int = 60,
    k_values: Sequence[int] | None = None,
    families: Sequence[str] | None = None,
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    quick: bool = False,
    executor: SweepExecutor | None = None,
) -> ExperimentResult:
    """Measured ratio vs the analytic envelope for every ``k`` and family.

    Reproduces the paper's main theorem as a table: for each ``k`` and
    instance family, the measured ratio (vs the LP lower bound) must stay
    below the envelope ``sqrt(k) (m rho)^(1/sqrt k) log(m+n)``; the table
    reports the implied constant ``ratio / envelope``, whose boundedness
    across ``k`` *is* the reproduced claim.
    """
    if quick:
        k_values = k_values or QUICK_K_VALUES
        families = families or QUICK_FAMILIES
        seeds = seeds[:2]
    else:
        k_values = k_values or DEFAULT_K_VALUES
        families = families or DEFAULT_FAMILIES
    rows: list[tuple[Any, ...]] = []
    max_constant = 0.0
    for family in families:
        ratios, rho = _ratio_sweep(
            family, m, n, k_values, seeds, executor=executor
        )
        for k in k_values:
            agg = aggregate(ratios[k])
            envelope = approximation_envelope(k, m, n, rho)
            constant = agg.maximum / envelope
            max_constant = max(max_constant, constant)
            rows.append(
                (family, k, agg.mean, agg.std, agg.maximum, envelope, constant)
            )
    return ExperimentResult(
        experiment_id="E1",
        title="round/approximation trade-off vs analytic envelope",
        headers=(
            "family",
            "k",
            "ratio_mean",
            "ratio_std",
            "ratio_max",
            "envelope",
            "implied_C",
        ),
        rows=tuple(rows),
        notes={"m": m, "n": n, "seeds": len(seeds), "max_implied_C": max_constant},
    )


# ----------------------------------------------------------------------
# E2 (Fig 1): ratio vs k series
# ----------------------------------------------------------------------


@_timed
def run_e2_ratio_vs_k(
    m: int = 20,
    n: int = 60,
    k_values: Sequence[int] | None = None,
    family: str = "euclidean",
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    quick: bool = False,
    executor: SweepExecutor | None = None,
) -> ExperimentResult:
    """The trade-off curve: measured ratio falls with ``k`` toward greedy.

    Reproduces the qualitative content of the main theorem as a figure
    series: the measured curve, the envelope curve, and the (k-independent)
    greedy reference line the algorithm converges to.
    """
    if quick:
        k_values = k_values or QUICK_K_VALUES
        seeds = seeds[:2]
    else:
        k_values = k_values or DEFAULT_K_VALUES
    instance = cached_instance(family, m, n, 3)
    bound = max(cached_lp_value(instance), 1e-12)
    greedy_ratio = greedy_solve(instance).cost / bound
    cells = [
        SolveCell(instance=instance, k=k, seed=s) for k in k_values for s in seeds
    ]
    outcomes = _sweep(cells, executor)
    rows: list[tuple[Any, ...]] = []
    for idx, k in enumerate(k_values):
        batch = outcomes[idx * len(seeds) : (idx + 1) * len(seeds)]
        agg = aggregate([o.cost / bound for o in batch])
        envelope = approximation_envelope(k, m, n, instance.rho)
        rows.append((k, agg.mean, agg.ci95_half_width, envelope, greedy_ratio))
    return ExperimentResult(
        experiment_id="E2",
        title=f"ratio vs k on {family} (m={m}, n={n})",
        headers=("k", "ratio_mean", "ratio_ci95", "envelope", "greedy_ref"),
        rows=tuple(rows),
        notes={"family": family, "rho": instance.rho},
    )


# ----------------------------------------------------------------------
# E3 (Fig 2): rounds are Theta(k)
# ----------------------------------------------------------------------


@_timed
def run_e3_rounds_vs_k(
    m: int = 20,
    n: int = 60,
    k_values: Sequence[int] | None = None,
    family: str = "uniform",
    quick: bool = False,
) -> ExperimentResult:
    """Measured simulator rounds vs ``k`` with a linear fit.

    Reproduces the ``O(k)`` round-complexity claim: measured rounds must
    stay below :func:`~repro.core.bounds.round_budget` and fit a line with
    small residuals.
    """
    k_values = k_values or (QUICK_K_VALUES if quick else DEFAULT_K_VALUES)
    instance = cached_instance(family, m, n, 3)
    rows: list[tuple[Any, ...]] = []
    measured: list[float] = []
    for k in k_values:
        result = solve_distributed(instance, k=k, seed=0)
        measured.append(float(result.metrics.rounds))
        rows.append((k, result.metrics.rounds, round_budget(k)))
    slope, intercept = linear_fit([float(k) for k in k_values], measured)
    return ExperimentResult(
        experiment_id="E3",
        title="rounds grow linearly in k",
        headers=("k", "rounds", "budget"),
        rows=tuple(rows),
        notes={"fit_slope": slope, "fit_intercept": intercept},
    )


# ----------------------------------------------------------------------
# E4 (Fig 3): message size is O(log N)
# ----------------------------------------------------------------------


@_timed
def run_e4_message_bits(
    sizes: Sequence[tuple[int, int]] | None = None,
    k: int = 9,
    family: str = "uniform",
    quick: bool = False,
) -> ExperimentResult:
    """Max bits per message vs network size.

    Reproduces the CONGEST claim: as ``N = m + n`` grows, the largest
    single message stays under the ``O(log2 N)`` envelope (with the float
    payload convention of :mod:`repro.net.message`).
    """
    if sizes is None:
        sizes = (
            [(5, 25), (10, 50), (20, 100)]
            if quick
            else [(5, 25), (10, 50), (20, 100), (40, 200), (80, 400)]
        )
    rows: list[tuple[Any, ...]] = []
    for m, n in sizes:
        instance = cached_instance(family, m, n, 3)
        result = solve_distributed(instance, k=k, seed=0)
        total = m + n
        from repro.core.bounds import message_bits_envelope

        rows.append(
            (
                total,
                result.metrics.max_message_bits,
                result.metrics.mean_message_bits,
                message_bits_envelope(total),
            )
        )
    return ExperimentResult(
        experiment_id="E4",
        title="per-message bits vs network size",
        headers=("N", "max_bits", "mean_bits", "envelope"),
        rows=tuple(rows),
        notes={"k": k, "family": family},
    )


# ----------------------------------------------------------------------
# E5 (Table 2): baseline comparison
# ----------------------------------------------------------------------


@_timed
def run_e5_baselines_table(
    m: int = 15,
    n: int = 45,
    families: Sequence[str] | None = None,
    k: int = 25,
    seeds: Sequence[int] = (0, 1, 2),
    quick: bool = False,
    executor: SweepExecutor | None = None,
) -> ExperimentResult:
    """Distributed@k against every sequential baseline, per family.

    Reports cost ratios vs the LP bound. Metric-only baselines (JV, MP, LP
    rounding) are skipped on families where they do not apply (missing
    edges); the exact optimum is included when ``m`` permits.
    """
    if quick:
        families = families or QUICK_FAMILIES
        seeds = seeds[:1]
    else:
        families = families or DEFAULT_FAMILIES
    instances = {
        family: cached_instance(family, m, n, 3) for family in families
    }
    cells = [
        SolveCell(instance=instances[family], k=k, seed=s)
        for family in families
        for s in seeds
    ]
    outcomes = _sweep(cells, executor)
    rows: list[tuple[Any, ...]] = []
    for idx, family in enumerate(families):
        instance = instances[family]
        lp = solve_lp(instance)
        bound = max(lp.value, 1e-12)

        def ratio(cost: float) -> float:
            return cost / bound

        batch = outcomes[idx * len(seeds) : (idx + 1) * len(seeds)]
        dist = aggregate([o.cost / bound for o in batch])
        greedy_r = ratio(greedy_solve(instance).cost)
        jv_r = ratio(jain_vazirani_solve(instance).cost)
        mp_r = ratio(mettu_plaxton_solve(instance).cost)
        ls_r = ratio(local_search_solve(instance).cost)
        if instance.is_complete_bipartite():
            sta_r = ratio(lp_rounding_solve(instance, lp=lp).cost)
        else:
            sta_r = float("nan")
        if m <= 16:
            exact_r = ratio(exact_solve(instance).cost)
        else:
            exact_r = float("nan")
        rows.append(
            (family, dist.mean, greedy_r, jv_r, mp_r, ls_r, sta_r, exact_r)
        )
    return ExperimentResult(
        experiment_id="E5",
        title=f"ratios vs LP bound (distributed @ k={k})",
        headers=(
            "family",
            "distributed",
            "greedy",
            "jain_vazirani",
            "mettu_plaxton",
            "local_search",
            "lp_rounding",
            "exact",
        ),
        rows=tuple(rows),
        notes={"m": m, "n": n, "k": k},
    )


# ----------------------------------------------------------------------
# E6 (Fig 4): rounding ablation
# ----------------------------------------------------------------------


@_timed
def run_e6_rounding_ablation(
    m: int = 20,
    n: int = 60,
    k: int = 16,
    family: str = "uniform",
    c_rounds: Sequence[float] = (0.25, 0.5, 1.0, 2.0),
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    quick: bool = False,
    executor: SweepExecutor | None = None,
) -> ExperimentResult:
    """Ablation of the rounding step (dual-ascent variant).

    Compares the deterministic ``select_all`` policy against randomized
    rounding at several constants, reporting ratio and how often the
    deterministic fallback had to fire (the paper's "with high
    probability" story: larger constants buy fewer fallbacks at higher
    opening cost).
    """
    if quick:
        c_rounds = c_rounds[:2]
        seeds = seeds[:2]
    instance = cached_instance(family, m, n, 3)
    bound = max(cached_lp_value(instance), 1e-12)
    rows: list[tuple[Any, ...]] = []
    policies: list[tuple[str, RoundingPolicy]] = [
        ("select_all", RoundingPolicy(mode="select_all"))
    ]
    policies.extend(
        (f"randomized(c={c:g})", RoundingPolicy(mode="randomized", c_round=c))
        for c in c_rounds
    )
    cells = [
        SolveCell(
            instance=instance,
            k=k,
            variant=Variant.DUAL_ASCENT.value,
            seed=s,
            rounding=policy,
        )
        for _label, policy in policies
        for s in seeds
    ]
    outcomes = _sweep(cells, executor)
    for idx, (label, _policy) in enumerate(policies):
        batch = outcomes[idx * len(seeds) : (idx + 1) * len(seeds)]
        agg = aggregate([o.cost / bound for o in batch])
        fallbacks = aggregate(
            [float(o.diagnostics["num_forced_clients"]) for o in batch]
        )
        rows.append((label, agg.mean, agg.maximum, fallbacks.mean))
    return ExperimentResult(
        experiment_id="E6",
        title=f"rounding ablation (dual ascent, k={k}, {family})",
        headers=("policy", "ratio_mean", "ratio_max", "fallbacks_mean"),
        rows=tuple(rows),
        notes={"m": m, "n": n, "k": k},
    )


# ----------------------------------------------------------------------
# E7 (Fig 5): sensitivity to the cost spread rho
# ----------------------------------------------------------------------


@_timed
def run_e7_rho_sensitivity(
    m: int = 20,
    n: int = 60,
    k: int = 16,
    rhos: Sequence[float] = (2.0, 10.0, 100.0, 1000.0),
    seeds: Sequence[int] = (0, 1, 2),
    quick: bool = False,
    executor: SweepExecutor | None = None,
) -> ExperimentResult:
    """Measured ratio vs the instance cost spread ``rho`` at fixed ``k``.

    Reproduces the ``(m rho)^(1/sqrt k)`` dependence: at a fixed round
    budget, instances with a wider cost spread are harder, and the
    envelope grows accordingly.
    """
    if quick:
        rhos = rhos[:2]
        seeds = seeds[:2]
    instances = [
        high_spread_instance(m, n, seed=3, target_rho=target_rho)
        for target_rho in rhos
    ]
    cells = [
        SolveCell(instance=instance, k=k, seed=s)
        for instance in instances
        for s in seeds
    ]
    outcomes = _sweep(cells, executor)
    rows: list[tuple[Any, ...]] = []
    for idx, (target_rho, instance) in enumerate(zip(rhos, instances)):
        bound = max(cached_lp_value(instance), 1e-12)
        batch = outcomes[idx * len(seeds) : (idx + 1) * len(seeds)]
        agg = aggregate([o.cost / bound for o in batch])
        envelope = approximation_envelope(k, m, n, instance.rho)
        rows.append((target_rho, instance.rho, agg.mean, agg.maximum, envelope))
    return ExperimentResult(
        experiment_id="E7",
        title=f"ratio vs cost spread rho (k={k})",
        headers=("rho_target", "rho_actual", "ratio_mean", "ratio_max", "envelope"),
        rows=tuple(rows),
        notes={"m": m, "n": n, "k": k},
    )


# ----------------------------------------------------------------------
# E8 (Table 3): metric vs non-metric families
# ----------------------------------------------------------------------


@_timed
def run_e8_families_table(
    m: int = 20,
    n: int = 60,
    k: int = 16,
    families: Sequence[str] | None = None,
    seeds: Sequence[int] = (0, 1, 2),
    quick: bool = False,
    executor: SweepExecutor | None = None,
) -> ExperimentResult:
    """Behaviour across metric and non-metric families at fixed ``k``.

    The paper's algorithm is for *non-metric* instances; this table shows
    it degrades gracefully from metric (euclidean/grid) to coverage-style
    non-metric (set_cover, sparse) structure.
    """
    if quick:
        families = families or QUICK_FAMILIES
        seeds = seeds[:2]
    else:
        families = families or (
            "uniform",
            "euclidean",
            "clustered",
            "grid",
            "set_cover",
            "sparse",
        )
    instances = {
        family: cached_instance(family, m, n, 3) for family in families
    }
    cells = [
        SolveCell(instance=instances[family], k=k, seed=s)
        for family in families
        for s in seeds
    ]
    outcomes = _sweep(cells, executor)
    rows: list[tuple[Any, ...]] = []
    for idx, family in enumerate(families):
        instance = instances[family]
        bound = max(cached_lp_value(instance), 1e-12)
        batch = outcomes[idx * len(seeds) : (idx + 1) * len(seeds)]
        agg = aggregate([o.cost / bound for o in batch])
        rows.append(
            (
                family,
                instance.is_metric() if instance.is_complete_bipartite() else False,
                instance.rho,
                agg.mean,
                agg.maximum,
            )
        )
    return ExperimentResult(
        experiment_id="E8",
        title=f"metric vs non-metric families (k={k})",
        headers=("family", "metric", "rho", "ratio_mean", "ratio_max"),
        rows=tuple(rows),
        notes={"m": m, "n": n, "k": k},
    )


# ----------------------------------------------------------------------
# E9 (Fig 6): scalability
# ----------------------------------------------------------------------


@_timed
def run_e9_scalability(
    sizes: Sequence[tuple[int, int]] | None = None,
    k: int = 9,
    family: str = "uniform",
    quick: bool = False,
) -> ExperimentResult:
    """Wall-clock of the message simulator vs the sequential emulation.

    The repro band notes "simulation simple; slow at scale": this figure
    quantifies it, and shows the sequential emulation (identical output)
    extends the reachable sizes by an order of magnitude.
    """
    if sizes is None:
        sizes = (
            [(10, 50), (20, 100)]
            if quick
            else [(10, 50), (20, 100), (40, 200), (80, 400), (160, 800)]
        )
    # One untimed solve per engine first, so no timed row pays an
    # engine's one-time warm-up (imports, first-call setup).
    warm_up = cached_instance(family, *sizes[0], 3)
    for engine in ("simulator", "columnar"):
        solve_distributed(warm_up, k=k, seed=0, engine=engine)
    rows: list[tuple[Any, ...]] = []
    for m, n in sizes:
        instance = cached_instance(family, m, n, 3)
        start = time.perf_counter()
        dist = solve_distributed(instance, k=k, seed=0)
        sim_seconds = time.perf_counter() - start
        start = time.perf_counter()
        seq = solve_distributed(instance, k=k, seed=0, engine="columnar")
        seq_seconds = time.perf_counter() - start
        # Identical solutions (cost floats may differ in the last ulp
        # because the two paths sum assignments in different orders).
        assert seq.open_facilities == dist.open_facilities
        assert seq.solution.assignment == dist.solution.assignment
        rows.append(
            (
                m + n,
                sim_seconds,
                seq_seconds,
                sim_seconds / max(seq_seconds, 1e-9),
                dist.metrics.total_messages,
            )
        )
    return ExperimentResult(
        experiment_id="E9",
        title=f"scalability of simulator vs sequential emulation (k={k})",
        headers=("N", "simulator_s", "sequential_s", "speedup", "messages"),
        rows=tuple(rows),
        notes={"k": k, "family": family},
        timing_columns=("simulator_s", "sequential_s", "speedup"),
    )


# ----------------------------------------------------------------------
# E10 (Table 4): variant comparison
# ----------------------------------------------------------------------


@_timed
def run_e10_variants_table(
    m: int = 20,
    n: int = 60,
    k_values: Sequence[int] = (4, 16, 36),
    family: str = "uniform",
    seeds: Sequence[int] = (0, 1, 2),
    quick: bool = False,
    executor: SweepExecutor | None = None,
) -> ExperimentResult:
    """Flagship scaled greedy vs the dual-ascent variant, same ``k``.

    Both realize the trade-off; this table shows their measured ratio and
    rounds side by side (the dual ascent spends its budget on a finer
    threshold ladder, the greedy on conflict resolution).
    """
    if quick:
        k_values = k_values[:2]
        seeds = seeds[:2]
    instance = cached_instance(family, m, n, 3)
    bound = max(cached_lp_value(instance), 1e-12)
    grid = [
        (k, variant)
        for k in k_values
        for variant in (Variant.GREEDY, Variant.DUAL_ASCENT)
    ]
    cells = [
        SolveCell(instance=instance, k=k, variant=variant.value, seed=s)
        for k, variant in grid
        for s in seeds
    ]
    outcomes = _sweep(cells, executor)
    rows: list[tuple[Any, ...]] = []
    for idx, (k, variant) in enumerate(grid):
        batch = outcomes[idx * len(seeds) : (idx + 1) * len(seeds)]
        agg = aggregate([o.cost / bound for o in batch])
        rows.append((k, variant.value, agg.mean, agg.maximum, batch[0].rounds))
    return ExperimentResult(
        experiment_id="E10",
        title=f"variant comparison on {family}",
        headers=("k", "variant", "ratio_mean", "ratio_max", "rounds"),
        rows=tuple(rows),
        notes={"m": m, "n": n},
    )


# ----------------------------------------------------------------------
# E11 (Fig 7): fault tolerance extension
# ----------------------------------------------------------------------


@_timed
def run_e11_faults(
    m: int = 20,
    n: int = 60,
    k: int = 16,
    family: str = "uniform",
    drop_probabilities: Sequence[float] = (0.0, 0.01, 0.05, 0.1),
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    quick: bool = False,
    executor: SweepExecutor | None = None,
) -> ExperimentResult:
    """Behaviour under message loss (extension; the paper assumes
    reliable links).

    Measures how often runs stay complete, how many clients end unserved,
    and the cost of the repaired solution relative to the LP bound.
    """
    if quick:
        drop_probabilities = drop_probabilities[:2]
        seeds = seeds[:2]
    instance = cached_instance(family, m, n, 3)
    bound = max(cached_lp_value(instance), 1e-12)
    cells = [
        SolveCell(
            instance=instance,
            k=k,
            seed=s,
            fault_plan=FaultPlan(drop_probability=p, seed=1000 + s),
        )
        for p in drop_probabilities
        for s in seeds
    ]
    outcomes = _sweep(cells, executor)
    rows: list[tuple[Any, ...]] = []
    for idx, p in enumerate(drop_probabilities):
        batch = outcomes[idx * len(seeds) : (idx + 1) * len(seeds)]
        complete = sum(o.feasible for o in batch)
        unserved_counts = [float(len(o.unserved)) for o in batch]
        repaired_ratios = [o.repaired_cost / bound for o in batch]
        finite = [r for r in repaired_ratios if r == r]
        rows.append(
            (
                p,
                complete / len(seeds),
                aggregate(unserved_counts).mean,
                aggregate(finite).mean if finite else float("nan"),
            )
        )
    return ExperimentResult(
        experiment_id="E11",
        title=f"message loss extension (k={k}, {family})",
        headers=("drop_p", "complete_frac", "unserved_mean", "repaired_ratio"),
        rows=tuple(rows),
        notes={"m": m, "n": n, "k": k},
    )


# ----------------------------------------------------------------------
# E12 (Fig 8): necessity of the threshold ladder
# ----------------------------------------------------------------------


@_timed
def run_e12_ladder_necessity(
    m: int = 20,
    n: int = 60,
    gap: float = 100.0,
    k_values: Sequence[int] = (1, 4, 9, 16),
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    quick: bool = False,
    executor: SweepExecutor | None = None,
) -> ExperimentResult:
    """The decoy instance: a single scale is provably lured by decoys.

    On :func:`~repro.fl.generators.decoy_instance` the optimum serves
    everyone through the one good facility (cost ~ n). With ``k = 1`` the
    only threshold equals ``eff_max``, every decoy qualifies with a
    full-size star, and random acceptance hands decoys most clients —
    cost ~ gap * n. Any ``k >= 4`` puts the good facility on an earlier
    rung of the ladder where decoys do not qualify. This is the
    lower-bound-flavoured side of the trade-off: few rounds genuinely
    cost approximation quality, matching the spirit of the paper's
    round/approximation *trade-off* being real rather than an analysis
    artifact.
    """
    if quick:
        k_values = k_values[:3]
        seeds = seeds[:2]
    instance = decoy_instance(m, n, seed=3, gap=gap)
    bound = max(cached_lp_value(instance), 1e-12)
    cells = [
        SolveCell(instance=instance, k=k, seed=s)
        for k in k_values
        for s in seeds
    ]
    outcomes = _sweep(cells, executor)
    rows: list[tuple[Any, ...]] = []
    for idx, k in enumerate(k_values):
        batch = outcomes[idx * len(seeds) : (idx + 1) * len(seeds)]
        agg = aggregate([o.cost / bound for o in batch])
        rows.append((k, agg.mean, agg.minimum, agg.maximum))
    return ExperimentResult(
        experiment_id="E12",
        title=f"threshold-ladder necessity (decoy instance, gap={gap:g})",
        headers=("k", "ratio_mean", "ratio_min", "ratio_max"),
        rows=tuple(rows),
        notes={"m": m, "n": n, "gap": gap, "seeds": len(seeds)},
    )


# ----------------------------------------------------------------------
# E13 (Fig 9): settle-iteration ablation
# ----------------------------------------------------------------------


@_timed
def run_e13_settle_ablation(
    m: int = 20,
    n: int = 60,
    family: str = "set_cover",
    num_scales: int = 4,
    settle_values: Sequence[int] = (1, 2, 4, 8),
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    quick: bool = False,
    executor: SweepExecutor | None = None,
) -> ExperimentResult:
    """Pin the scales, sweep the settle iterations (the sqrt(k) x sqrt(k)
    design choice).

    Within one scale, competing facilities need repeated proposal rounds
    to partition contested clients; this ablation fixes the ladder and
    varies only the per-scale repetition count ``R``, isolating what the
    second sqrt(k) factor buys. The contention-heavy coverage family
    (many facilities proposing overlapping zero-cost stars) shows the
    expected shape: quality improves and failed-accept counts drop with
    ``R`` at a sharply diminishing rate — the empirical justification for
    splitting the round budget roughly evenly between scales and settles.
    """
    if quick:
        # The settle effect is a trend over randomized runs; two seeds are
        # noise-dominated, so quick mode trims the sweep but keeps seeds.
        settle_values = settle_values[:3]
        seeds = seeds[:4]
    instance = cached_instance(family, m, n, 3)
    bound = max(cached_lp_value(instance), 1e-12)
    schedules = [
        TradeoffParameters.custom(instance, num_scales, settle)
        for settle in settle_values
    ]
    cells = [
        SolveCell(instance=instance, k=params.k, seed=s, params=params)
        for params in schedules
        for s in seeds
    ]
    outcomes = _sweep(cells, executor)
    rows: list[tuple[Any, ...]] = []
    for idx, settle in enumerate(settle_values):
        batch = outcomes[idx * len(seeds) : (idx + 1) * len(seeds)]
        agg = aggregate([o.cost / bound for o in batch])
        failed = aggregate(
            [float(o.diagnostics["total_failed_accepts"]) for o in batch]
        )
        rows.append(
            (
                f"{num_scales}x{settle}",
                batch[0].rounds,
                agg.mean,
                agg.maximum,
                failed.mean,
            )
        )
    return ExperimentResult(
        experiment_id="E13",
        title=f"settle-iteration ablation ({family}, {num_scales} scales)",
        headers=("schedule", "rounds", "ratio_mean", "ratio_max", "failed_accepts"),
        rows=tuple(rows),
        notes={"m": m, "n": n, "family": family, "num_scales": num_scales},
    )


# ----------------------------------------------------------------------
# E14 (Fig 10): anytime behaviour under early termination
# ----------------------------------------------------------------------


@_timed
def run_e14_anytime(
    m: int = 20,
    n: int = 60,
    k: int = 25,
    family: str = "euclidean",
    fractions: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 1.0),
    seeds: Sequence[int] = (0, 1, 2),
    quick: bool = False,
    executor: SweepExecutor | None = None,
) -> ExperimentResult:
    """What a network that stops early gets (extension).

    Truncates the protocol at fractions of its schedule and measures how
    much usable structure exists: how many facilities are open, what
    fraction of clients is confirmed served, whether the partial open set
    can be repaired into a feasible solution, and the repaired ratio. The
    expected shape — quality accrues scale by scale, and the final force
    phase only patches a small tail — is the "anytime" reading of the
    trade-off: stopping after fewer scales is the same as having chosen a
    smaller k.
    """
    if quick:
        fractions = fractions[1::2] + (1.0,)
        seeds = seeds[:2]
    instance = cached_instance(family, m, n, 3)
    bound = max(cached_lp_value(instance), 1e-12)
    runner_schedule = DistributedFacilityLocation(instance, k=k).schedule_rounds()
    budgets = [
        max(1, int(round(fraction * runner_schedule))) for fraction in fractions
    ]
    cells = [
        SolveCell(instance=instance, k=k, seed=s, truncate_rounds=budget)
        for budget in budgets
        for s in seeds
    ]
    outcomes = _sweep(cells, executor)
    rows: list[tuple[Any, ...]] = []
    for idx, fraction in enumerate(fractions):
        budget = budgets[idx]
        batch = outcomes[idx * len(seeds) : (idx + 1) * len(seeds)]
        served_fracs = [
            (instance.num_clients - len(o.unserved)) / instance.num_clients
            for o in batch
        ]
        open_counts = [float(len(o.open_facilities)) for o in batch]
        repaired = [
            o.repaired_cost / bound for o in batch if o.repaired_cost == o.repaired_cost
        ]
        repairable = len(repaired)
        rows.append(
            (
                fraction,
                budget,
                aggregate(open_counts).mean,
                aggregate(served_fracs).mean,
                repairable / len(seeds),
                aggregate(repaired).mean if repaired else float("nan"),
            )
        )
    return ExperimentResult(
        experiment_id="E14",
        title=f"anytime behaviour under truncation ({family}, k={k})",
        headers=(
            "fraction",
            "rounds",
            "open_mean",
            "served_frac",
            "repairable_frac",
            "repaired_ratio",
        ),
        rows=tuple(rows),
        notes={"m": m, "n": n, "k": k, "schedule_rounds": runner_schedule},
    )


# ----------------------------------------------------------------------
# E15 (Fig 11): concentration — the "with high probability" claim
# ----------------------------------------------------------------------


@_timed
def run_e15_concentration(
    m: int = 20,
    n: int = 60,
    family: str = "euclidean",
    k_values: Sequence[int] = (4, 16, 49),
    num_seeds: int = 200,
    quick: bool = False,
    executor: SweepExecutor | None = None,
) -> ExperimentResult:
    """Ratio distribution over many seeds: the w.h.p. claim, measured.

    The theorem promises its guarantee *with high probability* over the
    algorithm's coins. This experiment runs the protocol over hundreds of
    seeds (via the coin-for-coin sequential emulation, which makes the
    sweep cheap) and reports the quantiles of the ratio distribution; the
    reproduced claim is that even the *worst* observed seed stays under
    the analytic envelope, and that the distribution is tightly
    concentrated (small p95/p50 gap).
    """
    if quick:
        k_values = k_values[:2]
        num_seeds = 40
    instance = cached_instance(family, m, n, 3)
    bound = max(cached_lp_value(instance), 1e-12)
    cells = [
        SequentialCell(instance=instance, k=k, seed=s)
        for k in k_values
        for s in range(num_seeds)
    ]
    outcomes = _sweep_sequential(cells, executor)
    rows: list[tuple[Any, ...]] = []
    for idx, k in enumerate(k_values):
        batch = outcomes[idx * num_seeds : (idx + 1) * num_seeds]
        ratios = sorted(o.cost / bound for o in batch)

        def quantile(q: float) -> float:
            return ratios[min(len(ratios) - 1, int(q * len(ratios)))]

        envelope = approximation_envelope(k, m, n, instance.rho)
        rows.append(
            (
                k,
                quantile(0.5),
                quantile(0.95),
                ratios[-1],
                ratios[-1] / max(quantile(0.5), 1e-12),
                envelope,
            )
        )
    return ExperimentResult(
        experiment_id="E15",
        title=f"ratio concentration over {num_seeds} seeds ({family})",
        headers=("k", "p50", "p95", "max", "max/p50", "envelope"),
        rows=tuple(rows),
        notes={"m": m, "n": n, "family": family, "num_seeds": num_seeds},
    )


# ----------------------------------------------------------------------
# E16 (Fig 12): opening-rule ablation (the half-star design choice)
# ----------------------------------------------------------------------


@_timed
def run_e16_opening_rule(
    m: int = 20,
    n: int = 60,
    k: int = 9,
    family: str = "set_cover",
    fractions: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    quick: bool = False,
    executor: SweepExecutor | None = None,
) -> ExperimentResult:
    """Sweep the fraction of a star that must accept before opening.

    The analyzed rule opens a facility when half its proposed star
    accepted. This ablation shows why: opening on *any* accept
    (fraction 0) pays opening costs for facilities that captured almost
    none of their star (realized efficiency far past the threshold),
    while demanding the *full* star (fraction 1) deadlocks contested
    facilities so that coverage leaks into later, coarser scales or the
    force phase. The half-star point balances the two failure modes.
    """
    if quick:
        fractions = (0.0, 0.5, 1.0)
        seeds = seeds[:3]
    instance = cached_instance(family, m, n, 3)
    bound = max(cached_lp_value(instance), 1e-12)
    cells = [
        SolveCell(instance=instance, k=k, seed=s, open_fraction=fraction)
        for fraction in fractions
        for s in seeds
    ]
    outcomes = _sweep(cells, executor)
    rows: list[tuple[Any, ...]] = []
    for idx, fraction in enumerate(fractions):
        batch = outcomes[idx * len(seeds) : (idx + 1) * len(seeds)]
        agg = aggregate([o.cost / bound for o in batch])
        opens = aggregate([float(len(o.open_facilities)) for o in batch])
        forced = aggregate(
            [float(o.diagnostics["num_forced_clients"]) for o in batch]
        )
        rows.append((fraction, agg.mean, agg.maximum, opens.mean, forced.mean))
    return ExperimentResult(
        experiment_id="E16",
        title=f"opening-rule ablation ({family}, k={k})",
        headers=(
            "open_fraction",
            "ratio_mean",
            "ratio_max",
            "open_mean",
            "forced_clients",
        ),
        rows=tuple(rows),
        notes={"m": m, "n": n, "k": k, "family": family},
    )


# ----------------------------------------------------------------------
# E17: fault families — self-healed vs post-hoc-repaired cost
# ----------------------------------------------------------------------


@_timed
def run_e17_fault_families(
    m: int = 20,
    n: int = 60,
    k: int = 16,
    family: str = "uniform",
    fault_families: Sequence[str] = ("drop", "burst", "partition", "crash"),
    intensity: float = 0.15,
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    quick: bool = False,
    executor: SweepExecutor | None = None,
) -> ExperimentResult:
    """The resilience layer's value, per fault family (extension).

    For each fault family, runs the protocol *plain* (faults only) and
    *resilient* (reliable delivery + self-healing) at the same intensity
    and seeds, contrasting how often each completes on its own, the cost
    of the resilient solution, and the cost of the best post-hoc repair of
    the plain run. The gap between ``healed_ratio`` and
    ``repaired_ratio`` is what in-protocol healing buys over fixing
    things up after the fact.
    """
    from repro.analysis.chaos import build_fault_plan
    from repro.core.healing import SelfHealingPolicy
    from repro.net.reliability import ReliabilityPolicy

    if quick:
        fault_families = fault_families[:2]
        seeds = seeds[:2]
    instance = cached_instance(family, m, n, 3)
    bound = max(cached_lp_value(instance), 1e-12)
    schedule = DistributedFacilityLocation(instance, k=k).schedule_rounds()
    cells: list[SolveCell] = []
    for fault_family in fault_families:
        for s in seeds:
            plan_seed = 1000 + s
            plan = build_fault_plan(
                fault_family, intensity, instance, schedule, plan_seed
            )
            cells.append(
                SolveCell(instance=instance, k=k, seed=s, fault_plan=plan)
            )
            cells.append(
                SolveCell(
                    instance=instance,
                    k=k,
                    seed=s,
                    fault_plan=plan,
                    reliability=ReliabilityPolicy(),
                    healing=SelfHealingPolicy(),
                )
            )
    outcomes = _sweep(cells, executor)
    rows: list[tuple[Any, ...]] = []
    for idx, fault_family in enumerate(fault_families):
        batch = outcomes[idx * 2 * len(seeds) : (idx + 1) * 2 * len(seeds)]
        plain_runs = batch[0::2]
        resilient_runs = batch[1::2]
        plain_complete = sum(o.feasible for o in plain_runs)
        resilient_complete = sum(o.feasible for o in resilient_runs)
        repaired_ratios = [o.repaired_cost / bound for o in plain_runs]
        healed_ratios = [
            o.cost / bound for o in resilient_runs if o.feasible
        ]
        retries = [
            float(o.diagnostics["reliability"]["retries"])
            for o in resilient_runs
        ]
        finite = [r for r in repaired_ratios if r == r]
        rows.append(
            (
                fault_family,
                plain_complete / len(seeds),
                resilient_complete / len(seeds),
                aggregate(finite).mean if finite else float("nan"),
                aggregate(healed_ratios).mean if healed_ratios else float("nan"),
                aggregate(retries).mean,
            )
        )
    return ExperimentResult(
        experiment_id="E17",
        title=f"resilience per fault family (k={k}, {family}, "
        f"intensity={intensity})",
        headers=(
            "fault_family",
            "plain_complete",
            "resilient_complete",
            "repaired_ratio",
            "healed_ratio",
            "retries_mean",
        ),
        rows=tuple(rows),
        notes={"m": m, "n": n, "k": k, "intensity": intensity},
    )


#: Every experiment by id, in index order.
EXPERIMENTS: Mapping[str, Callable[..., ExperimentResult]] = {
    "E1": run_e1_tradeoff_table,
    "E2": run_e2_ratio_vs_k,
    "E3": run_e3_rounds_vs_k,
    "E4": run_e4_message_bits,
    "E5": run_e5_baselines_table,
    "E6": run_e6_rounding_ablation,
    "E7": run_e7_rho_sensitivity,
    "E8": run_e8_families_table,
    "E9": run_e9_scalability,
    "E10": run_e10_variants_table,
    "E11": run_e11_faults,
    "E12": run_e12_ladder_necessity,
    "E13": run_e13_settle_ablation,
    "E14": run_e14_anytime,
    "E15": run_e15_concentration,
    "E16": run_e16_opening_rule,
    "E17": run_e17_fault_families,
}


def save_result(directory: str | Path, result: ExperimentResult) -> Path:
    """Write both faces of an experiment into ``directory``.

    ``<ID>.txt`` is the rendered table, for humans and EXPERIMENTS.md
    diffs; ``<ID>.json`` is the BENCH file ``repro compare`` diffs
    across versions. Returns the BENCH file's path.
    """
    from repro.obs.bench import write_bench

    eid = result.experiment_id
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{eid}.txt").write_text(result.table + "\n")
    return write_bench(eid, {eid: result.to_record()}, directory / f"{eid}.json")
