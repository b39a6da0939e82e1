"""Canonical experiment configurations E1–E17 and the claims they check.

The original paper proves analytical bounds and has no measurement
section; this module instantiates every stated claim as a measurable
table/figure (see the experiment index in DESIGN.md). Each ``run_*``
function is deterministic given its arguments and returns an
:class:`ExperimentResult` (structured rows + a rendered ASCII table).

:data:`EXPERIMENTS` maps each id to an :class:`Experiment`: its runner
plus its :class:`Claim` declarations, each a value read from the result
and a bound it must respect. That table is the one place a claim lives:
``repro experiment ID|all``, ``repro report`` (EXPERIMENTS.md), tier-1
and ``repro compare`` all read it. :func:`save_result` writes a result's
table and its BENCH record, claims included, so ``repro compare`` gates
two artifact directories from the files alone; ``repro experiment all
--quick -o benchmarks/_artifacts`` writes the committed artifacts.

Every function takes a ``quick`` flag that shrinks the workload to
test-friendly size without changing its structure.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

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
from repro.core.bounds import approximation_envelope, message_bits_envelope, round_budget
from repro.core.dual_ascent_nodes import RoundingPolicy
from repro.core.parameters import TradeoffParameters
from repro.fl.generators import decoy_instance, high_spread_instance, make_instance
from repro.net.faults import FaultPlan
from repro.obs.compare import Gate
from repro.perf.cache import cached_instance, cached_lp_value
from repro.perf.cells import CellOutcome, SolveCell, run_solve_cell
from repro.perf.executor import SweepExecutor

__all__ = [
    "EXPERIMENTS",
    "Claim",
    "Experiment",
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
    #: Columns read off the clock; they differ run to run, so they stay
    #: in the printed table and :func:`save_result` drops them.
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

    def untimed(self) -> ExperimentResult:
        """This result without its :attr:`timing_columns`."""
        keep = [i for i, h in enumerate(self.headers) if h not in self.timing_columns]
        return replace(
            self,
            headers=tuple(self.headers[i] for i in keep),
            rows=tuple(tuple(row[i] for i in keep) for row in self.rows),
            timing_columns=(),
        )

    def to_record(self) -> dict[str, Any]:
        """This experiment's record in a BENCH file (:mod:`repro.obs.bench`).

        :func:`save_result` writes it next to the rendered table, keyed
        by the experiment id. ``params`` carries the experiment
        configuration (the notes); ``metrics`` carries per-column
        mean/max of every numeric table column, which is what
        cross-version regression comparison keys on. NaN/inf cells are
        dropped (they encode "not applicable"). A ``wall_seconds`` note
        (a chaos run's clock; experiments carry none) becomes the
        record's ``wall_seconds``.
        """
        params = {key: _json_safe(value) for key, value in sorted(self.notes.items())}
        record: dict[str, Any] = {"params": params}
        if "wall_seconds" in params:
            record["wall_seconds"] = float(params.pop("wall_seconds"))
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
        record["metrics"] = metrics
        return record


def _json_safe(value: Any) -> Any:
    """Make one record value strict-JSON representable (NaN/inf -> None)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, tuple):
        return [_json_safe(v) for v in value]
    return value


#: In-process fallback used whenever a sweep gets no explicit executor.
_SERIAL = SweepExecutor()


def _sweep(
    cells: Sequence[SolveCell], executor: SweepExecutor | None
) -> list[CellOutcome]:
    """Run solve cells, serially or fanned out, in cell order.

    Cells without faults or truncation run on columnar, whose outcome
    equals the simulator's. The ordered merge is what keeps parallel
    experiments byte-identical to serial ones: every aggregation below
    consumes results positionally.
    """
    return (executor or _SERIAL).map_cells(run_solve_cell, cells)


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
        SolveCell(instance=instance, k=k, seed=s, engine="columnar")
        for k in k_values for s in seeds
    ]
    outcomes = _sweep(cells, executor)
    ratios: dict[int, list[float]] = {}
    for cell, outcome in zip(cells, outcomes):
        ratios.setdefault(cell.k, []).append(outcome.cost / bound)
    return ratios, instance.rho


# ----------------------------------------------------------------------
# E1 (Table 1): the main trade-off
# ----------------------------------------------------------------------


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
    for family in families:
        ratios, rho = _ratio_sweep(
            family, m, n, k_values, seeds, executor=executor
        )
        for k in k_values:
            agg = aggregate(ratios[k])
            envelope = approximation_envelope(k, m, n, rho)
            constant = agg.maximum / envelope
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
        notes={"m": m, "n": n, "seeds": len(seeds)},
    )


# ----------------------------------------------------------------------
# E2 (Fig 1): ratio vs k series
# ----------------------------------------------------------------------


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
        SolveCell(instance=instance, k=k, seed=s, engine="columnar")
        for k in k_values for s in seeds
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


def run_e3_rounds_vs_k(
    m: int = 20,
    n: int = 60,
    k_values: Sequence[int] | None = None,
    family: str = "uniform",
    quick: bool = False,
) -> ExperimentResult:
    """Measured rounds vs ``k`` with a linear fit.

    Reproduces the ``O(k)`` round-complexity claim: measured rounds must
    stay below :func:`~repro.core.bounds.round_budget` and fit a line with
    small residuals.
    """
    k_values = k_values or (QUICK_K_VALUES if quick else DEFAULT_K_VALUES)
    instance = cached_instance(family, m, n, 3)
    rows: list[tuple[Any, ...]] = []
    measured: list[float] = []
    for k in k_values:
        result = solve_distributed(instance, k=k, seed=0, engine="columnar")
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
        result = solve_distributed(instance, k=k, seed=0, engine="columnar")
        total = m + n
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
        SolveCell(instance=instances[family], k=k, seed=s, engine="columnar")
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
            engine="columnar",
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
        SolveCell(instance=instance, k=k, seed=s, engine="columnar")
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
        SolveCell(instance=instances[family], k=k, seed=s, engine="columnar")
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
        # Identical solutions, costs and modeled traffic.
        assert seq.open_facilities == dist.open_facilities
        assert seq.solution.assignment == dist.solution.assignment
        assert seq.cost == dist.cost
        assert seq.metrics == dist.metrics
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
        SolveCell(
            instance=instance, k=k, variant=variant.value, seed=s, engine="columnar"
        )
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
        SolveCell(instance=instance, k=k, seed=s, engine="columnar")
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
        SolveCell(
            instance=instance, k=params.k, seed=s, params=params, engine="columnar"
        )
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
    seeds (on the coin-for-coin columnar engine, which makes the sweep
    cheap) and reports the quantiles of the ratio distribution; the
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
        SolveCell(instance=instance, k=k, seed=s, engine="columnar")
        for k in k_values
        for s in range(num_seeds)
    ]
    outcomes = _sweep(cells, executor)
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
        SolveCell(
            instance=instance, k=k, seed=s, open_fraction=fraction, engine="columnar"
        )
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


# ----------------------------------------------------------------------
# The claim table
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Claim:
    """One claim an experiment checks: ``value(result)`` against ``bound``.

    ``better`` is ``"lower"`` (the value may not exceed the bound) or
    ``"higher"`` (it may not fall below it), checked by :attr:`gate`,
    the same :class:`~repro.obs.compare.Gate` ``repro compare`` applies;
    ``sentence`` is what EXPERIMENTS.md prints next to the measured
    value. A NaN anywhere in the cells a value reads makes it NaN, which
    no bound holds. A ``timed`` claim
    reads the clock: tier-1 and the report check it, but it is never
    recorded, so ``repro compare`` never sees it.
    """

    name: str
    value: Callable[[ExperimentResult], float]
    bound: float
    better: str
    sentence: str
    timed: bool = False

    @property
    def gate(self) -> Gate:
        """The bound check (which also validates ``better``)."""
        return Gate(self.better, self.bound)


@dataclass(frozen=True)
class Experiment:
    """One entry of :data:`EXPERIMENTS`: a runner and what it claims."""

    run: Callable[..., ExperimentResult]
    #: The report's summary-row label.
    topic: str
    #: The paper's claim the experiment instantiates, as the report states it.
    paper: str
    claims: tuple[Claim, ...]

    def check(self, result: ExperimentResult) -> list[tuple[Claim, float]]:
        """Every claim with its measured value on ``result``."""
        return [(claim, float(claim.value(result))) for claim in self.claims]


def _worst(values: Iterable[float], pick: Callable[..., float] = max) -> float:
    """``pick`` of ``values``, or NaN if any is NaN (builtin min and max
    skip a NaN that is not first, and a NaN row must break its claim)."""
    values = list(values)
    return math.nan if any(v != v for v in values) else pick(values)


def _peak(result: ExperimentResult, numerator: str, denominator: str) -> float:
    """The largest per-row ratio of two columns."""
    pairs = zip(result.column(numerator), result.column(denominator))
    return _worst(a / b for a, b in pairs)


def _finite_cells(result: ExperimentResult, *headers: str) -> list[float]:
    """Every non-NaN cell of the named columns (NaN means "not run")."""
    return [v for h in headers for v in result.column(h) if v == v]


def _largest_drop(values: Sequence[float]) -> float:
    """How far a series ever falls from one entry to the next."""
    return _worst(a - b for a, b in zip(values, values[1:]))


def _exact_gap(result: ExperimentResult) -> float:
    """How far the exact optimum exceeds the best ratio of its row, over
    the rows where it was computed (0.0 where it is the best)."""
    exact = result.headers.index("exact")
    gaps = [
        row[exact] - min(v for v in row[1:] if v == v)
        for row in result.rows
        if row[exact] == row[exact]
    ]
    return max(gaps, default=0.0)


def _by_first(result: ExperimentResult) -> dict[Any, float]:
    """The second column keyed by the first (one row per setting)."""
    return {row[0]: row[1] for row in result.rows}


_LP_FLOOR = "no ratio falls below the LP bound (smallest; 0.99 is float slack)"
_ENVELOPE = "every ratio sits under the envelope (largest ratio / envelope)"
_ABOVE_LP = Claim("min_ratio", lambda r: _worst(r.column("ratio_mean"), min), 0.99,
                  "higher", _LP_FLOOR)

#: Every experiment by id, in index order, with its declared claims.
#: Plain data: nothing here runs at import.
EXPERIMENTS: Mapping[str, Experiment] = {
    "E1": Experiment(
        run_e1_tradeoff_table, "main trade-off bound",
        "for every k, the algorithm is an "
        "O(sqrt(k) (m rho)^(1/sqrt k) log(m+n))-approximation.", (
        Claim("max_implied_C", lambda r: _worst(r.column("implied_C")), 1.0, "lower",
              _ENVELOPE + ", over all k and families"),
    )),
    "E2": Experiment(
        run_e2_ratio_vs_k, "ratio decreases in k",
        "more rounds buy a better approximation, converging toward the "
        "sequential (log-factor) quality as k grows.", (
        _ABOVE_LP,
        Claim("envelope_margin", lambda r: _peak(r, "ratio_mean", "envelope"), 1.0,
              "lower", _ENVELOPE),
        Claim("fine_over_coarse", lambda r: r.column("ratio_mean")[-1]
              / r.column("ratio_mean")[0], 0.8, "lower", "the finest k improves "
              "on the coarsest by at least 20% (last ratio / first)"),
        Claim("fine_over_greedy", lambda r: r.column("ratio_mean")[-1]
              / r.column("greedy_ref")[0], 2.0, "lower", "the finest k lands "
              "within 2x of the greedy reference it converges to"),
    )),
    "E3": Experiment(
        run_e3_rounds_vs_k, "rounds are Theta(k)",
        "the algorithm runs in O(k) rounds.", (
        Claim("budget_margin", lambda r: _peak(r, "rounds", "budget"), 1.0, "lower",
              "every run stays in the schedule's round budget, 4k + 5 for square "
              "k (largest rounds / budget)"),
        Claim("fit_slope_min", lambda r: r.notes["fit_slope"], 2.0, "higher",
              "rounds grow linearly in k: the fitted slope is at least 2"),
        Claim("fit_slope_max", lambda r: r.notes["fit_slope"], 5.0, "lower",
              "and at most 5 rounds per unit of k"),
    )),
    "E4": Experiment(
        run_e4_message_bits, "O(log N)-bit messages",
        "messages are bounded by O(log N) bits (CONGEST).", (
        Claim("envelope_margin", lambda r: _peak(r, "max_bits", "envelope"), 1.2,
              "lower", "the largest message stays within 1.2x the 16 log2 N "
              "envelope (slack for small-N constants)"),
        Claim("max_bits", lambda r: _worst(r.column("max_bits")), 88, "lower",
              "no message exceeds one 64-bit cost word plus a constant tag"),
    )),
    "E5": Experiment(
        run_e5_baselines_table, "vs sequential baselines",
        "the distributed algorithm trades a bounded factor against the "
        "best sequential algorithms.", (
        Claim("min_ratio", lambda r: min(_finite_cells(r, *r.headers[1:])), 0.99,
              "higher", _LP_FLOOR),
        Claim("distributed_over_greedy", lambda r: _peak(r, "distributed", "greedy"),
              3.0, "lower", "at a generous round budget the distributed "
              "algorithm stays within 3x of centralized greedy"),
        Claim("exact_gap", _exact_gap, 1e-9, "lower", "no algorithm beats the "
              "exact optimum where computed (largest exact minus row best)"),
    )),
    "E6": Experiment(
        run_e6_rounding_ablation, "rounding ablation",
        "randomized rounding costs an extra O(log(m+n)) factor w.h.p.; "
        "a deterministic fallback guarantees feasibility.", (
        Claim("select_all_fallbacks", lambda r: r.rows[0][3], 0.0, "lower",
              "select_all never needs the deterministic fallback"),
        Claim("min_ratio", lambda r: _worst(r.column("ratio_mean"), min), 0.99,
              "higher", "randomized rounding falls back, yet every run stays "
              "feasible (smallest ratio_mean; 0.99 is float slack)"),
    )),
    "E7": Experiment(
        run_e7_rho_sensitivity, "rho sensitivity",
        "the approximation degrades with the cost spread rho as "
        "(m rho)^(1/sqrt k).", (
        Claim("envelope_margin", lambda r: _peak(r, "ratio_max", "envelope"), 1.0,
              "lower", _ENVELOPE + ", as rho grows at fixed k"),
    )),
    "E8": Experiment(
        run_e8_families_table, "non-metric generality",
        "the algorithm handles general non-metric instances (the "
        "set-cover regime where the log factor is unavoidable).", (
        _ABOVE_LP,
        Claim("worst_ratio", lambda r: _worst(r.column("ratio_max")), 25.0, "lower",
              "metric and non-metric families alike stay within 25x the LP bound"),
    )),
    "E9": Experiment(
        run_e9_scalability, "scalability",
        "(repro-band check, not a paper claim) simulation cost vs size.", (
        Claim("speedup", lambda r: r.column("speedup")[-1], 1.0, "higher",
              "the sequential emulation (identical solutions) is not slower than "
              "the simulator at the largest size (simulator time / its time)",
              timed=True),
    )),
    "E10": Experiment(
        run_e10_variants_table, "variant comparison",
        "the trade-off is a technique, not a single algorithm: two "
        "realizations with the same k behave comparably.", (
        _ABOVE_LP,
        Claim("budget_margin", lambda r: _worst(
              row[4] / round_budget(row[0]) for row in r.rows), 1.0, "lower",
              "both realizations stay in the schedule's round budget, 4k + 5 "
              "for square k (largest rounds / budget)"),
    )),
    "E11": Experiment(
        run_e11_faults, "fault extension",
        "(extension; the paper assumes reliable links) behaviour under "
        "message loss.", (
        Claim("fault_free_complete", lambda r: r.rows[0][1], 1.0, "higher",
              "fault-free runs (the paper's setting) always complete"),
        Claim("fault_free_unserved", lambda r: r.rows[0][2], 0.0, "lower",
              "and leave no client unserved (mean unserved clients)"),
        Claim("worst_repaired_ratio", lambda r: max(_finite_cells(
              r, "repaired_ratio")), 25.0, "lower", "under injected loss, "
              "repaired solutions stay within 25x the LP bound"),
    )),
    "E12": Experiment(
        run_e12_ladder_necessity, "ladder necessity",
        "the round/approximation trade-off is real: instances exist on "
        "which a too-small round budget forces a poor approximation "
        "(lower-bound side of the trade-off).", (
        Claim("k1_over_gap", lambda r: _by_first(r)[1] / r.notes["gap"], 0.5,
              "higher", "with one threshold (k=1) the decoys win: the ratio "
              "reaches half the planted gap (k=1 ratio / gap)"),
        Claim("ladder_ratio", lambda r: _worst(
              v for k, v in _by_first(r).items() if k > 1), 1.5, "lower",
              "more thresholds isolate the good facility (largest ratio, k > 1)"),
    )),
    "E13": Experiment(
        run_e13_settle_ablation, "settle ablation",
        "(design-choice ablation) the second sqrt(k) factor — repeated "
        "conflict-resolution iterations per scale — contributes to the "
        "approximation.", (
        Claim("two_minus_one", lambda r: r.column("ratio_mean")[1]
              - r.column("ratio_mean")[0], 0.05, "lower", "two settle iterations "
              "are not worse than one (R=2 minus R=1; 0.05 is seed noise)"),
        Claim("most_minus_best", lambda r: r.column("ratio_mean")[-1]
              - _worst(r.column("ratio_mean"), min), 0.05, "lower", "and the most "
              "iterations is, within that slack, the best"),
    )),
    "E14": Experiment(
        run_e14_anytime, "anytime truncation",
        "(extension) anytime reading of the trade-off: truncating the "
        "schedule degrades quality gracefully.", (
        Claim("served_drop", lambda r: _largest_drop(r.column("served_frac")), 0.0,
              "lower", "the served fraction never falls as the schedule runs "
              "longer (largest fall between truncations)"),
        Claim("repairable_drop", lambda r: _largest_drop(
              r.column("repairable_frac")), 0.0, "lower",
              "nor does the repairable fraction"),
        Claim("final_served", lambda r: r.column("served_frac")[-1], 1.0,
              "higher", "the completed run serves every client"),
        Claim("final_repairable", lambda r: r.column("repairable_frac")[-1], 1.0,
              "higher", "and is always repairable"),
    )),
    "E15": Experiment(
        run_e15_concentration, "w.h.p. concentration",
        "the guarantee holds with high probability over the algorithm's "
        "coins.", (
        Claim("envelope_margin", lambda r: _peak(r, "max", "envelope"), 1.0,
              "lower", _ENVELOPE + ", for the worst seed"),
        Claim("max_spread", lambda r: _worst(r.column("max/p50")), 1.5, "lower",
              "the worst seed is within 1.5x of the median at every k"),
    )),
    "E16": Experiment(
        run_e16_opening_rule, "opening-rule ablation",
        "(design-choice ablation) a facility should open only when a "
        "constant fraction of its proposed star accepted; the analysis "
        "uses one half.", (
        Claim("half_minus_any", lambda r: _by_first(r)[0.5] - _by_first(r)[0.0],
              1e-9, "lower", "opening on half the star is no worse than on any "
              "accept, which pays for under-filled facilities (1/2 minus 0)"),
        Claim("half_minus_full", lambda r: _by_first(r)[0.5] - _by_first(r)[1.0],
              1e-9, "lower", "nor than demanding the full star, which deadlocks "
              "contested ones (1/2 minus 1)"),
    )),
    "E17": Experiment(
        run_e17_fault_families, "resilience per fault family",
        "(resilience extension) reliable delivery plus self-healing "
        "restores the paper's reliable-network guarantees under "
        "injected faults.", (
        Claim("resilient_minus_plain", lambda r: _worst((b - a for a, b in zip(
              r.column("plain_complete"), r.column("resilient_complete"))), min), 0.0,
              "higher", "resilience never completes less often than the plain "
              "protocol (smallest difference of completion rates)"),
        Claim("resilient_complete", lambda r: _worst(
              r.column("resilient_complete"), min), 1.0, "higher",
              "every fault family completes at these intensities"),
        Claim("worst_healed_ratio", lambda r: max(_finite_cells(
              r, "healed_ratio")), 25.0, "lower",
              "healed solutions stay within 25x the LP bound"),
        Claim("families_without_retries", lambda r: sum(
              not v > 0 for v in r.column("retries_mean")), 0, "lower",
              "every fault family exercises the retransmit sublayer"),
    )),
}


def save_result(
    directory: str | Path, result: ExperimentResult, claims: Sequence[Claim] = ()
) -> Path:
    """Write both faces of an experiment into ``directory``.

    ``<ID>.txt`` is the rendered table, for humans and EXPERIMENTS.md
    diffs; ``<ID>.json`` is the BENCH file ``repro compare`` diffs
    across versions, with each claim's value, bound and direction.
    Neither holds a clock reading (timing columns and ``timed`` claims
    stay out), so unchanged code rewrites the same bytes. Returns the
    BENCH file's path.
    """
    from repro.obs.bench import write_bench

    eid = result.experiment_id
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    saved = result.untimed()
    (directory / f"{eid}.txt").write_text(saved.table + "\n")
    record = saved.to_record()
    record["claims"] = {
        claim.name: {
            "value": float(claim.value(result)),
            "bound": claim.bound,
            "better": claim.better,
        }
        for claim in claims
        if not claim.timed
    }
    return write_bench(eid, {eid: record}, directory / f"{eid}.json")
