"""Orchestration of the distributed algorithm over the simulator.

:class:`DistributedFacilityLocation` wires an instance into the bipartite
communication topology, instantiates the protocol nodes for the chosen
variant, runs the synchronous simulator, and extracts a checked
:class:`~repro.fl.solution.FacilityLocationSolution` together with the
network metrics the paper's claims are stated in.
:func:`solve_distributed` is the one solve entry point for every engine:
the simulator, or the loop / columnar emulations shaped as the same
:class:`DistributedRunResult`.

Two protocol variants are provided (experiment E10 compares them):

* ``Variant.GREEDY`` — the flagship scaled parallel greedy
  (:mod:`repro.core.greedy_nodes`), `ceil(sqrt(k))` efficiency scales with
  `ceil(k/sqrt(k))` settle iterations each;
* ``Variant.DUAL_ASCENT`` — the primal-dual mirror
  (:mod:`repro.core.dual_ascent_nodes`), ``k`` discrete budget levels plus
  a rounding phase whose policy is configurable (ablation E6).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable, Mapping, Sequence

from repro.core.dual_ascent_nodes import (
    DualClientNode,
    DualFacilityNode,
    RoundingPolicy,
    dual_schedule_length,
)
from repro.core.greedy_nodes import (
    GreedyClientNode,
    GreedyFacilityNode,
    schedule_length,
)
from repro.core.healing import SelfHealingPolicy, healing_round_budget
from repro.core.parameters import TradeoffParameters
from repro.exceptions import AlgorithmError
from repro.fl.instance import FacilityLocationInstance
from repro.fl.solution import FacilityLocationSolution
from repro.net.faults import FaultPlan
from repro.net.metrics import NetworkMetrics
from repro.net.reliability import ReliabilityPolicy
from repro.net.simulator import Simulator
from repro.net.topology import Topology
from repro.net.trace import Trace
from repro.obs.probes import RoundProbe, SolutionQualityProbe
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import Tracer
from repro.obs.timeline import RoundTimeline
from repro.obs.watchdogs import Watchdog

__all__ = [
    "ENGINES",
    "Variant",
    "DistributedRunResult",
    "DistributedFacilityLocation",
    "check_engine",
    "solve_distributed",
]


#: Engines :func:`solve_distributed` runs: the message-passing
#: simulator, the pure-Python loop oracle, and the columnar CSR engine
#: (the only one that shards). All three are coin-for-coin identical.
ENGINES = ("simulator", "loop", "columnar")


class Variant(str, Enum):
    """Which protocol realizes the trade-off."""

    GREEDY = "greedy"
    DUAL_ASCENT = "dual_ascent"


def _schedule(
    instance: FacilityLocationInstance, k: int, variant: Variant
) -> TradeoffParameters:
    """The schedule ``k`` buys each variant: greedy splits it into
    ``sqrt(k)`` scales, dual ascent spends it on ``k`` levels."""
    if variant is Variant.GREEDY:
        return TradeoffParameters.from_instance(instance, k)
    return TradeoffParameters.linear(instance, k)


@dataclass(frozen=True)
class DistributedRunResult:
    """Everything a run produces.

    ``solution`` is ``None`` only when fault injection left some client
    unserved (``unserved_clients`` lists them); fault-free runs always
    yield a validated feasible solution.

    ``timeline`` holds one record per round from round 0 (setup), the
    records ``metrics`` took its round count and per-round peaks from:
    the simulator's carry wall-clock, traffic, drops and node counts; the
    columnar ledger's carry the same traffic with no wall-clock; the
    loop engine's is empty. ``wall_seconds`` is the total wall-clock of
    the run, so experiment records and manifests can report where time
    went without re-running.
    """

    instance: FacilityLocationInstance
    params: TradeoffParameters
    variant: Variant
    solution: FacilityLocationSolution | None
    open_facilities: frozenset[int]
    unserved_clients: tuple[int, ...]
    metrics: NetworkMetrics
    timeline: RoundTimeline = field(default_factory=RoundTimeline)
    wall_seconds: float = 0.0
    diagnostics: Mapping[str, Any] = field(default_factory=dict)

    @property
    def cost(self) -> float:
        """Solution cost; raises when the run left clients unserved."""
        if self.solution is None:
            raise AlgorithmError(
                f"run left {len(self.unserved_clients)} clients unserved "
                "(fault injection); no cost is defined"
            )
        return self.solution.cost

    @property
    def feasible(self) -> bool:
        """Whether the run produced a complete feasible solution."""
        return self.solution is not None

    def repaired_solution(self) -> FacilityLocationSolution:
        """Best-effort repair for faulty runs.

        Reassigns every client to its cheapest *open* facility; raises
        :class:`~repro.exceptions.InfeasibleSolutionError` when some client
        has no open neighbor at all (e.g. every neighbor crashed). Used by
        the fault experiment E11 to quantify repair cost.
        """
        if self.solution is not None:
            return self.solution
        return FacilityLocationSolution.from_open_set(
            self.instance, self.open_facilities
        )


class DistributedFacilityLocation:
    """Configured runner for the distributed trade-off algorithm.

    Parameters
    ----------
    instance:
        The facility-location instance to solve.
    k:
        Trade-off parameter: the protocol uses ``Theta(k)`` rounds.
    variant:
        Protocol variant (default: the flagship scaled parallel greedy).
    seed:
        Experiment seed; all node coin flips derive from it.
    rounding:
        Rounding policy (dual-ascent variant only).
    fault_plan:
        Optional fault injection.
    reliability:
        Optional :class:`~repro.net.reliability.ReliabilityPolicy` turning
        on the ACK/retransmit sublayer (zero overhead when no fault
        fires); see :mod:`repro.net.reliability`.
    healing:
        Optional :class:`~repro.core.healing.SelfHealingPolicy` letting
        unserved clients escalate to their cheapest responsive facility
        instead of finishing unserved; see :mod:`repro.core.healing`.
        The round budget grows by :func:`~repro.core.healing.healing_round_budget`.
    max_message_bits:
        Optional hard per-message bit budget (``None`` = measure only).
    trace:
        Optional event trace.
    params:
        Explicit schedule override (ablation experiments use this to pin
        non-standard scales/settle splits); when given, ``k`` is ignored.
    open_fraction:
        Opening rule of the flagship variant: fraction of a proposed star
        that must accept before a closed facility opens (default 0.5, the
        analyzed half-star rule; ablation E16).
    probes:
        Round probes forwarded to the simulator (see
        :mod:`repro.obs.probes`). ``probe_quality=True`` is the shorthand
        that attaches a :class:`~repro.obs.probes.SolutionQualityProbe`
        for this instance.
    watchdogs:
        Invariant watchdogs forwarded to the simulator (see
        :mod:`repro.obs.watchdogs`).
    registry:
        Optional metrics registry shared by the simulator and the nodes.
    probe_quality:
        Convenience flag: attach a quality probe (per-round dual sum,
        induced primal cost, anytime ratio against ``lower_bound``).
    lower_bound:
        Lower bound on the optimum (typically the LP value) used by the
        quality probe's ``ratio_vs_bound``.
    tracer:
        Optional :class:`~repro.obs.spans.Tracer` shared with the
        simulator; the run becomes an ``algo.run`` span with a
        ``sim.build`` child and per-round children. Purely observational —
        never changes the output.
    recorder:
        Optional :class:`~repro.obs.recorder.FlightRecorder` shared with
        the simulator: every round is digested (node state + message
        plane), emulation-aligned checkpoints are emitted at the protocol
        alignment points, and the final open set/assignment is recorded.
        Purely observational — never changes the output.
    """

    def __init__(
        self,
        instance: FacilityLocationInstance,
        k: int,
        variant: Variant | str = Variant.GREEDY,
        seed: int = 0,
        rounding: RoundingPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        reliability: ReliabilityPolicy | None = None,
        healing: SelfHealingPolicy | None = None,
        max_message_bits: int | None = None,
        trace: Trace | None = None,
        params: TradeoffParameters | None = None,
        open_fraction: float = 0.5,
        probes: Sequence[RoundProbe] = (),
        watchdogs: Sequence[Watchdog] = (),
        registry: MetricsRegistry | None = None,
        probe_quality: bool = False,
        lower_bound: float | None = None,
        tracer: Tracer | None = None,
        recorder=None,
    ) -> None:
        self.instance = instance
        self.variant = Variant(variant)
        self.seed = int(seed)
        self.rounding = rounding or RoundingPolicy()
        self.fault_plan = fault_plan
        self.reliability = reliability
        self.healing = healing
        self.max_message_bits = max_message_bits
        self.trace = trace
        self.open_fraction = float(open_fraction)
        self.probes: tuple[RoundProbe, ...] = tuple(probes)
        if probe_quality:
            self.probes += (
                SolutionQualityProbe(instance, lower_bound=lower_bound),
            )
        self.watchdogs: tuple[Watchdog, ...] = tuple(watchdogs)
        self.registry = registry
        self.tracer = tracer
        if params is None:
            params = _schedule(instance, k, self.variant)
        self.params = params
        self.recorder = recorder
        if recorder is not None:
            recorder.bind_simulator_phases(
                self.variant.value,
                self.params,
                instance.num_facilities,
                instance.num_clients,
            )

    # ------------------------------------------------------------------

    def build_simulator(self) -> Simulator:
        """Construct (but do not run) the simulator for this configuration."""
        instance = self.instance
        m = instance.num_facilities
        topology = Topology.from_instance(instance)
        # Each cost row and column is read once: .tolist() yields the same
        # Python floats as one connection_cost call per edge end.
        costs = instance.connection_costs
        opening = instance.opening_costs.tolist()
        greedy = self.variant is Variant.GREEDY
        nodes: list = []
        for i, row in enumerate(costs):
            row = row.tolist()
            client_costs = {m + j: row[j] for j in instance.clients_of_facility(i)}
            if greedy:
                nodes.append(
                    GreedyFacilityNode(
                        i,
                        opening[i],
                        client_costs,
                        self.params,
                        open_fraction=self.open_fraction,
                    )
                )
            else:
                nodes.append(
                    DualFacilityNode(
                        i,
                        opening[i],
                        client_costs,
                        self.params,
                        self.rounding,
                    )
                )
        for j, column in enumerate(costs.T):
            column = column.tolist()
            facility_costs = {i: column[i] for i in instance.facilities_of_client(j)}
            if greedy:
                nodes.append(
                    GreedyClientNode(
                        m + j, facility_costs, self.params, healing=self.healing
                    )
                )
            else:
                nodes.append(
                    DualClientNode(
                        m + j, facility_costs, self.params, healing=self.healing
                    )
                )
        return Simulator(
            topology,
            nodes,
            seed=self.seed,
            fault_plan=self.fault_plan,
            reliability=self.reliability,
            max_message_bits=self.max_message_bits,
            trace=self.trace,
            probes=self.probes,
            watchdogs=self.watchdogs,
            registry=self.registry,
            tracer=self.tracer,
            recorder=self.recorder,
        )

    def schedule_rounds(self) -> int:
        """Deterministic round budget of the configured protocol."""
        if self.variant is Variant.GREEDY:
            return schedule_length(self.params)
        return dual_schedule_length(self.params)

    def round_budget(self) -> int:
        """Total simulator round limit including resilience tails.

        The protocol schedule plus two rounds of delivery slack, plus the
        self-healing tail (probe/connect attempts) and the worst-case
        retransmission backoff chain when the respective policy is on.
        """
        budget = self.schedule_rounds() + 2
        if self.healing is not None:
            budget += healing_round_budget(self.healing)
        if self.reliability is not None:
            r = self.reliability
            budget += r.backoff * r.max_retries * (r.max_retries + 1) // 2 + 2
        return budget

    def run(self) -> DistributedRunResult:
        """Execute the protocol and extract the solution and metrics.

        With a tracer attached the whole execution becomes an
        ``algo.run`` span (variant/k/rounds annotated) whose children are
        a ``sim.build`` span (:meth:`build_simulator`) and the
        simulator's per-round ``sim.round`` spans.
        """
        span = None
        if self.tracer is not None:
            span = self.tracer.start_span(
                "algo.run",
                attributes={"variant": self.variant.value, "k": self.params.k},
            )
        try:
            if span is None:
                simulator = self.build_simulator()
            else:
                with self.tracer.span("sim.build"):
                    simulator = self.build_simulator()
            start = time.perf_counter()
            metrics = simulator.run(max_rounds=self.round_budget())
        except Exception:
            if span is not None:
                span.end(status="error")
            raise
        wall_seconds = time.perf_counter() - start
        if span is not None:
            span.annotate(rounds=int(metrics.rounds)).end()
        return self._extract(simulator, metrics, wall_seconds)

    def run_truncated(self, max_rounds: int) -> DistributedRunResult:
        """Execute at most ``max_rounds`` rounds and extract the partial state.

        Models a network that stops early (anytime behaviour, experiment
        E14): the run is cut mid-schedule, so clients that had not yet
        received a SERVE confirmation are reported in
        ``unserved_clients`` and ``solution`` is ``None`` unless the cut
        happened after the force phase completed. Use
        :meth:`DistributedRunResult.repaired_solution` to quantify the
        quality of the partial open set (it raises while no open facility
        covers every client).
        """
        simulator = self.build_simulator()
        budget = min(max_rounds, self.round_budget())
        start = time.perf_counter()
        metrics = simulator.run(max_rounds=budget, allow_truncation=True)
        wall_seconds = time.perf_counter() - start
        return self._extract(simulator, metrics, wall_seconds)

    # ------------------------------------------------------------------

    def _extract(
        self, simulator: Simulator, metrics: NetworkMetrics, wall_seconds: float = 0.0
    ) -> DistributedRunResult:
        m = self.instance.num_facilities
        facilities = simulator.nodes[:m]
        clients = simulator.nodes[m:]
        open_set = frozenset(
            node.node_id
            for node in facilities
            if node.is_open and not node.crashed
        )
        assignment: dict[int, int] = {}
        unserved: list[int] = []
        for node in clients:
            j = node.node_id - m
            target = node.connected_to
            if target is None or target not in open_set:
                unserved.append(j)
            else:
                assignment[j] = target
        if self.recorder is not None:
            self.recorder.observe_final(
                open_set, assignment, m, self.instance.num_clients
            )
        solution: FacilityLocationSolution | None = None
        if not unserved:
            solution = FacilityLocationSolution(
                self.instance, open_set, assignment, validate=True
            )
        diagnostics = self._diagnostics(facilities, clients)
        if self.watchdogs:
            diagnostics["invariant_violations"] = sum(
                len(w.violations) for w in self.watchdogs
            )
        if self.healing is not None:
            diagnostics["num_healed_clients"] = sum(
                1
                for c in clients
                if getattr(c, "used_heal", False) and c.connected_to is not None
            )
            diagnostics["num_heal_gave_up"] = sum(
                1 for c in clients if getattr(c, "heal_gave_up", False)
            )
            diagnostics["num_healed_opens"] = sum(
                1 for f in facilities if getattr(f, "was_healed", False)
            )
        if self.reliability is not None:
            diagnostics["reliability"] = simulator.reliability_stats.summary()
        if simulator.fault_warnings:
            diagnostics["fault_plan_warnings"] = list(simulator.fault_warnings)
        return DistributedRunResult(
            instance=self.instance,
            params=self.params,
            variant=self.variant,
            solution=solution,
            open_facilities=open_set,
            unserved_clients=tuple(unserved),
            metrics=metrics,
            timeline=simulator.timeline,
            wall_seconds=wall_seconds,
            diagnostics=diagnostics,
        )

    def _diagnostics(self, facilities, clients) -> dict[str, Any]:
        """Protocol-level counters used by tests and experiment tables;
        the emulation engines report the same keys."""
        diagnostics: dict[str, Any] = {
            "num_open": sum(f.is_open for f in facilities),
            "num_forced_opens": sum(f.was_forced for f in facilities),
            "num_forced_clients": sum(c.used_force for c in clients),
        }
        if self.variant is Variant.GREEDY:
            diagnostics["total_failed_accepts"] = sum(c.failed_accepts for c in clients)
        else:
            diagnostics["num_tight"] = sum(f.is_tight for f in facilities)
            diagnostics["mean_witnesses"] = (
                sum(len(c.witnesses) for c in clients) / max(len(clients), 1)
            )
        return diagnostics


def solve_distributed(
    instance: FacilityLocationInstance,
    k: int,
    variant: Variant | str = Variant.GREEDY,
    seed: int = 0,
    engine: str = "simulator",
    shards: int = 1,
    **kwargs: Any,
) -> DistributedRunResult:
    """Solve ``instance`` on one of :data:`ENGINES`; the one solve entry point.

    ``engine="simulator"`` (the default) runs
    :class:`DistributedFacilityLocation`. ``"loop"`` runs the oracle of
    :mod:`repro.core.sequential_sim` and reports empty metrics (it
    exchanges no messages); ``"columnar"`` runs
    :func:`~repro.core.columnar.solve_columnar` and carries its modeled
    CONGEST traffic from a :class:`~repro.net.columnar.ColumnarBitLedger`.
    Both come back as the same :class:`DistributedRunResult`, with the
    simulator's ``diagnostics`` plus an ``"engine"`` tag. ``shards``
    splits a columnar solve across worker processes and never changes
    the answer. Every engine accepts ``rounding``, ``open_fraction``,
    ``params`` and ``recorder``, and both engines with a message plane
    ``registry``; any other keyword (``trace``, ``tracer``, ``watchdogs``,
    ``fault_plan``, ...) is the simulator's alone and raises
    :class:`~repro.exceptions.AlgorithmError` on the emulation engines.
    """
    check_engine(engine, shards, kwargs)
    if engine == "simulator":
        return DistributedFacilityLocation(
            instance, k, variant=variant, seed=seed, **kwargs
        ).run()
    return _run_emulation(instance, k, Variant(variant), seed, engine, shards, **kwargs)


def check_engine(
    engine: str, shards: int = 1, options: Iterable[str] = ()
) -> None:
    """Raise :class:`~repro.exceptions.AlgorithmError` unless ``engine``
    runs on ``shards`` shards with every keyword named in ``options``.

    :func:`solve_distributed` checks its call with it before it runs.
    """
    if engine not in ENGINES:
        raise AlgorithmError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    if shards != 1 and engine != "columnar":
        raise AlgorithmError(
            f"engine {engine!r} does not shard; use engine='columnar' "
            "for shards > 1"
        )
    accepted = {"rounding", "open_fraction", "params", "recorder"}
    if engine == "columnar":
        accepted.add("registry")  # it publishes the bit ledger's totals
    refused = sorted(set(options) - accepted)
    if refused and engine != "simulator":
        raise AlgorithmError(
            f"{', '.join(refused)} need engine='simulator'; engine "
            f"{engine!r} runs no message-passing network"
        )


def _run_emulation(
    instance: FacilityLocationInstance,
    k: int,
    variant: Variant,
    seed: int,
    engine: str,
    shards: int,
    rounding: RoundingPolicy | None = None,
    open_fraction: float = 0.5,
    params: TradeoffParameters | None = None,
    recorder=None,
    registry: MetricsRegistry | None = None,
) -> DistributedRunResult:
    """Run an emulation engine, shaped as a :class:`DistributedRunResult`."""
    # Imported here: both engine modules import this one.
    from repro.core.columnar import solve_columnar
    from repro.core.sequential_sim import emulate_loop

    started = time.perf_counter()
    if engine == "columnar":
        run = solve_columnar(
            instance, k, variant, seed, rounding=rounding,
            open_fraction=open_fraction, shards=shards, recorder=recorder,
            params=params,
        )
        params, metrics, timeline = run.params, run.metrics, run.timeline
        if registry is not None:
            metrics.publish(registry)
        open_set = run.open_facilities
        assignment = dict(enumerate(run.assignment.tolist()))
        diagnostics = run.diagnostics
    else:
        params = params or _schedule(instance, k, variant)
        open_set, assignment, diagnostics = emulate_loop(
            instance, variant, params, seed, open_fraction=open_fraction,
            policy=rounding, recorder=recorder,
        )
        if recorder is not None:
            recorder.observe_final(
                open_set, assignment, instance.num_facilities, instance.num_clients
            )
        metrics, timeline = NetworkMetrics(), RoundTimeline()
    solution = FacilityLocationSolution(
        instance, open_set, assignment, validate=True
    )
    return DistributedRunResult(
        instance=instance,
        params=params,
        variant=variant,
        solution=solution,
        open_facilities=frozenset(open_set),
        unserved_clients=(),
        metrics=metrics,
        timeline=timeline,
        wall_seconds=time.perf_counter() - started,
        diagnostics={"engine": engine, **diagnostics},
    )
