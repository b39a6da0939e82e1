"""repro — distributed facility-location approximation (PODC 2005 reproduction).

The public API in one import::

    from repro import solve_distributed, solve_lp
    from repro.fl.generators import uniform_instance

    instance = uniform_instance(20, 60, seed=1)
    result = solve_distributed(instance, k=9, seed=1)
    lp = solve_lp(instance)
    print(result.cost / lp.value, result.metrics.rounds)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
experiment index.
"""

from repro.core.algorithm import (
    DistributedFacilityLocation,
    DistributedRunResult,
    Variant,
    solve_distributed,
)
from repro.core.bounds import (
    approximation_envelope,
    message_bits_envelope,
    round_budget,
)
from repro.core.dual_ascent_nodes import RoundingPolicy
from repro.core.parameters import TradeoffParameters
from repro.baselines import (
    exact_solve,
    greedy_solve,
    jain_vazirani_solve,
    local_search_solve,
    lp_rounding_solve,
    mettu_plaxton_solve,
    solve_lp,
)
from repro.exceptions import (
    AlgorithmError,
    InfeasibleSolutionError,
    InvalidInstanceError,
    InvariantViolationError,
    ReproError,
    SimulationError,
    SolverError,
)
from repro.core.healing import SelfHealingPolicy
from repro.fl.instance import FacilityLocationInstance
from repro.fl.solution import FacilityLocationSolution
from repro.net.faults import (
    FaultPlan,
    GilbertElliottLoss,
    LinkFailure,
    NetworkPartition,
)
from repro.net.reliability import ReliabilityPolicy, ReliabilityStats
from repro.net.simulator import Simulator
from repro.net.topology import Topology
from repro.net.trace import NullTrace, Trace
from repro.obs import (
    JsonlTraceSink,
    MetricsRegistry,
    RoundTimeline,
    RoundTimelineEntry,
    RunRecord,
    ServiceGuaranteeWatchdog,
    SolutionQualityProbe,
    compare_metrics,
    compare_paths,
    default_watchdogs,
    inspect_trace,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "DistributedFacilityLocation",
    "DistributedRunResult",
    "Variant",
    "solve_distributed",
    "TradeoffParameters",
    "RoundingPolicy",
    "SelfHealingPolicy",
    "approximation_envelope",
    "round_budget",
    "message_bits_envelope",
    # problem substrate
    "FacilityLocationInstance",
    "FacilityLocationSolution",
    # baselines
    "greedy_solve",
    "jain_vazirani_solve",
    "mettu_plaxton_solve",
    "local_search_solve",
    "lp_rounding_solve",
    "exact_solve",
    "solve_lp",
    # network substrate
    "Simulator",
    "Topology",
    "FaultPlan",
    "GilbertElliottLoss",
    "LinkFailure",
    "NetworkPartition",
    "ReliabilityPolicy",
    "ReliabilityStats",
    "Trace",
    "NullTrace",
    # observability
    "JsonlTraceSink",
    "RoundTimeline",
    "RoundTimelineEntry",
    "RunRecord",
    "inspect_trace",
    "MetricsRegistry",
    "SolutionQualityProbe",
    "ServiceGuaranteeWatchdog",
    "default_watchdogs",
    "compare_metrics",
    "compare_paths",
    # errors
    "ReproError",
    "InvalidInstanceError",
    "InfeasibleSolutionError",
    "SimulationError",
    "AlgorithmError",
    "SolverError",
    "InvariantViolationError",
]
