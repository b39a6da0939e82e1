"""The paper's contribution: distributed facility location with a
round/approximation trade-off.

Public entry points:

* :class:`~repro.core.algorithm.DistributedFacilityLocation` — run the
  reconstructed PODC 2005 algorithm on an instance for a trade-off
  parameter ``k`` and get back a solution plus network metrics,
* :class:`~repro.core.parameters.TradeoffParameters` — how ``k`` maps to
  scales, settle iterations and the threshold base,
* :mod:`~repro.core.bounds` — the analytic guarantee envelope
  ``O(sqrt(k) * (m rho)^(1/sqrt k) * log(m+n))`` used by experiments,
* :func:`~repro.core.algorithm.solve_distributed` — the one solve entry
  point: the simulator or either emulation engine
  (:data:`~repro.core.algorithm.ENGINES`: the loop oracle of
  :mod:`~repro.core.sequential_sim` and the columnar engine of
  :mod:`~repro.core.columnar`), coin-for-coin identical results shaped
  as one :class:`~repro.core.algorithm.DistributedRunResult`.
"""

from repro.core.algorithm import (
    DistributedFacilityLocation,
    DistributedRunResult,
    Variant,
)
from repro.core.healing import SelfHealingPolicy
from repro.core.parameters import TradeoffParameters
from repro.core.bounds import (
    approximation_envelope,
    round_budget,
    message_bits_envelope,
)

__all__ = [
    "DistributedFacilityLocation",
    "DistributedRunResult",
    "Variant",
    "TradeoffParameters",
    "SelfHealingPolicy",
    "approximation_envelope",
    "round_budget",
    "message_bits_envelope",
]
