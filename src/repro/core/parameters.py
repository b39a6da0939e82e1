"""Derivation of the trade-off parameters from ``k``.

The paper's single knob is an integer ``k >= 1``: the algorithm must finish
in ``O(k)`` communication rounds and in exchange guarantees an
``O(sqrt(k) * (m rho)^(1/sqrt k) * log(m+n))`` approximation. This module
fixes how ``k`` is split between the two nested loops of the protocol:

* ``num_scales  = ceil(sqrt(k))`` — the efficiency thresholds form a
  geometric ladder with this many levels spanning the instance's whole
  *star-efficiency* range,
* ``num_settle  = ceil(k / num_scales)`` — how many proposal/accept
  iterations run inside each scale (conflict resolution between facilities
  competing for the same clients needs repetition),
* ``base = (eff_max / eff_min) ** (1 / num_scales)`` — the multiplicative
  gap between consecutive thresholds; this is the ``(m rho)^(1/sqrt k)``
  term of the bound (the star-efficiency spread is polynomially related to
  ``m * rho``; see :func:`efficiency_range`).

Every node can compute the whole schedule locally from ``k`` and the
instance-level coefficients (``eff_min``, ``eff_max``, ``N``), which the
paper assumes are known (knowledge of ``rho``; fidelity note 4 in
DESIGN.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.exceptions import AlgorithmError
from repro.fl.instance import FacilityLocationInstance

__all__ = ["TradeoffParameters", "efficiency_range"]

#: Relative tolerance for threshold comparisons: a star qualifies at a
#: threshold ``t`` when its efficiency is ``<= t * (1 + _THRESHOLD_RTOL)``.
#: Keeps the schedule robust to float rounding at scale boundaries.
_THRESHOLD_RTOL = 1e-9


def efficiency_range(instance: FacilityLocationInstance) -> tuple[float, float]:
    """Exact range ``(eff_min, eff_max)`` of star efficiencies.

    A *star* is a facility ``i`` together with a non-empty subset ``S`` of
    its adjacent clients; its efficiency is ``(f_i + sum_{j in S} c_ij) /
    |S|``. For a fixed facility the minimizing subset is always a prefix of
    its clients sorted by connection cost, so both extremes are computable
    in ``O(m n log n)``:

    * ``eff_min`` — the best efficiency of any star when every client is
      available (efficiencies only degrade as clients get covered),
    * ``eff_max`` — the worst single-client star ``f_i + c_ij`` (any larger
      star has efficiency at most this; see instance docs).

    ``eff_min`` is clamped to a tiny positive multiple of ``eff_max`` so the
    geometric ladder is well defined even when a zero-cost star exists
    (e.g. a free facility with free edges).
    """
    eff_min = math.inf
    eff_max = 0.0
    c = instance.connection_costs
    for i in range(instance.num_facilities):
        row = c[i]
        finite = row[np.isfinite(row)]
        if finite.size == 0:
            continue
        ordered = np.sort(finite)
        prefix = np.cumsum(ordered)
        sizes = np.arange(1, ordered.size + 1)
        ratios = (instance.opening_cost(i) + prefix) / sizes
        eff_min = min(eff_min, float(ratios.min()))
        eff_max = max(eff_max, float(instance.opening_cost(i) + ordered[-1]))
    if not math.isfinite(eff_min):
        raise AlgorithmError("instance has no facility-client edge")
    eff_max = max(eff_max, eff_min, 1e-300)
    eff_min = max(eff_min, eff_max * 1e-12)
    return eff_min, eff_max


@dataclass(frozen=True)
class TradeoffParameters:
    """The full schedule derived from ``k`` and the instance coefficients.

    Construct through :meth:`from_instance`. Instances of this class are
    shared, read-only, by every node of a run (they represent the globally
    known quantities of the model).
    """

    k: int
    num_scales: int
    num_settle: int
    base: float
    eff_min: float
    eff_max: float
    num_nodes: int

    @classmethod
    def from_instance(
        cls, instance: FacilityLocationInstance, k: int
    ) -> "TradeoffParameters":
        """Derive the schedule for trade-off parameter ``k`` on ``instance``."""
        if k < 1:
            raise AlgorithmError(f"trade-off parameter k must be >= 1, got {k}")
        eff_min, eff_max = efficiency_range(instance)
        num_scales, num_settle = cls.split(k)
        ratio = max(1.0, eff_max / eff_min)
        base = ratio ** (1.0 / num_scales)
        return cls(
            k=k,
            num_scales=num_scales,
            num_settle=num_settle,
            base=base,
            eff_min=eff_min,
            eff_max=eff_max,
            num_nodes=instance.num_nodes,
        )

    @staticmethod
    def split(k: int) -> tuple[int, int]:
        """``(num_scales, num_settle)`` of :meth:`from_instance` for ``k``."""
        num_scales = max(1, math.ceil(math.sqrt(k)))
        return num_scales, max(1, math.ceil(k / num_scales))

    @classmethod
    def linear(
        cls, instance: FacilityLocationInstance, k: int
    ) -> "TradeoffParameters":
        """Alternative split used by the dual-ascent variant: ``k`` scales,
        one settle iteration each.

        The dual-ascent protocol has no intra-scale conflict resolution to
        repeat, so it spends the whole round budget on a finer threshold
        ladder (base ``(eff_max/eff_min)^(1/k)`` instead of ``^(1/sqrt k)``).
        """
        if k < 1:
            raise AlgorithmError(f"trade-off parameter k must be >= 1, got {k}")
        eff_min, eff_max = efficiency_range(instance)
        ratio = max(1.0, eff_max / eff_min)
        return cls(
            k=k,
            num_scales=k,
            num_settle=1,
            base=ratio ** (1.0 / k),
            eff_min=eff_min,
            eff_max=eff_max,
            num_nodes=instance.num_nodes,
        )

    @classmethod
    def custom(
        cls,
        instance: FacilityLocationInstance,
        num_scales: int,
        num_settle: int,
    ) -> "TradeoffParameters":
        """Pinned schedule for ablation experiments.

        Builds the ladder for an explicit scales/settle split instead of
        deriving it from ``k``; the recorded ``k`` is the total iteration
        count ``num_scales * num_settle``.
        """
        if num_scales < 1 or num_settle < 1:
            raise AlgorithmError(
                f"scales and settle must be >= 1, got {num_scales}x{num_settle}"
            )
        eff_min, eff_max = efficiency_range(instance)
        ratio = max(1.0, eff_max / eff_min)
        return cls(
            k=num_scales * num_settle,
            num_scales=num_scales,
            num_settle=num_settle,
            base=ratio ** (1.0 / num_scales),
            eff_min=eff_min,
            eff_max=eff_max,
            num_nodes=instance.num_nodes,
        )

    # ------------------------------------------------------------------
    # Schedule queries (all local, used identically by every node)
    # ------------------------------------------------------------------

    @property
    def num_iterations(self) -> int:
        """Total proposal iterations: ``num_scales * num_settle``."""
        return self.num_scales * self.num_settle

    def threshold(self, scale: int) -> float:
        """Efficiency threshold of scale ``scale`` (1-based).

        ``threshold(num_scales) == eff_max`` exactly, so by the last scale
        every single-client star qualifies — this is what makes the final
        fallback cheap.
        """
        if not 1 <= scale <= self.num_scales:
            raise AlgorithmError(
                f"scale must lie in [1, {self.num_scales}], got {scale}"
            )
        if scale == self.num_scales:
            return self.eff_max
        return self.eff_min * self.base**scale

    def scale_of_iteration(self, iteration: int) -> int:
        """Which scale a (1-based) iteration belongs to."""
        if not 1 <= iteration <= self.num_iterations:
            raise AlgorithmError(
                f"iteration must lie in [1, {self.num_iterations}], got {iteration}"
            )
        return 1 + (iteration - 1) // self.num_settle

    def qualifies(self, efficiency: float, scale: int) -> bool:
        """Threshold test with the schedule's float tolerance."""
        return efficiency <= self.threshold(scale) * (1.0 + _THRESHOLD_RTOL)

    def qualifies_many(self, efficiencies: np.ndarray, scale: int) -> np.ndarray:
        """Vectorized :meth:`qualifies` over an array of efficiencies.

        Elementwise identical to the scalar test (same threshold float,
        same tolerance factor), so batched engines reproduce the scalar
        engines' qualification decisions exactly.
        """
        return efficiencies <= self.threshold(scale) * (1.0 + _THRESHOLD_RTOL)

    def describe(self) -> str:
        """One-line human-readable summary for logs and tables."""
        return (
            f"k={self.k}: {self.num_scales} scales x {self.num_settle} settle, "
            f"base={self.base:.4g}, eff in [{self.eff_min:.4g}, {self.eff_max:.4g}]"
        )
