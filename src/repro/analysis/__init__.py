"""Experiment harness: ratios, aggregation, tables, canonical configs.

* :mod:`~repro.analysis.ratios` — approximation ratios against the LP
  lower bound (and the exact optimum where available);
* :mod:`~repro.analysis.aggregate` — multi-seed aggregation with means,
  standard deviations and normal-approximation confidence intervals;
* :mod:`~repro.analysis.tables` — fixed-width ASCII tables, the output
  format of every benchmark;
* :mod:`~repro.analysis.experiments` — the canonical experiment
  configurations E1–E17 and the table of their runners and declared
  claims, read by ``repro experiment``, ``repro report`` and tier-1;
* :mod:`~repro.analysis.chaos` — the chaos harness sweeping fault
  families and intensities against feasibility/cost-inflation gates
  (import it as a module; it is not re-exported here to keep this
  package import-light and cycle-free).
"""

from repro.analysis.aggregate import Aggregate, aggregate
from repro.analysis.ratios import ratio_vs_lp, RatioReport
from repro.analysis.tables import render_table

__all__ = [
    "Aggregate",
    "aggregate",
    "ratio_vs_lp",
    "RatioReport",
    "render_table",
]
