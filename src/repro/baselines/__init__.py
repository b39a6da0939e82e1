"""Sequential baselines the distributed algorithm is compared against.

* :func:`~repro.baselines.greedy.greedy_solve` — Hochbaum's star greedy,
  the classical ``O(log n)``-approximation for non-metric instances (the
  quality target the distributed algorithm approaches as ``k`` grows);
* :func:`~repro.baselines.jain_vazirani.jain_vazirani_solve` — the JV
  primal-dual 3-approximation (metric instances);
* :func:`~repro.baselines.mettu_plaxton.mettu_plaxton_solve` — the
  Mettu–Plaxton ball-radius 3-approximation (metric instances);
* :func:`~repro.baselines.local_search.local_search_solve` — add/drop/swap
  local search;
* :func:`~repro.baselines.lp.solve_lp` — the LP relaxation lower bound
  (the denominator of every measured approximation ratio);
* :func:`~repro.baselines.lp_rounding.lp_rounding_solve` — deterministic
  LP filtering + rounding (Shmoys–Tardos–Aardal style);
* :func:`~repro.baselines.exact.exact_solve` — exhaustive optimum for tiny
  instances (cross-checks the LP bound and every approximation factor).
"""

from repro.baselines.exact import exact_solve
from repro.baselines.greedy import greedy_solve
from repro.baselines.jain_vazirani import jain_vazirani_solve
from repro.baselines.local_search import local_search_solve
from repro.baselines.lp import LPResult, solve_lp
from repro.baselines.lp_rounding import lp_rounding_solve
from repro.baselines.mettu_plaxton import mettu_plaxton_solve

__all__ = [
    "greedy_solve",
    "jain_vazirani_solve",
    "mettu_plaxton_solve",
    "local_search_solve",
    "solve_lp",
    "LPResult",
    "lp_rounding_solve",
    "exact_solve",
]
