"""Analytic guarantee formulas of the paper, as measurable envelopes.

The paper proves three complexity statements; each function here renders
one of them as a concrete curve that experiments compare measurements
against. Absolute constants are *not* specified by asymptotic bounds, so
each envelope takes an explicit constant that EXPERIMENTS.md pins down
empirically (a reproduction can check the *shape* — growth in ``k``, ``N``
and ``rho`` — not the constants of a theory paper).
"""

from __future__ import annotations

import math
from dataclasses import replace

from repro.core import dual_ascent_nodes as dual
from repro.core import greedy_nodes as greedy
from repro.core.parameters import TradeoffParameters
from repro.exceptions import AlgorithmError

__all__ = [
    "approximation_envelope",
    "round_budget",
    "message_bits_envelope",
    "best_k_for_target_ratio",
]


def approximation_envelope(
    k: int,
    num_facilities: int,
    num_clients: int,
    rho: float,
    constant: float = 1.0,
) -> float:
    """The paper's ratio bound ``C * sqrt(k) * (m rho)^(1/sqrt k) * log(m+n)``.

    Parameters mirror the theorem statement; ``constant`` is the ``C``
    calibrated by experiment E1. The ``log`` is natural; any base change is
    absorbed into ``C``.
    """
    if k < 1:
        raise AlgorithmError(f"k must be >= 1, got {k}")
    if num_facilities < 1 or num_clients < 1:
        raise AlgorithmError("network must contain facilities and clients")
    if rho < 1:
        raise AlgorithmError(f"rho must be >= 1, got {rho}")
    n_total = num_facilities + num_clients
    sqrt_k = math.sqrt(k)
    spread = max(2.0, num_facilities * rho)
    return constant * sqrt_k * spread ** (1.0 / sqrt_k) * math.log(max(n_total, 2))


def round_budget(k: int) -> int:
    """The rounds the longer of the two protocol schedules runs for ``k``.

    Greedy runs ``T = ceil(sqrt k) * ceil(k / ceil(sqrt k))`` proposal
    iterations of four rounds, then a five-round force phase whose last
    round only serves a left-over client: ``4T + 5`` rounds, one fewer
    when no client is left over. Dual ascent runs ``3k + 5``. Both come
    from the node modules' schedule lengths, so the budget is ``Theta(k)``
    and exact; experiment E3 checks the measured rounds stay under it.
    """
    if k < 1:
        raise AlgorithmError(f"k must be >= 1, got {k}")
    num_scales, num_settle = TradeoffParameters.split(k)
    # The schedule lengths read only the loop counts, not the ladder.
    schedule = TradeoffParameters(
        k=k, num_scales=num_scales, num_settle=num_settle,
        base=1.0, eff_min=1.0, eff_max=1.0, num_nodes=2,
    )
    return max(
        greedy.schedule_length(schedule),
        dual.dual_schedule_length(replace(schedule, num_scales=k, num_settle=1)),
    )


def message_bits_envelope(num_nodes: int, constant: float = 16.0) -> float:
    """The CONGEST bound ``c * log2(N)`` bits per message.

    The default constant accommodates one 64-bit float plus tags for
    moderate ``N`` (a float models a polynomially-bounded cost, i.e.
    ``O(log N)`` bits in the theory model; DESIGN.md, message encoding
    note). Experiment E4 checks measured ``max_message_bits`` against this
    line as ``N`` grows.
    """
    if num_nodes < 2:
        raise AlgorithmError(f"need at least 2 nodes, got {num_nodes}")
    return constant * math.log2(num_nodes)


def best_k_for_target_ratio(
    target_ratio: float,
    num_facilities: int,
    num_clients: int,
    rho: float,
    constant: float = 1.0,
    k_max: int = 10_000,
) -> int:
    """Smallest ``k`` whose envelope is below ``target_ratio``.

    Utility for users who think in terms of "how many rounds do I need for
    a ratio of at most X". Returns ``k_max`` when even that does not reach
    the target (the envelope flattens at ``~ sqrt(k) log N``, so very small
    targets are unattainable; the function is monotone only down to the
    envelope's minimum and searches exhaustively for robustness).
    """
    if target_ratio <= 0:
        raise AlgorithmError(f"target ratio must be positive, got {target_ratio}")
    best = k_max
    best_value = math.inf
    for k in range(1, k_max + 1):
        value = approximation_envelope(
            k, num_facilities, num_clients, rho, constant=constant
        )
        if value < best_value:
            best_value = value
            best = k
        if value <= target_ratio:
            return k
    return best
