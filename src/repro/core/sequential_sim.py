"""The loop oracle: a sequential emulation of the distributed protocols.

This module re-implements both protocol variants *without* the message
simulator, in plain Python loops, drawing randomness from the exact same
per-node streams the simulator would hand out. It runs through
:func:`~repro.core.algorithm.solve_distributed` with ``engine="loop"``.
Tests assert that, seed for seed, it produces the *identical* open set
and assignment as the message-passing run and the columnar engine.
Agreement between independently written implementations is strong
evidence that none mis-encodes the protocol.

The emulation is faithful to the synchronous timing of the protocols: a
client served in iteration ``t`` stops being active from iteration ``t+1``
on, exactly as the one-round message delay dictates.
"""

from __future__ import annotations

import math

from repro.core.algorithm import Variant
from repro.core.dual_ascent_nodes import RoundingPolicy
from repro.core.parameters import TradeoffParameters
from repro.exceptions import AlgorithmError
from repro.fl.instance import FacilityLocationInstance
from repro.net.rng import NodeStreams

__all__ = ["emulate_loop"]

#: Test-only perturbation hook for divergence-bisection coverage: when
#: set to a callable ``(level, client, value) -> value``, every dual
#: alpha raise in the *loop* engine passes through it. Tests monkeypatch
#: it to force a single mis-raise and assert that ``repro divergence``
#: pinpoints exactly that level and client. Never set in production.
_TEST_DUAL_ALPHA_RAISE_HOOK = None


def emulate_loop(
    instance: FacilityLocationInstance,
    variant: Variant | str,
    params: TradeoffParameters,
    seed: int,
    *,
    open_fraction: float = 0.5,
    policy: RoundingPolicy | None = None,
    recorder=None,
) -> tuple[set[int], dict[int, int]]:
    """Run one variant; returns the open set and the assignment.

    The assignment is in client order: solution costs sum it in dict
    order, so every engine prints the same float. ``recorder`` (a
    :class:`repro.obs.recorder.FlightRecorder`) gets per-iteration/level
    digests and, in full-record mode, the causal provenance DAG.
    """
    if Variant(variant) is Variant.GREEDY:
        open_set, assignment = _emulate_greedy(
            instance, params, seed, open_fraction, recorder=recorder
        )
    else:
        open_set, assignment = _emulate_dual(
            instance, params, seed, policy or RoundingPolicy(), recorder=recorder
        )
    return open_set, dict(sorted(assignment.items()))


# ----------------------------------------------------------------------
# Flagship: scaled parallel greedy
# ----------------------------------------------------------------------


def _record_greedy_state(recorder, label, is_open, connected, m, n) -> None:
    """Digest one end-of-iteration greedy state into ``recorder``."""
    recorder.observe(
        label,
        {
            "open": {f"facility:{i}": is_open[i] for i in range(m)},
            "assignment": {
                f"client:{j}": connected.get(j, -1) for j in range(n)
            },
        },
    )


def _emulate_greedy(
    instance: FacilityLocationInstance,
    params: TradeoffParameters,
    seed: int,
    open_fraction: float = 0.5,
    recorder=None,
) -> tuple[set[int], dict[int, int]]:
    m = instance.num_facilities
    n = instance.num_clients
    prov = recorder.provenance if recorder is not None else None
    opened_event: dict[int, int] = {}  # facility -> its open event id
    rngs = NodeStreams(seed)  # facility i draws stream i; clients never draw
    opening = instance.opening_costs
    # Per-facility adjacency as (client, cost) sorted by (cost, node id),
    # matching GreedyFacilityNode._best_star ordering (node id = m + j).
    adjacency = [
        sorted(
            ((j, instance.connection_cost(i, j)) for j in instance.clients_of_facility(i)),
            key=lambda pair: (pair[1], m + pair[0]),
        )
        for i in range(m)
    ]
    client_neighbors = [instance.facilities_of_client(j) for j in range(n)]
    is_open = [False] * m
    connected: dict[int, int] = {}

    for iteration in range(1, params.num_iterations + 1):
        label = f"greedy:iter:{iteration}"
        scale = params.scale_of_iteration(iteration)
        active = [j for j in range(n) if j not in connected]
        if not active:
            # Facilities still observe no actives and draw no coins —
            # identical to the message run, where no ACTIVE arrives.
            if recorder is not None:
                _record_greedy_state(recorder, label, is_open, connected, m, n)
            continue
        active_set = set(active)
        proposals: dict[int, tuple[int, ...]] = {}
        priorities: dict[int, float] = {}
        propose_event: dict[int, int] = {}
        for i in range(m):
            star = _best_star(
                adjacency[i], active_set, opening[i], is_open[i], params, scale
            )
            if star:
                proposals[i] = star
                priorities[i] = float(rngs[i].random())
                if prov is not None:
                    propose_event[i] = prov.add(
                        "propose",
                        f"facility:{i}",
                        label,
                        iteration=iteration,
                        scale=scale,
                        star_size=len(star),
                        priority=priorities[i],
                    )
        accepts: dict[int, list[int]] = {i: [] for i in proposals}
        accept_event: dict[int, int] = {}
        for j in active:
            offers = [i for i, star in proposals.items() if j in star]
            if not offers:
                continue
            best = max(offers, key=lambda i: (priorities[i], -i))
            accepts[best].append(j)
            if prov is not None:
                accept_event[j] = prov.add(
                    "accept",
                    f"client:{j}",
                    label,
                    causes=(propose_event.get(best),),
                    facility=best,
                )
        for i, star in proposals.items():
            accepted = accepts[i]
            if not accepted:
                continue
            if not is_open[i]:
                needed = max(1, math.ceil(len(star) * open_fraction))
                if len(accepted) < needed:
                    continue
                is_open[i] = True
                if prov is not None:
                    opened_event[i] = prov.add(
                        "open",
                        f"facility:{i}",
                        label,
                        causes=tuple(accept_event.get(j) for j in accepted),
                        iteration=iteration,
                        accepted=len(accepted),
                    )
            for j in accepted:
                connected[j] = i
                if prov is not None:
                    prov.add(
                        "connect",
                        f"client:{j}",
                        label,
                        causes=(accept_event.get(j), opened_event.get(i)),
                        facility=i,
                    )
        if recorder is not None:
            _record_greedy_state(recorder, label, is_open, connected, m, n)

    # Force phase: leftover clients join the cheapest open neighbor, or
    # force their cheapest neighbor open. Decisions are made against the
    # open set as of the end of the iterations (matching the PROBE round),
    # while forced openings land simultaneously afterwards.
    leftovers = [j for j in range(n) if j not in connected]
    open_before = [i for i in range(m) if is_open[i]]
    open_before_set = set(open_before)
    for j in leftovers:
        open_neighbors = [i for i in client_neighbors[j] if i in open_before_set]
        if open_neighbors:
            target = min(
                open_neighbors,
                key=lambda i: (instance.connection_cost(i, j), i),
            )
            if prov is not None:
                join = prov.add(
                    "join",
                    f"client:{j}",
                    "greedy:force",
                    causes=(opened_event.get(target),),
                    facility=target,
                )
                prov.add(
                    "connect",
                    f"client:{j}",
                    "greedy:force",
                    causes=(join,),
                    facility=target,
                )
        else:
            target = min(
                client_neighbors[j],
                key=lambda i: (instance.connection_cost(i, j), i),
            )
            is_open[target] = True
            if prov is not None:
                force = prov.add(
                    "force", f"client:{j}", "greedy:force", facility=target
                )
                if target not in opened_event:
                    opened_event[target] = prov.add(
                        "forced_open",
                        f"facility:{target}",
                        "greedy:force",
                        causes=(force,),
                    )
                prov.add(
                    "connect",
                    f"client:{j}",
                    "greedy:force",
                    causes=(force, opened_event.get(target)),
                    facility=target,
                )
        connected[j] = target

    open_set = {i for i in range(m) if is_open[i]}
    return open_set, connected


def _best_star(
    adjacency: list[tuple[int, float]],
    active_set: set[int],
    opening_cost: float,
    already_open: bool,
    params: TradeoffParameters,
    scale: int,
) -> tuple[int, ...]:
    """Largest qualifying prefix star (mirrors the facility node logic)."""
    fee = 0.0 if already_open else float(opening_cost)
    total = fee
    best_size = 0
    ordered = [j for j, _cost in adjacency if j in active_set]
    costs = {j: cost for j, cost in adjacency}
    for size, j in enumerate(ordered, start=1):
        total += costs[j]
        if params.qualifies(total / size, scale):
            best_size = size
    return tuple(ordered[:best_size])


# ----------------------------------------------------------------------
# Variant: dual ascent
# ----------------------------------------------------------------------


def _record_dual_level(
    recorder, level, alphas, frozen, witnesses, tight, m, n
) -> None:
    """Digest one end-of-level dual-ascent state into ``recorder``."""
    recorder.observe(
        f"dual:level:{level}",
        {
            "alpha": {f"client:{j}": alphas[j] for j in range(n)},
            "frozen": {f"client:{j}": frozen[j] for j in range(n)},
            "witnesses": {
                f"client:{j}": sorted(witnesses[j]) for j in range(n)
            },
            "tight": {f"facility:{i}": tight[i] for i in range(m)},
        },
    )


def _emulate_dual(
    instance: FacilityLocationInstance,
    params: TradeoffParameters,
    seed: int,
    policy: RoundingPolicy,
    recorder=None,
) -> tuple[set[int], dict[int, int]]:
    m = instance.num_facilities
    n = instance.num_clients
    prov = recorder.provenance if recorder is not None else None
    hook = _TEST_DUAL_ALPHA_RAISE_HOOK
    alpha_event: dict[int, int] = {}  # client -> latest alpha_raise event
    tight_event: dict[int, int] = {}  # facility -> its tight event
    settle_event: dict[int, int] = {}  # client -> its settle event
    rngs = NodeStreams(seed)
    gamma = [
        min(instance.connection_cost(i, j) for i in instance.facilities_of_client(j))
        for j in range(n)
    ]
    alphas = [0.0] * n
    frozen = [False] * n
    stored: list[dict[int, float]] = [dict() for _ in range(m)]
    tight = [False] * m
    witnesses: list[set[int]] = [set() for _ in range(n)]

    for level in range(1, params.num_scales + 1):
        label = f"dual:level:{level}"
        threshold = params.threshold(level)
        for j in range(n):
            if not frozen[j]:
                value = max(gamma[j], threshold)
                if hook is not None:
                    value = hook(level, j, value)
                if prov is not None and value != alphas[j]:
                    alpha_event[j] = prov.add(
                        "alpha_raise",
                        f"client:{j}",
                        label,
                        causes=(alpha_event.get(j),),
                        level=level,
                        alpha=value,
                    )
                alphas[j] = value
                for i in instance.facilities_of_client(j):
                    stored[i][j] = alphas[j]
        for i in range(m):
            if tight[i]:
                continue
            payment = sum(
                max(0.0, a - instance.connection_cost(i, j))
                for j, a in stored[i].items()
            )
            # Same ladder-scaled tolerance as DualFacilityNode (see its
            # comment on float cancellation with tiny opening costs).
            slack = 1e-12 * max(instance.opening_cost(i), params.eff_max)
            if payment >= instance.opening_cost(i) - slack:
                tight[i] = True
                if prov is not None:
                    tight_event[i] = prov.add(
                        "tight",
                        f"facility:{i}",
                        label,
                        causes=tuple(
                            alpha_event.get(j)
                            for j, a in stored[i].items()
                            if a > instance.connection_cost(i, j)
                        ),
                        level=level,
                        payment=payment,
                    )
        for j in range(n):
            for i in instance.facilities_of_client(j):
                if tight[i] and instance.connection_cost(i, j) <= alphas[j] * (
                    1 + 1e-12
                ):
                    witnesses[j].add(i)
                    if prov is not None and not frozen[j]:
                        settle_event[j] = prov.add(
                            "settle",
                            f"client:{j}",
                            label,
                            causes=(tight_event.get(i), alpha_event.get(j)),
                            witness=i,
                            level=level,
                        )
                    frozen[j] = True
        if recorder is not None:
            _record_dual_level(
                recorder, level, alphas, frozen, witnesses, tight, m, n
            )

    # Rounding phase.
    selections: dict[int, list[int]] = {}
    select_event: dict[int, int] = {}
    for j in range(n):
        if not witnesses[j]:
            raise AlgorithmError(
                f"client {j} has no witness after the final level; "
                "this contradicts the ladder's terminal property"
            )
        target = min(
            witnesses[j], key=lambda i: (instance.connection_cost(i, j), i)
        )
        selections.setdefault(target, []).append(j)
        if prov is not None:
            select_event[j] = prov.add(
                "select",
                f"client:{j}",
                "dual:rounding",
                causes=(settle_event.get(j),),
                facility=target,
            )

    is_open = [False] * m
    opened_event: dict[int, int] = {}
    for i in sorted(selections):
        selectors = selections[i]
        if policy.mode == "select_all":
            opens = True
        else:
            mass = sum(
                max(0.0, alphas[j] - instance.connection_cost(i, j))
                for j in selectors
            )
            scale = math.log(max(params.num_nodes, 2))
            probability = min(
                1.0,
                policy.c_round * scale * mass / max(instance.opening_cost(i), 1e-300),
            )
            opens = bool(rngs[i].random() < probability)
        if opens:
            is_open[i] = True
            if prov is not None:
                opened_event[i] = prov.add(
                    "open",
                    f"facility:{i}",
                    "dual:rounding",
                    causes=tuple(select_event.get(j) for j in selectors),
                    mode=policy.mode,
                    selectors=len(selectors),
                )
    if recorder is not None:
        recorder.observe(
            "dual:rounding",
            {"open": {f"facility:{i}": is_open[i] for i in range(m)}},
        )

    # Clients join the cheapest witness opened by the rounding coin flips;
    # leftovers force their cheapest witness open (deterministic fallback).
    # Join decisions see only the coin-opened set, matching the OPEN_AD
    # round of the message protocol.
    opened_by_coin = {i for i in range(m) if is_open[i]}
    connected: dict[int, int] = {}
    for j in range(n):
        open_witnesses = witnesses[j] & opened_by_coin
        if open_witnesses:
            target = min(
                open_witnesses, key=lambda i: (instance.connection_cost(i, j), i)
            )
            if prov is not None:
                join = prov.add(
                    "join",
                    f"client:{j}",
                    "dual:join",
                    causes=(settle_event.get(j), opened_event.get(target)),
                    facility=target,
                )
                prov.add(
                    "connect",
                    f"client:{j}",
                    "dual:join",
                    causes=(join,),
                    facility=target,
                )
        else:
            target = min(
                witnesses[j], key=lambda i: (instance.connection_cost(i, j), i)
            )
            is_open[target] = True
            if prov is not None:
                force = prov.add(
                    "force",
                    f"client:{j}",
                    "dual:join",
                    causes=(settle_event.get(j),),
                    facility=target,
                )
                if target not in opened_event:
                    opened_event[target] = prov.add(
                        "forced_open",
                        f"facility:{target}",
                        "dual:join",
                        causes=(force,),
                    )
                prov.add(
                    "connect",
                    f"client:{j}",
                    "dual:join",
                    causes=(force, opened_event.get(target)),
                    facility=target,
                )
        connected[j] = target

    open_set = {i for i in range(m) if is_open[i]}
    return open_set, connected
