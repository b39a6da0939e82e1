"""The service's unit of solver work, shippable to pool workers.

A :class:`ServiceCell` is the executable form of one *unique* work unit
(one :meth:`~repro.service.request.SolveRequest.work_key`): the batcher
collapses duplicate requests onto one cell, and
:func:`run_service_cell` — a module-level function, so
:class:`~repro.perf.executor.SweepExecutor` can ship it to spawned
interpreters — performs the actual solve.

The correctness contract lives here: for every engine the cell makes
the same :func:`~repro.core.algorithm.solve_distributed` call as the
``repro solve`` CLI and builds its manifest through the same
:meth:`~repro.obs.manifest.RunRecord.from_run` constructor, so a batched
answer is byte-identical (wall-clock fields aside, see
:func:`canonical_answer`) to a direct one. Instances and LP bounds come
from :mod:`repro.perf.cache`, which is how a batch full of
near-duplicate requests pays for its shared setup once per process.

A simulator cell that asks for nothing only the simulator produces (no
protocol events, no recording, no spans) is answered on the columnar
engine: its ledger's round records equal the simulator's, so the answer
keeps the simulator's bytes — and its tags — at a fraction of the cost
(see :func:`_answering_engine`).
"""

from __future__ import annotations

import contextlib
import json
from collections import Counter
from dataclasses import dataclass
from typing import Any, Mapping

from repro.core.algorithm import solve_distributed
from repro.core.dual_ascent_nodes import RoundingPolicy
from repro.fl.instance import FacilityLocationInstance
from repro.net.trace import Trace
from repro.obs.manifest import RunRecord
from repro.obs.spans import SpanContext, Tracer
from repro.perf.cache import cached_instance, cached_lp_value
from repro.service.request import InstanceRecipe

__all__ = [
    "ServiceCell",
    "canonical_answer",
    "run_service_cell",
    "run_service_cell_guarded",
]


class _EventCounts(Trace):
    """Counts every event by kind as it is recorded; keeps none."""

    def __init__(self) -> None:
        super().__init__()
        self.counts: Counter[str] = Counter()

    def record(
        self, round_number: int, node_id: int, event: str, data: Mapping[str, Any]
    ) -> None:
        self.counts[event] += 1


@dataclass(frozen=True)
class ServiceCell:
    """One unique, picklable unit of solver work.

    Either ``recipe`` or ``instance`` is set (never both); the remaining
    fields mirror the request's algorithm knobs. Frozen + plain data, so
    cells pickle cheaply and pass :class:`~repro.perf.executor.
    SweepExecutor`'s spawn-safety checks.

    ``trace_ctx`` is the causal context of the work unit's span on the
    service side; it crosses the process boundary inside the pickled
    cell, and the worker parents its whole span subtree under it (ids
    namespaced by the parent span id, so the merged tree cannot
    collide). ``profile_memory`` opts the worker's solve span into
    ``tracemalloc`` peak sampling. ``record`` runs the solve under a
    flight recorder and ships the recording back under the extra
    ``"recording"`` key, riding beside the result exactly like spans.

    ``engine`` is the engine the request names, and the one its answer
    is tagged with; :func:`_answering_engine` picks the engine that runs.
    ``"simulator"`` (the default) is answered on columnar unless the
    cell asks for events, a recording or spans; ``"loop"`` and
    ``"columnar"`` run as named. Every engine comes back as the same
    :class:`~repro.core.algorithm.DistributedRunResult`, so the
    manifest/payload tail is shared. ``shards`` (columnar only)
    splits the solve across worker processes and — by the sharding
    determinism contract — never changes the answer bytes, which is why
    the batcher may execute a dedup group with any member's shard count.
    """

    recipe: InstanceRecipe | None
    instance: FacilityLocationInstance | None
    k: int
    variant: str
    seed: int
    rounding: str
    c_round: float
    compute_lp: bool
    capture_events: bool
    record: bool = False
    trace_ctx: SpanContext | None = None
    profile_memory: bool = False
    engine: str = "simulator"
    shards: int = 1


def _answering_engine(cell: ServiceCell) -> str:
    """The engine that solves ``cell``.

    A fault-free columnar answer equals the simulator's but for its
    engine tags, so a simulator cell runs on columnar unless it asks for
    what only the simulator makes: ``capture_events`` (protocol events),
    ``record`` (``sim:round`` checkpoints) or ``trace_ctx`` (per-round
    spans). The answer keeps ``cell.engine``'s tags either way.
    """
    if cell.engine == "simulator" and not (
        cell.capture_events or cell.record or cell.trace_ctx is not None
    ):
        return "columnar"
    return cell.engine


def run_service_cell(cell: ServiceCell) -> dict[str, Any]:
    """Solve one cell; return a plain-JSON ``{"result", "manifest"}`` dict.

    The returned ``manifest`` is exactly what ``repro solve --trace``
    writes for the same configuration (same parameters block, same
    extras), and ``result`` is the compact answer clients consume (cost,
    open facilities, rounds, message totals, optional LP ratio and
    per-kind event counts).

    When the cell carries a :class:`~repro.obs.spans.SpanContext`, the
    worker builds a span subtree under it — ``worker.solve`` wrapping
    ``worker.instance`` / ``worker.lp`` / the traced solve with its
    per-round children — and ships it back under the extra ``"spans"``
    key. The key rides *next to* ``result``/``manifest``, never inside
    them, so traced and untraced answers stay byte-identical. The
    engine that ran (:func:`_answering_engine`) rides the same way under
    ``"engine"``.
    """
    engine = _answering_engine(cell)
    tracer: Tracer | None = None
    root = None
    if cell.trace_ctx is not None:
        tracer = Tracer(
            trace_id=cell.trace_ctx.trace_id,
            id_prefix=f"{cell.trace_ctx.span_id}/",
            profile_memory=cell.profile_memory,
        )
        root = tracer.start_span(
            "worker.solve",
            parent=cell.trace_ctx,
            attributes={"k": cell.k, "variant": cell.variant},
        )
    if cell.recipe is not None:
        if tracer is not None:
            with tracer.span("worker.instance", family=cell.recipe.family):
                instance = cached_instance(*cell.recipe.key())
        else:
            instance = cached_instance(*cell.recipe.key())
    else:
        assert cell.instance is not None
        instance = cell.instance
    lp_value: float | None = None
    if cell.compute_lp:
        if tracer is not None:
            with tracer.span("worker.lp"):
                lp_value = cached_lp_value(instance)
        else:
            lp_value = cached_lp_value(instance)
    trace = _EventCounts() if cell.capture_events else None
    recorder = None
    if cell.record:
        from repro.obs.recorder import FlightRecorder

        recorder = FlightRecorder(
            engine=engine,
            config={
                "k": cell.k,
                "variant": cell.variant,
                "seed": cell.seed,
                "rounding": cell.rounding,
                "c_round": cell.c_round,
            },
        )
    # The simulator feeds the event trace and opens its own spans; the
    # emulation engines take neither, so one ``worker.engine`` span
    # stands for their whole solve.
    observers: dict[str, Any] = {"trace": trace, "tracer": tracer}
    engine_span: Any = contextlib.nullcontext()
    if engine != "simulator":
        observers = {}
        if tracer is not None:
            engine_span = tracer.span("worker.engine", engine=engine)
    with engine_span:
        result = solve_distributed(
            instance,
            k=cell.k,
            variant=cell.variant,
            seed=cell.seed,
            rounding=RoundingPolicy(mode=cell.rounding, c_round=cell.c_round),
            recorder=recorder,
            engine=engine,
            shards=cell.shards,
            **observers,
        )
    extras: dict[str, Any] = {}
    if lp_value is not None:
        extras["ratio_vs_lp"] = result.cost / max(lp_value, 1e-12)
    parameters: dict[str, Any] = {
        "k": cell.k,
        "variant": cell.variant,
        "rounding": cell.rounding,
        "c_round": cell.c_round,
    }
    if cell.engine != "simulator":
        # The engine the request names, not the one that ran, and only
        # away from the default, so default manifests stay
        # byte-identical to the simulator's.
        # Shards never appears: it is outside the work key, so a dedup
        # group may mix shard counts yet must share one answer byte-run.
        parameters["engine"] = cell.engine
    manifest = RunRecord.from_run(
        result,
        seed=cell.seed,
        parameters=parameters,
        wall_seconds=result.wall_seconds,
        extras=extras,
    )
    payload: dict[str, Any] = {
        "instance": instance.name,
        "k": cell.k,
        "variant": cell.variant,
        "cost": result.cost,
        "open_facilities": sorted(result.open_facilities),
        "rounds": result.metrics.rounds,
        "total_messages": result.metrics.total_messages,
        "max_message_bits": result.metrics.max_message_bits,
    }
    if cell.engine != "simulator":
        payload["engine"] = cell.engine
    if lp_value is not None:
        payload["lp_value"] = lp_value
        payload["ratio_vs_lp"] = extras["ratio_vs_lp"]
    if trace is not None:
        payload["events_by_kind"] = dict(sorted(trace.counts.items()))
    out: dict[str, Any] = {
        "result": payload,
        "manifest": manifest.to_dict(),
        "engine": engine,
    }
    if recorder is not None:
        # Beside — never inside — result/manifest, mirroring "spans".
        out["recording"] = recorder.to_payload()
    if tracer is not None:
        assert root is not None
        root.annotate(cost=result.cost, rounds=result.metrics.rounds).end()
        tracer.close()
        out["spans"] = tracer.export()
    return out


def canonical_answer(answer: Mapping[str, Any]) -> str:
    """Canonical bytes of an answer, with the wall-clock fields stripped.

    ``answer`` holds ``"result"`` and ``"manifest"`` (plus, for a
    response, ``"status"`` and ``"error"``). The manifest's
    ``wall_seconds`` and timeline ``total_wall_ms`` measure the machine,
    not the algorithm, so two runs of the same work compare equal here
    exactly when the service's byte-identity contract holds.
    """
    data = json.loads(json.dumps(dict(answer)))
    manifest = data.get("manifest")
    if manifest:
        manifest["wall_seconds"] = 0.0
        manifest.get("timeline_summary", {}).pop("total_wall_ms", None)
    return json.dumps(data, sort_keys=True)


def run_service_cell_guarded(cell: ServiceCell) -> dict[str, Any]:
    """Like :func:`run_service_cell`, but a failure answers only its cell.

    The batcher maps this over a whole batch; without the guard, one
    malformed request (bad rounding mode, infeasible faulted instance,
    ...) would abort the ``Executor.map`` and take every other request
    in the batch down with it. Errors come back as
    ``{"error": "<Type>: <message>"}`` and the service turns them into
    ``status="error"`` responses for just that unit's requests.
    """
    try:
        return run_service_cell(cell)
    except Exception as error:  # noqa: BLE001 — the boundary of the pool
        return {"error": f"{type(error).__name__}: {error}"}
