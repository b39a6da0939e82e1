"""Request/response model of the batched solve service.

A :class:`SolveRequest` is everything the service needs to reproduce one
solve: the *instance source* (a generator recipe or an inline instance),
the algorithm configuration, and per-request service options. Requests
are frozen and carry a canonical :meth:`SolveRequest.work_key` — two
requests with the same work key are guaranteed to produce the same
answer, which is what lets the batcher solve duplicates once.

The wire format (:meth:`SolveRequest.to_wire` / :meth:`SolveRequest.
from_wire`) is a flat JSON dict, one per JSONL line in the ``repro
serve`` protocol; inline instances travel as the standard
:func:`~repro.fl.io.instance_to_dict` payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.algorithm import ENGINES, Variant
from repro.exceptions import ReproError
from repro.fl.generators import FAMILIES
from repro.fl.instance import FacilityLocationInstance
from repro.fl.io import instance_from_dict, instance_to_dict
from repro.obs.manifest import instance_digest
from repro.obs.spans import SpanContext

__all__ = [
    "InstanceRecipe",
    "PRIORITY_CLASSES",
    "SolveRequest",
    "SolveResponse",
    "priority_level",
]

#: Admission priority classes, lowest first. Under overload the service
#: sheds the lowest class first (see
#: :class:`~repro.service.queue.AdmissionQueue`).
PRIORITY_CLASSES: tuple[str, ...] = ("low", "normal", "high")


def priority_level(priority: str) -> int:
    """Numeric rank of a priority class (higher = more important)."""
    try:
        return PRIORITY_CLASSES.index(priority)
    except ValueError:
        raise ReproError(
            f"priority must be one of {PRIORITY_CLASSES}, got {priority!r}"
        ) from None


@dataclass(frozen=True)
class InstanceRecipe:
    """A generator recipe: enough to rebuild an instance deterministically.

    Recipes are the cheap way to name an instance over the wire — four
    scalars instead of two cost matrices — and they key straight into
    :func:`repro.perf.cache.cached_instance`, so a batch of requests
    against the same recipe materializes the instance once per process.
    """

    family: str
    num_facilities: int
    num_clients: int
    seed: int

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ReproError(
                f"unknown family {self.family!r}; "
                f"known families: {sorted(FAMILIES)}"
            )
        if self.num_facilities < 1 or self.num_clients < 1:
            raise ReproError(
                f"recipe sizes must be positive, got "
                f"{self.num_facilities}x{self.num_clients}"
            )

    def key(self) -> tuple[str, int, int, int]:
        """Cache key tuple, matching :func:`repro.perf.cache.cached_instance`."""
        return (self.family, self.num_facilities, self.num_clients, self.seed)

    def to_wire(self) -> dict[str, Any]:
        """Flat JSON dict for the JSONL protocol."""
        return {
            "family": self.family,
            "m": self.num_facilities,
            "n": self.num_clients,
            "seed": self.seed,
        }

    @classmethod
    def from_wire(cls, data: Mapping[str, Any]) -> "InstanceRecipe":
        """Inverse of :meth:`to_wire`."""
        return cls(
            family=str(data["family"]),
            num_facilities=int(data["m"]),
            num_clients=int(data["n"]),
            seed=int(data.get("seed", 0)),
        )


@dataclass(frozen=True)
class SolveRequest:
    """One unit of client work submitted to the service.

    Exactly one of ``recipe`` / ``instance`` must be set. ``seed`` is the
    *algorithm* seed (the instance seed lives in the recipe).
    ``timeout_s`` bounds how long the request may wait in the admission
    queue before execution starts; expired requests complete with status
    ``"timeout"`` instead of being solved. ``compute_lp`` adds the LP
    lower bound and ``ratio_vs_lp`` to the response (at the cost of one
    LP solve, memoized by instance digest); ``capture_events`` runs the
    solve under a bounded trace and reports per-kind protocol event
    counts.

    ``trace_ctx`` is the submitter's span context
    (:class:`~repro.obs.spans.SpanContext`): when set, every span the
    service opens for this request parents under it, making the client
    the root of one connected trace tree. Like ``request_id`` it is
    per-submission plumbing — it never participates in
    :meth:`work_key`, so tracing cannot perturb batching or dedup.

    ``record`` runs the solve under a deterministic flight recorder
    (:class:`~repro.obs.recorder.FlightRecorder`) and attaches the
    recording payload to the response. Unlike ``trace_ctx`` it *does*
    participate in :meth:`work_key` — a recorded and an unrecorded
    request produce different response bytes, so they must not dedup
    against each other. When off (the default) the recorder is never
    constructed and the response is byte-identical to current behavior.

    ``priority`` (one of :data:`PRIORITY_CLASSES`) and ``client_id``
    steer *admission only*: under overload the service sheds lower
    priorities first and rate-limits per client id. Like ``request_id``
    they are per-submission plumbing — neither participates in
    :meth:`work_key`, so a high- and a low-priority request for the same
    work still dedup onto one solve, and both ride the wire only when
    set away from their defaults (existing wire bytes are unchanged).

    ``engine`` (one of :data:`~repro.core.algorithm.ENGINES`) names
    the engine whose answer the request gets: ``"simulator"`` (the
    default) is the message-passing simulator's answer, which the worker
    computes on columnar unless the request asks for events, a recording
    or spans (see :mod:`repro.service.worker`). A non-default engine
    tags its answer (``result.engine``, ``manifest.parameters.engine``)
    and ``"loop"`` reports no network metrics, so ``engine`` joins
    :meth:`work_key` — but only when set away from ``"simulator"``,
    keeping every pre-engine work key (and wire line) byte-identical.
    ``shards`` splits a columnar solve across worker processes; by the
    sharding determinism contract it can never change the answer bytes,
    so like ``priority`` it stays *out* of the work key — requests
    differing only in ``shards`` dedup onto one solve.
    """

    request_id: str
    recipe: InstanceRecipe | None = None
    instance: FacilityLocationInstance | None = None
    k: int = 9
    variant: str = Variant.GREEDY.value
    seed: int = 0
    rounding: str = "select_all"
    c_round: float = 1.0
    compute_lp: bool = False
    capture_events: bool = False
    record: bool = False
    timeout_s: float | None = None
    trace_ctx: SpanContext | None = None
    priority: str = "normal"
    client_id: str = ""
    engine: str = "simulator"
    shards: int = 1

    def __post_init__(self) -> None:
        if not self.request_id:
            raise ReproError("request_id must be non-empty")
        if self.priority not in PRIORITY_CLASSES:
            raise ReproError(
                f"unknown priority {self.priority!r}; expected one of "
                f"{list(PRIORITY_CLASSES)}"
            )
        if (self.recipe is None) == (self.instance is None):
            raise ReproError(
                f"request {self.request_id!r} must set exactly one of "
                "recipe or instance"
            )
        if self.k < 1:
            raise ReproError(f"k must be >= 1, got {self.k}")
        if self.variant not in {v.value for v in Variant}:
            raise ReproError(
                f"unknown variant {self.variant!r}; expected one of "
                f"{sorted(v.value for v in Variant)}"
            )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ReproError(
                f"timeout_s must be positive, got {self.timeout_s}"
            )
        if self.engine not in ENGINES:
            raise ReproError(
                f"unknown engine {self.engine!r}; expected one of "
                f"{list(ENGINES)}"
            )
        if self.shards < 1:
            raise ReproError(f"shards must be >= 1, got {self.shards}")
        if self.shards != 1 and self.engine != "columnar":
            raise ReproError(
                f"engine {self.engine!r} does not shard; "
                "shards > 1 needs engine='columnar'"
            )
        if self.capture_events and self.engine != "simulator":
            raise ReproError(
                "capture_events needs the simulator engine (the emulation "
                "engines produce no protocol events)"
            )

    def instance_key(self) -> tuple[Any, ...]:
        """Canonical identity of the instance this request solves.

        Recipes key by their four scalars; inline instances key by
        content digest, so two clients uploading equal-content instances
        still dedup against each other.
        """
        if self.recipe is not None:
            return ("recipe",) + self.recipe.key()
        assert self.instance is not None
        return ("digest", instance_digest(self.instance))

    def work_key(self) -> tuple[Any, ...]:
        """Canonical identity of the *work*: requests with equal work
        keys produce identical responses and are solved once per batch.

        The key covers everything that shapes the answer — instance,
        algorithm knobs, and the output options (``compute_lp`` /
        ``capture_events``, which add fields to the response) — but not
        ``request_id`` or ``timeout_s``, which are per-submission.
        """
        key: tuple[Any, ...] = (
            self.instance_key(),
            self.k,
            self.variant,
            self.seed,
            self.rounding,
            self.c_round,
            self.compute_lp,
            self.capture_events,
            self.record,
        )
        if self.engine != "simulator":
            # Appended only when set away from the default so every
            # pre-engine work key is unchanged; shards never joins —
            # by the sharding determinism contract it cannot change
            # the answer bytes, so shard counts dedup together.
            key += (self.engine,)
        return key

    def to_wire(self) -> dict[str, Any]:
        """Flat JSON dict for the JSONL protocol (``type: "solve"``)."""
        payload: dict[str, Any] = {
            "type": "solve",
            "request_id": self.request_id,
            "k": self.k,
            "variant": self.variant,
            "seed": self.seed,
            "rounding": self.rounding,
            "c_round": self.c_round,
            "compute_lp": self.compute_lp,
            "capture_events": self.capture_events,
        }
        if self.record:
            # Emitted only when set: the wire line of a non-recording
            # request stays byte-identical to the pre-recorder protocol.
            payload["record"] = True
        if self.priority != "normal":
            # Emitted only when set, like `record`: default-priority wire
            # lines stay byte-identical to the pre-priority protocol.
            payload["priority"] = self.priority
        if self.client_id:
            payload["client_id"] = self.client_id
        if self.engine != "simulator":
            # Emitted only when set, like `record`: default-engine wire
            # lines stay byte-identical to the pre-engine protocol.
            payload["engine"] = self.engine
        if self.shards != 1:
            payload["shards"] = self.shards
        if self.timeout_s is not None:
            payload["timeout_s"] = self.timeout_s
        if self.trace_ctx is not None:
            payload["trace"] = self.trace_ctx.to_wire()
        if self.recipe is not None:
            payload["recipe"] = self.recipe.to_wire()
        else:
            assert self.instance is not None
            payload["instance"] = instance_to_dict(self.instance)
        return payload

    @classmethod
    def from_wire(cls, data: Mapping[str, Any]) -> "SolveRequest":
        """Build a request from one decoded JSONL line."""
        recipe = None
        instance = None
        if "recipe" in data and data["recipe"] is not None:
            recipe = InstanceRecipe.from_wire(data["recipe"])
        if "instance" in data and data["instance"] is not None:
            instance = instance_from_dict(dict(data["instance"]))
        timeout = data.get("timeout_s")
        trace_ctx = None
        if data.get("trace"):
            trace_ctx = SpanContext.from_wire(data["trace"])
        return cls(
            request_id=str(data.get("request_id", "")),
            recipe=recipe,
            instance=instance,
            k=int(data.get("k", 9)),
            variant=str(data.get("variant", Variant.GREEDY.value)),
            seed=int(data.get("seed", 0)),
            rounding=str(data.get("rounding", "select_all")),
            c_round=float(data.get("c_round", 1.0)),
            compute_lp=bool(data.get("compute_lp", False)),
            capture_events=bool(data.get("capture_events", False)),
            record=bool(data.get("record", False)),
            timeout_s=float(timeout) if timeout is not None else None,
            trace_ctx=trace_ctx,
            priority=str(data.get("priority", "normal")),
            client_id=str(data.get("client_id", "")),
            engine=str(data.get("engine", "simulator")),
            shards=int(data.get("shards", 1)),
        )


@dataclass(frozen=True)
class SolveResponse:
    """The service's answer to one request.

    ``status`` is one of ``"ok"`` (solved; ``result`` and ``manifest``
    are populated), ``"timeout"`` (deadline passed while queued or
    before execution started; ``error`` says which phase),
    ``"rejected"`` (admission refused: queue full, rate-limited, or
    shed for priority — ``error`` carries the reason),
    ``"draining"`` (the service is shutting down: the request was
    either refused at admission or still queued when the drain budget
    ran out) or ``"error"`` (the solve raised; ``error`` carries the
    message). ``manifest`` is the same
    :class:`~repro.obs.manifest.RunRecord` dict a direct
    ``repro solve --trace`` writes — byte-identical for equal work, which
    is the service's core correctness contract. ``dedup`` marks
    responses that were served from another request's solve in the same
    batch rather than a dedicated run.

    ``recording`` carries the flight-recorder payload when the request
    set ``record``; like worker spans it rides beside the result — the
    ``result`` and ``manifest`` fields are byte-identical with and
    without it, and it is absent from the wire when empty.
    """

    request_id: str
    status: str
    result: Mapping[str, Any] = field(default_factory=dict)
    manifest: Mapping[str, Any] = field(default_factory=dict)
    error: str = ""
    dedup: bool = False
    batch_index: int = -1
    wait_s: float = 0.0
    recording: Mapping[str, Any] = field(default_factory=dict)

    def to_wire(self) -> dict[str, Any]:
        """Flat JSON dict for the JSONL protocol (``type: "response"``)."""
        payload: dict[str, Any] = {
            "type": "response",
            "request_id": self.request_id,
            "status": self.status,
            "dedup": self.dedup,
            "batch_index": self.batch_index,
            "wait_s": self.wait_s,
        }
        if self.result:
            payload["result"] = dict(self.result)
        if self.manifest:
            payload["manifest"] = dict(self.manifest)
        if self.error:
            payload["error"] = self.error
        if self.recording:
            payload["recording"] = dict(self.recording)
        return payload

    @classmethod
    def from_wire(cls, data: Mapping[str, Any]) -> "SolveResponse":
        """Inverse of :meth:`to_wire`."""
        return cls(
            request_id=str(data.get("request_id", "")),
            status=str(data.get("status", "error")),
            result=dict(data.get("result", {})),
            manifest=dict(data.get("manifest", {})),
            error=str(data.get("error", "")),
            dedup=bool(data.get("dedup", False)),
            batch_index=int(data.get("batch_index", -1)),
            wait_s=float(data.get("wait_s", 0.0)),
            recording=dict(data.get("recording", {})),
        )
