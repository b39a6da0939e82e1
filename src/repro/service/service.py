"""The service orchestrator: queue -> batcher -> executor -> store.

:class:`SolveService` is the synchronous heart of the serving layer.
Transports (stdin/JSONL, the Unix socket — see
:mod:`repro.service.server`) and the in-process
:class:`~repro.service.client.ServiceClient` all drive the same three
calls: :meth:`SolveService.submit` admits work under backpressure,
:meth:`SolveService.process_pending` forms and executes one
deterministic batch, and :meth:`SolveService.fetch` retrieves retained
responses by request id.

Everything the service does is measured. Counters, gauges and
histograms land in a :class:`~repro.obs.registry.MetricsRegistry` under
the ``service.*`` namespace, and :meth:`SolveService.metrics_summary`
condenses them into the flat dict the ``repro serve --metrics`` line and
``examples/serving.py`` print:

========================== ============================================
instrument                 meaning
========================== ============================================
``service.requests``       admissions, labeled ``status=accepted|rejected``
``service.responses``      completions, labeled ``status=ok|timeout|error``
``service.batches``        batches executed
``service.batch.size``     histogram of requests per batch
``service.batch.unique``   histogram of *unique* work units per batch
``service.dedup.hits``     requests served by another request's solve
``service.cache.hits``     memo-cache hits, labeled ``cache=instance|lp``
``service.queue.depth``    current admission-queue depth (gauge)
``service.store.size``     current result-store size (gauge)
``service.latency.seconds`` histogram of admission->completion latency;
                           p50/p95 come from
                           :meth:`~repro.obs.registry.Histogram.quantile`
``service.timeouts``       expired requests, labeled ``phase=queue``
                           (deadline passed while waiting) or
                           ``phase=execute`` (passed between drain and
                           execution start)
``service.exec.retries``   cell re-executions after worker crash/stall
``service.exec.respawns``  worker pools discarded and respawned
``service.sheds``          shed requests, labeled ``priority=...``
``service.rate_limited``   admissions refused by the per-client bucket
``service.drain.rejections`` requests answered ``draining`` at shutdown
``service.solves``         work units solved, labeled ``engine=...``: the
                           engine that ran, so a default request counts
                           under ``columnar`` (see
                           :mod:`repro.service.worker`)
========================== ============================================

Cache-hit deltas are measured around each batch via
:func:`repro.perf.cache.cache_stats`; with ``workers > 1`` the hits
happen inside pool processes and are invisible here, so the counters are
exact for the default in-process executor and a lower bound otherwise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.algorithm import ENGINES
from repro.exceptions import ReproError
from repro.flags import flag, ttl_seconds
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import Span, Tracer
from repro.perf.cache import cache_stats
from repro.perf.executor import SweepExecutor
from repro.service.batcher import Batcher
from repro.service.queue import AdmissionQueue, AdmissionResult, QueuedRequest
from repro.service.request import SolveRequest, SolveResponse
from repro.service.resilience import ResilientExecutor, TokenBucket
from repro.service.store import ResultStore, StoreMiss

__all__ = ["ServiceConfig", "SolveService"]

#: Histogram buckets for batch-size style counts (1..max admission depth).
_COUNT_BUCKETS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)

#: Histogram buckets for queue-wait / end-to-end latency, in seconds.
_LATENCY_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0,
)


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`SolveService`.

    Each field's ``help`` metadata documents it; it is also the help of
    the ``repro serve`` flag that sets it (see :mod:`repro.flags`).
    """

    max_queue_depth: int = flag(
        256, "--max-depth",
        help="admission-queue capacity; offers beyond it are rejected")
    #: Expired requests never count against it.
    max_batch_size: int = flag(
        32, "--batch-size", help="most live requests per executed batch")
    #: 1 solves in-process.
    workers: int = flag(
        1, "--workers", help="worker processes per batch; responses are "
        "identical whatever the value")
    #: ``None`` keeps a response until capacity eviction.
    result_ttl_s: float | None = flag(
        300.0, "--ttl", type=ttl_seconds,
        help="seconds a completed response stays fetchable")
    #: Ignored without a tracer.
    profile_memory: bool = flag(
        False, "--profile-memory", help="with --trace-spans: sample "
        "tracemalloc peaks on worker solve spans (reported as mem_peak_kb)")
    #: At or above it, incoming ``"low"``-priority work is refused
    #: (``shed_low_priority``) while normal/high traffic still admits up
    #: to ``max_queue_depth``.
    high_water: int | None = flag(
        None, "--high-water", type=int,
        help="queue depth at which incoming low-priority work is shed")
    #: The budget of the default
    #: :class:`~repro.service.resilience.ResilientExecutor`.
    max_solve_attempts: int = flag(
        3, "--max-attempts",
        help="per-cell execution budget when a worker crashes or wedges")
    cell_timeout_s: float | None = flag(
        None, "--cell-timeout", type=float, metavar="SECONDS",
        help="wall-clock watchdog per pool cell; a cell still running past "
        "it is treated like a crash and retried")
    #: An offer beyond the bucket is rejected with reason
    #: ``"rate_limited"``.
    rate_limit_per_client: float | None = flag(
        None, "--rate-limit", type=float, metavar="RPS",
        help="per-client-id token-bucket refill rate in requests/second")
    rate_limit_burst: float = flag(
        8.0, "--rate-burst",
        help="token-bucket burst capacity with --rate-limit")
    #: The budget of :meth:`SolveService.shutdown` when the caller names
    #: none, which is how every server of :mod:`repro.service.server`
    #: drains; ``inf`` drains without a limit.
    drain_timeout_s: float = flag(
        30.0, "--drain-timeout",
        help="seconds of graceful drain on SIGTERM (or a drain line): "
        "queued work flushes within this budget, the remainder is "
        "answered status=draining")

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ReproError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.max_solve_attempts < 1:
            raise ReproError(
                f"max_solve_attempts must be >= 1, "
                f"got {self.max_solve_attempts}"
            )
        if self.rate_limit_per_client is not None and (
            self.rate_limit_per_client <= 0
        ):
            raise ReproError(
                f"rate_limit_per_client must be positive, "
                f"got {self.rate_limit_per_client}"
            )


class SolveService:
    """Batched solve service: admission, dedup, execution, retention.

    Parameters
    ----------
    config:
        Service tunables; defaults to :class:`ServiceConfig`'s defaults.
    registry:
        Metrics registry to publish into; a private one is created when
        omitted (exposed as :attr:`registry` either way).
    executor:
        Batch executor override; defaults to
        ``SweepExecutor(workers=config.workers)``. Injectable for tests.
    clock:
        Monotonic time source shared by the queue, the store and the
        latency accounting; injectable for deterministic tests.
    tracer:
        Optional :class:`~repro.obs.spans.Tracer`. When set, every
        request gets a ``service.request`` span (parented under the
        submitter's :attr:`~repro.service.request.SolveRequest.
        trace_ctx` when present), every batch a ``service.batch`` span
        with per-unit ``service.unit`` children, and worker span
        subtrees are adopted back into this tracer on merge. Spans never
        touch ``result``/``manifest`` payloads — traced responses stay
        byte-identical to untraced ones.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        registry: MetricsRegistry | None = None,
        executor: SweepExecutor | None = None,
        clock: Callable[[], float] = time.monotonic,
        tracer: Tracer | None = None,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.registry = registry if registry is not None else MetricsRegistry()
        self._clock = clock
        self.tracer = tracer
        self._request_spans: dict[str, Span] = {}
        self.queue = AdmissionQueue(
            max_depth=self.config.max_queue_depth,
            clock=clock,
            high_water=self.config.high_water,
        )
        self.batcher = Batcher(
            executor=executor
            if executor is not None
            else ResilientExecutor(
                workers=self.config.workers,
                max_attempts=self.config.max_solve_attempts,
                cell_timeout_s=self.config.cell_timeout_s,
            )
        )
        self._draining = False
        self._buckets: dict[str, TokenBucket] = {}
        self.store = ResultStore(
            ttl_s=self.config.result_ttl_s,
            clock=clock,
        )
        reg = self.registry
        self._requests = reg.counter(
            "service.requests", "admissions by status (accepted/rejected)"
        )
        self._responses = reg.counter(
            "service.responses", "completions by status (ok/timeout/error)"
        )
        self._batches = reg.counter("service.batches", "batches executed")
        self._batch_size = reg.histogram(
            "service.batch.size",
            "requests per executed batch (duplicates included)",
            buckets=_COUNT_BUCKETS,
        )
        self._batch_unique = reg.histogram(
            "service.batch.unique",
            "unique work units per executed batch",
            buckets=_COUNT_BUCKETS,
        )
        self._dedup_hits = reg.counter(
            "service.dedup.hits",
            "requests served by another request's solve in the same batch",
        )
        self._cache_hits = reg.counter(
            "service.cache.hits",
            "instance/LP memo-cache hits observed during batch execution",
        )
        self._queue_depth = reg.gauge(
            "service.queue.depth", "current admission-queue depth"
        )
        self._store_size = reg.gauge(
            "service.store.size", "current result-store size"
        )
        self._latency = reg.histogram(
            "service.latency.seconds",
            "admission-to-completion latency of solved requests",
            buckets=_LATENCY_BUCKETS,
        )
        self._timeouts = reg.counter(
            "service.timeouts",
            "requests expired before solving (phase=queue|execute)",
        )
        self._exec_retries = reg.counter(
            "service.exec.retries",
            "cell re-executions after a worker crash or stall",
        )
        self._exec_respawns = reg.counter(
            "service.exec.respawns",
            "worker pools discarded and respawned after a crash or stall",
        )
        self._sheds = reg.counter(
            "service.sheds",
            "requests shed under overload, labeled by priority",
        )
        self._rate_limited = reg.counter(
            "service.rate_limited",
            "admissions refused by the per-client token bucket",
        )
        self._drain_rejections = reg.counter(
            "service.drain.rejections",
            "requests answered with status=draining during shutdown",
        )
        self._solves = reg.counter(
            "service.solves",
            "work units solved, labeled by the engine that ran",
        )
        self._queue_depth.set(0)
        self._store_size.set(0)

    # ------------------------------------------------------------------
    # Admission

    def submit(self, request: SolveRequest) -> AdmissionResult:
        """Admit ``request`` (or reject it under backpressure).

        A refused request is *also* answered: a ``status="rejected"``
        (or ``"draining"``) response is retained in the store so
        ``fetch`` tells the client what happened instead of silently
        knowing nothing. Refusal reasons, in resolution order: the
        service is draining; the client's token bucket is empty
        (``rate_limited``); the queue shed it for priority
        (``shed_low_priority``); the queue is full (``queue_full``).
        An accepted offer may itself evict queued lower-priority work —
        the victims are answered ``shed_low_priority`` on the spot and
        returned in :attr:`~repro.service.queue.AdmissionResult.shed`.
        """
        if self.tracer is not None:
            self._request_spans[request.request_id] = self.tracer.start_span(
                "service.request",
                parent=request.trace_ctx,
                attributes={"request_id": request.request_id},
                detached=True,
            )
        if self._draining:
            outcome = AdmissionResult(accepted=False, reason="draining")
            self._requests.inc(status="rejected")
            self._drain_rejections.inc()
            self._finish(
                SolveResponse(
                    request_id=request.request_id,
                    status="draining",
                    error="service is draining; request not admitted",
                )
            )
        elif not self._admit_rate(request):
            outcome = AdmissionResult(accepted=False, reason="rate_limited")
            self._requests.inc(status="rejected")
            self._rate_limited.inc()
            self._finish(
                SolveResponse(
                    request_id=request.request_id,
                    status="rejected",
                    error="rate_limited",
                )
            )
        else:
            outcome = self.queue.offer(request)
            for victim in outcome.shed:
                self._sheds.inc(priority=victim.request.priority)
                self._finish(
                    SolveResponse(
                        request_id=victim.request.request_id,
                        status="rejected",
                        error="shed_low_priority",
                        wait_s=self._wait(victim),
                    )
                )
            if outcome.accepted:
                self._requests.inc(status="accepted")
            else:
                self._requests.inc(status="rejected")
                if outcome.reason == "shed_low_priority":
                    self._sheds.inc(priority=request.priority)
                self._finish(
                    SolveResponse(
                        request_id=request.request_id,
                        status="rejected",
                        error=outcome.reason,
                    )
                )
        self._queue_depth.set(self.queue.depth)
        return outcome

    def _admit_rate(self, request: SolveRequest) -> bool:
        """Spend one token from the submitter's bucket (True = admitted)."""
        rate = self.config.rate_limit_per_client
        if rate is None:
            return True
        bucket = self._buckets.get(request.client_id)
        if bucket is None:
            bucket = TokenBucket(
                rate=rate,
                burst=self.config.rate_limit_burst,
                clock=self._clock,
            )
            self._buckets[request.client_id] = bucket
        return bucket.try_acquire()

    @property
    def pending(self) -> int:
        """Requests currently queued (not yet batched)."""
        return self.queue.depth

    # ------------------------------------------------------------------
    # Execution

    def process_pending(self) -> list[SolveResponse]:
        """Drain one batch, execute it, and answer every drained request.

        Returns responses in the drained requests' arrival order
        (timeouts included, marked ``status="timeout"``). A single
        failing work unit answers only its own requests with
        ``status="error"`` — the rest of the batch is unaffected. The
        returned list is also what a replay of the same submissions
        would produce: batch formation, execution and response assembly
        are all deterministic.
        """
        live, expired = self.queue.drain(max_items=self.config.max_batch_size)
        self._queue_depth.set(self.queue.depth)
        drained = live + expired
        responses: dict[int, SolveResponse] = {}
        for item in expired:
            self._timeouts.inc(phase="queue")
            responses[item.seq] = SolveResponse(
                request_id=item.request.request_id,
                status="timeout",
                error=f"deadline passed after {item.request.timeout_s}s",
                wait_s=self._wait(item),
            )
        if live:
            # Re-check deadlines at execution start: a request that
            # expired between drain and here must report `timeout`, not
            # be solved late. Counted separately (phase=execute).
            now = self._clock()
            still_live: list[QueuedRequest] = []
            for item in live:
                if item.expired(now):
                    self._timeouts.inc(phase="execute")
                    responses[item.seq] = SolveResponse(
                        request_id=item.request.request_id,
                        status="timeout",
                        error=(
                            f"deadline passed after {item.request.timeout_s}s"
                            " (before execution start)"
                        ),
                        wait_s=self._wait(item),
                    )
                else:
                    still_live.append(item)
            live = still_live
        if live:
            batch = self.batcher.form(live)
            batch_span: Span | None = None
            unit_spans: list[Span] = []
            trace_contexts = None
            if self.tracer is not None:
                parent = next(
                    (
                        req_span.context
                        for item in live
                        if (
                            req_span := self._request_spans.get(
                                item.request.request_id
                            )
                        )
                        is not None
                    ),
                    None,
                )
                batch_span = self.tracer.start_span(
                    "service.batch",
                    parent=parent,
                    attributes={
                        "requests": batch.num_requests,
                        "unique": batch.num_unique,
                    },
                    detached=True,
                )
                unit_spans = [
                    self.tracer.start_span(
                        "service.unit",
                        parent=batch_span,
                        attributes={
                            "request_id": unit.leader.request.request_id,
                            "followers": len(unit.followers),
                        },
                        detached=True,
                    )
                    for unit in batch.units
                ]
                trace_contexts = [span.context for span in unit_spans]
            before = cache_stats()
            outcomes = self.batcher.execute(
                batch,
                trace_contexts=trace_contexts,
                profile_memory=self.config.profile_memory,
            )
            after = cache_stats()
            for cache in ("instance", "lp"):
                delta = after[f"{cache}_hits"] - before[f"{cache}_hits"]
                if delta > 0:
                    self._cache_hits.inc(delta, cache=cache)
            report = getattr(self.batcher.executor, "last_report", None)
            if report is not None:
                if report.retries:
                    self._exec_retries.inc(report.retries)
                if report.respawns:
                    self._exec_respawns.inc(report.respawns)
                if batch_span is not None and (
                    report.retries or report.respawns
                ):
                    batch_span.annotate(
                        exec_retries=report.retries,
                        exec_respawns=report.respawns,
                    )
                if unit_spans and len(report.attempts) == len(unit_spans):
                    for span, count in zip(unit_spans, report.attempts):
                        if count > 1:
                            span.annotate(attempts=count)
            self._batches.inc()
            self._batch_size.observe(batch.num_requests)
            self._batch_unique.observe(batch.num_unique)
            self._dedup_hits.inc(batch.dedup_hits)
            batch_index = int(self._batches.total) - 1
            for index, (unit, outcome) in enumerate(zip(batch.units, outcomes)):
                # Unlike the spans pop (tracer-gated), the recording pop
                # is unconditional: a recorded unit ships its payload
                # whether or not the service itself is traced.
                recording = outcome.pop("recording", None)
                engine = outcome.pop("engine", None)
                if engine is not None:
                    self._solves.inc(engine=engine)
                if self.tracer is not None:
                    worker_spans = outcome.pop("spans", None)
                    if worker_spans:
                        self.tracer.adopt(worker_spans)
                    unit_spans[index].end(
                        status="error" if "error" in outcome else "ok"
                    )
                for position, item in enumerate(unit.requests):
                    responses[item.seq] = self._respond(
                        item,
                        outcome,
                        dedup=position > 0,
                        batch=batch_index,
                        recording=recording,
                    )
            if batch_span is not None:
                batch_span.end()
        ordered = [
            responses[item.seq]
            for item in sorted(drained, key=lambda i: i.seq)
        ]
        for response in ordered:
            self._finish(response)
        return ordered

    def run_until_drained(self) -> list[SolveResponse]:
        """Process batches until the queue is empty; all responses."""
        out: list[SolveResponse] = []
        while self.queue.depth:
            out.extend(self.process_pending())
        return out

    # ------------------------------------------------------------------
    # Drain / shutdown

    @property
    def draining(self) -> bool:
        """True once drain has begun; new submissions are refused."""
        return self._draining

    def begin_drain(self) -> None:
        """Stop admitting new work; already-queued work keeps executing.

        Idempotent. Every submission after this point is answered with
        ``status="draining"`` (and counted in
        ``service.drain.rejections``).
        """
        self._draining = True

    def shutdown(
        self,
        drain: bool = True,
        drain_timeout_s: float | None = None,
    ) -> list[SolveResponse]:
        """Stop the service, optionally flushing queued work first.

        With ``drain=True`` (the default), admission stops and queued
        batches execute until the queue is empty or ``drain_timeout_s``
        (default: the configured
        :attr:`~ServiceConfig.drain_timeout_s`) of wall clock has
        elapsed. Whatever is still queued afterwards
        — everything, when ``drain=False`` — is answered with a typed
        ``status="draining"`` response (retained and fetchable like any
        other), so every admitted request still reaches a terminal
        response. Returns all responses produced, in completion order.
        """
        self.begin_drain()
        out: list[SolveResponse] = []
        if drain:
            if drain_timeout_s is None:
                drain_timeout_s = self.config.drain_timeout_s
            deadline = self._clock() + drain_timeout_s
            while self.queue.depth and self._clock() < deadline:
                out.extend(self.process_pending())
        leftovers_live, leftovers_expired = self.queue.drain(max_items=None)
        for item in sorted(
            leftovers_live + leftovers_expired, key=lambda i: i.seq
        ):
            self._drain_rejections.inc()
            response = SolveResponse(
                request_id=item.request.request_id,
                status="draining",
                error="service shut down before this request executed",
                wait_s=self._wait(item),
            )
            self._finish(response)
            out.append(response)
        self._queue_depth.set(self.queue.depth)
        return out

    # ------------------------------------------------------------------
    # Retrieval and reporting

    def fetch(self, request_id: str) -> SolveResponse | None:
        """Retained response for ``request_id``, or ``None``."""
        found = self.lookup(request_id)
        return found if isinstance(found, SolveResponse) else None

    def lookup(self, request_id: str) -> SolveResponse | StoreMiss:
        """Retained response for ``request_id``, or a typed miss.

        The :class:`~repro.service.store.StoreMiss` says *why* the id is
        unavailable (``unknown`` / ``expired`` / ``evicted``) — the
        socket transport forwards the reason on its fetch-error line.
        """
        found = self.store.lookup(request_id)
        self._store_size.set(len(self.store))
        return found

    def metrics_summary(self) -> dict[str, Any]:
        """Flat scalar view of the service instruments.

        The dict is plain JSON: totals for every counter (per-status
        splits included), current gauge values, and count/mean/p50/p95
        for the latency histogram — the line ``repro serve --metrics``
        emits and the serving example prints.
        """
        return {
            "requests_accepted": self._requests.value(status="accepted"),
            "requests_rejected": self._requests.value(status="rejected"),
            "responses_ok": self._responses.value(status="ok"),
            "responses_error": self._responses.value(status="error"),
            "timeouts": self._timeouts.total,
            "timeouts_queue": self._timeouts.value(phase="queue"),
            "timeouts_execute": self._timeouts.value(phase="execute"),
            "exec_retries": self._exec_retries.total,
            "exec_respawns": self._exec_respawns.total,
            "sheds": self._sheds.total,
            "rate_limited": self._rate_limited.total,
            "drain_rejections": self._drain_rejections.total,
            "batches": self._batches.total,
            "batch_size_mean": self._batch_size.mean(),
            "batch_unique_mean": self._batch_unique.mean(),
            "dedup_hits": self._dedup_hits.total,
            **{
                f"solves_{engine}": self._solves.value(engine=engine)
                for engine in ENGINES
            },
            "cache_hits_instance": self._cache_hits.value(cache="instance"),
            "cache_hits_lp": self._cache_hits.value(cache="lp"),
            "queue_depth": self.queue.depth,
            "store_size": len(self.store),
            "latency_count": self._latency.count(),
            "latency_mean_s": self._latency.mean(),
            "latency_p50_s": self._latency.quantile(0.5),
            "latency_p95_s": self._latency.quantile(0.95),
        }

    # ------------------------------------------------------------------
    # Internals

    def _wait(self, item: QueuedRequest) -> float:
        return max(self._clock() - item.arrival, 0.0)

    def _respond(
        self,
        item: QueuedRequest,
        outcome: dict[str, Any],
        dedup: bool,
        batch: int,
        recording: dict[str, Any] | None = None,
    ) -> SolveResponse:
        if "error" in outcome:
            return SolveResponse(
                request_id=item.request.request_id,
                status="error",
                error=str(outcome["error"]),
                dedup=dedup,
                batch_index=batch,
                wait_s=self._wait(item),
            )
        return SolveResponse(
            request_id=item.request.request_id,
            status="ok",
            result=outcome["result"],
            manifest=outcome["manifest"],
            dedup=dedup,
            batch_index=batch,
            wait_s=self._wait(item),
            recording=recording if recording is not None else {},
        )

    def _finish(self, response: SolveResponse) -> None:
        self._responses.inc(status=response.status)
        if response.status == "ok":
            self._latency.observe(response.wait_s)
        span = self._request_spans.pop(response.request_id, None)
        if span is not None:
            span.annotate(
                dedup=response.dedup, batch_index=response.batch_index
            ).end(status=response.status)
        self.store.put(response)
        self._store_size.set(len(self.store))
