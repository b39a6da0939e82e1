"""Horizontal scaling: consistent-hash routing over service workers.

One :class:`~repro.service.service.SolveService` saturates one process.
The :class:`ServiceRouter` is the horizontal half: it fronts ``K``
backend service workers and routes every request on its canonical
:meth:`~repro.service.request.SolveRequest.work_key` through a
:class:`HashRing`, so the two properties that make the single-process
service efficient *survive sharding*:

* **Dedup keeps working.** Two requests with equal work keys hash to
  the same worker, land in the same admission queue, and the worker's
  batcher answers the duplicate from the leader's solve — exactly as
  if there were one worker. (This is the instance-identity partitioning
  the k-machine / MPC framings of distributed facility location assume
  when spreading one problem family across machines.)
* **Result reuse keeps working — and gets wider.** A router-side
  :class:`SharedResultCache`, keyed by work key and TTL'd, answers
  repeat work without touching any worker, including repeats that
  previously ran on a *different* worker. Entries store the exact
  ``result``/``manifest`` payloads a worker produced, so a cache hit is
  byte-identical to a fresh solve (the equivalence suite asserts it).

The router exposes the same surface a
:class:`~repro.service.service.SolveService` does (``submit`` /
``run_until_drained`` / ``lookup`` / ``fetch`` / ``metrics_summary`` /
``shutdown``), so every transport —
:func:`~repro.service.server.serve_jsonl`,
:func:`~repro.service.server.serve_socket` and
:func:`~repro.service.server.serve_tcp` — serves a router exactly the
way it serves a single service. ``repro serve --service-workers K``
builds one.

Everything is measured: routing decisions land in ``service.route.*``
and cache traffic in ``service.shared_cache.*`` (see
``docs/OBSERVABILITY.md``). Worker-level instruments stay in each
worker's private registry; :meth:`ServiceRouter.metrics_summary` sums
them so the aggregate view a client polls matches the single-service
shape field for field.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Mapping

from repro.exceptions import ReproError
from repro.flags import flag, ttl_seconds
from repro.obs.registry import MetricsRegistry
from repro.service.queue import AdmissionResult
from repro.service.request import SolveRequest, SolveResponse
from repro.service.service import ServiceConfig, SolveService
from repro.service.store import ResultStore, StoreMiss

__all__ = [
    "CachedResult",
    "HashRing",
    "RouterConfig",
    "ServiceRouter",
    "SharedResultCache",
    "canonical_key_bytes",
]


def canonical_key_bytes(key: Hashable) -> bytes:
    """Stable bytes for a work key (the hash input of the ring).

    Work keys are nested tuples of JSON scalars, so key-sorted JSON of
    the tuple (tuples serialize as arrays) is canonical: equal keys give
    equal bytes on every process, platform and run — which is what makes
    routing deterministic across restarts and across machines.
    """
    return json.dumps(key, sort_keys=True, separators=(",", ":")).encode()


class HashRing:
    """Consistent-hash ring mapping work keys onto worker indices.

    Each worker owns ``replicas`` pseudo-random points (vnodes) on a
    ring of SHA-256 positions; a key is assigned to the worker owning
    the first point clockwise of the key's own position. The classic
    consequences, both load-bearing here and asserted by tests:

    * **Deterministic** — positions derive only from worker index and
      replica number, so the same key maps to the same worker on every
      run and every process.
    * **Stable under resizing** — growing ``K`` workers to ``K+1``
      moves only the keys whose arc the new worker's points claim,
      about ``1/(K+1)`` of them; everything else keeps its worker (and
      therefore its worker-local queue/store locality).
    * **Duplicate-preserving** — equal work keys trivially land on the
      same worker, which is what keeps batcher dedup working across a
      sharded deployment.
    """

    def __init__(self, num_workers: int, replicas: int = 64) -> None:
        if num_workers < 1:
            raise ReproError(f"num_workers must be >= 1, got {num_workers}")
        if replicas < 1:
            raise ReproError(f"replicas must be >= 1, got {replicas}")
        self.num_workers = int(num_workers)
        self.replicas = int(replicas)
        points: list[tuple[int, int]] = []
        for worker in range(self.num_workers):
            for replica in range(self.replicas):
                digest = hashlib.sha256(
                    f"worker:{worker}:replica:{replica}".encode()
                ).digest()
                points.append((int.from_bytes(digest[:8], "big"), worker))
        points.sort()
        self._positions = [position for position, _ in points]
        self._owners = [owner for _, owner in points]

    def position_of(self, key: Hashable) -> int:
        """The key's own point on the ring (an unsigned 64-bit value)."""
        digest = hashlib.sha256(canonical_key_bytes(key)).digest()
        return int.from_bytes(digest[:8], "big")

    def worker_for(self, key: Hashable) -> int:
        """Worker index owning ``key`` (first vnode clockwise of it)."""
        index = bisect_right(self._positions, self.position_of(key))
        if index == len(self._positions):
            index = 0  # wrap past the highest vnode back to the first
        return self._owners[index]


@dataclass(frozen=True)
class CachedResult:
    """One shared-cache entry: the byte-identical payload of a solve.

    Stores exactly the fields of the producing ``status="ok"`` response
    that are work-determined (``result`` / ``manifest`` / ``recording``)
    and none that are submission-determined (``request_id``, ``wait_s``,
    ``batch_index``), so a hit can be re-wrapped for any requester
    without changing answer bytes.
    """

    result: Mapping[str, Any]
    manifest: Mapping[str, Any]
    recording: Mapping[str, Any]
    stored_at: float
    expires_at: float | None  # None = no TTL

    def expired(self, now: float) -> bool:
        """True once ``now`` has passed the entry's TTL."""
        return self.expires_at is not None and now > self.expires_at

    def response_for(self, request_id: str) -> SolveResponse:
        """Wrap the cached payload as a response to ``request_id``.

        ``dedup=True`` because — like a batch follower — the requester
        is served from another request's solve; ``batch_index=-1``
        because no batch ran for it.
        """
        return SolveResponse(
            request_id=request_id,
            status="ok",
            result=self.result,
            manifest=self.manifest,
            recording=self.recording,
            dedup=True,
            batch_index=-1,
        )


class SharedResultCache:
    """Cross-worker result cache keyed by canonical work key.

    The worker-local :class:`~repro.service.store.ResultStore` answers
    "fetch *this request id* again"; this cache answers the bigger
    question "has *anyone*, on *any worker*, already solved this exact
    work?" — the router consults it before routing, so repeat work
    (zipf-skewed duplicate recipes are the motivating traffic shape)
    never re-queues.

    Entries are TTL'd and capacity-bounded (oldest store evicted
    first); only ``status="ok"`` responses are cached, since errors and
    timeouts are submission outcomes, not work outcomes. Traffic is
    counted in the owning registry: ``service.shared_cache.hits`` /
    ``.misses`` / ``.stores`` / ``.evictions{reason=ttl|capacity}``
    plus the ``service.shared_cache.size`` gauge.
    """

    def __init__(
        self,
        ttl_s: float | None = 300.0,
        max_entries: int = 512,
        clock: Callable[[], float] = time.monotonic,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if ttl_s is not None and ttl_s <= 0:
            raise ReproError(f"ttl_s must be positive, got {ttl_s}")
        if max_entries < 1:
            raise ReproError(f"max_entries must be >= 1, got {max_entries}")
        self.ttl_s = ttl_s
        self.max_entries = int(max_entries)
        self._clock = clock
        self._entries: "OrderedDict[bytes, CachedResult]" = OrderedDict()
        registry = registry if registry is not None else MetricsRegistry()
        self._hits = registry.counter(
            "service.shared_cache.hits",
            "requests answered from the cross-worker result cache",
        )
        self._misses = registry.counter(
            "service.shared_cache.misses",
            "cache probes that had to route to a worker",
        )
        self._stores = registry.counter(
            "service.shared_cache.stores",
            "ok responses written into the cross-worker result cache",
        )
        self._evictions = registry.counter(
            "service.shared_cache.evictions",
            "cache entries dropped, labeled reason=ttl|capacity",
        )
        self._size = registry.gauge(
            "service.shared_cache.size",
            "current cross-worker result cache size",
        )
        self._size.set(0)

    def __len__(self) -> int:
        return len(self._entries)

    def sweep(self) -> int:
        """Drop every expired entry; returns how many were evicted."""
        now = self._clock()
        dead = [
            key
            for key, entry in self._entries.items()
            if entry.expired(now)
        ]
        for key in dead:
            del self._entries[key]
            self._evictions.inc(reason="ttl")
        self._size.set(len(self._entries))
        return len(dead)

    def get(self, work_key: Hashable) -> CachedResult | None:
        """Cached payload for ``work_key``, or ``None`` (both counted)."""
        self.sweep()
        entry = self._entries.get(canonical_key_bytes(work_key))
        if entry is None:
            self._misses.inc()
            return None
        self._hits.inc()
        return entry

    def put(self, work_key: Hashable, response: SolveResponse) -> bool:
        """Cache an ``ok`` response's payload; True when stored.

        Non-``ok`` responses are refused (their outcome belongs to one
        submission, not to the work); re-putting a key refreshes its
        TTL with identical bytes, which is harmless by the work-key
        contract.
        """
        if response.status != "ok":
            return False
        now = self._clock()
        key = canonical_key_bytes(work_key)
        self._entries.pop(key, None)
        self._entries[key] = CachedResult(
            result=response.result,
            manifest=response.manifest,
            recording=response.recording,
            stored_at=now,
            expires_at=now + self.ttl_s if self.ttl_s is not None else None,
        )
        self._stores.inc()
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self._evictions.inc(reason="capacity")
        self._size.set(len(self._entries))
        return True


@dataclass(frozen=True)
class RouterConfig:
    """Tunables of one :class:`ServiceRouter`.

    A field's ``help`` metadata documents it (it is also the help of
    its ``repro serve`` flag; see :mod:`repro.flags`).

    Parameters
    ----------
    shared_cache_entries:
        Shared-cache capacity (oldest store evicted past it).
    parallel_flush:
        Drive the workers' flushes on concurrent threads. Responses are
        merged by global admission order either way, so this changes
        wall-clock only, never bytes.
    """

    num_workers: int = flag(
        2, "--service-workers", metavar="K",
        help="backend service workers behind a consistent-hash router "
        "(repro serve starts no router for 1); requests route on their "
        "work key so dedup and result reuse survive sharding")
    #: ``None`` keeps an entry until capacity eviction.
    shared_cache_ttl_s: float | None = flag(
        300.0, "--shared-cache-ttl", type=ttl_seconds,
        help="seconds a cross-worker shared-cache entry stays servable "
        "(with --service-workers > 1; 0 disables the TTL)")
    shared_cache_entries: int = 512
    parallel_flush: bool = True

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ReproError(
                f"num_workers must be >= 1, got {self.num_workers}"
            )


class ServiceRouter:
    """K service workers behind one consistent-hash front door.

    Parameters
    ----------
    config:
        Router tunables (:class:`RouterConfig` defaults).
    service_config:
        The :class:`~repro.service.service.ServiceConfig` every backend
        worker is built with (each worker gets a private registry so
        per-worker instruments never collide).
    registry:
        Registry for the router-level instruments (``service.route.*``,
        ``service.shared_cache.*``); a private one is created when
        omitted (exposed as :attr:`registry` either way — the ``metrics
        full`` wire op snapshots it).
    clock:
        Monotonic time source shared with the cache and the router-side
        store; injectable for deterministic tests.
    worker_factory:
        Override building the backend services (tests inject services
        with chaos executors); called once per worker index with the
        worker's :class:`~repro.service.service.ServiceConfig`.

    The router deliberately mirrors the :class:`SolveService` surface
    so the transports and the protocol layer cannot tell the
    difference; byte-identity of routed responses to direct solves is
    asserted by ``tests/test_service_equivalence.py``.
    """

    def __init__(
        self,
        config: RouterConfig | None = None,
        service_config: ServiceConfig | None = None,
        registry: MetricsRegistry | None = None,
        clock: Callable[[], float] = time.monotonic,
        worker_factory: Callable[[ServiceConfig], SolveService] | None = None,
    ) -> None:
        self.config = config if config is not None else RouterConfig()
        self.service_config = (
            service_config if service_config is not None else ServiceConfig()
        )
        self.registry = registry if registry is not None else MetricsRegistry()
        self._clock = clock
        factory = (
            worker_factory
            if worker_factory is not None
            else lambda cfg: SolveService(config=cfg, clock=clock)
        )
        self.workers = [
            factory(self.service_config)
            for _ in range(self.config.num_workers)
        ]
        self.ring = HashRing(num_workers=self.config.num_workers)
        self.shared_cache = SharedResultCache(
            ttl_s=self.config.shared_cache_ttl_s,
            max_entries=self.config.shared_cache_entries,
            clock=clock,
            registry=self.registry,
        )
        # Cache-served responses are retained router-side so `fetch`
        # works for them exactly like for worker-solved requests; the
        # store shares the workers' TTL/capacity settings.
        self._cache_store = ResultStore(
            ttl_s=self.service_config.result_ttl_s,
            clock=clock,
        )
        self._routes = self.registry.counter(
            "service.route.requests",
            "requests routed to a backend worker, labeled worker=<index>",
        )
        self._short_circuits = self.registry.counter(
            "service.route.cache_short_circuits",
            "requests answered at the router from the shared cache "
            "(never routed)",
        )
        self._moved = self.registry.gauge(
            "service.route.workers", "backend service workers behind the ring"
        )
        self._moved.set(self.config.num_workers)
        self._seq = 0
        self._draining = False
        #: request_id → (global seq, owning worker index or None when the
        #: request was answered at the router).
        self._placements: "OrderedDict[str, tuple[int, int | None]]" = (
            OrderedDict()
        )
        #: work keys awaiting their first solve, to backfill the shared
        #: cache at flush time: request_id → work key.
        self._pending_keys: dict[str, Hashable] = {}
        #: cache-hit responses not yet returned by a flush, by seq.
        self._pending_cached: dict[int, SolveResponse] = {}

    # ------------------------------------------------------------------
    # Admission / routing

    @property
    def num_workers(self) -> int:
        """Backend worker count (the ``K`` of ``--service-workers K``)."""
        return self.config.num_workers

    @property
    def pending(self) -> int:
        """Requests queued across all workers plus unreturned cache hits."""
        return sum(worker.pending for worker in self.workers) + len(
            self._pending_cached
        )

    @property
    def draining(self) -> bool:
        """True once drain has begun; new submissions are refused."""
        return self._draining

    def _place(self, request_id: str, worker: int | None) -> int:
        self._seq += 1
        self._placements[request_id] = (self._seq, worker)
        # The placement map is bookkeeping, not retention: bound it by
        # the workers' combined store budget so a long-lived router
        # cannot grow without limit.
        limit = self._cache_store.max_entries * (self.num_workers + 1)
        while len(self._placements) > limit:
            self._placements.popitem(last=False)
        return self._seq

    def submit(self, request: SolveRequest) -> AdmissionResult:
        """Admit ``request``: shared cache first, then the hash ring.

        A shared-cache hit is answered at the router — the synthesized
        response is retained (fetchable) and returned by the next
        flush, in global admission order with everything else. A miss
        routes to ``ring.worker_for(work_key)``, so duplicates — in
        this flush window or a later one — always share a worker.
        While draining, the cache is bypassed and the routed worker
        answers ``status="draining"``, mirroring single-service
        semantics.
        """
        work_key = request.work_key()
        if not self._draining:
            cached = self.shared_cache.get(work_key)
            if cached is not None:
                response = cached.response_for(request.request_id)
                seq = self._place(request.request_id, None)
                self._pending_cached[seq] = response
                self._cache_store.put(response)
                self._short_circuits.inc()
                return AdmissionResult(accepted=True)
        worker = self.ring.worker_for(work_key)
        self._routes.inc(worker=worker)
        outcome = self.workers[worker].submit(request)
        self._place(request.request_id, worker)
        if outcome.accepted:
            self._pending_keys[request.request_id] = work_key
        return outcome

    # ------------------------------------------------------------------
    # Execution

    def _flush_workers(self) -> list[tuple[int, list[SolveResponse]]]:
        """Drain every worker; (worker index, its responses) pairs."""
        busy = [
            (index, worker)
            for index, worker in enumerate(self.workers)
            if worker.pending
        ]
        results: list[tuple[int, list[SolveResponse]]] = []
        if self.config.parallel_flush and len(busy) > 1:
            lock = threading.Lock()

            def drain(index: int, worker: SolveService) -> None:
                responses = worker.run_until_drained()
                with lock:
                    results.append((index, responses))

            threads = [
                threading.Thread(target=drain, args=(index, worker))
                for index, worker in busy
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            results.sort(key=lambda pair: pair[0])
        else:
            for index, worker in busy:
                results.append((index, worker.run_until_drained()))
        return results

    def run_until_drained(self) -> list[SolveResponse]:
        """Flush every worker and merge responses in admission order.

        Worker flushes run concurrently (``parallel_flush``), but the
        merge is by the router's global admission sequence, so the
        returned order is deterministic whatever the thread timing —
        the same merge-by-order trick the parallel
        :class:`~repro.perf.executor.SweepExecutor` uses. Fresh ``ok``
        responses are folded into the shared cache here, which is the
        moment a work key becomes servable to *every* worker's future
        traffic.
        """
        merged: list[tuple[int, SolveResponse]] = []
        for _, responses in self._flush_workers():
            for response in responses:
                placement = self._placements.get(response.request_id)
                seq = placement[0] if placement is not None else self._seq + 1
                merged.append((seq, response))
                key = self._pending_keys.pop(response.request_id, None)
                if key is not None:
                    self.shared_cache.put(key, response)
        for seq, response in self._pending_cached.items():
            merged.append((seq, response))
        self._pending_cached = {}
        merged.sort(key=lambda pair: pair[0])
        return [response for _, response in merged]

    # ------------------------------------------------------------------
    # Drain / shutdown

    def begin_drain(self) -> None:
        """Stop admitting new work on every worker; idempotent."""
        self._draining = True
        for worker in self.workers:
            worker.begin_drain()

    def shutdown(
        self,
        drain: bool = True,
        drain_timeout_s: float | None = None,
    ) -> list[SolveResponse]:
        """Stop all workers, optionally flushing queued work first.

        The drain budget is shared: each worker's shutdown gets the
        time remaining on the router's clock, so ``drain_timeout_s``
        bounds the whole front end, not each worker separately.
        Responses (flushed plus typed ``draining`` leftovers, plus any
        unreturned cache hits) merge in global admission order.
        """
        self.begin_drain()
        deadline = (
            self._clock() + drain_timeout_s
            if drain_timeout_s is not None
            else None
        )
        merged: list[tuple[int, SolveResponse]] = []
        for worker in self.workers:
            remaining = (
                max(deadline - self._clock(), 0.0)
                if deadline is not None
                else None
            )
            for response in worker.shutdown(
                drain=drain, drain_timeout_s=remaining
            ):
                placement = self._placements.get(response.request_id)
                seq = placement[0] if placement is not None else self._seq + 1
                merged.append((seq, response))
                key = self._pending_keys.pop(response.request_id, None)
                if key is not None:
                    self.shared_cache.put(key, response)
        for seq, response in self._pending_cached.items():
            merged.append((seq, response))
        self._pending_cached = {}
        merged.sort(key=lambda pair: pair[0])
        return [response for _, response in merged]

    # ------------------------------------------------------------------
    # Retrieval and reporting

    def lookup(self, request_id: str) -> SolveResponse | StoreMiss:
        """Retained response for ``request_id``, or a typed miss.

        Resolution order: the router-side store of cache-served
        responses, then the owning worker recorded at submit time, then
        — for ids this router never placed (e.g. after a restart) —
        every worker in index order.
        """
        found = self._cache_store.lookup(request_id)
        if isinstance(found, SolveResponse):
            return found
        placement = self._placements.get(request_id)
        if placement is not None and placement[1] is not None:
            return self.workers[placement[1]].lookup(request_id)
        miss: SolveResponse | StoreMiss = StoreMiss(request_id=request_id)
        for worker in self.workers:
            found = worker.lookup(request_id)
            if isinstance(found, SolveResponse):
                return found
            if found.reason != "unknown":
                miss = found
        return miss

    def fetch(self, request_id: str) -> SolveResponse | None:
        """Retained response for ``request_id``, or ``None``."""
        found = self.lookup(request_id)
        return found if isinstance(found, SolveResponse) else None

    def route_counts(self) -> dict[int, float]:
        """Requests routed per worker index (the balance view)."""
        return {
            worker: self._routes.value(worker=worker)
            for worker in range(self.num_workers)
        }

    def metrics_summary(self) -> dict[str, Any]:
        """Aggregate metrics across workers, plus the router's own.

        Worker summaries are summed field-wise (latency quantiles are
        recomputed from the merged histograms' summaries as max, the
        conservative aggregate), then the router adds routing balance
        and shared-cache traffic under ``route_*`` / ``shared_cache_*``
        keys — one flat dict, same shape the single-service summary
        has, so dashboards work unchanged behind a router.
        """
        summaries = [worker.metrics_summary() for worker in self.workers]
        aggregate: dict[str, Any] = {}
        sum_keys = {
            key
            for summary in summaries
            for key in summary
            if not key.startswith("latency_")
        }
        for key in sorted(sum_keys):
            aggregate[key] = sum(summary.get(key, 0) or 0 for summary in summaries)
        counts = [summary.get("latency_count", 0) for summary in summaries]
        total = sum(counts)
        aggregate["latency_count"] = total
        aggregate["latency_mean_s"] = (
            sum(
                summary.get("latency_mean_s", 0.0) * count
                for summary, count in zip(summaries, counts)
            )
            / total
            if total
            else 0.0
        )
        for quantile in ("latency_p50_s", "latency_p95_s"):
            aggregate[quantile] = max(
                (summary.get(quantile, 0.0) for summary in summaries),
                default=0.0,
            )
        aggregate["route_workers"] = self.num_workers
        for worker, routed in self.route_counts().items():
            aggregate[f"route_worker_{worker}"] = routed
        aggregate["route_cache_short_circuits"] = self._short_circuits.total
        aggregate["shared_cache_hits"] = self.shared_cache._hits.total
        aggregate["shared_cache_misses"] = self.shared_cache._misses.total
        aggregate["shared_cache_stores"] = self.shared_cache._stores.total
        aggregate["shared_cache_size"] = len(self.shared_cache)
        return aggregate
