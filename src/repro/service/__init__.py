"""Batched solve serving layer (``repro.service``).

This package turns the repo's one-shot ``solve`` entry points into a
throughput-oriented service front-end, the shape a deployment that
"serves heavy traffic" needs:

* :class:`~repro.service.request.SolveRequest` — one unit of client
  work: an instance *recipe* (generator family + sizes + seed) or an
  inline instance, the algorithm knobs (k, variant, seed, rounding) and
  per-request options (LP ratio, event capture, timeout).
* :class:`~repro.service.queue.AdmissionQueue` — bounded FIFO admission
  with backpressure (full queue rejects instead of buffering without
  limit) and per-request deadlines checked at drain time.
* :class:`~repro.service.batcher.Batcher` — coalesces queued requests
  into deterministic batches, collapses duplicate work units so each is
  solved exactly once per batch, and fans the unique cells out through
  :class:`~repro.perf.executor.SweepExecutor`; batched results are
  byte-identical to direct :func:`~repro.core.algorithm.solve_distributed`
  calls (the equivalence suite asserts it).
* :class:`~repro.service.store.ResultStore` — completed responses
  addressable by request id with TTL + capacity eviction.
* :class:`~repro.service.service.SolveService` — the orchestrator wiring
  the above together and publishing queue depth, batch size, dedup and
  cache hits, latency quantiles, timeout and rejection counts into a
  :class:`~repro.obs.registry.MetricsRegistry`.
* :class:`~repro.service.client.ServiceClient` — the in-process helper
  used by tests, examples and the ``repro serve`` CLI; plus the JSONL
  wire codec and :class:`~repro.service.client.StreamServiceClient`,
  the one TCP / Unix-socket client over the shared
  :class:`~repro.service.transport.LineTransport`: round-trip or
  pipelined submits (many in-flight requests per connection, acks and
  responses matched by request id), wrappable by
  :class:`~repro.service.resilience.RetryingServiceClient`.
* :mod:`~repro.service.resilience` — the fault-tolerance layer: the
  typed ``Retriable``/``Fatal`` service-error taxonomy, the
  crash-surviving :class:`~repro.service.resilience.ResilientExecutor`
  (pool respawn + bounded per-cell retries + stuck-cell watchdog), the
  backoff-and-reconnect
  :class:`~repro.service.resilience.RetryingServiceClient`, and the
  per-client :class:`~repro.service.resilience.TokenBucket` rate
  limiter behind admission control.
* :mod:`~repro.service.router` — the horizontal half:
  :class:`~repro.service.router.ServiceRouter` consistent-hash-routes
  each request on its canonical work key across K backend workers
  (:class:`~repro.service.router.HashRing`) behind a cross-worker
  :class:`~repro.service.router.SharedResultCache`, so dedup and result
  reuse survive sharding; ``repro serve --service-workers K`` builds
  one.
* :mod:`~repro.service.server` — the transports: stdin/JSONL
  (:func:`~repro.service.server.serve_jsonl`) and the concurrent Unix
  socket and TCP front ends (:func:`~repro.service.server.serve_socket`,
  :func:`~repro.service.server.serve_tcp`; ``repro serve --socket PATH``
  / ``--tcp HOST:PORT``), one reader thread per connection, all fed
  through the one line loop :func:`~repro.service.server.serve_lines`.

See ``docs/SERVING.md`` for the full serving guide,
``docs/ARCHITECTURE.md`` ("Serving layer", "Serving resilience") for
the data flow and ``examples/serving.py`` for a worked mixed-batch
session.
"""

from repro.service.batcher import Batch, Batcher, WorkUnit
from repro.service.client import (
    ServiceClient,
    StreamServiceClient,
    TcpServiceClient,
    decode_line,
    encode_line,
)
from repro.service.queue import AdmissionQueue, AdmissionResult
from repro.service.request import (
    PRIORITY_CLASSES,
    InstanceRecipe,
    SolveRequest,
    SolveResponse,
    priority_level,
)
from repro.service.resilience import (
    RETRIABLE_REJECT_REASONS,
    ExecutionReport,
    FatalServiceError,
    ResilientExecutor,
    RetriableServiceError,
    RetryingServiceClient,
    RetryPolicy,
    RetryStats,
    ServiceError,
    TokenBucket,
    WorkerCrashError,
)
from repro.service.router import (
    HashRing,
    RouterConfig,
    ServiceRouter,
    SharedResultCache,
)
from repro.service.server import (
    ServiceProtocol,
    serve_jsonl,
    serve_socket,
    serve_tcp,
)
from repro.service.service import ServiceConfig, SolveService
from repro.service.store import ResultStore, StoreMiss
from repro.service.transport import LineTransport, parse_hostport
from repro.service.worker import (
    ServiceCell,
    run_service_cell,
    run_service_cell_guarded,
)

__all__ = [
    "AdmissionQueue",
    "AdmissionResult",
    "Batch",
    "Batcher",
    "ExecutionReport",
    "FatalServiceError",
    "HashRing",
    "InstanceRecipe",
    "LineTransport",
    "PRIORITY_CLASSES",
    "RETRIABLE_REJECT_REASONS",
    "ResilientExecutor",
    "ResultStore",
    "RetriableServiceError",
    "RetryPolicy",
    "RetryStats",
    "RetryingServiceClient",
    "RouterConfig",
    "ServiceCell",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceProtocol",
    "ServiceRouter",
    "SharedResultCache",
    "SolveRequest",
    "SolveResponse",
    "SolveService",
    "StoreMiss",
    "StreamServiceClient",
    "TcpServiceClient",
    "TokenBucket",
    "WorkUnit",
    "WorkerCrashError",
    "decode_line",
    "encode_line",
    "parse_hostport",
    "priority_level",
    "run_service_cell",
    "run_service_cell_guarded",
    "serve_jsonl",
    "serve_socket",
    "serve_tcp",
]
