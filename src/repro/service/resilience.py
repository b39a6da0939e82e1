"""Fault tolerance for the serving layer: crash recovery, retries, shedding.

Everything the fair-weather service in :mod:`repro.service.service`
assumes can fail, eventually does: a pool worker segfaults and poisons
its batch, a cell wedges forever, a socket drops mid-reply, a burst of
traffic fills the queue. This module holds the pieces that turn those
failures into bounded, typed, observable outcomes:

* a **typed error taxonomy** — :class:`ServiceError` split into
  :class:`RetriableServiceError` (transient; try again) and
  :class:`FatalServiceError` (retrying cannot help) — shared by the
  socket client, the retrying client and the chaos harness;
* :class:`ResilientExecutor` — a drop-in
  :class:`~repro.perf.executor.SweepExecutor` replacement that detects
  worker death (``BrokenProcessPool`` / :class:`WorkerCrashError`) and
  stuck cells (a wall-clock watchdog), respawns the pool, and re-executes
  only the affected cells under a bounded per-cell attempt budget —
  preserving the ordered-merge byte-identity guarantee because retried
  cells are deterministic;
* :class:`RetryingServiceClient` — idempotent client-side retries with
  exponential backoff and deterministic jitter, safe because resubmitted
  ``request_id``\\ s dedup server-side through the existing work-key
  machinery;
* :class:`RetryPolicy` and :class:`TokenBucket` — the shared retry and
  rate-limit primitives (the service uses the bucket per client id).

Nothing here imports the service orchestrator or the transports, so the
taxonomy can be raised from both without an import cycle.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.exceptions import ReproError
from repro.perf.executor import _check_spawn_safe

__all__ = [
    "ExecutionReport",
    "FatalServiceError",
    "ResilientExecutor",
    "RetryPolicy",
    "RetryStats",
    "RetryingServiceClient",
    "RETRIABLE_REJECT_REASONS",
    "ServiceError",
    "TokenBucket",
    "WorkerCrashError",
]

#: Rejection reasons that are worth retrying: the condition that caused
#: them (a full queue, an exhausted token bucket, transient low-priority
#: shedding) clears on its own. ``"draining"`` is deliberately absent —
#: a draining service only gets further from accepting work.
RETRIABLE_REJECT_REASONS: frozenset[str] = frozenset(
    {"queue_full", "rate_limited", "shed_low_priority"}
)


class ServiceError(ReproError):
    """Base of the serving layer's typed error taxonomy."""


class RetriableServiceError(ServiceError):
    """A transient service failure: the same call may succeed if retried.

    Raised for dropped/reset/timed-out connections and worker crashes —
    conditions that clear on their own. :class:`RetryingServiceClient`
    catches exactly this type (reconnecting first when the transport
    broke); anything else propagates.
    """


class FatalServiceError(ServiceError):
    """A permanent service failure: retrying the same call cannot help.

    Raised for protocol misuse (operating on a connection already known
    to be broken, a closed client) and terminal server decisions.
    """


class WorkerCrashError(RetriableServiceError):
    """A batch worker died mid-cell (process kill or injected crash).

    In pool mode the pool surfaces crashes as ``BrokenProcessPool``; the
    serial in-process path (and the chaos harness's serial injection)
    raises this instead, so :class:`ResilientExecutor` handles both
    execution modes through one retry path.
    """


# ----------------------------------------------------------------------
# Retry and rate-limit primitives


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    Parameters
    ----------
    max_attempts:
        Total tries (first attempt included) before giving up.
    backoff_base_s:
        Sleep before the second attempt; doubles (``backoff_factor``)
        per further attempt, capped at ``backoff_max_s``.
    backoff_factor:
        Multiplier applied per retry round.
    backoff_max_s:
        Upper bound on any single backoff sleep.
    jitter:
        Fraction of each backoff randomized away (0 disables jitter).
        The randomness comes from the caller-owned ``random.Random`` so
        retry schedules are reproducible under a fixed seed.
    """

    max_attempts: int = 4
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ReproError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ReproError("backoff durations must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ReproError(f"jitter must be in [0, 1], got {self.jitter}")

    def backoff_s(self, attempt: int, rng: random.Random) -> float:
        """Sleep before retry number ``attempt`` (0-based), jittered."""
        raw = min(
            self.backoff_max_s,
            self.backoff_base_s * self.backoff_factor**attempt,
        )
        if self.jitter <= 0.0:
            return raw
        return raw * (1.0 - self.jitter * rng.random())


class TokenBucket:
    """Classic token-bucket rate limiter over an injectable clock.

    Tokens refill continuously at ``rate`` per second up to ``burst``;
    :meth:`try_acquire` spends one token or answers ``False`` without
    blocking — admission control wants a verdict, not a wait.
    """

    def __init__(
        self,
        rate: float,
        burst: float = 8.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0:
            raise ReproError(f"rate must be positive, got {rate}")
        if burst < 1:
            raise ReproError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = self.burst
        self._last = clock()

    @property
    def tokens(self) -> float:
        """Tokens available right now (after refill)."""
        self._refill()
        return self._tokens

    def _refill(self) -> None:
        now = self._clock()
        elapsed = max(now - self._last, 0.0)
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._last = now

    def try_acquire(self, amount: float = 1.0) -> bool:
        """Spend ``amount`` tokens if available; never blocks."""
        self._refill()
        if self._tokens >= amount:
            self._tokens -= amount
            return True
        return False


# ----------------------------------------------------------------------
# Crash-resilient batch execution


@dataclass(frozen=True)
class ExecutionReport:
    """What one :meth:`ResilientExecutor.map_cells` call went through.

    ``attempts[i]`` counts executions of cell ``i`` (1 = clean first
    try); ``retries`` is the total number of re-executions, ``respawns``
    the number of pools discarded after a crash or a stuck cell. The
    service reads the report after each batch to publish
    ``service.exec.retries`` / ``service.exec.respawns`` and to annotate
    unit spans.
    """

    retries: int = 0
    respawns: int = 0
    attempts: tuple[int, ...] = ()


def _crash_outcome(index: int, attempts: int, cause: str) -> dict[str, Any]:
    """The error dict a cell that exhausted its attempt budget answers with."""
    return {
        "error": (
            f"WorkerCrashError: cell {index} failed {attempts} "
            f"attempt(s) ({cause}); retry budget exhausted"
        ),
        "crash": True,
    }


@dataclass(frozen=True)
class ResilientExecutor:
    """A :class:`~repro.perf.executor.SweepExecutor` that survives crashes.

    Drop-in for the plain executor (same :meth:`map_cells` signature and
    ordered-merge contract) with three additions:

    * **Crash detection.** In pool mode a dead worker surfaces as
      ``BrokenProcessPool``; serially, as :class:`WorkerCrashError`.
      Either way the affected cells are re-executed instead of poisoning
      the whole batch.
    * **Watchdog.** With ``cell_timeout_s`` set, a pool cell that fails
      to finish within the budget is treated like a crash: the pool is
      abandoned (its wedged worker with it) and the cell retried fresh.
    * **Bounded retries.** Every cell gets at most ``max_attempts``
      executions; a persistent crasher answers with an ``{"error": ...}``
      dict in its slot (the batch's other cells are unaffected), exactly
      the shape a deterministic cell exception produces.

    Because cells are deterministic, a retried cell returns the same
    bytes a first-try execution would — the byte-identity contract of
    the serving layer survives every recovery path (the equivalence
    suite asserts this with crash injection on).

    After a pool breaks, the affected cells re-run in *isolation* (one
    cell per pool round) so the attempt budget is charged only to cells
    that actually crashed or wedged, never to innocent neighbours that
    merely shared the broken pool.

    :attr:`last_report` holds the :class:`ExecutionReport` of the most
    recent :meth:`map_cells` call.
    """

    workers: int = 1
    max_attempts: int = 3
    cell_timeout_s: float | None = None
    _state: dict[str, Any] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ReproError(f"workers must be >= 1, got {self.workers}")
        if self.max_attempts < 1:
            raise ReproError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.cell_timeout_s is not None and self.cell_timeout_s <= 0:
            raise ReproError(
                f"cell_timeout_s must be positive, got {self.cell_timeout_s}"
            )

    @property
    def last_report(self) -> ExecutionReport | None:
        """Report of the most recent :meth:`map_cells` call (or ``None``)."""
        return self._state.get("report")

    def _prepare(
        self, worker: Callable[[Any], Any], cells: list[Any]
    ) -> tuple[Callable[[Any], Any], list[Any]]:
        """Hook for subclasses to wrap the worker/cells (chaos injection).

        The default is the identity; the chaos harness overrides it to
        envelope each cell with a fault plan. Whatever comes back must
        still be spawn-safe when ``workers > 1``.
        """
        return worker, cells

    def map_cells(
        self,
        worker: Callable[[Any], Any],
        cells: Iterable[Any],
    ) -> list[Any]:
        """Apply ``worker`` to every cell; results in cell order.

        Identical output to :meth:`SweepExecutor.map_cells` on the happy
        path; under worker crashes / stuck cells, affected cells are
        retried up to ``max_attempts`` times and answer with an error
        dict only once the budget is spent.
        """
        items = list(cells)
        if not items:
            self._state["report"] = ExecutionReport(attempts=())
            return []
        run, prepared = self._prepare(worker, items)
        if self.workers == 1:
            results, report = self._map_serial(run, prepared)
        else:
            _check_spawn_safe(run, prepared)
            results, report = self._map_pool(run, prepared)
        self._state["report"] = report
        return results

    def _map_serial(
        self, worker: Callable[[Any], Any], cells: Sequence[Any]
    ) -> tuple[list[Any], ExecutionReport]:
        results: list[Any] = [None] * len(cells)
        attempts = [0] * len(cells)
        retries = 0
        for index, cell in enumerate(cells):
            while True:
                attempts[index] += 1
                try:
                    results[index] = worker(cell)
                    break
                except WorkerCrashError as error:
                    if attempts[index] >= self.max_attempts:
                        results[index] = _crash_outcome(
                            index, attempts[index], str(error)
                        )
                        break
                    retries += 1
        return results, ExecutionReport(
            retries=retries, respawns=0, attempts=tuple(attempts)
        )

    def _map_pool(
        self, worker: Callable[[Any], Any], cells: Sequence[Any]
    ) -> tuple[list[Any], ExecutionReport]:
        n = len(cells)
        results: list[Any] = [None] * n
        attempts = [0] * n
        retries = 0
        respawns = 0
        # Fast path: one pool, every cell in flight at once. A crash or
        # a wedged cell abandons this pool; whatever finished before the
        # break is kept (attempt charged), the rest fall through to the
        # isolation phase with their first attempt *not* charged — the
        # pool's death was not provably their fault.
        unfinished: list[int] = []
        pool = ProcessPoolExecutor(max_workers=min(self.workers, n))
        try:
            futures: dict[int, Future[Any]] = {
                index: pool.submit(worker, cell)
                for index, cell in enumerate(cells)
            }
            broken = False
            for index in range(n):
                timeout = None if not broken else 0.0
                if self.cell_timeout_s is not None and timeout is None:
                    timeout = self.cell_timeout_s
                try:
                    results[index] = futures[index].result(timeout=timeout)
                    attempts[index] += 1
                except (BrokenExecutor, WorkerCrashError, OSError):
                    broken = True
                    unfinished.append(index)
                except FutureTimeoutError:
                    # Wedged (or queued behind a wedged cell): abandon
                    # this pool, sort it out in isolation.
                    broken = True
                    unfinished.append(index)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        if unfinished:
            respawns += 1  # the fast-path pool was lost
        # Isolation phase: one cell per pool round, so a failure is
        # attributable and the budget charges the right cell.
        isolated: ProcessPoolExecutor | None = None
        try:
            for index in unfinished:
                while True:
                    attempts[index] += 1
                    if isolated is None:
                        isolated = ProcessPoolExecutor(max_workers=1)
                    try:
                        results[index] = isolated.submit(
                            worker, cells[index]
                        ).result(timeout=self.cell_timeout_s)
                        break
                    except (
                        BrokenExecutor,
                        WorkerCrashError,
                        FutureTimeoutError,
                        OSError,
                    ) as error:
                        isolated.shutdown(wait=False, cancel_futures=True)
                        isolated = None
                        respawns += 1
                        if attempts[index] >= self.max_attempts:
                            cause = type(error).__name__
                            results[index] = _crash_outcome(
                                index, attempts[index], cause
                            )
                            break
                        retries += 1
        finally:
            if isolated is not None:
                isolated.shutdown(wait=False, cancel_futures=True)
        return results, ExecutionReport(
            retries=retries, respawns=respawns, attempts=tuple(attempts)
        )


# ----------------------------------------------------------------------
# Client-side retries


@dataclass
class RetryStats:
    """Mutable tally of what a :class:`RetryingServiceClient` did."""

    attempts: int = 0
    retries: int = 0
    reconnects: int = 0
    exhausted: int = 0


class RetryingServiceClient:
    """Retry/backoff wrapper over any service client (in-process or socket).

    Parameters
    ----------
    client_factory:
        Zero-argument callable building a fresh client (e.g.
        ``lambda: StreamServiceClient(path=path)`` or
        ``lambda: ServiceClient(service)``). A *factory* rather than an
        instance because recovering from a transport failure means
        reconnecting — the broken client is dropped and a new one built.
    policy:
        The :class:`RetryPolicy`; defaults to its defaults.
    sleep:
        Backoff sleep function; injectable so tests run instantly.
    retriable_rejections:
        Server rejection reasons worth resubmitting
        (:data:`RETRIABLE_REJECT_REASONS` by default). Any other
        rejection — ``"draining"`` above all — is terminal.

    Retrying is safe because requests are idempotent by construction:
    a resubmitted ``request_id`` either dedups onto in-flight work via
    the work-key machinery or overwrites the store entry with
    byte-identical content, so the server never double-answers
    divergently. On a :class:`RetriableServiceError` the current client
    is dropped and rebuilt (reconnect); :class:`FatalServiceError` and
    every non-service exception propagate immediately.
    """

    def __init__(
        self,
        client_factory: Callable[[], Any],
        policy: RetryPolicy | None = None,
        sleep: Callable[[float], None] = time.sleep,
        retriable_rejections: frozenset[str] = RETRIABLE_REJECT_REASONS,
    ) -> None:
        self._factory = client_factory
        self.policy = policy if policy is not None else RetryPolicy()
        self._sleep = sleep
        self.retriable_rejections = frozenset(retriable_rejections)
        self._rng = random.Random(0)
        self._client: Any | None = None
        self.stats = RetryStats()

    @property
    def current(self) -> Any:
        """The live underlying client, (re)built on demand."""
        if self._client is None:
            self._client = self._factory()
        return self._client

    def drop_connection(self) -> None:
        """Discard the current client; the next call reconnects.

        Public so chaos tooling can simulate mid-session connection
        drops; also the internal recovery step after any
        :class:`RetriableServiceError`.
        """
        client = self._client
        self._client = None
        if client is None:
            return
        close = getattr(client, "close", None)
        if close is not None:
            try:
                close()
            except Exception:
                pass  # a broken transport may refuse even to close

    def fetch(self, request_id: str) -> Any:
        """Fetch a retained response, reconnect-and-retry on transport loss."""
        last_error: RetriableServiceError | None = None
        for attempt in range(self.policy.max_attempts):
            self.stats.attempts += 1
            try:
                return self.current.fetch(request_id)
            except RetriableServiceError as error:
                last_error = error
                self.stats.reconnects += 1
                self.drop_connection()
                if attempt + 1 < self.policy.max_attempts:
                    self.stats.retries += 1
                    self._sleep(self.policy.backoff_s(attempt, self._rng))
        self.stats.exhausted += 1
        raise FatalServiceError(
            f"fetch({request_id!r}) failed after "
            f"{self.policy.max_attempts} attempt(s): {last_error}"
        ) from last_error

    def solve(self, request: Any) -> Any:
        """Drive one request to a terminal response, retrying as allowed."""
        return self.solve_many([request])[0]

    def solve_many(self, requests: Sequence[Any]) -> list[Any]:
        """Drive a batch to terminal responses, retrying as allowed.

        Responses come back in submission order. Each attempt resubmits
        only the still-unanswered requests (same ``request_id``\\ s, so
        the server dedups), flushes, and fetches. A request whose budget
        runs out is answered with a synthesized ``status="error"``
        response rather than an exception, so one poisoned request
        cannot discard its batchmates' answers.
        """
        from repro.service.request import SolveResponse

        order = [request.request_id for request in requests]
        pending = {request.request_id: request for request in requests}
        answers: dict[str, Any] = {}
        last_error: Exception | None = None
        for attempt in range(self.policy.max_attempts):
            if not pending:
                break
            self.stats.attempts += 1
            try:
                client = self.current
                for request in pending.values():
                    client.submit(request)
                client.flush()
                for request_id in list(pending):
                    response = client.fetch(request_id)
                    if response is None:
                        continue  # lost/evicted: resubmit next attempt
                    answers[request_id] = response
                    if (
                        response.status == "rejected"
                        and response.error in self.retriable_rejections
                    ):
                        continue  # keep as best-so-far, retry
                    del pending[request_id]
            except RetriableServiceError as error:
                last_error = error
                self.stats.reconnects += 1
                self.drop_connection()
            if pending and attempt + 1 < self.policy.max_attempts:
                self.stats.retries += len(pending)
                self._sleep(self.policy.backoff_s(attempt, self._rng))
        out: list[Any] = []
        for request_id in order:
            response = answers.get(request_id)
            if response is None:
                self.stats.exhausted += 1
                response = SolveResponse(
                    request_id=request_id,
                    status="error",
                    error=(
                        "retry budget exhausted after "
                        f"{self.policy.max_attempts} attempt(s)"
                        + (f": {last_error}" if last_error else "")
                    ),
                )
            out.append(response)
        return out

    def close(self) -> None:
        """Release the underlying client, if any."""
        self.drop_connection()

    def __enter__(self) -> "RetryingServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
