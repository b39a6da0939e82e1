"""Service-level chaos: fault injection against a live solve service.

:mod:`repro.analysis.chaos` stresses the *protocol* (message loss, node
crashes, self-healing); this module stresses the *serving layer* built
in :mod:`repro.service`. It runs a real :class:`~repro.service.service.
SolveService` — in-process or behind the Unix-socket transport — while
injecting the faults a deployment actually sees:

* **worker kills** — a cell's worker process dies mid-solve
  (``os._exit`` in pool workers, :class:`~repro.service.resilience.
  WorkerCrashError` in the serial path), exercising pool respawn and
  the bounded per-cell retry budget;
* **slow cells** — a cell sleeps past the watchdog budget once,
  exercising the stuck-cell timeout path;
* **connection drops** — the client tears its socket down mid-session
  (plus a half-sent frame from a vanishing client), exercising typed
  transport errors, reconnects and idempotent resubmission;
* **malformed frames** — junk lines through a live connection,
  exercising the server's reject-and-continue path.

Faults are assigned deterministically (a hash of the cell and the plan
seed) and fire *once* per cell via marker files, so a retried cell
succeeds — which is exactly the recovery contract under test. The
gates: every request reaches at least one terminal response, no two
terminal responses for one id disagree on payload, and every ``ok``
payload is byte-identical (wall-clock fields aside) to a direct
un-served solve. ``repro chaos-serve`` drives this from the CLI and CI
(``chaos-serve-smoke``) fails the build on any gate breach.
"""

from __future__ import annotations

import hashlib
import os
import socket
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.analysis.experiments import ExperimentResult
from repro.exceptions import ReproError
from repro.service.batcher import WorkUnit
from repro.service.client import ServiceClient, StreamServiceClient
from repro.service.queue import QueuedRequest
from repro.service.request import InstanceRecipe, SolveRequest, SolveResponse
from repro.service.resilience import (
    FatalServiceError,
    ResilientExecutor,
    RetriableServiceError,
    RetryingServiceClient,
    RetryPolicy,
    WorkerCrashError,
)
from repro.service.server import serve_socket
from repro.service.service import ServiceConfig, SolveService
from repro.service.worker import canonical_answer, run_service_cell_guarded

__all__ = [
    "CellFault",
    "ChaosCellEnvelope",
    "ChaosResilientExecutor",
    "ChaosServePlan",
    "ChaosServeReport",
    "build_chaos_workload",
    "direct_signature",
    "run_chaos_envelope",
    "run_chaos_serve",
]


@dataclass(frozen=True)
class ChaosServePlan:
    """What to break, and how often.

    ``crash_rate`` / ``slow_rate`` are per-*cell* probabilities (decided
    by a deterministic hash, so the same plan against the same workload
    injects the same faults); ``drop_every`` / ``malformed_every``
    trigger on every Nth request of the socket client loop (0 disables).
    """

    crash_rate: float = 0.25
    slow_rate: float = 0.0
    slow_sleep_s: float = 0.4
    drop_every: int = 0
    malformed_every: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.crash_rate <= 1.0:
            raise ReproError(
                f"crash_rate must be in [0, 1], got {self.crash_rate}"
            )
        if not 0.0 <= self.slow_rate <= 1.0:
            raise ReproError(
                f"slow_rate must be in [0, 1], got {self.slow_rate}"
            )
        if self.crash_rate + self.slow_rate > 1.0:
            raise ReproError("crash_rate + slow_rate must not exceed 1")
        if self.slow_sleep_s <= 0:
            raise ReproError(
                f"slow_sleep_s must be positive, got {self.slow_sleep_s}"
            )
        if self.drop_every < 0 or self.malformed_every < 0:
            raise ReproError("drop_every/malformed_every must be >= 0")


@dataclass(frozen=True)
class CellFault:
    """One injected fault: what fires, and the marker that arms it once.

    The marker file is touched *before* the fault fires, so a retried
    cell finds it and runs clean — crash-once / slow-once semantics,
    shared between pool children and the parent via the filesystem.
    """

    kind: str  # "crash" | "slow"
    marker: str
    sleep_s: float = 0.0
    in_pool: bool = False


@dataclass(frozen=True)
class ChaosCellEnvelope:
    """A service cell plus its (optional) fault, picklable for the pool."""

    cell: Any
    fault: CellFault | None = None


def run_chaos_envelope(envelope: ChaosCellEnvelope) -> dict[str, Any]:
    """Execute one enveloped cell, firing its fault first if still armed.

    Module-level so pool children can import it. Crashes are injected
    *before* the guarded worker runs — ``run_service_cell_guarded``
    would otherwise swallow them into an error dict — via ``os._exit``
    in pool children (a real process death, surfacing as
    ``BrokenProcessPool``) and :class:`~repro.service.resilience.
    WorkerCrashError` in the serial path.
    """
    fault = envelope.fault
    if fault is not None:
        marker = Path(fault.marker)
        if not marker.exists():
            try:
                marker.touch()
            except OSError:
                pass  # worst case the fault fires again; retries absorb it
            if fault.kind == "crash":
                if fault.in_pool:
                    os._exit(17)
                raise WorkerCrashError("chaos: injected worker crash")
            time.sleep(fault.sleep_s)
    return run_service_cell_guarded(envelope.cell)


@dataclass(frozen=True)
class ChaosResilientExecutor(ResilientExecutor):
    """A :class:`~repro.service.resilience.ResilientExecutor` that breaks.

    Overrides the ``_prepare`` hook to wrap every cell in a
    :class:`ChaosCellEnvelope`, assigning faults by a deterministic
    hash of the cell and ``plan.seed``. Everything downstream — crash
    detection, respawn, retry budget, ordered merge — is the production
    code path, which is the point: the harness injects, the executor
    recovers.
    """

    plan: ChaosServePlan = field(default_factory=ChaosServePlan)
    marker_dir: str = ""

    def __post_init__(self) -> None:
        super().__post_init__()
        needs_markers = self.plan.crash_rate > 0 or self.plan.slow_rate > 0
        if needs_markers and not self.marker_dir:
            raise ReproError(
                "marker_dir is required when crash/slow faults are enabled"
            )

    def _fault_for(self, cell: Any) -> CellFault | None:
        digest = hashlib.sha256(
            f"{self.plan.seed}|{cell!r}".encode()
        ).hexdigest()
        draw = int(digest[:8], 16) / float(0xFFFFFFFF)
        marker = os.path.join(self.marker_dir, f"fault-{digest[:16]}")
        if draw < self.plan.crash_rate:
            return CellFault(
                kind="crash", marker=marker, in_pool=self.workers > 1
            )
        if draw < self.plan.crash_rate + self.plan.slow_rate:
            return CellFault(
                kind="slow",
                marker=marker,
                sleep_s=self.plan.slow_sleep_s,
                in_pool=self.workers > 1,
            )
        return None

    def _prepare(
        self, worker: Any, cells: list[Any]
    ) -> tuple[Any, list[Any]]:
        """Envelope every cell with its deterministic fault assignment."""
        return run_chaos_envelope, [
            ChaosCellEnvelope(cell=cell, fault=self._fault_for(cell))
            for cell in cells
        ]


def build_chaos_workload(
    family: str = "uniform",
    num_facilities: int = 6,
    num_clients: int = 15,
    ks: Sequence[int] = (4, 9),
    seeds: Sequence[int] = (1, 2, 3),
    num_requests: int = 12,
    duplicate_every: int = 3,
) -> list[SolveRequest]:
    """A deterministic mixed workload for the chaos harness.

    Cycles instance seeds and ``k`` values; every ``duplicate_every``-th
    request re-solves an earlier request's work under a fresh id, so
    dedup is exercised *under* fault injection.
    """
    if num_requests < 1:
        raise ReproError(f"num_requests must be >= 1, got {num_requests}")
    requests: list[SolveRequest] = []
    for index in range(num_requests):
        if (
            duplicate_every
            and requests
            and (index + 1) % duplicate_every == 0
        ):
            original = requests[(index // duplicate_every) % len(requests)]
            requests.append(
                SolveRequest(
                    request_id=f"cs-{index}-dup",
                    recipe=original.recipe,
                    k=original.k,
                    variant=original.variant,
                )
            )
            continue
        requests.append(
            SolveRequest(
                request_id=f"cs-{index}",
                recipe=InstanceRecipe(
                    family,
                    num_facilities,
                    num_clients,
                    seeds[index % len(seeds)],
                ),
                k=ks[index % len(ks)],
            )
        )
    return requests


def _terminal_signature(response: SolveResponse) -> str:
    """Canonical payload bytes of a terminal response.

    Scheduling metadata (``wait_s``, ``batch_index``, ``dedup``) is
    excluded: a legitimately re-executed request may land in a later
    batch, but its *payload* must never diverge. Wall-clock manifest
    fields are stripped for the same reason the equivalence suite
    strips them.
    """
    return canonical_answer(
        {
            "status": response.status,
            "error": response.error,
            "result": dict(response.result),
            "manifest": dict(response.manifest),
        }
    )


def direct_signature(request: SolveRequest) -> str:
    """The oracle: the same work solved directly, no service in between."""
    cell = WorkUnit(
        leader=QueuedRequest(
            request=request, arrival=0.0, seq=0, deadline=None
        )
    ).cell()
    outcome = run_service_cell_guarded(cell)
    return canonical_answer(
        {
            "result": outcome.get("result", {}),
            "manifest": outcome.get("manifest", {}),
        }
    )


@dataclass(frozen=True)
class ChaosServeReport:
    """Outcome of one chaos-serve run, with the gates made explicit.

    ``lost`` — request ids that never reached a server-issued terminal
    response; ``conflicting`` — ids whose collected terminal responses
    disagree on payload (a duplicated-but-divergent answer);
    ``divergent`` — ``ok`` ids whose payload differs from the direct
    solve. All three must be empty (and at least one request must have
    completed ``ok``) for :attr:`passed`.
    """

    total_requests: int
    statuses: Mapping[str, int]
    lost: tuple[str, ...]
    conflicting: tuple[str, ...]
    divergent: tuple[str, ...]
    injected: Mapping[str, int]
    client_stats: Mapping[str, int]
    service_metrics: Mapping[str, Any]
    config: Mapping[str, Any]

    def failures(self) -> list[dict[str, Any]]:
        """Every gate breach, machine-readable."""
        found: list[dict[str, Any]] = []
        if self.lost:
            found.append(
                {"gate": "no_lost_responses", "request_ids": list(self.lost)}
            )
        if self.conflicting:
            found.append(
                {
                    "gate": "exactly_one_terminal_payload",
                    "request_ids": list(self.conflicting),
                }
            )
        if self.divergent:
            found.append(
                {
                    "gate": "ok_byte_identical_to_direct",
                    "request_ids": list(self.divergent),
                }
            )
        if not self.statuses.get("ok"):
            found.append(
                {"gate": "at_least_one_ok", "observed": dict(self.statuses)}
            )
        return found

    @property
    def passed(self) -> bool:
        """Whether every gate held."""
        return not self.failures()

    def to_experiment_result(self) -> ExperimentResult:
        """Summarize as an :class:`ExperimentResult` (id ``CHAOS_SERVE``).

        Its ``to_record()`` is the BENCH record ``repro compare`` reads
        (``repro chaos-serve -o`` writes ``BENCH_chaos_serve.json``), so
        resilience regressions (lost responses, divergence, runaway
        retries) show up next to perf regressions.
        """
        row = (
            self.total_requests,
            self.statuses.get("ok", 0),
            len(self.lost),
            len(self.conflicting),
            len(self.divergent),
            self.injected.get("crash_cells", 0)
            + self.injected.get("slow_cells", 0),
            self.injected.get("drops", 0),
            self.injected.get("malformed", 0),
            int(self.client_stats.get("retries", 0)),
            int(self.service_metrics.get("exec_retries", 0)),
            int(self.service_metrics.get("exec_respawns", 0)),
            int(self.passed),
        )
        notes = dict(self.config)
        notes["statuses"] = dict(self.statuses)
        return ExperimentResult(
            experiment_id="CHAOS_SERVE",
            title="service chaos: fault-tolerant serving gates",
            headers=(
                "requests",
                "ok",
                "lost",
                "conflicting",
                "divergent",
                "cell_faults",
                "drops",
                "malformed",
                "client_retries",
                "exec_retries",
                "exec_respawns",
                "gate_ok",
            ),
            rows=(row,),
            notes=notes,
        )


def _collect(
    terminals: dict[str, list[SolveResponse]],
    response: SolveResponse | None,
) -> None:
    if response is None:
        return
    if response.batch_index == -1 and response.error.startswith(
        "retry budget exhausted"
    ):
        return  # synthesized client-side giveup, not a server answer
    terminals.setdefault(response.request_id, []).append(response)


def _drive_inprocess(
    service: SolveService,
    requests: Sequence[SolveRequest],
    policy: RetryPolicy,
) -> tuple[dict[str, list[SolveResponse]], dict[str, int], dict[str, int]]:
    """Drive the workload through the in-process client path."""
    retrying = RetryingServiceClient(
        lambda: ServiceClient(service), policy=policy, sleep=lambda _s: None
    )
    terminals: dict[str, list[SolveResponse]] = {}
    for response in retrying.solve_many(list(requests)):
        _collect(terminals, response)
    for request in requests:  # a re-fetch must agree with the first answer
        _collect(terminals, retrying.fetch(request.request_id))
    stats = vars(retrying.stats).copy()
    return terminals, {"drops": 0, "malformed": 0}, stats


def _stab_partial_frame(path: str) -> None:
    """Connect, half-send a frame, vanish — the rudest client there is."""
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as stab:
            stab.settimeout(2.0)
            stab.connect(path)
            stab.sendall(b'{"type":"solve","request_id":"half')
    except OSError:
        pass  # the stab is best-effort; the server may already be busy


def _drive_socket(
    service: SolveService,
    requests: Sequence[SolveRequest],
    plan: ChaosServePlan,
    policy: RetryPolicy,
    socket_path: str,
) -> tuple[dict[str, list[SolveResponse]], dict[str, int], dict[str, int]]:
    """Drive the workload over the socket transport, injecting transport
    faults (connection drops, half-sent frames, malformed lines) between
    requests."""
    ready = threading.Event()
    server = threading.Thread(
        target=serve_socket,
        args=(service, socket_path),
        kwargs={"ready": ready},
        daemon=True,
    )
    server.start()
    if not ready.wait(timeout=10.0):
        raise ReproError("socket server failed to start")
    injected = {"drops": 0, "malformed": 0}
    terminals: dict[str, list[SolveResponse]] = {}
    retrying = RetryingServiceClient(
        lambda: StreamServiceClient(path=socket_path, timeout_s=60.0),
        policy=policy,
        sleep=lambda _s: None,
    )
    try:
        for index, request in enumerate(requests):
            if plan.malformed_every and (
                (index + 1) % plan.malformed_every == 0
            ):
                injected["malformed"] += 1
                try:
                    reply = retrying.current.raw_request('{"type":"solve",')
                    if reply.get("type") != "error":
                        raise ReproError(
                            f"malformed frame was not rejected: {reply}"
                        )
                except RetriableServiceError:
                    retrying.drop_connection()
            if plan.drop_every and (index + 1) % plan.drop_every == 0:
                # Sever the live connection *before* the request, so the
                # retrying client hits a mid-operation transport error
                # and must reconnect + resubmit; then stab the server
                # with a half-sent frame from a vanishing client.
                injected["drops"] += 1
                retrying.current.abort()
                _stab_partial_frame(socket_path)
            _collect(terminals, retrying.solve(request))
        for request in requests:  # re-fetch pass: answers must be stable
            _collect(terminals, retrying.fetch(request.request_id))
        try:
            retrying.current.shutdown()
        except (RetriableServiceError, FatalServiceError):
            retrying.drop_connection()
            retrying.current.shutdown()
    finally:
        retrying.close()
        server.join(timeout=10.0)
    stats = vars(retrying.stats).copy()
    return terminals, injected, stats


def run_chaos_serve(
    requests: Sequence[SolveRequest] | None = None,
    plan: ChaosServePlan | None = None,
    workers: int = 2,
    max_attempts: int = 4,
    cell_timeout_s: float | None = 30.0,
    use_socket: bool = False,
    marker_dir: str | None = None,
    socket_path: str | None = None,
    retry_policy: RetryPolicy | None = None,
) -> ChaosServeReport:
    """Run the full service-level chaos experiment and gate it.

    Builds a :class:`ChaosResilientExecutor` around ``plan``, serves
    ``requests`` (default: :func:`build_chaos_workload`) through the
    in-process or socket client path with retries enabled, then checks
    the gates: no lost terminal responses, no conflicting duplicate
    answers, and every ``ok`` payload byte-identical to a direct solve.
    ``marker_dir`` / ``socket_path`` default to fresh temp locations.
    """
    plan = plan if plan is not None else ChaosServePlan()
    requests = (
        list(requests) if requests is not None else build_chaos_workload()
    )
    policy = (
        retry_policy
        if retry_policy is not None
        else RetryPolicy(max_attempts=5, backoff_base_s=0.0, jitter=0.0)
    )
    with tempfile.TemporaryDirectory(prefix="chaos-serve-") as scratch:
        executor = ChaosResilientExecutor(
            workers=workers,
            max_attempts=max_attempts,
            cell_timeout_s=cell_timeout_s,
            plan=plan,
            marker_dir=marker_dir if marker_dir is not None else scratch,
        )
        service = SolveService(
            config=ServiceConfig(workers=workers), executor=executor
        )
        if use_socket:
            terminals, injected, client_stats = _drive_socket(
                service,
                requests,
                plan,
                policy,
                socket_path
                if socket_path is not None
                else os.path.join(scratch, "chaos.sock"),
            )
        else:
            terminals, injected, client_stats = _drive_inprocess(
                service, requests, policy
            )
        fault_kinds = {"crash_cells": 0, "slow_cells": 0}
        for request in requests:
            cell = WorkUnit(
                leader=QueuedRequest(
                    request=request, arrival=0.0, seq=0, deadline=None
                )
            ).cell()
            fault = executor._fault_for(cell)
            if fault is not None:
                fault_kinds[f"{fault.kind}_cells"] += 1
        injected = {**injected, **fault_kinds}
        metrics = service.metrics_summary()
    statuses: dict[str, int] = {}
    lost: list[str] = []
    conflicting: list[str] = []
    divergent: list[str] = []
    direct_cache: dict[tuple[Any, ...], str] = {}
    for request in requests:
        rid = request.request_id
        answers = terminals.get(rid, [])
        if not answers:
            lost.append(rid)
            continue
        first = answers[0]
        statuses[first.status] = statuses.get(first.status, 0) + 1
        signatures = {_terminal_signature(answer) for answer in answers}
        if len(signatures) > 1:
            conflicting.append(rid)
        if first.status == "ok":
            key = request.work_key()
            if key not in direct_cache:
                direct_cache[key] = direct_signature(request)
            served = canonical_answer(
                {"result": dict(first.result), "manifest": dict(first.manifest)}
            )
            if served != direct_cache[key]:
                divergent.append(rid)
    return ChaosServeReport(
        total_requests=len(requests),
        statuses=statuses,
        lost=tuple(lost),
        conflicting=tuple(conflicting),
        divergent=tuple(divergent),
        injected=injected,
        client_stats=client_stats,
        service_metrics=metrics,
        config={
            "workers": workers,
            "max_attempts": max_attempts,
            "cell_timeout_s": cell_timeout_s,
            "use_socket": use_socket,
            "crash_rate": plan.crash_rate,
            "slow_rate": plan.slow_rate,
            "drop_every": plan.drop_every,
            "malformed_every": plan.malformed_every,
            "seed": plan.seed,
        },
    )
