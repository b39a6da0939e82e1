"""Load generator for the serving layer: "millions of users" in miniature.

The ROADMAP's north star is a front end absorbing heavy traffic from
millions of users. This module generates the *shape* of that traffic at
test scale and drives it against a real server — usually the
multi-worker TCP front end (`repro serve --tcp --service-workers K`,
i.e. a :class:`~repro.service.router.ServiceRouter` behind
:func:`~repro.service.server.serve_tcp`) — measuring what a capacity
review actually asks about:

* **latency quantiles** (p50 / p95 / p99) per completed request;
* **goodput** — ``ok`` responses per second, and its lower-is-better
  inverse ``seconds_per_ok`` which ``repro compare`` can gate the way
  perf-smoke gates wall-clock;
* **correctness under load** — every distinct work key's first ``ok``
  response must be byte-identical to a direct solve (the serving
  layer's core contract; same oracle the chaos harness uses).

Traffic shapes are deterministic functions of a
:class:`LoadShape` seed, and they model the adversarial mixes named in
the issue: **zipf-skewed duplicate recipes** (a small hot catalog
served over and over — exactly what work-key dedup and the shared
result cache exist for), **bursty open-loop arrivals** (arrivals
bunched into bursts rather than evenly spaced) and **deadline/priority
mixes** (a fraction of requests carrying tight queue deadlines or
non-default priorities, so shedding and timeout paths light up under
pressure).

Two driving disciplines:

* ``closed`` loop — ``num_users`` synchronous users, each submitting
  its next request only after the previous one completed. Offered load
  self-regulates; this is the SLO-style measurement.
* ``open`` loop — one
  :class:`~repro.service.client.StreamServiceClient` pipelining
  requests on a fixed arrival schedule regardless of completion;
  latency includes queueing delay, which is what overload looks like.

``repro loadtest`` (see :mod:`repro.cli`) is the CLI entry point; it
writes a ``BENCH_loadtest.json`` trajectory record for CI gating.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping, Sequence

from repro.analysis.chaos_serve import direct_signature
from repro.exceptions import ReproError
from repro.service.client import StreamServiceClient
from repro.service.request import InstanceRecipe, SolveRequest, SolveResponse
from repro.service.router import RouterConfig, ServiceRouter
from repro.service.server import serve_tcp
from repro.service.service import ServiceConfig
from repro.service.worker import canonical_answer

__all__ = [
    "LoadShape",
    "LoadPlan",
    "LoadtestReport",
    "build_workload",
    "latency_quantile",
    "run_loadtest",
]

import random


@dataclass(frozen=True)
class LoadShape:
    """One deterministic traffic shape (everything derives from ``seed``).

    Parameters
    ----------
    name:
        Record id in the ``BENCH_loadtest.json`` file.
    mode:
        ``"closed"`` (synchronous users) or ``"open"`` (scheduled
        arrivals through one pipelining connection).
    num_users:
        Concurrent users (closed mode) — each gets its own TCP
        connection and thread.
    requests_per_user:
        Requests each user issues; total traffic is
        ``num_users * requests_per_user`` in both modes.
    arrival_rate_rps:
        Open mode: scheduled arrivals per second.
    burstiness:
        Open mode, in ``[0, 1)``: 0 spaces arrivals evenly; higher
        values collapse groups of arrivals onto the group's start time,
        so the same average rate lands in bursts.
    zipf_s:
        Skew of the recipe catalog's zipf popularity (weight of rank
        ``r`` is ``1 / r**zipf_s``); larger = hotter hot keys = more
        duplicate work keys in flight.
    catalog_size:
        Distinct recipes in the catalog — the number of distinct work
        keys the whole run can produce.
    families:
        Instance families the catalog cycles through.
    num_facilities / num_clients:
        Instance dimensions of every catalog recipe.
    ks:
        ``k`` values the catalog cycles through.
    deadline_fraction:
        Fraction of requests carrying a tight queue deadline
        (``timeout_s = deadline_s``) — the adversarial mix that makes
        timeout paths fire under load.
    deadline_s:
        The tight deadline used for that fraction.
    low_priority_fraction / high_priority_fraction:
        Fractions of requests tagged ``"low"`` / ``"high"`` priority
        (the rest stay ``"normal"``), exercising shed-under-pressure.
    seed:
        Master seed; equal shapes generate byte-equal workloads.
    """

    name: str = "smoke"
    mode: str = "closed"
    num_users: int = 4
    requests_per_user: int = 6
    arrival_rate_rps: float = 200.0
    burstiness: float = 0.0
    zipf_s: float = 1.1
    catalog_size: int = 12
    families: tuple[str, ...] = ("uniform", "clustered")
    num_facilities: int = 12
    num_clients: int = 12
    ks: tuple[int, ...] = (2, 3)
    deadline_fraction: float = 0.0
    deadline_s: float = 0.05
    low_priority_fraction: float = 0.0
    high_priority_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("closed", "open"):
            raise ReproError(
                f"mode must be 'closed' or 'open', got {self.mode!r}"
            )
        if self.num_users < 1 or self.requests_per_user < 1:
            raise ReproError("num_users and requests_per_user must be >= 1")
        if self.catalog_size < 1:
            raise ReproError(
                f"catalog_size must be >= 1, got {self.catalog_size}"
            )
        if not 0.0 <= self.burstiness < 1.0:
            raise ReproError(
                f"burstiness must be in [0, 1), got {self.burstiness}"
            )
        if self.arrival_rate_rps <= 0:
            raise ReproError(
                f"arrival_rate_rps must be positive, "
                f"got {self.arrival_rate_rps}"
            )
        for fraction in (
            self.deadline_fraction,
            self.low_priority_fraction,
            self.high_priority_fraction,
        ):
            if not 0.0 <= fraction <= 1.0:
                raise ReproError(f"fractions must be in [0, 1], got {fraction}")

    def to_params(self) -> dict[str, Any]:
        """Flat JSON-safe dict of every field (the bench ``params``)."""
        out: dict[str, Any] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            out[spec.name] = list(value) if isinstance(value, tuple) else value
        return out


@dataclass(frozen=True)
class LoadPlan:
    """A fully materialized workload: who sends what, and when.

    ``per_user[u]`` is user ``u``'s ordered request list (closed mode
    drives exactly this). ``arrivals`` is the open-mode schedule: one
    ``(offset_s, request)`` per request across all users, sorted by
    offset. Both views contain the same requests.
    """

    shape: LoadShape
    per_user: tuple[tuple[SolveRequest, ...], ...]
    arrivals: tuple[tuple[float, SolveRequest], ...]

    @property
    def total_requests(self) -> int:
        """Number of requests in the plan."""
        return sum(len(script) for script in self.per_user)

    def distinct_work_keys(self) -> int:
        """Distinct work keys the plan produces (duplicates collapse)."""
        return len(
            {
                request.work_key()
                for script in self.per_user
                for request in script
            }
        )


def _catalog(shape: LoadShape) -> list[InstanceRecipe]:
    """The distinct recipes this shape's traffic draws from."""
    return [
        InstanceRecipe(
            family=shape.families[index % len(shape.families)],
            num_facilities=shape.num_facilities,
            num_clients=shape.num_clients,
            seed=index,
        )
        for index in range(shape.catalog_size)
    ]


def build_workload(shape: LoadShape) -> LoadPlan:
    """Materialize a :class:`LoadShape` into a deterministic plan.

    Every random draw comes from one ``random.Random(shape.seed)``, so
    equal shapes build byte-equal plans — which is what makes a
    committed ``BENCH_loadtest.json`` baseline comparable across runs.
    """
    rng = random.Random(shape.seed)
    catalog = _catalog(shape)
    weights = [1.0 / (rank + 1) ** shape.zipf_s for rank in range(len(catalog))]
    ks = list(shape.ks)
    per_user: list[tuple[SolveRequest, ...]] = []
    for user in range(shape.num_users):
        script: list[SolveRequest] = []
        for turn in range(shape.requests_per_user):
            recipe = rng.choices(catalog, weights=weights)[0]
            priority = "normal"
            draw = rng.random()
            if draw < shape.low_priority_fraction:
                priority = "low"
            elif draw < shape.low_priority_fraction + shape.high_priority_fraction:
                priority = "high"
            timeout_s = (
                shape.deadline_s
                if rng.random() < shape.deadline_fraction
                else None
            )
            script.append(
                SolveRequest(
                    request_id=f"u{user}-r{turn}",
                    recipe=recipe,
                    k=ks[catalog.index(recipe) % len(ks)],
                    priority=priority,
                    client_id=f"user-{user}",
                    timeout_s=timeout_s,
                )
            )
        per_user.append(tuple(script))
    # Open-mode schedule: interleave users round-robin, space arrivals
    # at the average rate, then (burstiness) collapse groups onto their
    # group start so the same load arrives in bursts.
    interleaved: list[SolveRequest] = []
    for turn in range(shape.requests_per_user):
        for user in range(shape.num_users):
            interleaved.append(per_user[user][turn])
    spacing = 1.0 / shape.arrival_rate_rps
    group = max(1, int(round(1.0 + shape.burstiness * 7.0)))
    arrivals = tuple(
        ((index // group) * group * spacing, request)
        for index, request in enumerate(interleaved)
    )
    return LoadPlan(
        shape=shape, per_user=tuple(per_user), arrivals=arrivals
    )


def latency_quantile(samples_ms: Sequence[float], q: float) -> float:
    """Empirical quantile of latency samples (nearest-rank, in ms)."""
    if not samples_ms:
        return 0.0
    if not 0.0 < q <= 1.0:
        raise ReproError(f"quantile must be in (0, 1], got {q}")
    ordered = sorted(samples_ms)
    rank = max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


@dataclass(frozen=True)
class LoadtestReport:
    """Everything one loadtest run measured, plus its gates.

    ``statuses`` counts terminal responses by status; ``lost`` ids never
    produced a terminal response; ``divergent`` ids produced an ``ok``
    payload that differs from the direct-solve oracle. The correctness
    gates (no lost, no divergent, no ``error`` statuses) are
    unconditional; the performance gates are opt-in via
    :meth:`gate_failures` arguments, mirroring how the chaos harness
    splits hard invariants from tunable budgets.
    """

    shape: LoadShape
    wall_seconds: float
    latencies_ms: tuple[float, ...]
    statuses: Mapping[str, int]
    lost: tuple[str, ...]
    divergent: tuple[str, ...]
    service_metrics: Mapping[str, Any] = field(default_factory=dict)

    @property
    def total_requests(self) -> int:
        """Requests the plan issued."""
        return self.shape.num_users * self.shape.requests_per_user

    @property
    def ok(self) -> int:
        """Completed ``ok`` responses."""
        return int(self.statuses.get("ok", 0))

    @property
    def errors(self) -> int:
        """Responses with ``status="error"`` (always a gate failure)."""
        return int(self.statuses.get("error", 0))

    @property
    def goodput_rps(self) -> float:
        """``ok`` responses per wall-clock second."""
        return self.ok / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def seconds_per_ok(self) -> float:
        """Inverse goodput — lower is better, so ``repro compare`` gates it."""
        return self.wall_seconds / self.ok if self.ok else float("inf")

    def quantile_ms(self, q: float) -> float:
        """Latency quantile over this run's samples (ms)."""
        return latency_quantile(self.latencies_ms, q)

    def gate_failures(
        self,
        max_p95_ms: float | None = None,
        max_p99_ms: float | None = None,
        min_goodput_rps: float | None = None,
    ) -> list[str]:
        """Human-readable failures; empty means every gate held."""
        failures: list[str] = []
        if self.lost:
            failures.append(f"{len(self.lost)} request(s) lost: {self.lost[:5]}")
        if self.divergent:
            failures.append(
                f"{len(self.divergent)} ok response(s) diverge from direct "
                f"solves: {self.divergent[:5]}"
            )
        if self.errors:
            failures.append(f"{self.errors} response(s) with status=error")
        p95 = self.quantile_ms(0.95)
        p99 = self.quantile_ms(0.99)
        if max_p95_ms is not None and p95 > max_p95_ms:
            failures.append(f"p95 {p95:.1f}ms exceeds budget {max_p95_ms}ms")
        if max_p99_ms is not None and p99 > max_p99_ms:
            failures.append(f"p99 {p99:.1f}ms exceeds budget {max_p99_ms}ms")
        if min_goodput_rps is not None and self.goodput_rps < min_goodput_rps:
            failures.append(
                f"goodput {self.goodput_rps:.1f} rps below floor "
                f"{min_goodput_rps} rps"
            )
        return failures

    def to_record(self) -> dict[str, Any]:
        """This run's record in ``BENCH_loadtest.json``.

        Gated metrics are all lower-is-better (``repro compare`` flags
        increases): latency quantiles, ``seconds_per_ok`` (inverse
        goodput) and the zero-baseline correctness counters. The raw
        ``goodput_rps`` rides along in ``params`` as information, not a
        gate — a goodput *improvement* must never read as a regression.
        """
        params = self.shape.to_params()
        params["goodput_rps"] = round(self.goodput_rps, 3)
        params["statuses"] = dict(self.statuses)
        return {
            "source": "loadtest",
            "wall_seconds": self.wall_seconds,
            "params": params,
            "metrics": {
                "latency_p50_ms": round(self.quantile_ms(0.50), 3),
                "latency_p95_ms": round(self.quantile_ms(0.95), 3),
                "latency_p99_ms": round(self.quantile_ms(0.99), 3),
                "seconds_per_ok": round(self.seconds_per_ok, 6),
                "lost": len(self.lost),
                "divergent": len(self.divergent),
                "errors": self.errors,
            },
        }

    def render(self) -> str:
        """Multi-line human summary (what ``repro loadtest`` prints)."""
        lines = [
            f"loadtest {self.shape.name!r}: {self.shape.mode} loop, "
            f"{self.shape.num_users} user(s) x "
            f"{self.shape.requests_per_user} request(s)",
            f"  wall            {self.wall_seconds:.3f}s",
            f"  ok              {self.ok}/{self.total_requests}"
            f"  (statuses: {dict(sorted(self.statuses.items()))})",
            f"  goodput         {self.goodput_rps:.1f} ok/s "
            f"(seconds_per_ok {self.seconds_per_ok:.4f})",
            f"  latency ms      p50 {self.quantile_ms(0.5):.1f}  "
            f"p95 {self.quantile_ms(0.95):.1f}  "
            f"p99 {self.quantile_ms(0.99):.1f}",
            f"  lost/divergent  {len(self.lost)}/{len(self.divergent)}",
        ]
        hits = self.service_metrics.get("shared_cache_hits")
        dedup = self.service_metrics.get("dedup_hits")
        if hits is not None or dedup is not None:
            lines.append(
                f"  reuse           dedup_hits {dedup}  "
                f"shared_cache_hits {hits}"
            )
        return "\n".join(lines)


def _drive_closed(
    plan: LoadPlan, address: str, timeout_s: float
) -> tuple[list[float], dict[str, SolveResponse]]:
    """Closed-loop drive: one thread + connection per user."""
    latencies: list[float] = []
    answers: dict[str, SolveResponse] = {}
    lock = threading.Lock()

    def run_user(script: tuple[SolveRequest, ...]) -> None:
        with StreamServiceClient(address=address, timeout_s=timeout_s) as client:
            for request in script:
                started = time.perf_counter()
                accepted = client.submit(request)
                response: SolveResponse | None = None
                if accepted:
                    for flushed in client.flush():
                        with lock:
                            answers.setdefault(flushed.request_id, flushed)
                    with lock:
                        response = answers.get(request.request_id)
                    if response is None:
                        # Another user's flush completed it first — the
                        # store retains it, so re-fetch by id.
                        response = client.fetch(request.request_id)
                elapsed_ms = (time.perf_counter() - started) * 1000.0
                with lock:
                    if response is not None:
                        answers.setdefault(request.request_id, response)
                        latencies.append(elapsed_ms)

    threads = [
        threading.Thread(target=run_user, args=(script,), daemon=True)
        for script in plan.per_user
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return latencies, answers


def _drive_open(
    plan: LoadPlan, address: str, timeout_s: float
) -> tuple[list[float], dict[str, SolveResponse]]:
    """Open-loop drive: scheduled arrivals down one pipelined connection.

    Latency is measured arrival → completion, so queueing delay counts:
    when arrivals outpace service, the flush at each burst boundary
    returns late responses and the quantiles show it.
    """
    latencies: list[float] = []
    answers: dict[str, SolveResponse] = {}
    submitted_at: dict[str, float] = {}

    def settle(client: StreamServiceClient) -> None:
        for response in client.flush():
            done = time.perf_counter()
            answers.setdefault(response.request_id, response)
            started = submitted_at.get(response.request_id)
            if started is not None:
                latencies.append((done - started) * 1000.0)

    with StreamServiceClient(address=address, timeout_s=timeout_s) as client:
        origin = time.perf_counter()
        previous_offset = 0.0
        for offset, request in plan.arrivals:
            if offset > previous_offset:
                # A burst boundary: everything scheduled earlier has
                # been pipelined; resolve it before the next burst.
                settle(client)
                previous_offset = offset
            delay = origin + offset - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            submitted_at[request.request_id] = time.perf_counter()
            client.submit_nowait(request)
        settle(client)
        for _, request in plan.arrivals:
            if request.request_id not in answers:
                response = client.fetch(request.request_id)
                if response is not None:
                    answers[request.request_id] = response
    return latencies, answers


def run_loadtest(
    shape: LoadShape,
    service_workers: int = 2,
    service_config: ServiceConfig | None = None,
    router_config: RouterConfig | None = None,
    address: str | None = None,
    timeout_s: float = 60.0,
) -> LoadtestReport:
    """Drive one traffic shape against a TCP front end and measure it.

    With ``address`` unset (the normal case), a
    :class:`~repro.service.router.ServiceRouter` with ``service_workers``
    backends is started on an ephemeral local port, driven, drained and
    shut down — the whole topology under test lives inside this call.
    An explicit ``address`` instead points the generator at an external
    ``repro serve --tcp`` process (no shutdown is sent).

    Every distinct work key's first ``ok`` response is compared against
    a direct solve (byte-identical, wall-clock fields aside); divergences
    land in the report's ``divergent`` gate.
    """
    plan = build_workload(shape)
    owned_thread: threading.Thread | None = None
    router: ServiceRouter | None = None
    if address is None:
        config = replace(
            router_config or RouterConfig(), num_workers=service_workers
        )
        router = ServiceRouter(config=config, service_config=service_config)
        ready = threading.Event()
        bound: dict[str, int] = {}
        owned_thread = threading.Thread(
            target=serve_tcp,
            args=(router, "127.0.0.1", 0),
            kwargs={
                "ready": ready,
                "on_bound": lambda port: bound.update(port=port),
            },
            daemon=True,
        )
        owned_thread.start()
        if not ready.wait(timeout=10.0):
            raise ReproError("loadtest TCP server failed to start")
        address = f"127.0.0.1:{bound['port']}"
    try:
        started = time.perf_counter()
        if shape.mode == "closed":
            latencies, answers = _drive_closed(plan, address, timeout_s)
        else:
            latencies, answers = _drive_open(plan, address, timeout_s)
        wall = time.perf_counter() - started
        with StreamServiceClient(address=address, timeout_s=timeout_s) as admin:
            metrics = admin.metrics()
            if owned_thread is not None:
                admin.shutdown()
    finally:
        if owned_thread is not None:
            owned_thread.join(timeout=10.0)
    statuses: dict[str, int] = {}
    lost: list[str] = []
    divergent: list[str] = []
    oracle: dict[Any, str] = {}
    for script in plan.per_user:
        for request in script:
            response = answers.get(request.request_id)
            if response is None:
                lost.append(request.request_id)
                continue
            statuses[response.status] = statuses.get(response.status, 0) + 1
            if response.status == "ok":
                key = request.work_key()
                if key not in oracle:
                    oracle[key] = direct_signature(request)
                served = canonical_answer(
                    {
                        "result": dict(response.result),
                        "manifest": dict(response.manifest),
                    }
                )
                if served != oracle[key]:
                    divergent.append(request.request_id)
    return LoadtestReport(
        shape=shape,
        wall_seconds=wall,
        latencies_ms=tuple(latencies),
        statuses=statuses,
        lost=tuple(lost),
        divergent=tuple(divergent),
        service_metrics=metrics,
    )
