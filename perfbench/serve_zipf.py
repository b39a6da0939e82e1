"""``serve_zipf``: two closed-loop users against ``repro serve --tcp``.

The server runs as a subprocess with ``--service-workers 2`` and
default flags. Each user owns one thread and one ``TcpServiceClient``
connection and, per request, submits, flushes and — when the other
user's flush answered it — fetches by id, the way repro's own clients
call. Requests draw from a zipf catalog (s = 1.1) of small recipes over
three families, 1.75x the shared cache's default capacity, so the hot
head hits and the tail evicts. Whether a request is a *repeat* (its
work key appeared earlier in the plan) or a *first* sighting is fixed
by the plan, never by the program's responses. The load runs in
:data:`SEGMENTS` parts with the host-speed kernel between them.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import subprocess
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable

from common import (
    INTERPRETER_KERNEL,
    ROOT,
    SETUP_REPEATS,
    SRC,
    Checks,
    HostSpeed,
    Metric,
    Outcome,
    Spans,
    base_params,
    cpu_seconds,
    cpus_kept_awake,
    helper_command,
    median,
    ms,
    peak_rss_mb,
    percentile,
    ratio,
    us,
)

FAMILIES = ("uniform", "euclidean", "clustered")
FACILITIES = 16
CLIENTS = 48
KS = (4, 8)
ZIPF_S = 1.1
USERS = 2
CATALOG_SIZE = 896  # 1.75x the 512-entry default shared cache
#: Requests one second of the timed window holds on 2 vCPUs; it only
#: turns ``--seconds`` into a fixed number of requests.
REQUESTS_PER_SECOND = 220
#: Seed of the sequence of catalog ranks the requests ask for. It is the
#: same for every run, so every run has the same first sightings, repeats,
#: families and cache evictions, in the same order; ``--seed`` picks the
#: instances behind the ranks. (Drawn from ``--seed``, the number of first
#: sightings, which do most of the server's work, moved by 8% between seeds.)
TRAFFIC_SEED = 2005
#: Parts the load runs in; the host-speed kernel runs between them.
SEGMENTS = 16
READY_TIMEOUT_S = 60.0
CLIENT_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class PlannedRequest:
    user: int
    request: Any  # SolveRequest
    repeat: bool


def build_plan(
    seed: int, num_requests: int, catalog_size: int, facilities: int, clients: int
) -> list[PlannedRequest]:
    """The whole traffic, in plan order (users alternate request by request)."""
    from repro.service import InstanceRecipe, SolveRequest

    # Entry i: family i mod 3, k alternating every three entries, and an
    # instance seed that no other workload seed uses.
    catalog = [
        (FAMILIES[i % len(FAMILIES)], seed * 100_000 + i, KS[i // len(FAMILIES) % len(KS)])
        for i in range(catalog_size)
    ]
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(catalog_size)]
    picks = random.Random(TRAFFIC_SEED).choices(range(catalog_size), weights, k=num_requests)
    seen: set[int] = set()
    plan = []
    for index, pick in enumerate(picks):
        family, instance_seed, k = catalog[pick]
        user = index % USERS
        request = SolveRequest(
            request_id=f"u{user}-r{index // USERS}",
            recipe=InstanceRecipe(family, facilities, clients, instance_seed),
            k=k,
        )
        plan.append(PlannedRequest(user, request, pick in seen))
        seen.add(pick)
    return plan


# ----------------------------------------------------------------------
# The server subprocess


#: Runs ``python -m repro.cli`` with the arguments after the parent pid,
#: in a helper process that dies with the benchmark.
_SERVE = """
import runpy
sys.argv = ["repro", *sys.argv[2:]]
runpy.run_module("repro.cli", run_name="__main__", alter_sys=True)
"""


class Server:
    """One ``repro serve --tcp`` subprocess, always reaped by :meth:`close`
    and killed by the kernel if the benchmark dies first."""

    def __init__(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            helper_command(_SERVE, "serve", "--tcp", "127.0.0.1:0", "--service-workers", "2"),
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        self.stderr_tail: list[str] = []
        self._address: str | None = None
        self._ready = threading.Event()
        # One reader for the server's whole stderr: it spots the
        # ``serving on tcp HOST:PORT`` line and keeps the pipe drained.
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()
        if not self._ready.wait(READY_TIMEOUT_S) or self._address is None:
            self.close()
            raise RuntimeError("server never reported its address: " + "".join(self.stderr_tail))
        self.address = self._address

    def _read_stderr(self) -> None:
        for line in self.process.stderr:
            self.stderr_tail = (self.stderr_tail + [line])[-20:]
            if self._address is None and line.startswith("serving on tcp "):
                self._address = line.split()[-1]
                self._ready.set()
        self._ready.set()

    def close(self) -> bool:
        """Ask the server to shut down, kill it if it will not; True when
        it exited on its own."""
        from repro.service import TcpServiceClient

        if self.process.poll() is None and self._address is not None:
            try:
                with TcpServiceClient(address=self._address, timeout_s=10.0) as client:
                    client.shutdown()
            except Exception:  # noqa: BLE001 - a dead server is handled below
                pass
        clean = True
        try:
            self.process.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            clean = False
            self.process.kill()
            self.process.wait()
        self._reader.join(timeout=5.0)
        self.process.stderr.close()
        return clean and self.process.returncode == 0


def start_server(checks: Checks) -> tuple[Server, float]:
    """Spawn a server; return it and the time to its first accepted request.

    The probe request's recipe is outside every catalog, and it is
    flushed before the server is used, so it never meets the plan.
    """
    from repro.service import InstanceRecipe, SolveRequest, TcpServiceClient

    server = Server()
    probe = SolveRequest(request_id="probe", recipe=InstanceRecipe("uniform", 3, 5, 0), k=2)
    try:
        with TcpServiceClient(address=server.address, timeout_s=CLIENT_TIMEOUT_S) as client:
            accepted = client.submit(probe)
            setup = time.perf_counter() - server.started
            flushed = client.flush()
    except BaseException:
        server.close()
        raise
    checks.record(
        [] if accepted and [r.status for r in flushed] == ["ok"] else ["probe request not served"]
    )
    return server, setup


def stop_server(server: Server, checks: Checks) -> None:
    checks.record([] if server.close() else ["server had to be killed (orphan)"])


# ----------------------------------------------------------------------
# Driving the load


@dataclass
class Sample:
    planned: PlannedRequest
    latency_s: float
    submit_s: float
    flush_s: float
    server_wait_s: float
    ok: bool
    segment: int


@dataclass
class LoadResult:
    samples: list[Sample] = field(default_factory=list)
    deliveries: dict[str, list[Any]] = field(default_factory=dict)  # id -> flushed responses
    errors: list[str] = field(default_factory=list)
    segment_wall_s: list[float] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.segment_wall_s)


def drive(
    address: str, plan: list[PlannedRequest], between: Callable[[], None] = lambda: None
) -> LoadResult:
    """Run the plan with one thread and one connection per user.

    The plan runs in :data:`SEGMENTS` consecutive parts. Between two
    parts every user has its last answer and waits, so the server is
    idle while ``between`` runs (it also runs before the first part).
    """
    from repro.service import TcpServiceClient

    result = LoadResult()
    lock = threading.Lock()
    gate = threading.Barrier(USERS + 1)

    def user(script: list[PlannedRequest]) -> None:
        try:
            with TcpServiceClient(address=address, timeout_s=CLIENT_TIMEOUT_S) as client:
                for segment in range(SEGMENTS):
                    gate.wait()
                    part = script[len(script) * segment // SEGMENTS:
                                  len(script) * (segment + 1) // SEGMENTS]
                    run_part(client, part, segment)
                    gate.wait()
        except threading.BrokenBarrierError:
            pass
        except Exception as error:  # noqa: BLE001 - reported as a failed check
            with lock:
                result.errors.append(f"user thread failed: {error!r}")
            gate.abort()

    def run_part(client: Any, part: list[PlannedRequest], segment: int) -> None:
        for planned in part:
            request = planned.request
            started = time.perf_counter()
            accepted = client.submit(request)
            submitted = time.perf_counter()
            response = None
            if accepted:
                flushed = client.flush()
                with lock:
                    for item in flushed:
                        result.deliveries.setdefault(item.request_id, []).append(item)
                    found = result.deliveries.get(request.request_id)
                response = found[0] if found else client.fetch(request.request_id)
            done = time.perf_counter()
            ok = response is not None and response.status == "ok"
            with lock:
                result.samples.append(Sample(
                    planned, done - started, submitted - started, done - submitted,
                    response.wait_s if response is not None else 0.0, ok, segment,
                ))

    scripts = [[p for p in plan if p.user == index] for index in range(USERS)]
    threads = [threading.Thread(target=user, args=(script,)) for script in scripts]
    for thread in threads:
        thread.start()
    try:
        for _ in range(SEGMENTS):
            between()
            gate.wait()
            start = time.perf_counter()
            gate.wait()
            result.segment_wall_s.append(time.perf_counter() - start)
    except threading.BrokenBarrierError:
        pass
    finally:
        gate.abort()
        for thread in threads:
            thread.join()
    return result


# ----------------------------------------------------------------------
# Output checks


def strip_wall_clock(payload: dict[str, Any]) -> str:
    """Canonical answer bytes: result and manifest without timing fields."""
    data = json.loads(json.dumps({"result": payload["result"], "manifest": payload["manifest"]}))
    data["manifest"]["wall_seconds"] = 0.0
    data["manifest"].get("timeline_summary", {}).pop("total_wall_ms", None)
    return json.dumps(data, sort_keys=True)


def direct_cell(request: Any) -> Any:
    """The unit of work a request stands for, as the batcher builds it."""
    from repro.service.worker import ServiceCell

    return ServiceCell(
        recipe=request.recipe, instance=request.instance, k=request.k,
        variant=request.variant, seed=request.seed, rounding=request.rounding,
        c_round=request.c_round, compute_lp=request.compute_lp,
        capture_events=request.capture_events, record=request.record,
        engine=request.engine, shards=request.shards,
    )


def check_load(
    plan: list[PlannedRequest], load: LoadResult, direct: dict[Any, str], checks: Checks
) -> None:
    """Every request answered exactly once with ok, and every distinct work
    key's bytes equal to a direct ``run_service_cell`` (``direct`` maps a
    work key to its canonical bytes)."""
    for error in load.errors:
        checks.record([error])
    by_key: dict[Any, list[str]] = {}
    for planned in plan:
        rid = planned.request.request_id
        delivered = load.deliveries.get(rid, [])
        problems = []
        if len(delivered) != 1:
            problems.append(f"{rid}: {len(delivered)} responses")
        elif delivered[0].status != "ok":
            problems.append(f"{rid}: status {delivered[0].status} {delivered[0].error}")
        else:
            by_key.setdefault(planned.request.work_key(), []).append(
                strip_wall_clock({"result": delivered[0].result, "manifest": delivered[0].manifest})
            )
        checks.record(problems)
    for key, answers in by_key.items():
        problems = []
        if any(answer != answers[0] for answer in answers):
            problems.append(f"{key}: responses for one work key differ")
        if answers[0] != direct[key]:
            problems.append(f"{key}: served bytes differ from a direct run_service_cell")
        checks.record(problems)


def _solve_direct(cell: Any) -> tuple[float, str]:
    """Run one cell the way a service worker does; time it and canonicalize."""
    from repro.service.worker import run_service_cell

    start = time.perf_counter()
    out = run_service_cell(cell)
    return time.perf_counter() - start, strip_wall_clock(out)


def direct_answers(plan: list[PlannedRequest], spans: Spans | None) -> dict[Any, str]:
    """Canonical bytes of a direct ``run_service_cell`` per distinct work key,
    computed on one spawned process per CPU."""
    cells: dict[Any, Any] = {}
    for planned in plan:
        cells.setdefault(planned.request.work_key(), direct_cell(planned.request))
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=os.cpu_count() or 1, mp_context=context) as pool:
        solved = list(pool.map(_solve_direct, cells.values(), chunksize=8))
    if spans is not None:
        for seconds, _ in solved:
            spans.add("service.worker.cell", seconds)
    return {key: answer for key, (_, answer) in zip(cells, solved)}


# ----------------------------------------------------------------------
# The workload


def latencies_ms(samples: list[Sample], repeat: bool | None = None) -> list[float]:
    return [
        s.latency_s * 1e3 for s in samples
        if s.ok and (repeat is None or s.planned.repeat == repeat)
    ]


def run(
    seed: int,
    seconds: float,
    trace: bool,
    facilities: int = FACILITIES,
    clients: int = CLIENTS,
    catalog_size: int = CATALOG_SIZE,
    num_requests: int | None = None,
) -> Outcome:
    from repro.service import RouterConfig

    checks = Checks()
    if num_requests is None:
        num_requests = int(seconds * REQUESTS_PER_SECOND)
    plan = build_plan(seed, num_requests, catalog_size, facilities, clients)
    setup_times: list[float] = []
    kernel_at_setup: list[float] = []
    kernel_at_load: list[float] = []
    server = None
    with HostSpeed(INTERPRETER_KERNEL) as host:
        try:
            for attempt in range(SETUP_REPEATS):
                kernel_at_setup.append(host.sample())
                server, setup = start_server(checks)
                setup_times.append(setup)
                if attempt < SETUP_REPEATS - 1:
                    stop_server(server, checks)
                    server = None
            kernel_at_setup.append(host.sample())
            cpu_before = cpu_seconds(server.process.pid)
            with cpus_kept_awake():
                load = drive(server.address, plan, lambda: kernel_at_load.append(host.sample()))
                kernel_at_load.append(host.sample())
            server_cpu = cpu_seconds(server.process.pid) - cpu_before
            server_rss = peak_rss_mb(server.process.pid)
        finally:
            if server is not None:
                stop_server(server, checks)
    spans = Spans() if trace else None
    direct = direct_answers(plan, spans)
    check_load(plan, load, direct, checks)

    ok = [s for s in load.samples if s.ok]
    everything = latencies_ms(load.samples)
    repeats, firsts = latencies_ms(load.samples, True), latencies_ms(load.samples, False)
    p90, beyond90 = percentile(everything, 0.90)
    p99, beyond99 = percentile(everything, 0.99)
    # The gated timings at the reference host speed: each set-up and each
    # part of the load scaled by the kernel samples on either side of it.
    factors = host.each_at_reference_speed([1.0] * (len(kernel_at_load) - 1), kernel_at_load)
    scaled_setups = host.each_at_reference_speed(setup_times, kernel_at_setup)
    scaled_wall = sum(w * f for w, f in zip(load.segment_wall_s, factors))
    scaled_latencies = [s.latency_s * 1e3 * factors[s.segment] for s in ok]
    end_to_end = {
        "setup_s": Metric(median(scaled_setups), "s", len(setup_times)),
        "throughput_per_s": Metric(len(ok) / scaled_wall, "1/s", len(ok)),
        "latency_p50_ms": Metric(median(scaled_latencies), "ms", len(scaled_latencies)),
        "peak_rss_mb": Metric(server_rss, "MB", 1),
    }
    details = {
        "raw_setup_s": Metric(median(setup_times), "s", len(setup_times)),
        "raw_throughput_per_s": Metric(len(ok) / load.wall_s, "1/s", len(ok)),
        "raw_latency_p50_ms": Metric(median(everything), "ms", len(everything)),
        "host_kernel_ms": Metric(median(host.samples) * 1e3, "ms", len(host.samples)),
        "latency_p90_ms": Metric(p90, "ms", beyond90),
        "latency_p99_ms": Metric(p99, "ms", beyond99),
        "repeat_p50_ms": Metric(median(repeats), "ms", len(repeats)),
        "first_p50_ms": Metric(median(firsts), "ms", len(firsts)),
        "load_wall_s": Metric(load.wall_s, "s", 1),
        "server_cpu_s": Metric(server_cpu, "s", 1),
    }
    params = {
        **base_params(seed),
        "facilities": facilities,
        "clients": clients,
        "families": list(FAMILIES),
        "ks": list(KS),
        "users": USERS,
        "requests": num_requests,
        "zipf_s": ZIPF_S,
        "catalog_size": catalog_size,
        "shared_cache_capacity": RouterConfig().shared_cache_entries,
        "distinct_work_keys": len(direct),
        "repeat_requests": sum(p.repeat for p in plan),
    }
    if not trace:
        return Outcome(end_to_end, details, params, checks)
    layers, traced_p50 = _traced(plan, direct, checks, spans)
    layers["latency_p99_ms"] = details["latency_p99_ms"]
    notes = {
        "perf.cache.lp_hit_ratio.serve_zipf": "requests leave compute_lp off, so the "
        "LP cache is never consulted (base 0)",
        "service.router.flush_ms_p50": "flushes that solved the request (routed), "
        "not the ones answered from the shared cache",
    }
    layers["trace_overhead_pct"] = Metric(
        (traced_p50 / median(everything) - 1.0) * 100.0, "%", len(everything)
    )
    return Outcome(layers, {**details, **end_to_end}, params, checks, notes)


def _traced(
    plan: list[PlannedRequest], direct: dict[Any, str], checks: Checks, spans: Spans
) -> tuple[dict[str, Metric], float]:
    """A second load on a fresh server with the client codec wrapped, the
    server's own counters, and an in-process replay against a router."""
    from repro.perf import cache
    from repro.service import ServiceRouter, TcpServiceClient, transport

    server = None
    try:
        server, _ = start_server(checks)
        with spans.wrapping(transport, "encode_line", "service.codec.encode"), \
                spans.wrapping(transport, "decode_line", "service.codec.decode"), \
                cpus_kept_awake():
            load = drive(server.address, plan)
        with TcpServiceClient(address=server.address, timeout_s=CLIENT_TIMEOUT_S) as client:
            served = client.metrics()
    finally:
        if server is not None:
            stop_server(server, checks)
    check_load(plan, load, direct, checks)

    ok = [s for s in load.samples if s.ok]

    def split(attr: str, repeat: bool) -> Metric:
        values = [getattr(s, attr) * 1e3 for s in ok if s.planned.repeat == repeat]
        return Metric(median(values), "ms", len(values))

    routed = [
        served.get(f"route_worker_{index}", 0.0) for index in range(served.get("route_workers", 0))
    ]
    cache_base = served.get("shared_cache_hits", 0) + served.get("shared_cache_misses", 0)
    layers = {
        "service.client.submit_ms_p50.repeat": split("submit_s", True),
        "service.client.submit_ms_p50.first": split("submit_s", False),
        "service.client.flush_ms_p50.repeat": split("flush_s", True),
        "service.client.flush_ms_p50.first": split("flush_s", False),
        "service.tcp.wait_ms_p50": Metric(
            median([(s.latency_s - s.server_wait_s) * 1e3 for s in ok]), "ms", len(ok)
        ),
        "service.router.shared_cache_hit_ratio": Metric(
            served.get("shared_cache_hits", 0) / cache_base if cache_base else 0.0,
            "ratio", int(cache_base),
        ),
        "service.router.route_imbalance": Metric(
            max(routed) / (sum(routed) / len(routed)) if routed and sum(routed) else 0.0,
            "ratio", int(sum(routed)),
        ),
        "service.batcher.dedup_hits": Metric(served.get("dedup_hits", 0), "count", 1),
        "service.batcher.batch_size_mean": Metric(
            served.get("batch_size_mean", 0.0), "count", int(served.get("batches", 0))
        ),
        "service.worker.cell_ms_p50": ms(spans.get("service.worker.cell")),
        "service.codec.encode_us": us(spans.get("service.codec.encode")),
        "service.codec.decode_us": us(spans.get("service.codec.decode")),
    }

    # In-process replay of the plan, in plan order, against a router.
    cache.clear_caches()
    router = ServiceRouter()
    submit_hit, submit_routed, flush_routed = [], [], []
    try:
        for planned in plan:
            start = time.perf_counter()
            router.submit(planned.request)
            submitted = time.perf_counter()
            responses = router.run_until_drained()
            flushed = time.perf_counter()
            own = [r for r in responses if r.request_id == planned.request.request_id]
            if own and own[0].batch_index == -1:  # answered from the shared cache
                submit_hit.append(submitted - start)
            else:
                submit_routed.append(submitted - start)
                flush_routed.append(flushed - submitted)
    finally:
        router.shutdown(drain=False)
    stats = cache.cache_stats()
    layers.update({
        "service.router.submit_us_p50.hit": us(submit_hit),
        "service.router.submit_us_p50.routed": us(submit_routed),
        "service.router.flush_ms_p50": ms(flush_routed),
        "perf.cache.instance_hit_ratio.serve_zipf": ratio(
            stats["instance_hits"], stats["instance_misses"]
        ),
        "perf.cache.lp_hit_ratio.serve_zipf": ratio(stats["lp_hits"], stats["lp_misses"]),
    })
    return layers, median(latencies_ms(load.samples))
