"""The serving layer's core correctness contract.

A result returned through the batched service must be *the same result*
a direct :func:`~repro.core.algorithm.solve_distributed` call produces
for the same request: same cost, same open set, same manifest bytes
(wall-clock fields aside, which measure the hardware rather than the
algorithm). Batching, dedup, caching and parallel workers must all be
invisible in the output.
"""

from __future__ import annotations

import dataclasses
import tempfile
from typing import Any

import numpy as np
import pytest

from repro.baselines import solve_lp
from repro.core.algorithm import solve_distributed
from repro.core.dual_ascent_nodes import RoundingPolicy
from repro.fl.generators import FAMILIES, make_instance
from repro.fl.instance import FacilityLocationInstance
from repro.obs.manifest import RunRecord
from repro.perf.cache import clear_caches
from repro.perf.executor import SweepExecutor
from repro.service import ServiceClient, SolveService
from repro.service.request import InstanceRecipe, SolveRequest
from repro.service.worker import ServiceCell, canonical_answer, run_service_cell

#: A mixed workload: two recipes x two k values, one dual-ascent request,
#: one inline-instance request, plus exact duplicates of the first two.
WORKLOAD: tuple[dict[str, Any], ...] = (
    {"rid": "w0", "family": "uniform", "seed": 1, "k": 4},
    {"rid": "w1", "family": "euclidean", "seed": 2, "k": 9},
    {"rid": "w2", "family": "uniform", "seed": 1, "k": 9},
    {"rid": "w3", "family": "uniform", "seed": 1, "k": 4, "variant": "dual_ascent"},
    {"rid": "w4-dup-of-w0", "family": "uniform", "seed": 1, "k": 4},
    {"rid": "w5-dup-of-w1", "family": "euclidean", "seed": 2, "k": 9},
)


def build_request(spec: dict[str, Any], inline: bool = False) -> SolveRequest:
    kwargs: dict[str, Any] = dict(
        request_id=spec["rid"],
        k=spec["k"],
        variant=spec.get("variant", "greedy"),
    )
    if inline:
        kwargs["instance"] = make_instance("uniform", 6, 15, spec["seed"])
    else:
        kwargs["recipe"] = InstanceRecipe("uniform" if inline else spec["family"], 6, 15, spec["seed"])
    return SolveRequest(**kwargs)


def direct_answer(cell: ServiceCell) -> dict[str, Any]:
    """``cell``'s ``{"result", "manifest"}`` built from a direct simulator
    run, no worker in between: the reference a served answer must equal."""
    instance = cell.instance
    if instance is None:
        assert cell.recipe is not None
        instance = make_instance(*cell.recipe.key())
    result = solve_distributed(
        instance,
        k=cell.k,
        variant=cell.variant,
        seed=cell.seed,
        rounding=RoundingPolicy(mode=cell.rounding, c_round=cell.c_round),
        engine="simulator",
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
    extras: dict[str, Any] = {}
    if cell.compute_lp:
        lp_value = float(solve_lp(instance).value)
        extras["ratio_vs_lp"] = result.cost / max(lp_value, 1e-12)
        payload["lp_value"] = lp_value
        payload["ratio_vs_lp"] = extras["ratio_vs_lp"]
    manifest = RunRecord.from_run(
        result,
        seed=cell.seed,
        parameters={
            "k": cell.k,
            "variant": cell.variant,
            "rounding": cell.rounding,
            "c_round": cell.c_round,
        },
        wall_seconds=result.wall_seconds,
        extras=extras,
    )
    return {"result": payload, "manifest": manifest.to_dict()}


def direct_manifest(spec: dict[str, Any]) -> tuple[float, dict[str, Any]]:
    """Cost and manifest from the unbatched reference path."""
    reference = direct_answer(
        ServiceCell(
            recipe=InstanceRecipe(spec["family"], 6, 15, spec["seed"]),
            instance=None, k=spec["k"], variant=spec.get("variant", "greedy"),
            seed=0, rounding="select_all", c_round=1.0, compute_lp=False,
            capture_events=False,
        )
    )
    return reference["result"]["cost"], reference["manifest"]


def answer(response) -> str:
    """Canonical bytes of a response's result and manifest."""
    return canonical_answer(
        {"result": dict(response.result), "manifest": dict(response.manifest)}
    )


def manifest_bytes(manifest: dict[str, Any]) -> str:
    return canonical_answer({"manifest": manifest})


@pytest.fixture(autouse=True)
def _cold_caches():
    clear_caches()
    yield
    clear_caches()


class TestServedEqualsDirect:
    def run_workload(self, workers: int = 1):
        client = ServiceClient(
            SolveService(executor=SweepExecutor(workers=workers))
        )
        responses = client.solve_many(
            [build_request(spec) for spec in WORKLOAD]
        )
        return client, {r.request_id: r for r in responses}

    def test_costs_and_manifests_match_direct_solves(self):
        _, by_id = self.run_workload()
        for spec in WORKLOAD:
            response = by_id[spec["rid"]]
            assert response.status == "ok"
            cost, manifest = direct_manifest(spec)
            assert response.result["cost"] == cost  # exact, not approx
            assert manifest_bytes(dict(response.manifest)) == manifest_bytes(manifest)

    def test_duplicates_served_from_one_solve(self):
        client, by_id = self.run_workload()
        assert not by_id["w0"].dedup and not by_id["w1"].dedup
        assert by_id["w4-dup-of-w0"].dedup
        assert by_id["w5-dup-of-w1"].dedup
        # The counters prove the dedup: 6 requests, 4 unique solves.
        summary = client.metrics()
        assert summary["dedup_hits"] == 2
        assert summary["batch_size_mean"] == 6.0
        assert summary["batch_unique_mean"] == 4.0
        # Duplicate answers are the leader's answer, byte for byte.
        assert answer(by_id["w4-dup-of-w0"]) == answer(by_id["w0"])

    def test_parallel_workers_change_nothing(self):
        _, serial = self.run_workload(workers=1)
        clear_caches()
        _, parallel = self.run_workload(workers=2)
        for spec in WORKLOAD:
            a, b = serial[spec["rid"]], parallel[spec["rid"]]
            assert a.dedup == b.dedup
            assert answer(a) == answer(b)

    def test_tracing_changes_no_output_bytes(self):
        # The tracing determinism guardrail: a fully traced pipeline
        # (client session span, request/batch/unit spans, worker span
        # subtrees, per-round simulator spans, memory profiling) must
        # return byte-identical results and manifests to the untraced
        # run. Spans ride next to the payload, never inside it.
        from repro.obs.spans import Tracer
        from repro.service.service import ServiceConfig

        _, plain = self.run_workload()
        clear_caches()
        tracer = Tracer()
        service = SolveService(
            config=ServiceConfig(profile_memory=True), tracer=tracer
        )
        client = ServiceClient(service, tracer=tracer)
        traced = {
            r.request_id: r
            for r in client.solve_many(
                [build_request(spec) for spec in WORKLOAD]
            )
        }
        tracer.close()
        assert tracer.finished  # tracing actually happened
        for spec in WORKLOAD:
            a, b = plain[spec["rid"]], traced[spec["rid"]]
            assert a.status == b.status == "ok"
            assert a.dedup == b.dedup
            assert answer(a) == answer(b)

    def test_mixed_traced_dedup_group_shares_one_answer(self):
        # A traced service keeps its units on the simulator; a dedup
        # group of a client-traced and an untraced request still gets one
        # answer, the same bytes an untraced service computes on columnar.
        from repro.obs.spans import SpanContext, Tracer

        spec = WORKLOAD[0]
        _, plain = self.run_workload()
        tracer = Tracer()
        service = SolveService(tracer=tracer)
        responses = ServiceClient(service).solve_many(
            [
                dataclasses.replace(
                    build_request(spec),
                    request_id="traced",
                    trace_ctx=SpanContext(trace_id="t", span_id="s"),
                ),
                dataclasses.replace(build_request(spec), request_id="plain"),
            ]
        )
        assert [r.dedup for r in responses] == [False, True]
        assert service.metrics_summary()["solves_simulator"] == 1
        assert answer(responses[0]) == answer(responses[1])
        assert answer(responses[0]) == answer(plain[spec["rid"]])

    def test_traced_parallel_workers_change_nothing(self):
        from repro.obs.spans import Tracer

        _, serial = self.run_workload(workers=1)
        clear_caches()
        tracer = Tracer()
        service = SolveService(
            executor=SweepExecutor(workers=2), tracer=tracer
        )
        client = ServiceClient(service, tracer=tracer)
        traced = {
            r.request_id: r
            for r in client.solve_many(
                [build_request(spec) for spec in WORKLOAD]
            )
        }
        tracer.close()
        for spec in WORKLOAD:
            a, b = serial[spec["rid"]], traced[spec["rid"]]
            assert answer(a) == answer(b)

    def test_recording_changes_no_output_bytes(self):
        # The flight-recorder analogue of the tracing guardrail: with
        # record=True the recording payload rides beside the answer and
        # the result/manifest bytes stay identical to an unrecorded run.
        _, plain = self.run_workload()
        clear_caches()
        client = ServiceClient(SolveService())
        recorded = {
            r.request_id: r
            for r in client.solve_many(
                [
                    dataclasses.replace(build_request(spec), record=True)
                    for spec in WORKLOAD
                ]
            )
        }
        for spec in WORKLOAD:
            a, b = plain[spec["rid"]], recorded[spec["rid"]]
            assert a.status == b.status == "ok"
            assert not a.recording
            assert b.recording["schema"] == "repro.recording/v1"
            # A recorded request stays on the simulator: its per-round
            # node state is there.
            assert any(
                checkpoint["label"].startswith("sim:round:")
                for checkpoint in b.recording["checkpoints"]
            )
            assert answer(a) == answer(b)
            # Unrecorded wire bytes never mention the recording key.
            assert "recording" not in a.to_wire()

    def test_crash_retries_change_nothing(self):
        # The resilience guardrail: with every cell's first execution
        # crashing, recovery re-executes the cells and the served bytes
        # stay identical to the fault-free run — serially and in a pool
        # (where the crash is a hard worker kill + pool respawn).
        from repro.analysis.chaos_serve import (
            ChaosResilientExecutor,
            ChaosServePlan,
        )

        _, plain = self.run_workload()
        for workers in (1, 2):
            clear_caches()
            service = SolveService(
                executor=ChaosResilientExecutor(
                    workers=workers,
                    max_attempts=3,
                    plan=ChaosServePlan(crash_rate=1.0),
                    marker_dir=tempfile.mkdtemp(prefix="eqv-chaos-"),
                )
            )
            client = ServiceClient(service)
            crashed = {
                r.request_id: r
                for r in client.solve_many(
                    [build_request(spec) for spec in WORKLOAD]
                )
            }
            assert service.metrics_summary()["exec_retries"] >= 1
            for spec in WORKLOAD:
                a, b = plain[spec["rid"]], crashed[spec["rid"]]
                assert a.status == b.status == "ok"
                assert a.dedup == b.dedup
                assert answer(a) == answer(b)

    def test_inline_instance_matches_recipe_answer(self):
        # The same problem submitted two ways (recipe vs inline upload)
        # yields identical costs and open sets.
        client = ServiceClient()
        spec = {"rid": "recipe", "family": "uniform", "seed": 1, "k": 4}
        recipe_resp, inline_resp = client.solve_many(
            [
                build_request(spec),
                build_request({**spec, "rid": "inline"}, inline=True),
            ]
        )
        assert recipe_resp.status == inline_resp.status == "ok"
        assert recipe_resp.result["cost"] == inline_resp.result["cost"]
        assert (
            recipe_resp.result["open_facilities"]
            == inline_resp.result["open_facilities"]
        )


class TestServedViaTcpRouter:
    """Byte-identity through the full horizontal stack.

    The same workload served through ``serve_tcp`` fronting a 2-worker
    :class:`~repro.service.router.ServiceRouter` — consistent-hash
    routing, per-worker batching/dedup, and the cross-worker shared
    result cache all in the path — must answer byte-identically to
    direct solves. This is the acceptance gate of the horizontal
    serving PR.
    """

    def serve_router(self, num_workers: int = 2):
        import threading

        from repro.service import RouterConfig, ServiceRouter, serve_tcp

        router = ServiceRouter(RouterConfig(num_workers=num_workers))
        ready = threading.Event()
        bound: dict[str, int] = {}
        thread = threading.Thread(
            target=serve_tcp,
            args=(router, "127.0.0.1", 0),
            kwargs={
                "ready": ready,
                "on_bound": lambda port: bound.update(port=port),
            },
            daemon=True,
        )
        thread.start()
        assert ready.wait(10.0), "TCP router failed to start"
        return router, f"127.0.0.1:{bound['port']}", thread

    def test_tcp_router_matches_direct_solves(self):
        from repro.service import StreamServiceClient

        router, address, thread = self.serve_router()
        with StreamServiceClient(address=address) as client:
            for spec in WORKLOAD:
                assert client.submit(build_request(spec))
            by_id = {r.request_id: r for r in client.flush()}
            client.shutdown()
        thread.join(timeout=10.0)
        assert len(by_id) == len(WORKLOAD)
        for spec in WORKLOAD:
            response = by_id[spec["rid"]]
            assert response.status == "ok"
            cost, manifest = direct_manifest(spec)
            assert response.result["cost"] == cost
            assert manifest_bytes(dict(response.manifest)) == manifest_bytes(manifest)
        # More than one worker actually took traffic for this workload.
        routed = router.route_counts()
        assert sum(routed.values()) > 0

    def test_zipf_duplicates_through_shared_cache_match_direct(self):
        # Two waves of a zipf-skewed duplicate mix: wave one populates
        # the shared cache, wave two (fresh request ids, same work keys)
        # is answered from it — and every response, cached or solved,
        # must be byte-identical to the direct solve of its spec.
        from repro.analysis.loadgen import LoadShape, build_workload
        from repro.service import StreamServiceClient

        shape = LoadShape(
            num_users=3,
            requests_per_user=4,
            catalog_size=4,
            zipf_s=1.4,
            families=("uniform",),
            num_facilities=6,
            num_clients=15,
            ks=(4, 9),
            seed=13,
        )
        wave_one = [
            request
            for script in build_workload(shape).per_user
            for request in script
        ]
        wave_two = [
            dataclasses.replace(request, request_id=f"again-{request.request_id}")
            for request in wave_one
        ]
        router, address, thread = self.serve_router()
        with StreamServiceClient(address=address) as client:
            for request in wave_one:
                assert client.submit(request)
            first = {r.request_id: r for r in client.flush()}
            for request in wave_two:
                assert client.submit(request)
            second = {r.request_id: r for r in client.flush()}
            metrics = client.metrics()
            client.shutdown()
        thread.join(timeout=10.0)
        # The shared cache actually served wave two.
        assert metrics["shared_cache_hits"] >= len(wave_two)
        oracle: dict[Any, str] = {}
        for request in wave_one + wave_two:
            answers = first if request.request_id in first else second
            response = answers[request.request_id]
            assert response.status == "ok"
            key = request.work_key()
            signature = answer(response)
            if key in oracle:
                assert signature == oracle[key]  # byte-identical reuse
            else:
                oracle[key] = signature
        # And the distinct keys themselves match unbatched direct runs.
        for request in wave_one:
            spec = {
                "rid": request.request_id,
                "family": request.recipe.family,
                "seed": request.recipe.seed,
                "k": request.k,
            }
            cost, manifest = direct_manifest(spec)
            response = first[request.request_id]
            assert response.result["cost"] == cost
            assert manifest_bytes(dict(response.manifest)) == manifest_bytes(manifest)


def _recipe_cells(family: str) -> list[ServiceCell]:
    # Both variants and roundings with the LP on, plus serve_zipf's own
    # shape (greedy, k in {4, 8}, LP off) on the families it draws from.
    cells = [
        ServiceCell(
            recipe=InstanceRecipe(family, 16, 48, 3), instance=None, k=k,
            variant=variant, seed=1, rounding=rounding, c_round=1.0,
            compute_lp=True, capture_events=False,
        )
        for variant, rounding in (
            ("greedy", "select_all"),
            ("dual_ascent", "select_all"),
            ("dual_ascent", "randomized"),
        )
        for k in (1, 4, 9)
    ]
    if family in ("uniform", "euclidean", "clustered"):
        cells += [
            ServiceCell(
                recipe=InstanceRecipe(family, 16, 48, seed), instance=None,
                k=k, variant="greedy", seed=0, rounding="select_all",
                c_round=1.0, compute_lp=False, capture_events=False,
            )
            for seed in (41, 100_007)
            for k in (4, 8)
        ]
    return cells


def _inf_instance(m: int, n: int, seed: int) -> FacilityLocationInstance:
    """About half the edges absent, the rest on a coarse grid (many ties)."""
    rng = np.random.default_rng(seed)
    costs = rng.integers(1, 4, size=(m, n)).astype(float)
    costs[rng.random((m, n)) < 0.5] = np.inf
    for j in np.flatnonzero(~np.isfinite(costs).any(axis=0)):
        costs[rng.integers(m), j] = 2.0
    openings = rng.integers(1, 4, size=m).astype(float)
    return FacilityLocationInstance(openings, costs, name=f"inf-{m}x{n}-{seed}")


def _degenerate_instances() -> list[FacilityLocationInstance]:
    diagonal = np.full((5, 5), np.inf)
    np.fill_diagonal(diagonal, 0.5)
    rng = np.random.default_rng(7)
    return [
        FacilityLocationInstance(np.zeros(6), rng.random((6, 15)), name="free-open"),
        FacilityLocationInstance([2.5], rng.random((1, 10)), name="m1"),
        FacilityLocationInstance(rng.random(5), rng.random((5, 1)), name="n1"),
        FacilityLocationInstance(np.ones(6), np.ones((6, 12)), name="all-equal"),
        FacilityLocationInstance(
            np.full(4, 1e6), np.full((4, 12), 1e-6), name="huge-open"
        ),
        # One client per facility: at the last level its payment is
        # exactly the opening cost.
        FacilityLocationInstance(np.full(5, 0.5), diagonal, name="pay-equals-open"),
    ]


def _inline_cells(instances: list[FacilityLocationInstance]) -> list[ServiceCell]:
    return [
        ServiceCell(
            recipe=None, instance=instance, k=k, variant=variant, seed=2,
            rounding=rounding, c_round=1.0, compute_lp=index % 2 == 0,
            capture_events=False,
        )
        for index, instance in enumerate(instances)
        for variant, rounding in (
            ("greedy", "select_all"),
            ("dual_ascent", "select_all"),
            ("dual_ascent", "randomized"),
        )
        for k in (1, 4, 9)
    ]


def _grid(name: str) -> list[ServiceCell]:
    if name == "inline-inf":
        return _inline_cells(
            [_inf_instance(m, n, seed) for m, n in ((6, 15), (16, 48)) for seed in (0, 1)]
        )
    if name == "inline-degenerate":
        return _inline_cells(_degenerate_instances())
    return _recipe_cells(name)


@pytest.mark.parametrize(
    "grid", sorted([*FAMILIES, "inline-inf", "inline-degenerate"])
)
def test_columnar_answers_equal_the_simulator_but_for_engine_tags(grid):
    # A default cell is answered on columnar, yet its bytes — engine tags
    # included — must equal an answer built from a real simulator run:
    # the ledger's round records equal the simulator's from round 0.
    for cell in _grid(grid):
        served = run_service_cell(cell)
        assert served["engine"] == "columnar"
        served.pop("engine")
        assert canonical_answer(served) == canonical_answer(direct_answer(cell)), (
            cell.instance.name if cell.instance else cell.recipe,
            cell.variant, cell.rounding, cell.k,
        )
