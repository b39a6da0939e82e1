"""Tests for span-based tracing: lifecycle, propagation, exporters.

The structural claims under test: span trees stay *connected* across
process boundaries (the acceptance criterion of the tracing subsystem),
worker-side ids never collide with service-side ones, exporters round-trip
through JSONL and produce loadable ``trace_event`` JSON, and the critical
path is the heaviest root-to-leaf chain.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.exceptions import ReproError
from repro.obs.spans import (
    Span,
    SpanContext,
    Tracer,
    chrome_trace,
    critical_path,
    load_spans_jsonl,
    render_span_tree,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.perf.executor import SweepExecutor
from repro.service import ServiceClient, SolveService
from repro.service.request import InstanceRecipe, SolveRequest
from repro.service.service import ServiceConfig


def _connected_roots(span_dicts):
    """Root spans after resolving parent links within the set."""
    ids = {s["span_id"] for s in span_dicts}
    return [
        s
        for s in span_dicts
        if not s["parent_id"] or s["parent_id"] not in ids
    ]


class TestSpanLifecycle:
    def test_nested_spans_parent_implicitly(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert [s.name for s in tracer.finished] == ["inner", "outer"]

    def test_end_is_idempotent(self):
        tracer = Tracer()
        span = tracer.start_span("op")
        span.end()
        first = span.duration_s
        span.end(status="error")  # a second end must not re-measure
        assert span.duration_s == first
        assert span.status == "ok"
        assert len(tracer.finished) == 1

    def test_exception_marks_error_status(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert tracer.finished[0].status == "error"

    def test_detached_spans_skip_the_stack(self):
        tracer = Tracer()
        request = tracer.start_span("request", detached=True)
        nested = tracer.start_span("work")
        assert nested.parent_id is None  # detached span is not a parent
        nested.end()
        request.end()
        assert tracer.current_context() is None

    def test_annotate_chains_and_merges(self):
        tracer = Tracer()
        span = tracer.start_span("op").annotate(a=1).annotate(b=2)
        span.end()
        assert span.attributes == {"a": 1, "b": 2}

    def test_close_ends_open_spans(self):
        tracer = Tracer()
        tracer.start_span("outer")
        tracer.start_span("inner")
        tracer.close()
        assert not tracer.open_spans
        assert {s.name for s in tracer.finished} == {"outer", "inner"}

    def test_add_span_materializes_past_work(self):
        tracer = Tracer()
        span = tracer.add_span(
            "round", start_unix=100.0, duration_s=0.25, attributes={"r": 3}
        )
        assert span.end_unix == 100.25
        assert tracer.finished == [span]

    def test_wall_and_cpu_are_measured(self):
        tracer = Tracer()
        with tracer.span("busy"):
            sum(range(20_000))
        span = tracer.finished[0]
        assert span.duration_s > 0
        assert span.cpu_s >= 0


class TestContextPropagation:
    def test_context_pickles(self):
        ctx = SpanContext(trace_id="t", span_id="s1")
        assert pickle.loads(pickle.dumps(ctx)) == ctx

    def test_wire_round_trip(self):
        ctx = SpanContext(trace_id="t", span_id="s9")
        assert SpanContext.from_wire(ctx.to_wire()) == ctx

    def test_request_carries_context_over_the_wire(self):
        request = SolveRequest(
            request_id="r1",
            recipe=InstanceRecipe("uniform", 5, 12, 0),
            trace_ctx=SpanContext(trace_id="t", span_id="s2"),
        )
        decoded = SolveRequest.from_wire(request.to_wire())
        assert decoded.trace_ctx == request.trace_ctx

    def test_trace_ctx_never_enters_work_key(self):
        base = SolveRequest(
            request_id="a", recipe=InstanceRecipe("uniform", 5, 12, 0)
        )
        traced = SolveRequest(
            request_id="b",
            recipe=InstanceRecipe("uniform", 5, 12, 0),
            trace_ctx=SpanContext(trace_id="t", span_id="s1"),
        )
        assert base.work_key() == traced.work_key()

    def test_worker_prefix_prevents_id_collisions(self):
        parent = Tracer(trace_id="t")
        ctx = parent.start_span("unit", detached=True).context
        worker = Tracer(trace_id="t", id_prefix=f"{ctx.span_id}/")
        worker.start_span("solve", parent=ctx).end()
        parent.adopt(worker.export())
        ids = [s.span_id for s in parent.finished] + [
            s.span_id for s in parent.open_spans
        ]
        parent.close()
        ids += [s.span_id for s in parent.finished if s.span_id not in ids]
        assert len(set(ids)) == len(ids)

    def test_adopt_preserves_parent_links(self):
        parent = Tracer(trace_id="t")
        unit = parent.start_span("unit", detached=True)
        worker = Tracer(trace_id="t", id_prefix=f"{unit.context.span_id}/")
        worker.start_span("solve", parent=unit.context).end()
        adopted = parent.adopt(worker.export())
        assert adopted[0].parent_id == unit.span_id
        unit.end()


class TestExporters:
    def _sample(self):
        tracer = Tracer()
        with tracer.span("root", kind="demo"):
            with tracer.span("child"):
                pass
        return tracer.export()

    def test_jsonl_round_trip(self, tmp_path):
        spans = self._sample()
        path = write_spans_jsonl(spans, tmp_path / "spans.jsonl")
        loaded = load_spans_jsonl(path)
        assert [s.name for s in loaded] == [s["name"] for s in spans]
        assert loaded[0].attributes == spans[0]["attributes"]

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(ReproError, match="span log not found"):
            load_spans_jsonl(tmp_path / "absent.jsonl")

    def test_chrome_trace_schema(self, tmp_path):
        spans = self._sample()
        payload = chrome_trace(spans)
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        assert len(events) == len(spans)
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0
            assert event["dur"] >= 0
            assert {"name", "cat", "pid", "tid", "args"} <= set(event)
        # The written file is valid JSON a viewer can load.
        target = write_chrome_trace(spans, tmp_path / "trace.json")
        assert json.loads(target.read_text())["traceEvents"]

    def test_critical_path_follows_slowest_children(self):
        tracer = Tracer()
        tracer.add_span("root", start_unix=0.0, duration_s=1.0)
        root_id = tracer.finished[0].span_id
        tracer.add_span(
            "fast", start_unix=0.0, duration_s=0.1,
            parent=tracer.finished[0],
        )
        slow = tracer.add_span(
            "slow", start_unix=0.1, duration_s=0.8,
            parent=tracer.finished[0],
        )
        tracer.add_span(
            "leaf", start_unix=0.2, duration_s=0.5, parent=slow
        )
        path = [s.name for s in critical_path(tracer.export())]
        assert path == ["root", "slow", "leaf"]
        assert tracer.finished[0].span_id == root_id

    def test_render_tree_marks_critical_path_and_prunes(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("mid"):
                with tracer.span("deep"):
                    pass
        text = render_span_tree(tracer.export(), max_depth=1)
        assert text.splitlines()[0].startswith("*")
        assert "pruned" in text
        assert "deep" not in text

    def test_render_empty_is_empty(self):
        assert render_span_tree([]) == ""


class TestPipelineTracing:
    """The acceptance criterion: one connected tree, client to sim round."""

    def _traced_workload(self, workers: int):
        tracer = Tracer()
        service = SolveService(
            config=ServiceConfig(workers=workers),
            executor=SweepExecutor(workers=workers),
            tracer=tracer,
        )
        client = ServiceClient(service, tracer=tracer)
        requests = [
            SolveRequest(
                request_id=f"r{i}",
                recipe=InstanceRecipe("uniform", 6, 15, 1),
                k=4,
                seed=i % 2,
            )
            for i in range(4)
        ]
        responses = client.solve_many(requests)
        tracer.close()
        return responses, tracer.export()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_single_connected_tree_through_every_layer(self, workers):
        responses, spans = self._traced_workload(workers)
        assert all(r.status == "ok" for r in responses)
        roots = _connected_roots(spans)
        assert [r["name"] for r in roots] == ["client.session"]
        names = {s["name"] for s in spans}
        assert {
            "client.session",
            "service.request",
            "service.batch",
            "service.unit",
            "worker.solve",
            "algo.run",
            "sim.round",
        } <= names
        # A traced request stays on the simulator: its build and round
        # spans hang under the algorithm run.
        by_id = {s["span_id"]: s for s in spans}
        for name in ("sim.build", "sim.round"):
            children = [s for s in spans if s["name"] == name]
            assert children
            assert all(
                by_id[s["parent_id"]]["name"] == "algo.run" for s in children
            )
        # Every round span is annotated with its round metrics.
        round_spans = [s for s in spans if s["name"] == "sim.round"]
        for span in round_spans:
            assert {"round", "messages", "bits"} <= set(span["attributes"])

    def test_spans_never_ride_inside_results(self):
        responses, _ = self._traced_workload(workers=1)
        for response in responses:
            assert "spans" not in response.result
            assert "spans" not in response.manifest

    def test_critical_path_descends_from_the_client(self):
        _, spans = self._traced_workload(workers=1)
        path = [s.name for s in critical_path(spans)]
        assert path[0] == "client.session"
        assert path[1] == "service.request"
        # The slowest request span may be a dedup'd follower, whose span
        # has no subtree (it was answered from its leader's solve) — the
        # path legitimately ends there. Whenever it continues, it must
        # descend batch -> unit -> worker and bottom out in a worker
        # phase.
        if len(path) > 2:
            assert path[2:5] == [
                "service.batch",
                "service.unit",
                "worker.solve",
            ]
            assert path[-1] in {
                "sim.round",
                "sim.build",
                "algo.run",
                "worker.instance",
                "worker.lp",
            }

    def test_profile_memory_annotates_worker_solves(self):
        tracer = Tracer()
        service = SolveService(
            config=ServiceConfig(profile_memory=True), tracer=tracer
        )
        client = ServiceClient(service, tracer=tracer)
        client.solve_many(
            [
                SolveRequest(
                    request_id="m0",
                    recipe=InstanceRecipe("uniform", 6, 15, 1),
                    k=4,
                )
            ]
        )
        tracer.close()
        solves = [
            s for s in tracer.export() if s["name"] == "worker.solve"
        ]
        assert solves
        assert all("mem_peak_kb" in s["attributes"] for s in solves)
