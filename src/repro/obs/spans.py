"""Span-based distributed tracing with causal context propagation.

Where the round timeline answers "what did round ``r`` cost?", spans
answer "where did *this request's* 400 ms go?" across the whole serving
pipeline: a client opens a root span, its :class:`SpanContext` rides the
wire inside each :class:`~repro.service.request.SolveRequest`, the
service opens child spans for queueing and batching, the batcher pickles
the per-unit context into each :class:`~repro.service.worker.ServiceCell`,
pool workers build their own subtree (instance materialization, LP
bound, the solve, per-round simulator spans) and ship it back as plain
dicts, and :meth:`Tracer.adopt` re-parents those dicts on the ordered
merge — yielding one connected tree per traced request flow.

Design constraints:

1. **Never perturb the solve.** Spans observe wall-clock, CPU time and
   (opt-in) memory; they touch no RNG and no protocol state, so a traced
   run's outputs are byte-identical to an untraced one (the service
   equivalence suite enforces this).
2. **Cheap when absent.** Every producer guards on ``tracer is None``;
   the un-traced hot path pays a single ``None`` check.
3. **Cross-process safe.** :class:`SpanContext` and span dicts are plain
   picklable data; worker-side span ids are namespaced under the parent
   span id, so merged trees never collide.

Exports cover both artifact formats: a JSONL span log
(:func:`write_spans_jsonl` / :func:`load_spans_jsonl`, read back by
``repro trace``) and the Chrome/Perfetto ``trace_event`` JSON
(:func:`chrome_trace` / :func:`write_chrome_trace`) that loads directly
in ``chrome://tracing`` or https://ui.perfetto.dev.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

try:  # pragma: no cover - tracemalloc is stdlib, but stay import-safe
    import tracemalloc
except ImportError:  # pragma: no cover
    tracemalloc = None  # type: ignore[assignment]

from repro.exceptions import ReproError

__all__ = [
    "SpanContext",
    "Span",
    "Tracer",
    "chrome_trace",
    "write_chrome_trace",
    "write_spans_jsonl",
    "load_spans_jsonl",
    "measure_peak_memory",
    "render_span_tree",
    "critical_path",
]


def measure_peak_memory(fn: "Any") -> tuple[Any, float]:
    """Run ``fn()`` under tracemalloc; returns ``(result, mem_peak_kb)``.

    The standalone form of the :class:`Tracer` ``profile_memory`` hook:
    same tracemalloc plane, same ``mem_peak_kb`` unit and rounding, so a
    bench record's peak-memory gauge and a traced span's attribute are
    directly comparable. Numpy buffer allocations are included (numpy
    registers its allocator with tracemalloc), which is what makes this
    a meaningful budget gate for the columnar engine; child processes
    (sharded workers) are *not*, nor is the shared state segment (an
    mmap) — a sharded run's gauge covers the parent's own allocations,
    i.e. its recorder/ledger overhead. Returns peak
    0.0 when tracemalloc is unavailable. Restores the prior tracing
    state *and* the enclosing profiler's high-water mark, so nesting
    under a profiling tracer is safe.
    """
    if tracemalloc is None:  # pragma: no cover - stdlib always has it
        return fn(), 0.0
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
        prior_peak = 0
    else:
        _, prior_peak = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
        elif prior_peak:
            current, post_peak = tracemalloc.get_traced_memory()
            if prior_peak > post_peak:
                # ``reset_peak`` above erased the enclosing profiler's
                # peak and tracemalloc has no way to set it back, so lift
                # traced memory to the pre-call high-water mark with a
                # transient *uninitialized* allocation (numpy registers
                # with tracemalloc; untouched pages cost no real memory
                # beyond a level this process already reached).
                import numpy as _np

                pad = _np.empty(prior_peak - current, dtype=_np.uint8)
                del pad
    return result, round(peak / 1024.0, 3)


@dataclass(frozen=True)
class SpanContext:
    """The portable causal identity of a span: ``(trace_id, span_id)``.

    This is the only thing that crosses process or wire boundaries: a
    request carries its submitter's context, a pickled cell carries its
    work unit's context, and the receiving side parents new spans under
    it. Frozen and hashable, so it is safe inside frozen request or cell
    dataclasses.
    """

    trace_id: str
    span_id: str

    def to_wire(self) -> dict[str, str]:
        """Flat JSON dict for the service wire protocol."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_wire(cls, data: Mapping[str, Any]) -> "SpanContext":
        """Inverse of :meth:`to_wire`."""
        return cls(
            trace_id=str(data.get("trace_id", "")),
            span_id=str(data.get("span_id", "")),
        )


@dataclass
class Span:
    """One timed operation in a trace tree.

    ``start_unix`` is wall-clock (comparable across processes);
    ``duration_s`` and ``cpu_s`` are measured with ``perf_counter`` /
    ``process_time`` deltas, so they are monotonic even if the wall clock
    steps. ``attributes`` carries operation-specific annotations (round
    metrics, request ids, batch sizes); ``status`` is ``"ok"`` unless the
    operation reported otherwise (``"error"``, ``"timeout"``, ...).
    """

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None = None
    start_unix: float = 0.0
    duration_s: float = 0.0
    cpu_s: float = 0.0
    pid: int = 0
    status: str = "ok"
    attributes: dict[str, Any] = field(default_factory=dict)
    _tracer: "Tracer | None" = field(default=None, repr=False, compare=False)
    _t0: float = field(default=0.0, repr=False, compare=False)
    _cpu0: float = field(default=0.0, repr=False, compare=False)
    _ended: bool = field(default=False, repr=False, compare=False)

    @property
    def context(self) -> SpanContext:
        """This span's portable causal identity."""
        return SpanContext(trace_id=self.trace_id, span_id=self.span_id)

    @property
    def end_unix(self) -> float:
        """Wall-clock end time (start plus measured duration)."""
        return self.start_unix + self.duration_s

    def annotate(self, **attributes: Any) -> "Span":
        """Merge ``attributes`` into the span; returns ``self`` for chaining."""
        self.attributes.update(attributes)
        return self

    def end(self, status: str | None = None) -> "Span":
        """Finalize the span: stamp duration/CPU and hand it to the tracer.

        Idempotent — a second ``end()`` (e.g. a context manager unwinding
        after an explicit end) is a no-op, preserving the first
        measurement.
        """
        if self._ended:
            return self
        self._ended = True
        self.duration_s = time.perf_counter() - self._t0
        self.cpu_s = time.process_time() - self._cpu0
        if status is not None:
            self.status = status
        if self._tracer is not None:
            self._tracer._finish(self)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.end(status="error" if exc_type is not None else None)

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON representation (one JSONL line; picklable)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_unix": self.start_unix,
            "duration_s": self.duration_s,
            "cpu_s": self.cpu_s,
            "pid": self.pid,
            "status": self.status,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Span":
        """Inverse of :meth:`to_dict` (tolerates missing optional keys)."""
        return cls(
            name=str(data.get("name", "")),
            trace_id=str(data.get("trace_id", "")),
            span_id=str(data.get("span_id", "")),
            parent_id=data.get("parent_id"),
            start_unix=float(data.get("start_unix", 0.0)),
            duration_s=float(data.get("duration_s", 0.0)),
            cpu_s=float(data.get("cpu_s", 0.0)),
            pid=int(data.get("pid", 0)),
            status=str(data.get("status", "ok")),
            attributes=dict(data.get("attributes", {})),
        )


class Tracer:
    """Factory and collector of spans for one process (or one worker).

    A tracer keeps a stack of *open* spans (the innermost is the implicit
    parent of the next :meth:`start_span`) and a list of *finished* ones.
    Detached spans — long-lived request or batch spans whose lifetime does
    not nest — skip the stack and are ended explicitly.

    Parameters
    ----------
    trace_id:
        Fixed trace identity; generated when omitted. Worker-side tracers
        inherit the submitting trace's id so the merged tree stays one
        trace.
    id_prefix:
        Namespace for generated span ids. Worker tracers prefix with the
        parent span id (``"s3/"``), guaranteeing merged ids never collide
        with service-side ones.
    profile_memory:
        Opt-in ``tracemalloc`` peak sampling: every *root-level* span
        (started with an empty stack) records the traced-memory peak over
        its lifetime as a ``mem_peak_kb`` attribute. Off by default —
        tracemalloc slows allocation-heavy code measurably.
    """

    def __init__(
        self,
        trace_id: str | None = None,
        id_prefix: str = "",
        profile_memory: bool = False,
    ) -> None:
        self.trace_id = trace_id or uuid.uuid4().hex[:16]
        self.id_prefix = id_prefix
        self.profile_memory = bool(profile_memory)
        self.finished: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 0
        self._own_tracemalloc = False
        if self.profile_memory and tracemalloc is not None:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._own_tracemalloc = True

    # ------------------------------------------------------------------
    # Span lifecycle

    def _new_id(self) -> str:
        self._next_id += 1
        return f"{self.id_prefix}s{self._next_id}"

    def start_span(
        self,
        name: str,
        parent: "Span | SpanContext | None" = None,
        attributes: Mapping[str, Any] | None = None,
        detached: bool = False,
    ) -> Span:
        """Open a new span.

        ``parent`` defaults to the innermost open span on this tracer's
        stack; pass a :class:`SpanContext` to parent under a remote span
        (the propagation case) or a :class:`Span` to parent explicitly.
        ``detached=True`` keeps the span off the stack — use it for
        request/batch spans whose lifetimes interleave instead of nesting.
        """
        parent_id: str | None = None
        if parent is None and self._stack:
            parent_id = self._stack[-1].span_id
        elif isinstance(parent, Span):
            parent_id = parent.span_id
        elif isinstance(parent, SpanContext):
            parent_id = parent.span_id or None
        profile = (
            self.profile_memory
            and tracemalloc is not None
            and not self._stack
            and not detached
        )
        if profile:
            tracemalloc.reset_peak()
        span = Span(
            name=name,
            trace_id=self.trace_id,
            span_id=self._new_id(),
            parent_id=parent_id,
            start_unix=time.time(),
            pid=os.getpid(),
            attributes=dict(attributes or {}),
            _tracer=self,
            _t0=time.perf_counter(),
            _cpu0=time.process_time(),
        )
        if profile:
            span.attributes["_profile_memory"] = True
        if not detached:
            self._stack.append(span)
        return span

    def span(
        self,
        name: str,
        parent: "Span | SpanContext | None" = None,
        **attributes: Any,
    ) -> Span:
        """Context-manager shorthand: ``with tracer.span("lp"): ...``."""
        return self.start_span(name, parent=parent, attributes=attributes)

    def _finish(self, span: Span) -> None:
        """Collect an ended span (internal; called by :meth:`Span.end`)."""
        if span.attributes.pop("_profile_memory", False):
            _, peak = tracemalloc.get_traced_memory()  # type: ignore[union-attr]
            span.attributes["mem_peak_kb"] = round(peak / 1024.0, 3)
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # out-of-order end: drop it anyway
            self._stack.remove(span)
        self.finished.append(span)

    def add_span(
        self,
        name: str,
        start_unix: float,
        duration_s: float,
        parent: "Span | SpanContext | None" = None,
        attributes: Mapping[str, Any] | None = None,
        cpu_s: float = 0.0,
        status: str = "ok",
    ) -> Span:
        """Record a span retroactively from already-measured timings.

        The simulator uses this for per-round spans: it already measures
        each round's wall clock, so the span is materialized at the round
        boundary without restructuring the engine loop.
        """
        parent_id: str | None = None
        if parent is None and self._stack:
            parent_id = self._stack[-1].span_id
        elif isinstance(parent, Span):
            parent_id = parent.span_id
        elif isinstance(parent, SpanContext):
            parent_id = parent.span_id or None
        span = Span(
            name=name,
            trace_id=self.trace_id,
            span_id=self._new_id(),
            parent_id=parent_id,
            start_unix=start_unix,
            duration_s=duration_s,
            cpu_s=cpu_s,
            pid=os.getpid(),
            status=status,
            attributes=dict(attributes or {}),
            _ended=True,
        )
        self.finished.append(span)
        return span

    # ------------------------------------------------------------------
    # Introspection and merging

    def current_context(self) -> SpanContext | None:
        """Context of the innermost open span (``None`` outside any span)."""
        if not self._stack:
            return None
        return self._stack[-1].context

    @property
    def open_spans(self) -> tuple[Span, ...]:
        """Currently open (stacked) spans, outermost first."""
        return tuple(self._stack)

    def adopt(self, span_dicts: Iterable[Mapping[str, Any]]) -> list[Span]:
        """Merge externally produced span dicts into this tracer.

        This is the ordered-merge half of cross-process propagation: a
        pool worker returns its subtree as plain dicts (already parented
        under the context it was handed), and the service-side tracer
        adopts them verbatim. Ids are namespaced by the worker tracer's
        prefix, so no rewriting is needed.
        """
        adopted = [Span.from_dict(d) for d in span_dicts]
        self.finished.extend(adopted)
        return adopted

    def export(self) -> list[dict[str, Any]]:
        """Every finished span as a plain dict, in completion order."""
        return [span.to_dict() for span in self.finished]

    def close(self) -> None:
        """End any spans left open (outermost last) and stop profiling."""
        while self._stack:
            self._stack[-1].end()
        if self._own_tracemalloc and tracemalloc is not None:
            tracemalloc.stop()
            self._own_tracemalloc = False


# ----------------------------------------------------------------------
# Exporters


def write_spans_jsonl(
    spans: Iterable[Span | Mapping[str, Any]], path: str | Path
) -> Path:
    """Write spans as one JSON object per line; returns the path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8") as stream:
        for span in spans:
            record = span.to_dict() if isinstance(span, Span) else dict(span)
            stream.write(json.dumps(record, sort_keys=True) + "\n")
    return target


def load_spans_jsonl(path: str | Path) -> list[Span]:
    """Read a span JSONL file back into :class:`Span` objects."""
    source = Path(path)
    if not source.exists():
        raise ReproError(f"span log not found: {source}")
    spans: list[Span] = []
    for line in source.read_text(encoding="utf-8").splitlines():
        if line.strip():
            spans.append(Span.from_dict(json.loads(line)))
    return spans


def chrome_trace(spans: Sequence[Span | Mapping[str, Any]]) -> dict[str, Any]:
    """Spans as Chrome/Perfetto ``trace_event`` JSON (``ph: "X"`` events).

    Timestamps are microseconds relative to the earliest span start, so
    the viewer opens at t=0; each event carries the span/parent ids and
    attributes in ``args`` for drill-down. Load the written file in
    ``chrome://tracing`` or https://ui.perfetto.dev.
    """
    spans = _as_spans(spans)
    t0 = min((s.start_unix for s in spans), default=0.0)
    events: list[dict[str, Any]] = []
    for span in spans:
        events.append(
            {
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "ts": round((span.start_unix - t0) * 1e6, 3),
                "dur": round(max(span.duration_s, 0.0) * 1e6, 3),
                "pid": span.pid,
                "tid": span.pid,
                "args": {
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    "trace_id": span.trace_id,
                    "status": span.status,
                    **span.attributes,
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    spans: Sequence[Span | Mapping[str, Any]], path: str | Path
) -> Path:
    """Write :func:`chrome_trace` output as a JSON file; returns the path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(chrome_trace(spans), indent=1) + "\n")
    return target


# ----------------------------------------------------------------------
# Tree rendering


def _as_spans(spans: Sequence[Span | Mapping[str, Any]]) -> list[Span]:
    """Normalize a mixed ``Span`` / dict sequence to :class:`Span` objects."""
    return [
        span if isinstance(span, Span) else Span.from_dict(span)
        for span in spans
    ]


def _children_index(spans: Sequence[Span]) -> dict[str | None, list[Span]]:
    """Index spans by parent id, children sorted by start time."""
    by_parent: dict[str | None, list[Span]] = {}
    ids = {span.span_id for span in spans}
    for span in spans:
        parent = span.parent_id if span.parent_id in ids else None
        by_parent.setdefault(parent, []).append(span)
    for siblings in by_parent.values():
        siblings.sort(key=lambda s: (s.start_unix, s.span_id))
    return by_parent


def critical_path(spans: Sequence[Span | Mapping[str, Any]]) -> list[Span]:
    """The heaviest root-to-leaf chain: at every level, the slowest child.

    This is the chain a latency optimization must shorten — speeding up
    any span off it cannot move the end-to-end time (to first order).
    Returns an empty list when there are no spans.
    """
    if not spans:
        return []
    by_parent = _children_index(_as_spans(spans))
    roots = by_parent.get(None, [])
    if not roots:
        return []
    path: list[Span] = []
    node = max(roots, key=lambda s: s.duration_s)
    while node is not None:
        path.append(node)
        children = by_parent.get(node.span_id, [])
        node = max(children, key=lambda s: s.duration_s) if children else None
    return path


def render_span_tree(
    spans: Sequence[Span | Mapping[str, Any]],
    max_attr_chars: int = 60,
    max_depth: int | None = None,
) -> str:
    """ASCII span tree with durations; critical-path spans are starred.

    One line per span: marker (``*`` on the critical path), indented
    name, wall duration, CPU time when nonzero, status when not ``ok``,
    and a truncated attribute summary. Orphans (parents outside the set,
    e.g. a filtered log) render as extra roots. ``max_depth`` prunes deep
    subtrees (per-round spans) to a summary line.
    """
    spans = _as_spans(spans)
    by_parent = _children_index(spans)
    on_path = {id(span) for span in critical_path(spans)}
    lines: list[str] = []

    def visit(span: Span, depth: int) -> None:
        if max_depth is not None and depth > max_depth:
            return
        marker = "*" if id(span) in on_path else " "
        wall = f"{span.duration_s * 1e3:9.2f} ms"
        cpu = f" cpu {span.cpu_s * 1e3:.2f} ms" if span.cpu_s > 0 else ""
        status = "" if span.status == "ok" else f" [{span.status}]"
        attrs = ""
        if span.attributes:
            rendered = " ".join(
                f"{k}={v}" for k, v in sorted(span.attributes.items())
            )
            if len(rendered) > max_attr_chars:
                rendered = rendered[: max_attr_chars - 1] + "…"
            attrs = f"  {rendered}"
        lines.append(
            f"{marker} {'  ' * depth}{span.name}  {wall}{cpu}{status}{attrs}"
        )
        children = by_parent.get(span.span_id, [])
        if max_depth is not None and depth + 1 > max_depth and children:
            lines.append(f"  {'  ' * (depth + 1)}… {len(children)} child span(s) pruned")
            return
        for child in children:
            visit(child, depth + 1)

    for root in by_parent.get(None, []):
        visit(root, 0)
    return "\n".join(lines)
