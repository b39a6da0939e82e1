"""Observability: traces, timelines, manifests, metrics, probes, diffs.

The paper's claims are *resource* claims — ``O(k)`` rounds and
``O(log N)``-bit messages — and *quality* claims — the approximation
trade-off curve. This subpackage turns a simulation into auditable
artifacts on both axes:

* :mod:`repro.obs.sinks` — trace implementations beyond the in-memory
  default: a streaming JSONL sink (flushes at round boundaries), a bounded
  ring buffer for long runs, and a multiplexer that fans events out to
  several traces at once. All satisfy the :class:`repro.net.trace.Trace`
  interface, so the simulator needs no API change.
* :mod:`repro.obs.timeline` — per-round telemetry (wall-clock, messages,
  bits, drops, alive/finished node counts, probe observations) recorded by
  the simulator.
* :mod:`repro.obs.registry` — a lightweight metrics registry
  (counter/gauge/histogram with labels) that the simulator, the network
  metrics and the protocol nodes publish into; snapshots to plain dicts.
* :mod:`repro.obs.probes` — per-round convergence probes: dual budgets,
  tight/frozen counts, induced primal cost and the anytime
  approximation-ratio estimate against a lower bound.
* :mod:`repro.obs.watchdogs` — opt-in invariant checks (assignment
  feasibility, dual monotonicity, CONGEST bit envelope) that log
  structured ``invariant_violation`` events or raise in strict mode.
* :mod:`repro.obs.manifest` — the :class:`RunRecord` manifest capturing
  what was run (instance, seed, parameters, version) and what it cost
  (timings, final metrics), written next to trace output.
* :mod:`repro.obs.inspect` — reads a JSONL trace back and renders
  per-round tables, per-kind message counts and the slowest rounds
  (surfaced as ``repro inspect``).
* :mod:`repro.obs.compare` — loads two run artifacts (manifests, traces,
  BENCH files) and diffs their metrics under configurable regression
  thresholds (surfaced as ``repro compare``).
* :mod:`repro.obs.bench` — writes the versioned ``BENCH_<name>.json``
  trajectory files that every measuring verb emits.
* :mod:`repro.obs.spans` — span-based distributed tracing: causal
  context propagation across process boundaries, wall/CPU/memory
  profiling per span, JSONL and Chrome ``trace_event`` exporters, and
  span-tree rendering with critical-path highlighting (surfaced as
  ``repro trace``).
* :mod:`repro.obs.slo` — declarative latency / error-rate objectives
  evaluated against registry instruments, with burn-rate reporting
  (surfaced as ``repro serve --slo`` and the CI gate).
* :mod:`repro.obs.metrics_io` — the versioned metrics-snapshot file
  format shared by ``repro solve --metrics-out`` and the service
  ``metrics`` wire op.
* :mod:`repro.obs.recorder` — the deterministic flight recorder:
  per-round Merkle-style digests of the full execution state for every
  engine, recording artifacts with hermetic replay, and divergence
  bisection down to the first differing round → node → field/message
  (surfaced as ``repro record`` / ``replay`` / ``divergence``).
* :mod:`repro.obs.provenance` — the causal message-provenance DAG logged
  in full-record mode; answers "why did this facility open?" (surfaced
  as ``repro explain``).
"""

from repro.obs.bench import bench_path_for, write_bench
from repro.obs.compare import (
    ComparisonReport,
    MetricDiff,
    compare_metrics,
    compare_paths,
    extract_metrics,
    parse_threshold,
)
from repro.obs.inspect import (
    TraceReport,
    inspect_digests,
    inspect_trace,
    load_trace_file,
)
from repro.obs.manifest import RunRecord, manifest_path_for
from repro.obs.metrics_io import (
    histogram_quantile,
    load_snapshot,
    snapshot_payload,
    write_snapshot,
)
from repro.obs.probes import RoundProbe, SolutionQualityProbe
from repro.obs.provenance import ProvenanceEvent, ProvenanceLog
from repro.obs.recorder import (
    Checkpoint,
    DivergenceReport,
    FlightRecorder,
    diff_recordings,
    load_recording,
    record_run,
    replay_recording,
)
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.sinks import JsonlTraceSink, MultiTrace, RingBufferTrace
from repro.obs.slo import (
    ErrorRateSLO,
    LatencySLO,
    SLOMonitor,
    SLOResult,
    default_service_slos,
    load_slo_spec,
)
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
from repro.obs.timeline import RoundTimeline, RoundTimelineEntry
from repro.obs.watchdogs import (
    CongestWatchdog,
    DualMonotonicityWatchdog,
    FeasibilityWatchdog,
    ServiceGuaranteeWatchdog,
    Watchdog,
    default_watchdogs,
)

__all__ = [
    "JsonlTraceSink",
    "MultiTrace",
    "RingBufferTrace",
    "RoundTimeline",
    "RoundTimelineEntry",
    "RunRecord",
    "manifest_path_for",
    "TraceReport",
    "inspect_digests",
    "inspect_trace",
    "load_trace_file",
    # registry
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    # probes
    "RoundProbe",
    "SolutionQualityProbe",
    # watchdogs
    "Watchdog",
    "FeasibilityWatchdog",
    "DualMonotonicityWatchdog",
    "CongestWatchdog",
    "ServiceGuaranteeWatchdog",
    "default_watchdogs",
    # comparison
    "ComparisonReport",
    "MetricDiff",
    "compare_metrics",
    "compare_paths",
    "extract_metrics",
    "parse_threshold",
    # bench trajectories
    "bench_path_for",
    "write_bench",
    # spans
    "Span",
    "SpanContext",
    "Tracer",
    "chrome_trace",
    "critical_path",
    "load_spans_jsonl",
    "render_span_tree",
    "write_chrome_trace",
    "write_spans_jsonl",
    # SLOs
    "ErrorRateSLO",
    "LatencySLO",
    "SLOMonitor",
    "SLOResult",
    "default_service_slos",
    "load_slo_spec",
    # metrics snapshots
    "histogram_quantile",
    "load_snapshot",
    "snapshot_payload",
    "write_snapshot",
    # flight recording + provenance
    "Checkpoint",
    "DivergenceReport",
    "FlightRecorder",
    "ProvenanceEvent",
    "ProvenanceLog",
    "diff_recordings",
    "load_recording",
    "record_run",
    "replay_recording",
]
