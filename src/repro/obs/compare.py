"""Cross-run regression comparison (the ``repro compare`` engine).

Every perf or robustness PR needs a checkable before/after. This module
loads two run artifacts — a ``.manifest.json`` sidecar, a JSONL trace, a
``BENCH_<name>.json`` trajectory file, or a whole directory of them —
flattens each into a ``metric name -> number`` mapping, and diffs the two
under per-metric *regression thresholds*.

Threshold semantics: every compared metric is **lower-is-better** (rounds,
bits, cost, ratio, wall-clock — all of the paper's resources point down).
A metric regresses when ``new / old > threshold``; ``threshold=1.0`` means
"must not grow at all", ``1.05`` allows 5% growth. Metrics present on only
one side are reported but never fail the comparison (schema evolution must
not break CI). A BENCH metric ``<record id>.<name>`` falls back to the
threshold of ``<name>`` (``scale_10k.rounds`` is gated as ``rounds``), and
metrics without either are checked only when a ``default_threshold`` is
supplied.

``repro compare old new --threshold cost=1.05`` exits non-zero when any
thresholded metric regresses.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.analysis.tables import render_table
from repro.exceptions import ReproError

__all__ = [
    "DEFAULT_THRESHOLDS",
    "MetricDiff",
    "ComparisonReport",
    "parse_threshold",
    "extract_metrics",
    "compare_metrics",
    "compare_paths",
]

#: Default regression thresholds for the canonical run metrics. Rounds and
#: message sizes are deterministic given seed+instance, so any growth is a
#: regression; traffic, cost and ratio get small tolerances; wall-clock is
#: machine-noise and gets a loose one.
DEFAULT_THRESHOLDS: Mapping[str, float] = {
    "rounds": 1.0,
    "max_message_bits": 1.0,
    "total_messages": 1.05,
    "total_bits": 1.05,
    "max_messages_per_round": 1.05,
    "cost": 1.02,
    "ratio_vs_lp": 1.02,
    "ratio_vs_bound": 1.02,
    "wall_seconds": 5.0,
}


def parse_threshold(spec: str) -> tuple[str, float]:
    """Parse one ``NAME=RATIO`` threshold argument."""
    name, sep, value = spec.partition("=")
    if not sep or not name:
        raise ReproError(
            f"bad threshold {spec!r}: expected NAME=RATIO (e.g. cost=1.05)"
        )
    try:
        ratio = float(value)
    except ValueError:
        raise ReproError(f"bad threshold ratio in {spec!r}: {value!r}") from None
    if ratio <= 0:
        raise ReproError(f"threshold ratio must be positive, got {spec!r}")
    return name, ratio


@dataclass(frozen=True)
class MetricDiff:
    """One metric's before/after comparison."""

    name: str
    old: float | None
    new: float | None
    threshold: float | None
    status: str  # "ok" | "regression" | "improved" | "unchecked" | "missing"

    @property
    def ratio(self) -> float | None:
        """``new / old`` (None when either side is missing; inf on 0 -> x)."""
        if self.old is None or self.new is None:
            return None
        if self.old == 0:
            return None if self.new == 0 else math.inf
        return self.new / self.old


@dataclass
class ComparisonReport:
    """Full diff of two runs' metrics."""

    old_label: str
    new_label: str
    diffs: list[MetricDiff] = field(default_factory=list)

    @property
    def regressions(self) -> list[MetricDiff]:
        """Diffs that exceeded their threshold."""
        return [d for d in self.diffs if d.status == "regression"]

    @property
    def ok(self) -> bool:
        """Whether no thresholded metric regressed."""
        return not self.regressions

    def render(self) -> str:
        """Fixed-width diff table, regressions first."""
        order = {"regression": 0, "improved": 1, "ok": 2, "unchecked": 3, "missing": 4}
        rows = []
        for diff in sorted(self.diffs, key=lambda d: (order[d.status], d.name)):
            ratio = diff.ratio
            rows.append(
                (
                    diff.name,
                    "-" if diff.old is None else diff.old,
                    "-" if diff.new is None else diff.new,
                    "-" if ratio is None else ratio,
                    "-" if diff.threshold is None else diff.threshold,
                    diff.status,
                )
            )
        verdict = "OK" if self.ok else f"{len(self.regressions)} REGRESSION(S)"
        return render_table(
            ("metric", "old", "new", "ratio", "threshold", "status"),
            rows,
            title=f"compare {self.old_label} -> {self.new_label}: {verdict}",
        )

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON representation."""
        return {
            "old": self.old_label,
            "new": self.new_label,
            "ok": self.ok,
            "metrics": [
                {
                    "name": d.name,
                    "old": d.old,
                    "new": d.new,
                    "ratio": d.ratio if d.ratio != math.inf else "inf",
                    "threshold": d.threshold,
                    "status": d.status,
                }
                for d in self.diffs
            ],
        }


# ----------------------------------------------------------------------
# Metric extraction: one flat dict per artifact, whatever its format
# ----------------------------------------------------------------------

_SCALAR_METRIC_KEYS = (
    "rounds",
    "total_messages",
    "total_bits",
    "max_message_bits",
    "mean_message_bits",
    "max_messages_per_round",
    "dropped_messages",
)


def _manifest_metrics(record: Mapping[str, Any]) -> dict[str, float]:
    """Flatten a manifest dict (``{"type": "manifest", ...}``)."""
    flat: dict[str, float] = {}
    metrics = record.get("metrics") or {}
    for key in _SCALAR_METRIC_KEYS:
        value = metrics.get(key)
        if isinstance(value, (int, float)):
            flat[key] = float(value)
    wall = record.get("wall_seconds")
    if isinstance(wall, (int, float)):
        flat["wall_seconds"] = float(wall)
    outcome = record.get("outcome") or {}
    for key in ("cost", "ratio_vs_lp", "unserved_clients"):
        value = outcome.get(key)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            flat[key] = float(value)
    return flat


def _bench_metrics(doc: Mapping[str, Any]) -> dict[str, float]:
    """Flatten a BENCH_<name>.json trajectory document."""
    flat: dict[str, float] = {}
    for record_id, record in sorted((doc.get("records") or {}).items()):
        if not isinstance(record, Mapping):
            continue
        wall = record.get("wall_seconds")
        if isinstance(wall, (int, float)):
            flat[f"{record_id}.wall_seconds"] = float(wall)
        for key, value in sorted((record.get("notes") or {}).items()):
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                flat[f"{record_id}.notes.{key}"] = float(value)
        for key, value in sorted((record.get("metrics") or {}).items()):
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                flat[f"{record_id}.{key}"] = float(value)
    return flat


def _snapshot_metrics(doc: Mapping[str, Any]) -> dict[str, float]:
    """Flatten a metrics-snapshot payload (``repro.metrics.snapshot/v1``).

    Counters and gauges contribute their labeled values; histograms
    contribute count/sum plus p50/p95 re-derived offline from the
    snapshot's bucket boundaries and counts — the whole point of
    snapshots carrying raw buckets is that ``repro compare`` can gate on
    quantiles without the original process.
    """
    from repro.obs.metrics_io import histogram_quantile

    flat: dict[str, float] = {}
    for name, instrument in sorted((doc.get("metrics") or {}).items()):
        if not isinstance(instrument, Mapping):
            continue
        kind = instrument.get("type")
        for series in instrument.get("values") or ():
            labels = series.get("labels") or {}
            key = _flat_series_name(name, labels)
            if kind in ("counter", "gauge"):
                value = series.get("value")
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    flat[key] = float(value)
            elif kind == "histogram":
                count = series.get("count")
                if not isinstance(count, (int, float)):
                    continue
                flat[f"{key}.count"] = float(count)
                total = series.get("sum")
                if isinstance(total, (int, float)):
                    flat[f"{key}.sum"] = float(total)
                if count:
                    flat[f"{key}.p50"] = histogram_quantile(
                        instrument, 0.5, labels
                    )
                    flat[f"{key}.p95"] = histogram_quantile(
                        instrument, 0.95, labels
                    )
    return flat


def _flat_series_name(name: str, labels: Mapping[str, Any]) -> str:
    if not labels:
        return name
    rendered = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{name}{{{rendered}}}"


def _trace_metrics(path: Path) -> dict[str, float]:
    """Flatten a JSONL trace: manifest line (or sidecar) plus timeline."""
    from repro.obs.inspect import load_trace_file

    report = load_trace_file(path)
    flat: dict[str, float] = {}
    if report.manifest is not None:
        flat.update(_manifest_metrics(report.manifest.to_dict()))
    timeline = report.timeline
    if len(timeline):
        # Rounds/messages from the timeline back up a manifest-less
        # (killed-run) trace; the manifest values win when both exist.
        flat.setdefault("rounds", float(len(timeline) - 1))
        flat.setdefault("total_messages", float(timeline.total_messages))
        last_probe = None
        for entry in timeline:
            if entry.probe:
                last_probe = entry.probe
        if last_probe:
            for key in ("primal_cost", "ratio_vs_bound", "dual_sum"):
                value = last_probe.get(key)
                if isinstance(value, (int, float)):
                    flat.setdefault(key, float(value))
    return flat


def extract_metrics(path: str | Path) -> dict[str, float]:
    """Load one artifact and flatten it to ``metric name -> number``.

    Recognized formats: JSONL traces (``*.jsonl``), manifest JSON files
    (``{"type": "manifest"}``), BENCH trajectory files (``{"type":
    "bench"}`` or a top-level ``records`` mapping) and metrics snapshots
    (``repro.metrics.snapshot/v1`` — histograms contribute offline-derived
    p50/p95).
    """
    target = Path(path)
    if not target.exists():
        raise ReproError(f"run artifact not found: {target}")
    if target.suffix == ".jsonl":
        return _trace_metrics(target)
    try:
        doc = json.loads(target.read_text())
    except json.JSONDecodeError as error:
        raise ReproError(f"{target} is not valid JSON: {error}") from None
    if not isinstance(doc, Mapping):
        raise ReproError(f"{target}: expected a JSON object at top level")
    if doc.get("type") == "manifest":
        return _manifest_metrics(doc)
    if doc.get("schema") == "repro.metrics.snapshot/v1":
        return _snapshot_metrics(doc)
    if doc.get("type") == "bench" or "records" in doc:
        return _bench_metrics(doc)
    raise ReproError(
        f"{target}: unrecognized artifact (expected a trace .jsonl, a "
        "manifest, a BENCH file, or a metrics snapshot)"
    )


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------

def compare_metrics(
    old: Mapping[str, float],
    new: Mapping[str, float],
    thresholds: Mapping[str, float] | None = None,
    default_threshold: float | None = None,
    old_label: str = "old",
    new_label: str = "new",
) -> ComparisonReport:
    """Diff two flat metric mappings under regression thresholds.

    ``thresholds`` overrides/extends :data:`DEFAULT_THRESHOLDS`; a name
    with no threshold of its own takes that of its part after the first
    dot (the BENCH record id), then ``default_threshold`` (left unchecked
    otherwise).
    """
    effective = dict(DEFAULT_THRESHOLDS)
    effective.update(thresholds or {})
    report = ComparisonReport(old_label=old_label, new_label=new_label)
    for name in sorted(set(old) | set(new)):
        old_value = old.get(name)
        new_value = new.get(name)
        threshold = effective.get(name)
        if threshold is None:
            threshold = effective.get(name.partition(".")[2], default_threshold)
        if old_value is None or new_value is None:
            status = "missing"
            threshold = None
        elif threshold is None:
            status = "unchecked"
        else:
            if old_value == 0:
                regressed = new_value > 0
                improved = False
            else:
                ratio = new_value / old_value
                regressed = ratio > threshold
                improved = ratio < 1.0
            status = (
                "regression" if regressed else "improved" if improved else "ok"
            )
        report.diffs.append(
            MetricDiff(
                name=name,
                old=old_value,
                new=new_value,
                threshold=threshold,
                status=status,
            )
        )
    return report


_DIR_PATTERNS = ("BENCH_*.json", "*.manifest.json", "*.jsonl", "*.json")


def _artifact_names(directory: Path) -> dict[str, Path]:
    """Comparable artifacts in a directory, keyed by filename."""
    found: dict[str, Path] = {}
    for pattern in _DIR_PATTERNS:
        for candidate in sorted(directory.glob(pattern)):
            found.setdefault(candidate.name, candidate)
    return found


def compare_paths(
    old: str | Path,
    new: str | Path,
    thresholds: Mapping[str, float] | None = None,
    default_threshold: float | None = None,
) -> list[ComparisonReport]:
    """Compare two artifacts, or two directories of artifacts pairwise.

    Directory mode pairs files by name and compares every common pair;
    names present on only one side are skipped (they cannot regress).
    Raises :class:`~repro.exceptions.ReproError` when a directory pair
    shares no artifact at all, which is always a usage error.
    """
    old_path, new_path = Path(old), Path(new)
    if old_path.is_dir() != new_path.is_dir():
        raise ReproError(
            "compare needs two files or two directories, not a mix: "
            f"{old_path} vs {new_path}"
        )
    if not old_path.is_dir():
        report = compare_metrics(
            extract_metrics(old_path),
            extract_metrics(new_path),
            thresholds=thresholds,
            default_threshold=default_threshold,
            old_label=str(old_path),
            new_label=str(new_path),
        )
        return [report]
    old_artifacts = _artifact_names(old_path)
    new_artifacts = _artifact_names(new_path)
    common = sorted(set(old_artifacts) & set(new_artifacts))
    if not common:
        raise ReproError(
            f"no artifact filename is present in both {old_path} and {new_path}"
        )
    return [
        compare_metrics(
            extract_metrics(old_artifacts[name]),
            extract_metrics(new_artifacts[name]),
            thresholds=thresholds,
            default_threshold=default_threshold,
            old_label=str(old_artifacts[name]),
            new_label=str(new_artifacts[name]),
        )
        for name in common
    ]
