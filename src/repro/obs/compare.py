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

A BENCH record that carries ``claims`` (as every ``repro experiment -o``
record does) is gated by :class:`Gate` from the files alone: each claim
must hold its recorded bound on the new side (else ``broken``) and may
not drift past :data:`CLAIM_RTOL` the bad way (else ``regression``);
every other number of the record must match the old side to
:data:`CLAIM_RTOL` and be present on both (else ``changed``).

``repro compare old new --threshold cost=1.05`` exits non-zero when any
thresholded metric regresses or any gated number fails.
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
    "CLAIM_RTOL",
    "DEFAULT_THRESHOLDS",
    "Gate",
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


#: Relative drift that a number of a claim-carrying BENCH record may show
#: against the old side: float noise, nothing more.
CLAIM_RTOL = 1e-9
_GATE_SHAPES = ((None, True), ("lower", False), ("higher", False))


@dataclass(frozen=True)
class Gate:
    """How a number of a claim-carrying BENCH record is checked.

    A claim's gate names its good direction, ``better`` (``"lower"`` or
    ``"higher"``), and the ``bound`` its value may not pass. Every other
    number of such a record gets ``Gate()``, which wants it unmoved.
    """

    better: str | None = None
    bound: float | None = None

    def __post_init__(self) -> None:
        if (self.better, self.bound is None) not in _GATE_SHAPES:
            raise ReproError(f"a gate needs better=lower|higher and a bound: {self!r}")

    def holds(self, value: float) -> bool:
        """Whether ``value`` respects the bound (NaN never does)."""
        sign = -1.0 if self.better == "higher" else 1.0
        return self.bound is None or sign * (value - self.bound) <= 0

    def status(self, old: float | None, new: float | None) -> str:
        """``broken``, ``changed``, ``regression``, ``improved`` or ``ok``."""
        if new is not None and not self.holds(new):
            return "broken"
        if old is None or new is None:
            return "changed"
        drift, tolerance = new - old, CLAIM_RTOL * abs(old)
        if self.better is None:
            return "ok" if abs(drift) <= tolerance else "changed"
        drift *= -1.0 if self.better == "higher" else 1.0
        if drift > tolerance:
            return "regression"
        return "improved" if drift < -tolerance else "ok"

    def __str__(self) -> str:
        if self.bound is None:
            return f"= (rel {CLAIM_RTOL:g})"
        return f"{'<=' if self.better == 'lower' else '>='} {self.bound:g}"


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
    #: "ok" | "regression" | "broken" | "changed" | "improved" | "unchecked"
    #: | "missing"
    status: str
    gate: Gate | None = None

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
        """Diffs that exceeded their threshold or failed their gate."""
        return [
            d for d in self.diffs if d.status in ("broken", "changed", "regression")
        ]

    @property
    def ok(self) -> bool:
        """Whether no metric regressed and no gated number failed."""
        return not self.regressions

    def render(self) -> str:
        """Fixed-width diff table, failures first."""
        order = (
            "broken", "changed", "regression", "improved", "ok", "unchecked", "missing"
        )
        rows = []
        for diff in sorted(self.diffs, key=lambda d: (order.index(d.status), d.name)):
            ratio = diff.ratio
            rows.append(
                (
                    diff.name,
                    "-" if diff.old is None else diff.old,
                    "-" if diff.new is None else diff.new,
                    "-" if ratio is None else ratio,
                    diff.gate or ("-" if diff.threshold is None else diff.threshold),
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
                    "gate": None if d.gate is None else str(d.gate),
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


def _numbers(prefix: str, mapping: Any) -> dict[str, float]:
    """The numeric (non-bool) values of ``mapping``, keys prefixed."""
    return {
        f"{prefix}{key}": float(value)
        for key, value in sorted((mapping or {}).items())
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def _bench_metrics(
    doc: Mapping[str, Any]
) -> tuple[dict[str, float], dict[str, Gate]]:
    """Flatten a BENCH_<name>.json trajectory document, with the gate of
    every number of a record that carries ``claims`` (its numeric
    ``params`` included)."""
    flat: dict[str, float] = {}
    gates: dict[str, Gate] = {}
    for record_id, record in sorted((doc.get("records") or {}).items()):
        if not isinstance(record, Mapping):
            continue
        numbers = _numbers(f"{record_id}.", record.get("metrics"))
        wall = record.get("wall_seconds")
        if isinstance(wall, (int, float)):
            numbers[f"{record_id}.wall_seconds"] = float(wall)
        claims = record.get("claims")
        if isinstance(claims, Mapping):
            numbers.update(_numbers(f"{record_id}.params.", record.get("params")))
            gates.update(dict.fromkeys(numbers, Gate()))
        flat.update(numbers)
        if not isinstance(claims, Mapping):
            continue
        for name, claim in sorted(claims.items()):
            key = f"{record_id}.claims.{name}"
            try:
                flat[key] = float(claim["value"])
                gates[key] = Gate(claim["better"], float(claim["bound"]))
            except (KeyError, TypeError, ValueError, ReproError):
                raise ReproError(f"malformed claim {key!r}: {claim!r}") from None
    return flat, gates


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
    "bench"}`` or a top-level ``records`` mapping; a record's claims
    appear as ``<record id>.claims.<name>``) and metrics snapshots
    (``repro.metrics.snapshot/v1`` — histograms contribute offline-derived
    p50/p95).
    """
    return _load(path)[0]


def _load(path: str | Path) -> tuple[dict[str, float], dict[str, Gate]]:
    """:func:`extract_metrics`, plus the gates a BENCH file's claims set."""
    target = Path(path)
    if not target.exists():
        raise ReproError(f"run artifact not found: {target}")
    if target.suffix == ".jsonl":
        return _trace_metrics(target), {}
    try:
        doc = json.loads(target.read_text())
    except json.JSONDecodeError as error:
        raise ReproError(f"{target} is not valid JSON: {error}") from None
    if not isinstance(doc, Mapping):
        raise ReproError(f"{target}: expected a JSON object at top level")
    if doc.get("type") == "manifest":
        return _manifest_metrics(doc), {}
    if doc.get("schema") == "repro.metrics.snapshot/v1":
        return _snapshot_metrics(doc), {}
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
    gates: Mapping[str, Gate] | None = None,
) -> ComparisonReport:
    """Diff two flat metric mappings under regression thresholds.

    A name in ``gates`` is checked by its :class:`Gate` alone. Otherwise
    ``thresholds`` overrides/extends :data:`DEFAULT_THRESHOLDS`; a name
    with no threshold of its own takes that of its part after the first
    dot (the BENCH record id), then ``default_threshold`` (left unchecked
    otherwise).
    """
    effective = dict(DEFAULT_THRESHOLDS)
    effective.update(thresholds or {})
    gates = gates or {}
    report = ComparisonReport(old_label=old_label, new_label=new_label)
    for name in sorted(set(old) | set(new)):
        old_value = old.get(name)
        new_value = new.get(name)
        gate = gates.get(name)
        threshold = effective.get(name)
        if threshold is None:
            threshold = effective.get(name.partition(".")[2], default_threshold)
        if gate is not None:
            status = gate.status(old_value, new_value)
            threshold = None
        elif old_value is None or new_value is None:
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
                gate=gate,
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
    Claim-carrying BENCH records are gated as the module docstring says,
    with the new side's claim bounds. Raises
    :class:`~repro.exceptions.ReproError` when a directory pair shares no
    artifact at all, which is always a usage error.
    """
    old_path, new_path = Path(old), Path(new)
    if old_path.is_dir() != new_path.is_dir():
        raise ReproError(
            "compare needs two files or two directories, not a mix: "
            f"{old_path} vs {new_path}"
        )
    if old_path.is_dir():
        old_artifacts = _artifact_names(old_path)
        new_artifacts = _artifact_names(new_path)
        common = sorted(set(old_artifacts) & set(new_artifacts))
        if not common:
            raise ReproError(
                f"no artifact filename is present in both {old_path} and {new_path}"
            )
        pairs = [(old_artifacts[name], new_artifacts[name]) for name in common]
    else:
        pairs = [(old_path, new_path)]
    reports = []
    for old_file, new_file in pairs:
        old_metrics, old_gates = _load(old_file)
        new_metrics, new_gates = _load(new_file)
        reports.append(
            compare_metrics(
                old_metrics,
                new_metrics,
                thresholds=thresholds,
                default_threshold=default_threshold,
                old_label=str(old_file),
                new_label=str(new_file),
                gates={**old_gates, **new_gates},
            )
        )
    return reports
