"""Deterministic flight recorder: Merkle-style digests of execution state.

Three engines claim to run the *same* protocol — the message-passing
:class:`~repro.net.simulator.Simulator`, the loop emulation oracle, and
the columnar numpy engine — and the repo's correctness story rests on
them agreeing round for round, not just on final bytes. The recorder
turns that claim into an artifact: at every protocol checkpoint it
captures the full execution state (duals, open set, assignments, and for
the simulator the message plane by kind) as *leaves*, hashes them into
per-field digests, and hashes those into one checkpoint digest — a
two-level Merkle tree whose root (:meth:`FlightRecorder.final_digest`)
summarizes the entire run.

Because the tree keeps its leaves, :func:`diff_recordings` can *bisect*
a mismatch: first divergent checkpoint → field → leaf (node or message),
with both values — which is what ``repro divergence`` renders and what
the perf suites and the chaos harness use to localize engine mismatches
automatically.

Checkpoint labels are aligned across engines: the loop and columnar
engines emit ``greedy:iter:<t>`` / ``dual:level:<l>`` / ``dual:rounding``
/ ``final``, and the simulator emits the *same* labels at the round where
its state provably coincides (end of each DECIDE round for greedy, end
of each FREEZE round and the rounding-decision round for dual ascent —
facility-side state leads the one-round SERVE delivery lag, so it is the
facility view that is compared). The simulator additionally emits
``sim:round:<r>`` checkpoints carrying its full per-round node state and
message plane; labels present in only one recording are reported but are
not divergences, so simulator recordings diff cleanly against emulation
recordings.

Recording is **zero-overhead when off**: every hook is guarded by a
single ``recorder is None`` check, and the service equivalence suite
proves byte-identical output with the flag absent.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.exceptions import ReproError
from repro.obs.provenance import ProvenanceLog

if TYPE_CHECKING:
    from repro.core.dual_ascent_nodes import RoundingPolicy

__all__ = [
    "RECORDING_SCHEMA",
    "Checkpoint",
    "DivergenceReport",
    "FlightRecorder",
    "canonical_value",
    "diff_recordings",
    "final_checkpoint",
    "leaf_sort_key",
    "load_recording",
    "record_run",
    "replay_recording",
]

#: Schema tag of the recording JSON artifact.
RECORDING_SCHEMA = "repro.recording/v1"

#: Engines a recording can come from.
RECORDING_ENGINES = ("loop", "simulator", "columnar")


def canonical_value(value: Any) -> str:
    """Canonical string form of one leaf value.

    Floats go through ``repr``, which round-trips every finite double
    bit-exactly — two states digest equal iff they are equal to the last
    ulp. Numpy scalars are unwrapped via ``.item()`` first (``np.bool_``
    and ``np.int64`` are not JSON types and ``np.float64.__repr__``
    differs across numpy versions). Containers recurse; sets are sorted.
    """
    # Exact-type check, not isinstance: np.float64 *subclasses* float but
    # its repr ("np.float64(0.25)") differs from the plain float's.
    if hasattr(value, "item") and type(value) not in (bool, int, float, str):
        value = value.item()
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (set, frozenset)):
        value = sorted(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical_value(item) for item in value) + "]"
    raise ReproError(
        f"flight recorder cannot canonicalize {type(value).__name__} leaves; "
        "only scalars and containers of scalars are recordable"
    )


def _digest(text: str) -> str:
    """Short content hash (16 hex chars — plenty at checkpoint counts)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


_NATURAL = re.compile(r"(\d+)")


def leaf_sort_key(leaf: str) -> tuple:
    """Numeric-aware ordering so ``client:2`` sorts before ``client:10``."""
    return tuple(
        (0, int(token), "") if token.isdigit() else (1, 0, token)
        for token in _NATURAL.split(leaf)
    )


@dataclass(frozen=True)
class Checkpoint:
    """One digested state snapshot: a two-level Merkle node with leaves.

    ``fields`` maps field name (``"open"``, ``"alpha"``,
    ``"messages:alp"``, ...) to its leaves — leaf name (``"facility:3"``,
    ``"client:7"``, ``"0->12#0"``) to *canonical value string*. The
    leaves are kept so a digest mismatch can be bisected to the exact
    node and value; digests alone would only say "something differs".
    """

    label: str
    fields: Mapping[str, Mapping[str, str]]
    field_digests: Mapping[str, str]
    digest: str

    @classmethod
    def build(cls, label: str, fields: Mapping[str, Mapping[str, Any]]) -> "Checkpoint":
        """Canonicalize raw field/leaf values and hash them bottom-up."""
        canonical = {
            str(name): {
                str(leaf): canonical_value(value)
                for leaf, value in leaves.items()
            }
            for name, leaves in fields.items()
        }
        field_digests, digest = cls._hash(str(label), canonical)
        return cls(
            label=str(label),
            fields=canonical,
            field_digests=field_digests,
            digest=digest,
        )

    @staticmethod
    def _hash(
        label: str, canonical: Mapping[str, Mapping[str, str]]
    ) -> tuple[dict[str, str], str]:
        """Bottom-up digests over already-canonical leaf strings."""
        field_digests = {
            name: _digest(
                "\n".join(
                    f"{leaf}={value}" for leaf, value in sorted(leaves.items())
                )
            )
            for name, leaves in canonical.items()
        }
        digest = _digest(
            label
            + "\n"
            + "\n".join(
                f"{name}:{field_digests[name]}" for name in sorted(field_digests)
            )
        )
        return field_digests, digest

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON representation (digests included for fast diffing)."""
        return {
            "label": self.label,
            "digest": self.digest,
            "field_digests": dict(self.field_digests),
            "fields": {name: dict(leaves) for name, leaves in self.fields.items()},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Checkpoint":
        """Inverse of :meth:`to_dict`.

        Digests are *recomputed* from the stored leaves, never trusted:
        a hand-edited leaf therefore shifts this checkpoint's digest,
        fails the artifact's final-digest check in
        :meth:`FlightRecorder.from_payload`, and is rejected.
        """
        label = str(data.get("label", ""))
        fields = {
            str(name): {str(leaf): str(value) for leaf, value in leaves.items()}
            for name, leaves in data.get("fields", {}).items()
        }
        field_digests, digest = cls._hash(label, fields)
        return cls(
            label=label,
            fields=fields,
            field_digests=field_digests,
            digest=digest,
        )


def final_checkpoint(
    open_facilities: Iterable[int],
    assignment: Any,
    num_facilities: int,
    num_clients: int,
) -> Checkpoint:
    """The canonical ``final`` checkpoint of a solution, for every engine.

    ``assignment`` is a client→facility mapping (clients it lacks count
    as unassigned, ``-1``) or an ``(n,)`` array of facility ids. Built
    from the solution alone, so ``repro solve --digest`` prints the same
    digest a recording of the run ends with.
    """
    open_set = {int(i) for i in open_facilities}
    if isinstance(assignment, Mapping):
        served = [int(assignment.get(j, -1)) for j in range(num_clients)]
    else:
        served = [int(assignment[j]) for j in range(num_clients)]
    return Checkpoint.build(
        "final",
        {
            "open": {
                f"facility:{i}": i in open_set for i in range(num_facilities)
            },
            "assignment": {
                f"client:{j}": facility for j, facility in enumerate(served)
            },
        },
    )


class FlightRecorder:
    """Collects digested checkpoints (and optionally provenance) of one run.

    Parameters
    ----------
    engine:
        Which engine produced the recording (``"loop"``, ``"columnar"``
        or ``"simulator"``) — recordings carry their origin so diffs are
        attributable.
    full:
        Also log the causal provenance DAG
        (:class:`~repro.obs.provenance.ProvenanceLog`). Only the loop
        engine populates it — it is the oracle with the global view; the
        digest plane covers every engine either way.
    config:
        Arbitrary JSON-safe run configuration embedded in the artifact;
        :func:`record_run` stores the full solve recipe (including the
        instance), which is what makes ``repro replay`` hermetic.
    """

    def __init__(
        self,
        engine: str,
        full: bool = False,
        config: Mapping[str, Any] | None = None,
    ) -> None:
        self.engine = str(engine)
        self.full = bool(full)
        self.config: dict[str, Any] = dict(config or {})
        self.checkpoints: list[Checkpoint] = []
        self.provenance: ProvenanceLog | None = (
            ProvenanceLog() if self.full else None
        )
        self._phases: tuple[str, Any, int, int] | None = None

    # ------------------------------------------------------------------
    # Observation API (engines call these)
    # ------------------------------------------------------------------

    def observe(self, label: str, fields: Mapping[str, Mapping[str, Any]]) -> None:
        """Digest one state snapshot under ``label``."""
        self.checkpoints.append(Checkpoint.build(label, fields))

    def observe_final(
        self,
        open_facilities: Iterable[int],
        assignment: Any,
        num_facilities: int,
        num_clients: int,
    ) -> None:
        """The canonical end-of-run checkpoint, identical for every engine."""
        self.checkpoints.append(
            final_checkpoint(
                open_facilities, assignment, num_facilities, num_clients
            )
        )

    def final_digest(self) -> str:
        """Merkle root over every checkpoint digest, in recording order."""
        return _digest(
            "\n".join(f"{c.label}:{c.digest}" for c in self.checkpoints)
        )

    # ------------------------------------------------------------------
    # Simulator integration
    # ------------------------------------------------------------------

    def bind_simulator_phases(
        self, variant: str, params: Any, num_facilities: int, num_clients: int
    ) -> None:
        """Teach the recorder the run's round schedule.

        Called by :class:`~repro.core.algorithm.DistributedFacilityLocation`
        before the run; without it :meth:`on_simulator_round` records only
        the raw ``sim:round:<r>`` plane, not the emulation-aligned labels.
        """
        self._phases = (str(variant), params, int(num_facilities), int(num_clients))

    def on_simulator_round(self, simulator: Any, round_number: int) -> None:
        """Record one simulator round: message plane + aligned state.

        The ``sim:round:<r>`` checkpoint carries the full per-round node
        state and every message submitted this round, keyed by kind —
        two simulator recordings bisect down to the first divergent
        message. When the round is a protocol alignment point (greedy
        DECIDE, dual FREEZE / rounding decision), the matching emulation
        label is also emitted so simulator and emulation recordings
        cross-diff.
        """
        fields: dict[str, dict[str, Any]] = {}
        occurrence: dict[tuple[int, int, str], int] = {}
        for message in simulator.pending_messages:
            key = (message.sender, message.receiver, message.kind)
            index = occurrence.get(key, 0)
            occurrence[key] = index + 1
            leaves = fields.setdefault(f"messages:{message.kind}", {})
            leaves[f"{message.sender}->{message.receiver}#{index}"] = [
                [name, message.payload[name]] for name in sorted(message.payload)
            ]
        if self._phases is not None:
            fields.update(self._node_state_fields(simulator.nodes))
        self.observe(f"sim:round:{round_number}", fields)
        if self._phases is None or round_number < 1:
            return
        variant, params, m, n = self._phases
        nodes = simulator.nodes
        if variant == "greedy":
            from repro.core.greedy_nodes import phase_of_round

            phase, iteration = phase_of_round(params, round_number)
            if phase == "decide":
                assignment: dict[int, int] = {}
                for i in range(m):
                    for client in sorted(nodes[i].served_clients):
                        assignment.setdefault(client - m, i)
                self.observe(
                    f"greedy:iter:{iteration}",
                    {
                        "open": {
                            f"facility:{i}": nodes[i].is_open for i in range(m)
                        },
                        "assignment": {
                            f"client:{j}": assignment.get(j, -1) for j in range(n)
                        },
                    },
                )
        else:
            from repro.core.dual_ascent_nodes import dual_phase_of_round

            phase, level = dual_phase_of_round(params, round_number)
            if phase == "freeze":
                self.observe(
                    f"dual:level:{level}",
                    {
                        "alpha": {
                            f"client:{j}": nodes[m + j].alpha for j in range(n)
                        },
                        "frozen": {
                            f"client:{j}": nodes[m + j].frozen for j in range(n)
                        },
                        "witnesses": {
                            f"client:{j}": sorted(nodes[m + j].witnesses)
                            for j in range(n)
                        },
                        "tight": {
                            f"facility:{i}": nodes[i].is_tight for i in range(m)
                        },
                    },
                )
            elif phase == "round2":
                self.observe(
                    "dual:rounding",
                    {
                        "open": {
                            f"facility:{i}": nodes[i].is_open for i in range(m)
                        }
                    },
                )

    def _node_state_fields(self, nodes: Any) -> dict[str, dict[str, Any]]:
        """Per-round node state of the ``sim:round:<r>`` plane."""
        variant, _params, m, n = self._phases  # type: ignore[misc]
        fields: dict[str, dict[str, Any]] = {
            "open": {f"facility:{i}": nodes[i].is_open for i in range(m)},
            "assignment": {
                f"client:{j}": (
                    -1
                    if nodes[m + j].connected_to is None
                    else nodes[m + j].connected_to
                )
                for j in range(n)
            },
        }
        if variant != "greedy":
            fields["alpha"] = {f"client:{j}": nodes[m + j].alpha for j in range(n)}
            fields["frozen"] = {
                f"client:{j}": nodes[m + j].frozen for j in range(n)
            }
            fields["tight"] = {
                f"facility:{i}": nodes[i].is_tight for i in range(m)
            }
        return fields

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_payload(self) -> dict[str, Any]:
        """JSON-safe artifact: schema tag, config, checkpoints, provenance."""
        payload: dict[str, Any] = {
            "schema": RECORDING_SCHEMA,
            "engine": self.engine,
            "full": self.full,
            "config": dict(self.config),
            "final_digest": self.final_digest(),
            "checkpoints": [c.to_dict() for c in self.checkpoints],
        }
        if self.provenance is not None:
            payload["provenance"] = self.provenance.to_payload()
        return payload

    @classmethod
    def from_payload(cls, data: Mapping[str, Any]) -> "FlightRecorder":
        """Inverse of :meth:`to_payload`; validates schema and Merkle root."""
        if data.get("schema") != RECORDING_SCHEMA:
            raise ReproError(
                f"not a flight recording (schema {data.get('schema')!r}, "
                f"expected {RECORDING_SCHEMA!r})"
            )
        recorder = cls(
            engine=str(data.get("engine", "?")),
            full=bool(data.get("full", False)),
            config=data.get("config", {}),
        )
        recorder.checkpoints = [
            Checkpoint.from_dict(item) for item in data.get("checkpoints", ())
        ]
        if recorder.provenance is not None:
            recorder.provenance = ProvenanceLog.from_payload(
                data.get("provenance", ())
            )
        stored = data.get("final_digest")
        if stored is not None and stored != recorder.final_digest():
            raise ReproError(
                "recording failed its Merkle-root check: stored final digest "
                f"{stored} != recomputed {recorder.final_digest()} "
                "(artifact corrupted or hand-edited)"
            )
        return recorder

    def write_json(self, path: str | Path) -> Path:
        """Write the recording artifact as pretty-printed JSON."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(self.to_payload(), indent=2, sort_keys=True) + "\n"
        )
        return target


def load_recording(path: str | Path) -> FlightRecorder:
    """Read a recording written by :meth:`FlightRecorder.write_json`."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise ReproError(f"cannot read recording {path}: {error}") from error
    if not isinstance(data, Mapping):
        raise ReproError(f"recording {path} is not a JSON object")
    return FlightRecorder.from_payload(data)


# ----------------------------------------------------------------------
# Diffing / divergence bisection
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DivergenceReport:
    """Outcome of :func:`diff_recordings`: identical, or bisected to a leaf.

    ``label``/``field``/``leaf`` name the *first* divergent checkpoint,
    the first differing field inside it, and the first differing leaf
    (numeric-aware order, so ``client:2`` is checked before
    ``client:10``); ``left_value``/``right_value`` are the canonical
    value strings on each side (``None`` = leaf absent on that side).
    Labels present in only one recording are inventoried in
    ``left_only``/``right_only`` but are not divergences — a simulator
    recording legitimately carries ``sim:round:*`` labels an emulation
    recording lacks.
    """

    identical: bool
    left_engine: str
    right_engine: str
    compared: int
    label: str | None = None
    field: str | None = None
    leaf: str | None = None
    left_value: str | None = None
    right_value: str | None = None
    left_only: tuple[str, ...] = ()
    right_only: tuple[str, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON representation (``repro divergence --json``)."""
        return {
            "identical": self.identical,
            "left_engine": self.left_engine,
            "right_engine": self.right_engine,
            "compared": self.compared,
            "label": self.label,
            "field": self.field,
            "leaf": self.leaf,
            "left_value": self.left_value,
            "right_value": self.right_value,
            "left_only": list(self.left_only),
            "right_only": list(self.right_only),
        }

    def render(self) -> str:
        """Human-readable report (what ``repro divergence`` prints)."""
        if self.identical:
            lines = [
                f"recordings are digest-identical over {self.compared} "
                f"shared checkpoint(s) ({self.left_engine} vs {self.right_engine})"
            ]
        else:
            lines = [
                f"recordings DIVERGE ({self.left_engine} vs {self.right_engine}):",
                f"  first divergent checkpoint: {self.label}",
                f"  field: {self.field}",
                f"  leaf:  {self.leaf}",
                f"  left  ({self.left_engine}): "
                f"{'<absent>' if self.left_value is None else self.left_value}",
                f"  right ({self.right_engine}): "
                f"{'<absent>' if self.right_value is None else self.right_value}",
            ]
        if self.left_only:
            lines.append(
                f"  (left-only checkpoints: {len(self.left_only)}, "
                f"first: {self.left_only[0]})"
            )
        if self.right_only:
            lines.append(
                f"  (right-only checkpoints: {len(self.right_only)}, "
                f"first: {self.right_only[0]})"
            )
        return "\n".join(lines)


def diff_recordings(
    left: FlightRecorder, right: FlightRecorder
) -> DivergenceReport:
    """Compare two recordings; bisect the first mismatch to a single leaf.

    Shared labels are compared in the left recording's order (protocol
    order), so the reported divergence is the *earliest* protocol point
    at which the executions differ — everything after it is fallout.
    """
    right_by_label = {c.label: c for c in right.checkpoints}
    left_labels = {c.label for c in left.checkpoints}
    left_only = tuple(
        c.label for c in left.checkpoints if c.label not in right_by_label
    )
    right_only = tuple(
        c.label for c in right.checkpoints if c.label not in left_labels
    )
    compared = 0
    for checkpoint in left.checkpoints:
        other = right_by_label.get(checkpoint.label)
        if other is None:
            continue
        compared += 1
        if checkpoint.digest == other.digest:
            continue
        field_name, leaf, left_value, right_value = _bisect_checkpoint(
            checkpoint, other
        )
        return DivergenceReport(
            identical=False,
            left_engine=left.engine,
            right_engine=right.engine,
            compared=compared,
            label=checkpoint.label,
            field=field_name,
            leaf=leaf,
            left_value=left_value,
            right_value=right_value,
            left_only=left_only,
            right_only=right_only,
        )
    return DivergenceReport(
        identical=True,
        left_engine=left.engine,
        right_engine=right.engine,
        compared=compared,
        left_only=left_only,
        right_only=right_only,
    )


def _bisect_checkpoint(
    left: Checkpoint, right: Checkpoint
) -> tuple[str | None, str | None, str | None, str | None]:
    """Locate the first differing (field, leaf, value, value) of a mismatch."""
    for name in sorted(set(left.field_digests) | set(right.field_digests)):
        if left.field_digests.get(name) == right.field_digests.get(name):
            continue
        left_leaves = left.fields.get(name, {})
        right_leaves = right.fields.get(name, {})
        for leaf in sorted(
            set(left_leaves) | set(right_leaves), key=leaf_sort_key
        ):
            left_value = left_leaves.get(leaf)
            right_value = right_leaves.get(leaf)
            if left_value != right_value:
                return name, leaf, left_value, right_value
        return name, None, None, None
    return None, None, None, None


# ----------------------------------------------------------------------
# Recording / replaying whole runs
# ----------------------------------------------------------------------


def record_run(
    instance: Any,
    *,
    engine: str,
    k: int,
    variant: str = "greedy",
    seed: int = 0,
    rounding: RoundingPolicy | None = None,
    open_fraction: float = 0.5,
    full: bool = False,
    shards: int = 1,
) -> FlightRecorder:
    """Run one solve under a flight recorder and return the recording.

    The full solve recipe — including the instance itself — is embedded
    in the recording's ``config``, which is what makes
    :func:`replay_recording` hermetic: the artifact alone suffices to
    re-run and digest-check the execution on any machine. ``rounding``
    defaults to ``RoundingPolicy()`` and is recorded as its ``rounding``
    (mode) and ``c_round`` keys. ``shards``
    applies to the columnar engine only — any other engine raises, as
    :func:`~repro.core.algorithm.solve_distributed` does — and, by the
    sharding determinism contract, never changes the resulting digests
    (which replaying a ``shards=4`` recording at ``shards=1`` verifies for
    free).
    """
    from repro.core.algorithm import solve_distributed
    from repro.core.dual_ascent_nodes import RoundingPolicy
    from repro.fl.io import instance_to_dict

    rounding = rounding or RoundingPolicy()

    if engine not in RECORDING_ENGINES:
        raise ReproError(
            f"unknown recording engine {engine!r}; "
            f"expected one of {RECORDING_ENGINES}"
        )
    if full and engine != "loop":
        raise ReproError(
            "full-record mode (causal provenance) requires the loop engine; "
            f"got engine={engine!r}"
        )
    variant = str(getattr(variant, "value", variant))
    config = {
        "engine": engine,
        "k": int(k),
        "variant": variant,
        "seed": int(seed),
        "rounding": rounding.mode,
        "c_round": float(rounding.c_round),
        "open_fraction": float(open_fraction),
        "full": bool(full),
        "instance": instance_to_dict(instance),
    }
    if int(shards) != 1:
        config["shards"] = int(shards)
    recorder = FlightRecorder(engine=engine, full=full, config=config)
    solve_distributed(
        instance,
        k=k,
        variant=variant,
        seed=seed,
        rounding=rounding,
        open_fraction=open_fraction,
        recorder=recorder,
        engine=engine,
        shards=int(shards),
    )
    return recorder


def replay_recording(
    recording: FlightRecorder, engine: str | None = None
) -> FlightRecorder:
    """Re-run a recording's embedded solve recipe; returns the new recording.

    ``engine`` overrides the recorded engine (the cross-engine check:
    replay a loop recording on the columnar engine and diff); the
    recorded shard count carries over only to a columnar replay. Raises
    :class:`~repro.exceptions.ReproError` when the recording embeds no
    instance (e.g. one produced through the service's ``record`` flag —
    re-request it instead).
    """
    config = recording.config
    if "instance" not in config:
        raise ReproError(
            "recording embeds no instance; it cannot be replayed hermetically"
        )
    from repro.core.dual_ascent_nodes import RoundingPolicy
    from repro.fl.io import instance_from_dict

    instance = instance_from_dict(config["instance"])
    engine = engine or str(config.get("engine", recording.engine))
    return record_run(
        instance,
        engine=engine,
        k=int(config.get("k", 9)),
        variant=str(config.get("variant", "greedy")),
        seed=int(config.get("seed", 0)),
        rounding=RoundingPolicy(
            mode=str(config.get("rounding", "select_all")),
            c_round=float(config.get("c_round", 1.0)),
        ),
        open_fraction=float(config.get("open_fraction", 0.5)),
        full=bool(config.get("full", False)),
        shards=int(config.get("shards", 1)) if engine == "columnar" else 1,
    )
