"""Flight recorder: cross-engine determinism, bisection, provenance.

The recorder's whole value rests on three properties, each pinned here:

* **determinism** — the same configuration yields digest-identical
  recordings across engines, across replays, across process boundaries
  (``workers=2``), and with the rest of the observability stack (spans,
  memory profiling) switched on;
* **bisection** — a genuinely divergent run is pinpointed to the exact
  first checkpoint, node and field (exercised through the test-only
  dual-ascent mis-raise hook);
* **zero footprint** — with recording off, solve outputs and service
  responses are byte-identical to a build that has never heard of the
  recorder.
"""

from __future__ import annotations

import json
import pickle

import pytest

import repro.core.sequential_sim as seqsim
from repro.core.algorithm import solve_distributed
from repro.core.dual_ascent_nodes import RoundingPolicy
from repro.exceptions import ReproError
from repro.fl.generators import make_instance
from repro.obs.recorder import (
    FlightRecorder,
    canonical_value,
    diff_recordings,
    load_recording,
    record_run,
    replay_recording,
)
from repro.perf.cache import clear_caches
from repro.perf.executor import SweepExecutor
from repro.service import ServiceClient, SolveService
from repro.service.request import InstanceRecipe, SolveRequest
from repro.service.service import ServiceConfig

CONFIGS = (
    ("greedy", "select_all"),
    ("dual_ascent", "select_all"),
    ("dual_ascent", "randomized"),
)


@pytest.fixture(scope="module")
def instance():
    return make_instance("euclidean", 8, 20, seed=3)


class TestCrossEngineDeterminism:
    @pytest.mark.parametrize("variant,rounding", CONFIGS)
    def test_loop_vs_columnar_zero_divergence(self, instance, variant, rounding):
        rounding = RoundingPolicy(mode=rounding)
        left = record_run(
            instance, engine="loop", k=4, variant=variant, seed=7, rounding=rounding
        )
        right = record_run(
            instance,
            engine="columnar",
            k=4,
            variant=variant,
            seed=7,
            rounding=rounding,
        )
        report = diff_recordings(left, right)
        assert report.identical
        assert report.compared >= 3  # per-iteration/level checkpoints + final
        assert left.final_digest() == right.final_digest()

    @pytest.mark.parametrize("variant", ["greedy", "dual_ascent"])
    def test_simulator_aligns_with_loop(self, instance, variant):
        loop = record_run(instance, engine="loop", k=4, variant=variant, seed=7)
        sim = record_run(instance, engine="simulator", k=4, variant=variant, seed=7)
        report = diff_recordings(loop, sim)
        assert report.identical
        # Every emulation checkpoint has a simulator counterpart; the
        # raw sim:round:* plane is simulator-only, never a divergence.
        assert not report.left_only
        assert all(label.startswith("sim:round:") for label in report.right_only)

    def test_replay_is_digest_identical(self, instance, tmp_path):
        recording = record_run(
            instance, engine="loop", k=4, variant="greedy", seed=7, full=True
        )
        path = recording.write_json(tmp_path / "run.rec.json")
        loaded = load_recording(path)
        assert loaded.final_digest() == recording.final_digest()
        replayed = replay_recording(loaded)
        assert diff_recordings(loaded, replayed).identical
        assert replayed.final_digest() == recording.final_digest()

    def test_cross_engine_replay(self, instance):
        recording = record_run(instance, engine="loop", k=4, seed=7)
        replayed = replay_recording(recording, engine="columnar")
        assert replayed.engine == "columnar"
        assert diff_recordings(recording, replayed).identical

    def test_recording_from_removed_engine_loads_diffs_and_replays(self, instance):
        """Recordings tagged with the deleted dense ``vectorized`` engine
        stay readable: they load and diff, and replay on columnar; a
        replay on their own engine is refused as unknown."""
        payload = record_run(instance, engine="loop", k=4, seed=7).to_payload()
        payload["engine"] = payload["config"]["engine"] = "vectorized"
        old = FlightRecorder.from_payload(payload)
        assert old.engine == "vectorized"
        assert diff_recordings(old, record_run(instance, engine="loop", k=4, seed=7)).identical
        assert diff_recordings(old, replay_recording(old, engine="columnar")).identical
        with pytest.raises(ReproError, match="unknown recording engine 'vectorized'"):
            replay_recording(old)


class TestDivergenceBisection:
    def test_perturbed_dual_raise_is_pinpointed(self, instance, monkeypatch):
        """A single forced alpha mis-raise is bisected to its exact
        level and client — the issue's acceptance scenario."""
        baseline = record_run(
            instance, engine="columnar", k=4, variant="dual_ascent", seed=7
        )
        perturbed_clients: list[int] = []

        def mis_raise(level: int, client: int, value: float) -> float:
            if level == 2:
                perturbed_clients.append(client)
                return value * (1 + 1e-6)
            return value

        monkeypatch.setattr(seqsim, "_TEST_DUAL_ALPHA_RAISE_HOOK", mis_raise)
        perturbed = record_run(
            instance, engine="loop", k=4, variant="dual_ascent", seed=7
        )
        assert perturbed_clients, "hook never fired; test is vacuous"
        report = diff_recordings(perturbed, baseline)
        assert not report.identical
        assert report.label == "dual:level:2"  # exact first divergent round
        assert report.field == "alpha"
        assert report.leaf == f"client:{min(perturbed_clients)}"  # exact node
        assert report.left_value != report.right_value
        rendered = report.render()
        assert "first divergent checkpoint: dual:level:2" in rendered

    def test_unperturbed_hook_restores_identity(self, instance):
        # Guard against hook leakage between tests.
        assert seqsim._TEST_DUAL_ALPHA_RAISE_HOOK is None
        left = record_run(
            instance, engine="loop", k=4, variant="dual_ascent", seed=7
        )
        right = record_run(
            instance, engine="columnar", k=4, variant="dual_ascent", seed=7
        )
        assert diff_recordings(left, right).identical

    def test_tampered_artifact_is_rejected(self, instance):
        payload = record_run(instance, engine="loop", k=4, seed=7).to_payload()
        checkpoint = payload["checkpoints"][0]
        field = next(iter(checkpoint["fields"]))
        leaf = next(iter(checkpoint["fields"][field]))
        checkpoint["fields"][field][leaf] = "tampered"
        with pytest.raises(ReproError):
            FlightRecorder.from_payload(payload)


class TestProvenance:
    def test_explains_an_opened_facility(self, instance):
        recording = record_run(instance, engine="loop", k=4, seed=7, full=True)
        final = recording.checkpoints[-1]
        opened = [
            leaf
            for leaf, value in final.fields["open"].items()
            if value == "true"
        ]
        assert opened
        log = recording.provenance
        assert log is not None
        explanation = log.explain(opened[0])
        assert explanation.startswith(f"why {opened[0]} ->")
        assert "propose" in explanation or "force" in explanation

    def test_full_mode_requires_loop_engine(self, instance):
        with pytest.raises(ReproError, match="requires the loop engine"):
            record_run(instance, engine="columnar", k=4, seed=7, full=True)

    def test_provenance_survives_payload_roundtrip(self, instance, tmp_path):
        recording = record_run(instance, engine="loop", k=4, seed=7, full=True)
        loaded = load_recording(recording.write_json(tmp_path / "full.rec.json"))
        assert loaded.provenance is not None
        assert len(loaded.provenance.events) == len(recording.provenance.events)

    def test_unknown_actor_raises(self, instance):
        recording = record_run(instance, engine="loop", k=4, seed=7, full=True)
        with pytest.raises(ReproError):
            recording.provenance.explain("facility:999")


class TestProcessBoundaries:
    """Satellite: digests byte-identical across pickling and workers=2."""

    def setup_method(self):
        clear_caches()

    def request(self, record: bool = True) -> SolveRequest:
        return SolveRequest(
            request_id="rec",
            recipe=InstanceRecipe("euclidean", 6, 15, 2),
            k=4,
            seed=7,
            record=record,
        )

    def recording_via(self, workers: int, **config) -> dict:
        clear_caches()
        client = ServiceClient(
            SolveService(
                config=ServiceConfig(**config),
                executor=SweepExecutor(workers=workers),
            )
        )
        (response,) = client.solve_many([self.request()])
        assert response.status == "ok"
        assert response.recording
        return dict(response.recording)

    def test_serial_vs_two_workers_byte_identical(self):
        serial = self.recording_via(workers=1)
        parallel = self.recording_via(workers=2)
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            parallel, sort_keys=True
        )

    def test_spans_and_memory_profiling_change_no_digests(self):
        from repro.obs.spans import Tracer

        plain = self.recording_via(workers=1)
        clear_caches()
        tracer = Tracer()
        service = SolveService(
            config=ServiceConfig(profile_memory=True), tracer=tracer
        )
        client = ServiceClient(service, tracer=tracer)
        (response,) = client.solve_many([self.request()])
        tracer.close()
        assert tracer.finished
        assert json.dumps(dict(response.recording), sort_keys=True) == json.dumps(
            plain, sort_keys=True
        )

    def test_recorder_pickles(self):
        instance = make_instance("euclidean", 6, 15, seed=2)
        recording = record_run(instance, engine="loop", k=4, seed=7, full=True)
        clone = pickle.loads(pickle.dumps(recording))
        assert clone.final_digest() == recording.final_digest()
        assert diff_recordings(recording, clone).identical
        assert clone.provenance is not None


class TestZeroFootprint:
    def test_recorder_off_sequential_identical(self, instance):
        for engine in ("loop", "columnar"):
            plain = solve_distributed(instance, k=4, seed=7, engine=engine)
            recorded = solve_distributed(
                instance,
                k=4,
                seed=7,
                engine=engine,
                recorder=FlightRecorder(engine=engine),
            )
            assert plain.open_facilities == recorded.open_facilities
            assert plain.solution.assignment == recorded.solution.assignment

    def test_recorder_off_simulator_identical(self, instance):
        plain = solve_distributed(instance, k=4, seed=7)
        recorded = solve_distributed(
            instance, k=4, seed=7, recorder=FlightRecorder(engine="simulator")
        )
        assert plain.cost == recorded.cost
        assert plain.open_facilities == recorded.open_facilities

    def test_record_flag_keys_separately(self):
        on = SolveRequest(
            request_id="a",
            recipe=InstanceRecipe("uniform", 6, 15, 1),
            record=True,
        )
        off = SolveRequest(
            request_id="b", recipe=InstanceRecipe("uniform", 6, 15, 1)
        )
        assert on.work_key() != off.work_key()
        assert "record" not in off.to_wire()  # byte-stable wire when off
        assert on.to_wire()["record"] is True
        assert SolveRequest.from_wire(on.to_wire()).record is True


class TestCanonicalValues:
    def test_numpy_scalars_match_python(self):
        numpy = pytest.importorskip("numpy")
        assert canonical_value(numpy.float64(0.25)) == canonical_value(0.25)
        assert canonical_value(numpy.int64(7)) == canonical_value(7)
        assert canonical_value(numpy.bool_(True)) == canonical_value(True)

    def test_unsupported_type_raises(self):
        with pytest.raises(ReproError):
            canonical_value(object())
