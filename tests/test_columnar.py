"""Columnar engine: CSR plane, sharding, bit-identity, ledger, service.

The contract under test is the strongest one the repo makes: the
columnar engine — in-process or sharded across worker processes — must
be *byte-identical* to the pure-Python loop oracle: same open sets, same
assignments, same flight-recorder digests at every checkpoint. A deliberate single-client perturbation on the
columnar plane must be pinpointed (level, field, client) by the same
divergence bisection that covers the other engines.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import signal
import threading
import time
import tracemalloc

import numpy as np
import pytest

import repro.core.columnar as columnar
from repro.core.algorithm import solve_distributed
from repro.core.columnar import ColumnarInstance, solve_columnar
from repro.core.dual_ascent_nodes import RoundingPolicy
from repro.core.parameters import TradeoffParameters
from repro.exceptions import AlgorithmError, ReproError
from repro.fl.generators import FAMILIES, make_instance
from repro.net.columnar import ColumnarBitLedger
from repro.net.simulator import InboxPool
from repro.obs.recorder import FlightRecorder, diff_recordings, record_run
from repro.service.request import InstanceRecipe, SolveRequest
from repro.service.server import ServiceProtocol
from repro.service.service import SolveService
from repro.service.worker import ServiceCell, run_service_cell


@pytest.fixture(scope="module")
def instance():
    return make_instance("sparse", 10, 30, seed=11)


def _cell(request: SolveRequest) -> ServiceCell:
    return ServiceCell(
        recipe=request.recipe,
        instance=request.instance,
        k=request.k,
        variant=request.variant,
        seed=request.seed,
        rounding=request.rounding,
        c_round=request.c_round,
        compute_lp=request.compute_lp,
        capture_events=request.capture_events,
        record=request.record,
        engine=request.engine,
        shards=request.shards,
    )


def _plane_bytes(cinst: ColumnarInstance) -> int:
    return sum(v.nbytes for v in vars(cinst).values() if isinstance(v, np.ndarray))


class TestColumnarInstance:
    def test_dense_roundtrip_is_lossless(self, instance):
        cinst = ColumnarInstance.from_instance(instance)
        back = cinst.to_instance()
        assert np.array_equal(back.opening_costs, instance.opening_costs)
        assert np.array_equal(
            np.isfinite(back.connection_costs),
            np.isfinite(instance.connection_costs),
        )
        again = ColumnarInstance.from_instance(back)
        for name in ("fac_ptr", "g_fac", "g_cli", "g_cost", "cli_ptr",
                     "cli_fac", "cli_cost", "cli_edge"):
            assert np.array_equal(getattr(again, name), getattr(cinst, name))

    def test_generate_sparse_native(self):
        cinst = ColumnarInstance.generate_sparse(
            20, 100, seed=3, client_degree=3
        )
        assert cinst.m == 20 and cinst.n == 100
        assert cinst.num_edges == 300
        assert np.array_equal(cinst.client_degrees, np.full(100, 3))
        assert cinst.g_cost.min() >= 0.1 and cinst.g_cost.max() < 1.0
        # Per-client facility lists carry no duplicates.
        for j in range(cinst.n):
            facs = cinst.cli_fac[cinst.cli_ptr[j] : cinst.cli_ptr[j + 1]]
            assert len(set(facs.tolist())) == 3

    @pytest.mark.parametrize(
        ("m", "n", "digest"),
        [
            (200, 9800, "6c0619b27faa7fd357e7896cd28a68289720cef88cc86c295336394f31abd770"),
            (2000, 98000, "b4337b477508d2b09bdb5db324b9452fce9e8d4f3de4f176d437633f2af09087"),
        ],
    )
    def test_generate_sparse_plane_bytes_are_pinned(self, m, n, digest):
        # Digests of the three-lexsort construction; every array must
        # keep its dtype and bytes.
        cinst = ColumnarInstance.generate_sparse(m, n, seed=7)
        h = hashlib.sha256()
        for name, value in vars(cinst).items():
            if isinstance(value, np.ndarray):
                h.update(name.encode())
                h.update(str(value.dtype).encode())
                h.update(value.tobytes())
        assert h.hexdigest() == digest

    def test_generate_sparse_peak_memory(self):
        tracemalloc.start()
        try:
            cinst = ColumnarInstance.generate_sparse(2000, 98000, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * _plane_bytes(cinst)

    def test_from_edges_rejects_out_of_range(self):
        with pytest.raises(AlgorithmError, match="facility index 5"):
            ColumnarInstance.from_edges([1.0], [5], [0], [1.0], num_clients=1)
        with pytest.raises(AlgorithmError, match="facility index -1"):
            ColumnarInstance.from_edges([1.0], [0, -1], [0, 0], [1.0, 1.0], num_clients=1)
        with pytest.raises(AlgorithmError, match="client index 5"):
            ColumnarInstance.from_edges([1.0], [0, 0], [0, 5], [1.0, 1.0], num_clients=1)
        with pytest.raises(AlgorithmError, match="client index -2"):
            ColumnarInstance.from_edges([1.0], [0], [-2], [1.0], num_clients=1)

    def test_from_edges_rejects_keys_beyond_int64(self):
        with pytest.raises(AlgorithmError, match="int64"):
            ColumnarInstance.from_edges([1.0, 1.0], [0], [0], [1.0], num_clients=2**62)

    def test_sparse_instance_matches_densified_solve(self):
        cinst = ColumnarInstance.generate_sparse(12, 60, seed=5)
        native = solve_columnar(cinst, k=6, seed=2)
        dense = solve_distributed(cinst.to_instance(), k=6, seed=2, engine="loop")
        assert native.feasible
        assert native.open_facilities == dense.open_facilities
        assert {
            j: int(f) for j, f in enumerate(native.assignment)
        } == dense.solution.assignment


    def test_solution_cost_rejects_infeasible_assignments(self):
        cinst = ColumnarInstance.generate_sparse(12, 60, seed=5)
        result = solve_columnar(cinst, k=6, seed=2)
        cost = columnar._solution_cost
        assert cost(cinst, result.open_mask, result.assignment) == result.cost
        unassigned = result.assignment.copy()
        unassigned[7] = -1
        with pytest.raises(AlgorithmError, match="client 7 left unassigned"):
            cost(cinst, result.open_mask, unassigned)
        closed = result.open_mask.copy()
        closed[result.assignment[4]] = False
        first = int(np.flatnonzero(result.assignment == result.assignment[4])[0])
        with pytest.raises(AlgorithmError, match=f"client {first} assigned to closed"):
            cost(cinst, closed, result.assignment)
        neighbors = cinst.cli_fac[cinst.cli_ptr[5] : cinst.cli_ptr[6]]
        stranger = result.assignment.copy()
        stranger[5] = min(set(range(cinst.m)) - set(neighbors.tolist()))
        with pytest.raises(AlgorithmError, match="client 5 assigned to non-neighbor"):
            cost(cinst, np.ones(cinst.m, dtype=bool), stranger)

class TestByteIdentity:
    """Solutions and recorder digests, loop vs columnar, shards 1 and 4."""

    @pytest.mark.parametrize("variant", ["greedy", "dual_ascent"])
    @pytest.mark.parametrize("shards", [1, 4])
    def test_solutions_identical(self, instance, variant, shards):
        loop = solve_distributed(
            instance, k=5, variant=variant, seed=3, engine="loop"
        )
        sharded = solve_distributed(
            instance, k=5, variant=variant, seed=3, engine="columnar",
            shards=shards,
        )
        assert loop.open_facilities == sharded.open_facilities
        assert loop.solution.assignment == sharded.solution.assignment
        # Canonical (client-sorted) summation makes even the float total
        # identical, not merely close.
        assert loop.cost == sharded.cost

    @pytest.mark.parametrize("variant", ["greedy", "dual_ascent"])
    @pytest.mark.parametrize("shards", [1, 4])
    def test_recorder_digests_identical(self, instance, variant, shards):
        oracle = record_run(
            instance, engine="loop", k=4, variant=variant, seed=7
        )
        col = record_run(
            instance, engine="columnar", k=4, variant=variant, seed=7,
            shards=shards,
        )
        assert len(col.checkpoints) == len(oracle.checkpoints)
        assert col.final_digest() == oracle.final_digest()
        assert diff_recordings(oracle, col).identical

    def test_shards_never_change_digests(self, instance):
        one = record_run(instance, engine="columnar", k=4, seed=2, shards=1)
        four = record_run(instance, engine="columnar", k=4, seed=2, shards=4)
        assert one.final_digest() == four.final_digest()

    def test_only_columnar_shards(self, instance):
        with pytest.raises(AlgorithmError, match="does not shard"):
            solve_distributed(instance, k=4, engine="loop", shards=2)


class TestBlockBoundaries:
    """Blocks too small to divide the slices evenly change no output byte."""

    @staticmethod
    def _solve(cinst, variant, rounding, shards):
        recorder = FlightRecorder(engine="columnar")
        result = solve_columnar(
            cinst, k=5, variant=variant, seed=3, rounding=rounding,
            shards=shards, recorder=recorder,
        )
        return result, recorder.final_digest()

    @pytest.mark.parametrize(
        ("family", "m", "n", "seed"), [("sparse", 10, 33, 11), ("euclidean", 8, 21, 3)]
    )
    @pytest.mark.parametrize(
        ("variant", "mode"),
        [("greedy", "select_all"), ("dual_ascent", "select_all"), ("dual_ascent", "randomized")],
    )
    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize(("facility_edges", "clients"), [(1, 5), (64, 5)])
    def test_tiny_blocks_change_nothing(
        self, monkeypatch, family, m, n, seed, variant, mode, shards, facility_edges, clients
    ):
        instance = make_instance(family, m, n, seed=seed)
        cinst = ColumnarInstance.from_instance(instance)
        # A small c_round leaves randomized rounding to the coins.
        rounding = RoundingPolicy(mode=mode, c_round=0.05)
        whole, whole_digest = self._solve(cinst, variant, rounding, 1)
        oracle = FlightRecorder(engine="loop")
        loop = solve_distributed(
            instance, k=5, variant=variant, seed=3, rounding=rounding, engine="loop",
            recorder=oracle,
        )
        efficiency = columnar.columnar_efficiency_range(cinst)

        monkeypatch.setattr(columnar, "_FACILITY_BLOCK_EDGES", facility_edges)
        monkeypatch.setattr(columnar, "_CLIENT_BLOCK", clients)
        assert len(columnar._facility_blocks(cinst, 0, cinst.m)) > 1
        blocked, digest = self._solve(cinst, variant, rounding, shards)

        for name in ("open_mask", "assignment"):
            assert getattr(blocked, name).tobytes() == getattr(whole, name).tobytes()
        assert blocked.open_facilities == loop.open_facilities
        assert {j: int(f) for j, f in enumerate(blocked.assignment)} == loop.solution.assignment
        assert blocked.cost == whole.cost == loop.cost
        assert blocked.metrics == whole.metrics
        assert digest == whole_digest == oracle.final_digest()
        assert columnar.columnar_efficiency_range(cinst) == efficiency


class TestNarrowedBlockBoundaries:
    """Greedy views narrowed to the active clients, across tiny blocks and
    shards: a facility block can lose every edge (a width-0 pad) and a
    shard's offer views can empty, and still no output byte moves."""

    @staticmethod
    def _solve(cinst, k, shards):
        recorder = FlightRecorder(engine="columnar")
        result = solve_columnar(cinst, k=k, seed=3, shards=shards, recorder=recorder)
        return result, recorder.final_digest()

    @pytest.mark.parametrize(("m", "n", "seed", "k"), [(10, 33, 11, 5), (12, 40, 5, 12)])
    def test_narrowing_changes_nothing(self, monkeypatch, m, n, seed, k):
        instance = make_instance("sparse", m, n, seed=seed)
        cinst = ColumnarInstance.from_instance(instance)
        oracle = FlightRecorder(engine="loop")
        solve_distributed(instance, k=k, seed=3, engine="loop", recorder=oracle)
        whole, whole_digest = self._solve(cinst, k, 1)
        assert whole_digest == oracle.final_digest()

        narrowings: list[np.ndarray] = []
        width_zero: list[bool] = []
        narrow = columnar._narrow_to_active

        def watched(cinst_, fblocks, offers, s):
            narrowings.append(s["active"].copy())
            narrow(cinst_, fblocks, offers, s)
            width_zero.append(any(pad.valid.shape[1] == 0 for _, _, pad in fblocks))

        monkeypatch.setattr(columnar, "_narrow_to_active", watched)
        for facility_edges, clients in [(1, 5), (64, 5)]:
            monkeypatch.setattr(columnar, "_FACILITY_BLOCK_EDGES", facility_edges)
            monkeypatch.setattr(columnar, "_CLIENT_BLOCK", clients)
            for shards in (1, 3):
                narrowings.clear()
                width_zero.clear()
                blocked, digest = self._solve(cinst, k, shards)
                # The sharded parent runs the schedule over empty slices,
                # so it takes every narrowing decision its workers take.
                assert len(narrowings) >= 2
                for name in ("open_mask", "assignment"):
                    assert getattr(blocked, name).tobytes() == getattr(whole, name).tobytes()
                assert blocked.cost == whole.cost
                assert dataclasses.asdict(blocked.metrics) == dataclasses.asdict(whole.metrics)
                assert digest == oracle.final_digest()
                if shards == 1 and facility_edges == 1:
                    assert any(width_zero), "no facility block lost every edge"
                if shards == 3:
                    emptied = [
                        not active[c0:c1].any()
                        for active in narrowings
                        for c0, c1 in columnar._split_ranges(cinst.n, 3)
                    ]
                    assert any(emptied), "no shard's active-client list emptied"


class TestFrontierWork:
    """Kernel work follows the frontier, counted by wrapping the phase
    functions: greedy edge visits track the active edges, and dual
    passes stop at the fixed point."""

    @pytest.fixture(scope="class")
    def cinst(self):
        return ColumnarInstance.generate_sparse(300, 9700, seed=5)

    @pytest.mark.parametrize("k", [8, 16])
    def test_greedy_visits_follow_active_edges(self, monkeypatch, cinst, k):
        degrees = cinst.client_degrees
        active_edges: list[int] = []
        facility_visits: list[int] = []
        offer_visits: list[int] = []
        facility_phase = columnar._greedy_facility_phase
        offer_phase = columnar._greedy_client_offer_phase

        def facility(cinst_, pad, params, scale, coins, f0, f1, **state):
            if f0 == 0:  # the first block opens an iteration
                active_edges.append(int(degrees[state["active"]].sum()))
                facility_visits.append(0)
                offer_visits.append(0)
            facility_visits[-1] += int(pad.valid.sum())
            return facility_phase(cinst_, pad, params, scale, coins, f0, f1, **state)

        def offer(cinst_, view, **state):
            offer_visits[-1] += int(view.segments(cinst_)[1].sum())
            return offer_phase(cinst_, view, **state)

        # With narrowing switched off the same solve must give the same bytes.
        ratio = columnar._NARROW_RATIO
        monkeypatch.setattr(columnar, "_NARROW_RATIO", cinst.n + 1)
        wide = solve_columnar(cinst, k=k, seed=1)
        monkeypatch.setattr(columnar, "_NARROW_RATIO", ratio)
        monkeypatch.setattr(columnar, "_greedy_facility_phase", facility)
        monkeypatch.setattr(columnar, "_greedy_client_offer_phase", offer)
        result = solve_columnar(cinst, k=k, seed=1)
        assert len(active_edges) >= 3
        assert facility_visits[0] == offer_visits[0] == cinst.num_edges
        later = sum(active_edges[1:])
        assert sum(facility_visits[1:]) <= 2 * later
        assert sum(offer_visits[1:]) <= 2 * later
        # Every pass over the whole plane would visit far more.
        assert 2 * later < (len(active_edges) - 1) * cinst.num_edges
        assert wide.open_mask.tobytes() == result.open_mask.tobytes()
        assert wide.assignment.tobytes() == result.assignment.tobytes()
        assert wide.metrics == result.metrics

    @pytest.mark.parametrize("k", [8, 16])
    def test_no_dual_pass_after_the_fixed_point(self, monkeypatch, cinst, k):
        events: list[str] = []
        settled_at: list[str] = []

        def counted(name):
            phase = getattr(columnar, name)

            def wrapper(*args, **kwargs):
                events.append(name)
                return phase(*args, **kwargs)

            monkeypatch.setattr(columnar, name, wrapper)

        for name in (
            "_dual_client_alpha_phase", "_dual_facility_phase", "_dual_client_freeze_phase"
        ):
            counted(name)
        observe = columnar._Observer.__call__

        def snapshot(observer, label):
            events.append(label)
            if label.startswith("dual:level:") and observer.s["frozen"].all():
                settled_at.append(label)
            return observe(observer, label)

        monkeypatch.setattr(columnar._Observer, "__call__", snapshot)
        solve_columnar(cinst, k=k, variant="dual_ascent", seed=1)
        levels = [e for e in events if e.startswith("dual:level:")]
        assert levels == [f"dual:level:{level}" for level in range(1, k + 1)]
        assert settled_at and settled_at[0] != levels[-1], "no level after the fixed point"
        after = events[events.index(settled_at[0]) + 1 :]
        assert not [e for e in after if e.startswith("_dual_")]
        assert events.count("_dual_client_alpha_phase") == levels.index(settled_at[0]) + 1


class TestWorkingSet:
    """Solve memory stays within a fixed multiple of the edge plane."""

    @pytest.fixture(scope="class")
    def cinst(self):
        return ColumnarInstance.generate_sparse(2000, 98000, seed=7)

    @pytest.mark.parametrize("variant", ["greedy", "dual_ascent"])
    def test_solve_peak_is_bounded_by_the_plane(self, cinst, variant):
        # Measured: 1.02x (greedy) and 0.80x (dual) with blocked kernels,
        # against 1.88x and 1.39x when every phase spanned the whole plane.
        tracemalloc.start()
        try:
            solve_columnar(cinst, k=8, variant=variant, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * _plane_bytes(cinst)

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="needs POSIX shared memory in /dev/shm"
    )
    def test_shared_segment_holds_only_the_state(self, monkeypatch):
        cinst = ColumnarInstance.generate_sparse(200, 9800, seed=7)
        created: list[int] = []
        base = columnar.shared_memory.SharedMemory

        class Recording(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                if kwargs.get("create"):
                    created.append(self.size)

        monkeypatch.setattr(columnar.shared_memory, "SharedMemory", Recording)
        solve_columnar(cinst, k=8, seed=1, shards=2)
        assert len(created) == 1
        assert created[0] < _plane_bytes(cinst)


@pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="needs POSIX shared memory in /dev/shm"
)
class TestDeadShard:
    """A shard killed mid-solve fails the run promptly and leaks nothing."""

    def test_sigkilled_shard_raises_and_cleans_up(self):
        cinst = ColumnarInstance.generate_sparse(8000, 72000, seed=1)
        segments_before = set(os.listdir("/dev/shm"))
        children_before = set(multiprocessing.active_children())
        killed: list[int] = []

        def kill_first_shard() -> None:
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                shards = set(multiprocessing.active_children()) - children_before
                if shards:
                    pid = min(shard.pid for shard in shards)
                    os.kill(pid, signal.SIGKILL)
                    killed.append(pid)
                    return
                time.sleep(0.001)

        killer = threading.Thread(target=kill_first_shard, daemon=True)
        killer.start()
        start = time.monotonic()
        with pytest.raises(AlgorithmError, match=r"shard \d: worker exited with code -9"):
            solve_columnar(cinst, k=8, shards=2)
        assert time.monotonic() - start < 30
        killer.join(5)
        assert killed
        assert set(multiprocessing.active_children()) <= children_before
        assert set(os.listdir("/dev/shm")) <= segments_before


class TestDivergenceBisection:
    """A deliberate mis-raise on the columnar plane must be pinpointed."""

    def test_columnar_perturbation_is_bisected(self, monkeypatch):
        # The euclidean geometry keeps clients unfrozen past level 1, so
        # a level-2 mis-raise has somewhere to land (the sparse fixture
        # freezes everyone at level 1).
        instance = make_instance("euclidean", 8, 20, seed=3)
        baseline = record_run(
            instance, engine="loop", k=4, variant="dual_ascent", seed=7
        )
        perturbed_clients: list[int] = []

        def mis_raise(level, client, value):
            if level == 2:
                perturbed_clients.append(client)
                return value * (1 + 1e-6)
            return value

        monkeypatch.setattr(
            columnar, "_TEST_COLUMNAR_DUAL_ALPHA_RAISE_HOOK", mis_raise
        )
        perturbed = record_run(
            instance, engine="columnar", k=4, variant="dual_ascent", seed=7
        )
        assert perturbed_clients, "hook never fired; test is vacuous"
        report = diff_recordings(perturbed, baseline)
        assert not report.identical
        assert report.label == "dual:level:2"
        assert report.field == "alpha"
        assert report.leaf == f"client:{min(perturbed_clients)}"
        assert report.left_value != report.right_value

    def test_unperturbed_hook_restores_identity(self, instance):
        assert columnar._TEST_COLUMNAR_DUAL_ALPHA_RAISE_HOOK is None
        left = record_run(
            instance, engine="columnar", k=4, variant="dual_ascent", seed=7
        )
        right = record_run(
            instance, engine="loop", k=4, variant="dual_ascent", seed=7
        )
        assert diff_recordings(left, right).identical


def _traffic(result) -> tuple[dict, list[tuple[int, int, int, int]]]:
    """A run's metrics summary and every round's (round, messages, bits, drops)."""
    timeline = [(e.round_number, e.messages, e.bits, e.drops) for e in result.timeline]
    return result.metrics.summary(), timeline


class TestColumnarBitLedger:
    @pytest.fixture()
    def params(self):
        # 4 proposal iterations (2 scales x 2 settle) and 3 ascent levels.
        instance = make_instance("uniform", 4, 10, seed=0)
        return {
            "greedy": TradeoffParameters.from_instance(instance, 4),
            "dual_ascent": TradeoffParameters.linear(instance, 3),
        }

    def test_counts_accumulate(self, params):
        ledger = ColumnarBitLedger(params["greedy"])
        ledger.greedy_iteration(1, active_edges=20, proposals=4, offers=3, served=3)
        ledger.greedy_force(probes=6, open_ads=2, leftover=2, forced=1)
        metrics = ledger.metrics
        assert metrics.rounds == 4 * 4 + 5
        assert dict(metrics.messages_by_kind) == {
            "act": 20, "prp": 4, "acc": 3, "srv": 3 + 2,
            "prb": 6, "oad": 2, "join": 1, "frc": 1,
        }
        # A 3-character tag is 24 bits; "join" 32; a float payload 64 more.
        assert metrics.total_bits == 24 * (20 + 3 + 5 + 6 + 2 + 1) + 88 * 4 + 32
        assert metrics.max_message_bits == 88
        assert metrics.max_messages_per_round == 20

    def test_greedy_run_without_leftovers_ends_a_round_sooner(self, params):
        ledger = ColumnarBitLedger(params["greedy"])
        ledger.greedy_force(probes=0, open_ads=0, leftover=0, forced=0)
        assert ledger.metrics.rounds == 4 * 4 + 4
        assert ledger.metrics.total_messages == 0

    def test_timeline_entries_are_engine_tagged(self, params):
        ledger = ColumnarBitLedger(params["dual_ascent"])
        ledger.dual_level(1, unfrozen_edges=20, tight_edges=5)
        ledger.dual_rounding(clients=10, open_ads=5, forced=2)
        timeline = ledger.timeline
        assert [entry.round_number for entry in timeline] == list(range(3 * 3 + 5 + 1))
        # Setup, FREEZE rounds and the last rounding round send nothing.
        assert [entry.messages for entry in timeline] == [
            0, 20, 5, 0, 0, 0, 0, 0, 0, 0, 10, 5, 10, 10, 0,
        ]
        for entry in timeline:
            assert entry.engine == "columnar"
            assert entry.wall_ms == 0.0
            assert entry.alive == 14

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("k", [1, 4, 9, 16])
    def test_tight_charges_match_the_simulator(self, family, k):
        # Each tight facility announces once, to every neighbour.
        instance = make_instance(family, 10, 36, seed=3)
        ledger, simulator = (
            solve_distributed(instance, k, "dual_ascent", seed=1, engine=engine).metrics
            for engine in ("columnar", "simulator")
        )
        assert simulator.messages_by_kind["tgt"] > 0
        assert ledger.messages_by_kind["tgt"] == simulator.messages_by_kind["tgt"]

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("k", [1, 4, 9, 16])
    @pytest.mark.parametrize("seed", [1, 3])
    @pytest.mark.parametrize("variant", ["greedy", "dual_ascent"])
    def test_traffic_equals_the_simulator(self, variant, seed, k, family):
        instance = make_instance(family, 10, 36, seed=seed)
        ledger, simulator = (
            _traffic(solve_distributed(instance, k, variant, seed=seed, engine=engine))
            for engine in ("columnar", "simulator")
        )
        assert ledger == simulator

    @pytest.mark.parametrize("variant", ["greedy", "dual_ascent"])
    def test_sharded_traffic_equals_the_simulator(self, variant):
        instance = make_instance("set_cover", 10, 36, seed=3)
        sharded = solve_distributed(
            instance, 1, variant, seed=3, engine="columnar", shards=2
        )
        simulator = solve_distributed(instance, 1, variant, seed=3)
        assert _traffic(sharded) == _traffic(simulator)

    def test_forced_rounding_traffic_equals_the_simulator(self):
        # A small rounding constant leaves clients to force a witness open.
        instance = make_instance("uniform", 10, 36, seed=3)
        rounding = RoundingPolicy("randomized", c_round=0.05)
        ledger, simulator = (
            solve_distributed(
                instance, 4, "dual_ascent", seed=3, engine=engine, rounding=rounding
            )
            for engine in ("columnar", "simulator")
        )
        assert simulator.metrics.messages_by_kind["frc"] > 0
        assert _traffic(ledger) == _traffic(simulator)

    def test_solve_columnar_populates_metrics(self):
        cinst = ColumnarInstance.generate_sparse(8, 40, seed=1)
        result = solve_columnar(cinst, k=5, seed=0)
        assert result.metrics is not None
        assert result.metrics.rounds > 0
        assert result.metrics.total_messages > 0
        assert len(result.timeline) == result.metrics.rounds + 1


class TestInboxPool:
    def test_acquire_release_reuses_lists(self):
        pool = InboxPool()
        first = pool.acquire()
        first.append("x")
        assert pool.pooled == 0
        pool.release_all()
        assert pool.pooled == 1
        second = pool.acquire()
        assert second is first
        assert second == []


class TestServiceEngineSelection:
    def test_default_work_key_and_wire_unchanged(self):
        recipe = InstanceRecipe("uniform", 8, 24, 3)
        base = SolveRequest(request_id="a", recipe=recipe, k=6)
        assert len(base.work_key()) == 9  # pre-engine shape
        assert "engine" not in base.to_wire()
        assert "shards" not in base.to_wire()

    def test_removed_dense_engine_is_refused_on_the_wire(self):
        """The deleted dense engine is rejected, not aliased to columnar."""
        protocol = ServiceProtocol(SolveService())
        recipe = {"family": "uniform", "m": 8, "n": 24, "seed": 3}
        (ack,) = protocol.handle(
            {"type": "solve", "request_id": "old", "recipe": recipe,
             "k": 6, "engine": "vectorized"}
        )
        assert ack == {
            "type": "ack",
            "request_id": "old",
            "accepted": False,
            "reason": "malformed request: unknown engine 'vectorized'; "
            "expected one of ['simulator', 'loop', 'columnar']",
        }

    def test_shards_stay_out_of_the_work_key(self):
        recipe = InstanceRecipe("uniform", 8, 24, 3)
        one = SolveRequest(
            request_id="a", recipe=recipe, k=6, engine="columnar", shards=1
        )
        four = SolveRequest(
            request_id="b", recipe=recipe, k=6, engine="columnar", shards=4
        )
        sim = SolveRequest(request_id="c", recipe=recipe, k=6)
        assert one.work_key() == four.work_key()
        assert one.work_key() != sim.work_key()

    def test_wire_roundtrip(self):
        recipe = InstanceRecipe("uniform", 8, 24, 3)
        request = SolveRequest(
            request_id="a", recipe=recipe, k=6, engine="columnar", shards=2
        )
        wire = request.to_wire()
        assert wire["engine"] == "columnar" and wire["shards"] == 2
        assert SolveRequest.from_wire(wire) == request

    def test_validation(self):
        recipe = InstanceRecipe("uniform", 8, 24, 3)
        with pytest.raises(ReproError, match="unknown engine"):
            SolveRequest(request_id="a", recipe=recipe, engine="warp")
        with pytest.raises(ReproError, match="does not shard"):
            SolveRequest(
                request_id="a", recipe=recipe, engine="loop", shards=2
            )
        with pytest.raises(ReproError, match="capture_events"):
            SolveRequest(
                request_id="a", recipe=recipe, engine="columnar",
                capture_events=True,
            )

    def test_engine_cells_agree_with_the_simulator(self):
        recipe = InstanceRecipe("uniform", 8, 24, 3)
        sim = run_service_cell(
            _cell(SolveRequest(request_id="a", recipe=recipe, k=6))
        )
        col = run_service_cell(
            _cell(
                SolveRequest(
                    request_id="b", recipe=recipe, k=6, engine="columnar"
                )
            )
        )
        assert col["result"]["cost"] == sim["result"]["cost"]
        assert (
            col["result"]["open_facilities"]
            == sim["result"]["open_facilities"]
        )
        assert col["result"]["engine"] == "columnar"
        assert "engine" not in sim["result"]
        assert sim["manifest"]["parameters"] == {
            "k": 6, "variant": "greedy", "rounding": "select_all",
            "c_round": 1.0,
        }
        assert col["manifest"]["parameters"]["engine"] == "columnar"

    def test_recorded_engine_cell_ships_a_recording(self):
        recipe = InstanceRecipe("uniform", 8, 24, 3)
        out = run_service_cell(
            _cell(
                SolveRequest(
                    request_id="a", recipe=recipe, k=6,
                    engine="columnar", record=True,
                )
            )
        )
        assert out["recording"]["engine"] == "columnar"
        assert out["recording"]["checkpoints"]


class TestCliDigest:
    """`repro solve --digest` is the cheap cross-engine identity check."""

    @staticmethod
    def _solve(capsys, *argv):
        from repro.cli import main

        assert main(list(argv)) == 0
        return json.loads(capsys.readouterr().out)

    def test_digest_identical_across_engines(self, capsys):
        # Every engine answers a dense solve with the same digest and the
        # same cost float, and a served request with the same cost again.
        for family, m, n, seed, k in (
            ("sparse", 8, 24, 3, 6),
            ("uniform", 30, 150, 3, 9),
        ):
            base = (
                "solve", "--family", family, "-m", str(m), "-n", str(n),
                "--seed", str(seed), "-k", str(k), "--no-lp", "--digest",
                "--json",
            )
            payloads = [
                self._solve(capsys, *base, *engine_args)
                for engine_args in (
                    ("--engine", "simulator"),
                    ("--engine", "loop"),
                    ("--engine", "columnar"),
                    ("--engine", "columnar", "--shards", "2"),
                )
            ]
            reference = payloads[0]
            for payload in payloads[1:]:
                assert payload["digest"] == reference["digest"]
                assert payload["cost"] == reference["cost"]
            served = run_service_cell(
                _cell(
                    SolveRequest(
                        request_id="a",
                        recipe=InstanceRecipe(family, m, n, seed),
                        k=k,
                    )
                )
            )
            assert served["result"]["cost"] == reference["cost"]

    @pytest.mark.parametrize("engine", ["simulator", "loop", "columnar"])
    def test_digest_is_the_recorders_final_checkpoint(self, capsys, engine):
        payload = self._solve(
            capsys, "solve", "--family", "uniform", "-m", "8", "-n", "24",
            "--seed", "3", "-k", "6", "--variant", "dual_ascent", "--no-lp",
            "--digest", "--json", "--engine", engine,
        )
        recording = record_run(
            make_instance("uniform", 8, 24, 3),
            engine=engine,
            k=6,
            variant="dual_ascent",
        )
        final = recording.checkpoints[-1]
        assert final.label == "final"
        assert payload["digest"] == final.digest

    @pytest.mark.parametrize("degree", [3, 5])
    def test_sparse_degree_cost_identical_across_engines(self, capsys, degree):
        # The columnar cost gather sums in the dense solution's order, so
        # the printed float is the same whichever engine solved.
        base = (
            "solve", "--sparse-degree", str(degree), "-m", "50", "-n", "400",
            "--seed", "7", "-k", "8", "--no-lp", "--json",
        )
        costs = {
            engine: self._solve(capsys, *base, "--engine", engine)["cost"]
            for engine in ("columnar", "loop", "simulator")
        }
        assert costs["columnar"] == costs["loop"] == costs["simulator"]

    def test_sparse_degree_needs_no_lp_on_columnar(self, capsys):
        from repro.cli import main

        args = [
            "solve", "--sparse-degree", "3", "-m", "10", "-n", "50",
            "--seed", "2", "-k", "5", "--engine", "columnar",
            "--digest", "--json",
        ]
        assert main(args) == 1  # LP bound would densify: refused
        assert "--no-lp" in capsys.readouterr().err
        assert main(args + ["--no-lp"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["feasible"] is True
        assert payload["digest"]
