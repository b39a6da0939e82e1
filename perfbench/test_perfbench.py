"""The benchmark's own tests: every workload end to end at a tiny size,
and every output check firing on a deliberately corrupted result.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import run as bench  # noqa: E402
import spec  # noqa: E402

common.import_program()

import serve_zipf  # noqa: E402
import solve_1m  # noqa: E402
import sweep_grid  # noqa: E402

TINY = {
    "solve_1m": (solve_1m, {"facilities": 100, "clients": 3000}),
    "sweep_grid": (sweep_grid, {"facilities": 5, "clients": 12}),
    "serve_zipf": (
        serve_zipf,
        {"facilities": 5, "clients": 10, "catalog_size": 9, "num_requests": 30},
    ),
}


def test_benchmark_json_is_rendered_from_spec():
    on_disk = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(TINY))
def test_workload_runs_end_to_end_at_tiny_size(workload, trace):
    module, sizes = TINY[workload]
    outcome = bench.complete(module.run(5, 1.0, trace, **sizes), workload, trace)
    assert outcome.checks.failures == []
    expected = [m.name for m in (spec.PER_LAYER if trace else spec.END_TO_END)]
    assert sorted(outcome.metrics) == sorted(expected)
    out = io.StringIO()
    common.emit(outcome, out)
    result = json.loads(out.getvalue().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    else:
        # Layers of other workloads read 0; the workload's own do not.
        own = [m.name for m in spec.PER_LAYER if m.workload == workload]
        assert any(outcome.metrics[name].value > 0 for name in own)


def test_workload_inputs_follow_the_seed():
    a = serve_zipf.build_plan(3, 50, 20, 5, 10)
    b = serve_zipf.build_plan(3, 50, 20, 5, 10)
    c = serve_zipf.build_plan(4, 50, 20, 5, 10)
    assert [p.request.to_wire() for p in a] == [p.request.to_wire() for p in b]
    assert [p.request.to_wire() for p in a] != [p.request.to_wire() for p in c]
    # Only the instances follow the seed: the traffic's shape does not.
    assert [(p.user, p.repeat) for p in a] == [(p.user, p.repeat) for p in c]
    assert sweep_grid.build_grid(3, 5.0, 5, 12) == sweep_grid.build_grid(3, 5.0, 5, 12)


# ----------------------------------------------------------------------
# Each output check fires on a corrupted result.


@pytest.fixture(scope="module")
def columnar_solves():
    from repro.core.columnar import ColumnarInstance, solve_columnar

    cinst = ColumnarInstance.generate_sparse(100, 3000, seed=2)
    one = solve_columnar(cinst, k=solve_1m.K, variant="greedy", seed=2)
    two = solve_columnar(cinst, k=solve_1m.K, variant="greedy", seed=2, shards=2)
    return cinst, one, two


def test_solve_check_passes_on_identical_shards(columnar_solves):
    cinst, one, two = columnar_solves
    assert solve_1m.check_solve(two, one, cinst.num_nodes) == []


def test_solve_check_fires_on_diverged_shard_array(columnar_solves):
    cinst, one, two = columnar_solves
    assignment = two.assignment.copy()
    assignment[0] = (assignment[0] + 1) % cinst.m
    diverged = dataclasses.replace(two, assignment=assignment)
    problems = solve_1m.check_solve(diverged, one, cinst.num_nodes)
    assert any("assignment differs" in p for p in problems)


def test_solve_check_fires_on_changed_cost_and_ledger(columnar_solves):
    cinst, one, two = columnar_solves
    costly = dataclasses.replace(two, cost=two.cost + 1e-9)
    assert any("cost" in p for p in solve_1m.check_solve(costly, one, cinst.num_nodes))
    metrics = dataclasses.replace(two.metrics, total_bits=two.metrics.total_bits + 1)
    noisy = dataclasses.replace(two, metrics=metrics)
    assert any("ledger" in p for p in solve_1m.check_solve(noisy, one, cinst.num_nodes))


def test_solve_check_fires_on_round_budget(columnar_solves):
    cinst, one, _ = columnar_solves
    metrics = dataclasses.replace(one.metrics, rounds=10_000)
    slow = dataclasses.replace(one, metrics=metrics)
    assert any("budget" in p for p in solve_1m.check_solve(slow, None, cinst.num_nodes))


@pytest.fixture(scope="module")
def sweep_cell():
    from repro.perf import cache, cells

    instance = cache.cached_instance("uniform", 5, 12, 1)
    simulated = cells.run_solve_cell(cells.SolveCell(instance, 4))
    sequential = cells.run_sequential_cell(cells.SequentialCell(instance, 4))
    return simulated, sequential, cache.cached_lp_value(instance)


def test_sweep_check_passes_on_agreeing_engines(sweep_cell):
    assert sweep_grid.check_cell(*sweep_cell) == []


def test_sweep_check_fires_on_mismatched_sequential_cell(sweep_cell):
    simulated, sequential, lp_value = sweep_cell
    (client, facility), *rest = sequential.assignment
    moved = dataclasses.replace(sequential, assignment=((client, facility + 1), *rest))
    problems = sweep_grid.check_cell(simulated, moved, lp_value)
    assert problems == ["assignments differ between simulator and sequential emulation"]
    reopened = dataclasses.replace(sequential, open_facilities=())
    assert sweep_grid.check_cell(simulated, reopened, lp_value)


def test_sweep_check_fires_below_the_lp_bound(sweep_cell):
    simulated, sequential, lp_value = sweep_cell
    assert sweep_grid.check_cell(simulated, sequential, simulated.cost * 2)


def _served(plan):
    """A LoadResult as a correct server would produce it."""
    from repro.service import SolveResponse
    from repro.service.worker import run_service_cell

    load = serve_zipf.LoadResult()
    for planned in plan:
        out = run_service_cell(serve_zipf.direct_cell(planned.request))
        response = SolveResponse.from_wire(
            json.loads(json.dumps({**out, "request_id": planned.request.request_id,
                                   "status": "ok"}))
        )
        load.deliveries[planned.request.request_id] = [response]
    return load


def _failed(plan, load, direct):
    checks = common.Checks()
    serve_zipf.check_load(plan, load, direct, checks)
    return checks.failures


def test_serve_check_passes_on_correct_responses():
    plan = serve_zipf.build_plan(1, 6, 3, 5, 10)
    direct = serve_zipf.direct_answers(plan, None)
    assert _failed(plan, _served(plan), direct) == []


def test_serve_check_fires_on_perturbed_response_byte():
    plan = serve_zipf.build_plan(1, 6, 3, 5, 10)
    direct = serve_zipf.direct_answers(plan, None)
    load = _served(plan)
    rid = plan[0].request.request_id
    good = load.deliveries[rid][0]
    text = json.dumps(good.result)
    digit = next(i for i, ch in enumerate(text) if ch.isdigit())
    flipped = text[:digit] + str((int(text[digit]) + 1) % 10) + text[digit + 1 :]
    load.deliveries[rid] = [dataclasses.replace(good, result=json.loads(flipped))]
    assert any("differ" in failure for failure in _failed(plan, load, direct))


def test_serve_check_fires_on_lost_and_duplicated_responses():
    plan = serve_zipf.build_plan(1, 6, 3, 5, 10)
    direct = serve_zipf.direct_answers(plan, None)
    load = _served(plan)
    first, second = (p.request.request_id for p in plan[:2])
    load.deliveries[first] = load.deliveries[first] * 2
    del load.deliveries[second]
    failures = _failed(plan, load, direct)
    assert any(f"{first}: 2 responses" in f for f in failures)
    assert any(f"{second}: 0 responses" in f for f in failures)


def test_spans_wrap_times_calls_and_restores():
    from repro.core import columnar

    original_function = columnar.columnar_parameters
    original_classmethod = columnar.ColumnarInstance.__dict__["generate_sparse"]
    spans = common.Spans()
    with spans.wrapping(columnar, "columnar_parameters", "params"), spans.wrapping(
        columnar.ColumnarInstance, "generate_sparse", "generate"
    ):
        cinst = columnar.ColumnarInstance.generate_sparse(5, 20, seed=1)
        columnar.columnar_parameters(cinst, 3)
    assert len(spans.get("params")) == 1 and len(spans.get("generate")) == 1
    assert columnar.columnar_parameters is original_function
    assert columnar.ColumnarInstance.__dict__["generate_sparse"] is original_classmethod


def test_fails_without_printing_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [*spec.COMMAND, "--workload", "sweep_grid", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


_KILLED_MID_RUN = """
import sys
import time
sys.path.insert(0, sys.argv[1])
import common
common.import_program()
import serve_zipf
server = serve_zipf.Server()
host = common.HostSpeed()
with common.cpus_kept_awake():
    print("ready", flush=True)
    sys.stdin.readline()
"""


def _alive(pid: int) -> bool:
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return False
    return "\nState:\tZ" not in status


def test_helpers_and_server_die_with_a_killed_benchmark():
    bench_process = subprocess.Popen(
        [sys.executable, "-c", _KILLED_MID_RUN, str(HERE)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        assert bench_process.stdout.readline().strip() == "ready"
        children = Path(f"/proc/{bench_process.pid}/task/{bench_process.pid}/children")
        helpers = [int(pid) for pid in children.read_text().split()]
        # The server, the host-speed kernel and one spinner per CPU.
        assert len(helpers) == 2 + len(os.sched_getaffinity(0))
        assert all(_alive(pid) for pid in helpers)
    finally:
        bench_process.kill()
        bench_process.wait()
    deadline = time.monotonic() + 10.0
    while any(_alive(pid) for pid in helpers) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not [pid for pid in helpers if _alive(pid)]


_SHARDED_SOLVE = """
import sys
sys.path.insert(0, sys.argv[1])
import common
common.import_program()
common.adopt_orphans()
from repro.core import columnar
cinst = columnar.ColumnarInstance.generate_sparse(20, 200, seed=1, client_degree=3)
columnar.solve_columnar(cinst, k=4, variant="greedy", seed=1, shards=2)
running = len(common.live_children())
killed = common.end_children()
print(running, len(killed), len(common.live_children()))
"""


def test_run_ends_the_resource_tracker_a_sharded_solve_starts():
    done = subprocess.run(
        [sys.executable, "-c", _SHARDED_SOLVE, str(HERE)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    # The tracker was running after the solve, was stopped rather than
    # killed, and nothing was left.
    assert done.stdout.split() == ["1", "0", "0"]
