"""Tests for the experiment harness (quick configurations).

Every experiment runs once per module. Each test checks the claims its
experiment declares in :data:`repro.analysis.experiments.EXPERIMENTS`
(rounds linear in k, message bits under the envelope, ratios under the
approximation envelope, ...) on that shared result, plus structural
facts of the table that are not claims. ``test_artifacts_match_committed``
is the exact gate: the regenerated artifact directory must pass
``repro compare`` against the committed ``benchmarks/_artifacts/``, which
``repro experiment all --quick -o benchmarks/_artifacts`` writes, with
every number unmoved.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis import experiments as exp
from repro.obs.compare import compare_paths

ARTIFACTS = Path(__file__).resolve().parents[1] / "benchmarks" / "_artifacts"


@pytest.fixture(scope="module")
def results() -> dict[str, exp.ExperimentResult]:
    return {eid: entry.run(quick=True) for eid, entry in exp.EXPERIMENTS.items()}


def _claims_hold(results, eid: str, *names: str) -> exp.ExperimentResult:
    """Assert ``eid``'s declared claims (only ``names``, when given)."""
    result = results[eid]
    checked = [
        (claim, value)
        for claim, value in exp.EXPERIMENTS[eid].check(result)
        if not names or claim.name in names
    ]
    assert len(checked) >= max(len(names), 1)
    broken = [
        f"{claim.name} = {value!r} (bound {claim.gate})"
        for claim, value in checked
        if not claim.gate.holds(value)
    ]
    assert not broken, f"{eid}: " + "; ".join(broken)
    return result


class TestTradeoffExperiments:
    def test_e1_envelope_holds(self, results):
        result = _claims_hold(results, "E1")
        assert result.experiment_id == "E1"
        assert len(result.rows) > 0

    def test_e2_series_structure(self, results):
        ks = _claims_hold(results, "E2").column("k")
        assert ks == sorted(ks)

    def test_e3_rounds_linear(self, results):
        _claims_hold(results, "E3")

    def test_e4_bits_under_envelope(self, results):
        result = _claims_hold(results, "E4")
        for _n, max_bits, mean_bits, _envelope in result.rows:
            assert mean_bits <= max_bits


class TestComparisonExperiments:
    def test_e5_structure(self, results):
        result = _claims_hold(results, "E5", "min_ratio", "distributed_over_greedy")
        assert len(result.rows) >= 2

    def test_e5_exact_is_best(self, results):
        _claims_hold(results, "E5", "exact_gap")

    def test_e6_ablation(self, results):
        assert _claims_hold(results, "E6").rows[0][0] == "select_all"

    def test_e10_variants(self, results):
        result = _claims_hold(results, "E10")
        assert set(result.column("variant")) == {"greedy", "dual_ascent"}


class TestRobustnessExperiments:
    def test_e7_rho(self, results):
        # The envelope itself grows with rho (the claim's shape).
        envelopes = _claims_hold(results, "E7").column("envelope")
        assert envelopes == sorted(envelopes)

    def test_e8_families(self, results):
        assert "uniform" in _claims_hold(results, "E8").column("family")

    def test_e9_scalability(self, results):
        for _n, sim_s, seq_s, _speedup, messages in _claims_hold(results, "E9").rows:
            assert sim_s > 0 and seq_s > 0
            assert messages > 0

    def test_e11_faults(self, results):
        # The first row is the fault-free one its claims read.
        assert _claims_hold(results, "E11").rows[0][0] == 0.0

    def test_e17_fault_families(self, results):
        assert len(_claims_hold(results, "E17").rows) > 0


class TestResultInterface:
    def test_table_renders(self, results):
        table = results["E3"].table
        assert "E3" in table
        assert "rounds" in table

    def test_column_lookup(self, results):
        result = results["E3"]
        assert len(result.column("k")) == len(result.rows)
        with pytest.raises(ValueError):
            result.column("nope")

    def test_nan_in_a_middle_row_breaks_a_claim(self, results):
        """Builtin min/max skip a NaN that is not first; no claim may."""
        for eid, column, name in (
            ("E2", "ratio_mean", "min_ratio"),
            ("E7", "ratio_max", "envelope_margin"),
            ("E17", "retries_mean", "families_without_retries"),
        ):
            result, middle = results[eid], len(results[eid].rows) // 2
            rows = [list(row) for row in result.rows]
            rows[middle][result.headers.index(column)] = float("nan")
            (claim,) = [c for c in exp.EXPERIMENTS[eid].claims if c.name == name]
            value = claim.value(replace(result, rows=tuple(map(tuple, rows))))
            assert middle > 0 and not claim.gate.holds(value), (eid, name, value)


class TestAblationExperiments:
    def test_e12_ladder_necessity(self, results):
        _claims_hold(results, "E12")

    def test_e13_settle_ablation(self, results):
        rounds = _claims_hold(results, "E13").column("rounds")
        assert rounds == sorted(rounds)

    def test_e14_anytime(self, results):
        # The last row is the full run its final_* claims read.
        assert _claims_hold(results, "E14").rows[-1][0] == 1.0

    def test_e15_concentration(self, results):
        for _k, p50, p95, worst, _spread, _env in _claims_hold(results, "E15").rows:
            assert p50 <= p95 <= worst + 1e-12

    def test_e16_opening_rule(self, results):
        _claims_hold(results, "E16")


def test_artifacts_match_committed(results, tmp_path):
    """The regenerated artifacts pass ``repro compare`` against the
    committed ones with every number unmoved (relative 1e-9)."""
    committed = sorted(path.stem for path in ARTIFACTS.glob("E*.json"))
    assert committed == sorted(exp.EXPERIMENTS)
    for eid, result in results.items():
        exp.save_result(tmp_path, result, exp.EXPERIMENTS[eid].claims)
    moved = [
        f"{diff.name}: {diff.old!r} -> {diff.new!r} ({diff.status})"
        for report in compare_paths(ARTIFACTS, tmp_path)
        for diff in report.diffs
        if diff.status != "ok"
    ]
    assert not moved, (
        "if intended, regenerate with "
        "`repro experiment all --quick -o benchmarks/_artifacts`:\n"
        + "\n".join(moved)
    )


#: Experiments that ask for no faults and no truncation: they run on the
#: columnar engine. E9 times the simulator against it, E11 and E17 inject
#: faults and E14 truncates, so those four keep the simulator.
FAULT_FREE = (
    "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E10", "E12", "E13", "E15", "E16"
)


def test_fault_free_experiments_build_no_simulator(monkeypatch):
    from repro.net.simulator import Simulator

    def forbidden(self, *args, **kwargs):
        raise AssertionError("a fault-free experiment built a Simulator")

    monkeypatch.setattr(Simulator, "__init__", forbidden)
    assert set(FAULT_FREE) | {"E9", "E11", "E14", "E17"} == set(exp.EXPERIMENTS)
    for eid in FAULT_FREE:
        assert exp.EXPERIMENTS[eid].run(quick=True).rows


@pytest.mark.parametrize(
    "option", ["fault_plan", "reliability", "healing", "truncate_rounds"]
)
def test_simulator_only_cell_options_refuse_columnar(option):
    from repro.core.healing import SelfHealingPolicy
    from repro.exceptions import AlgorithmError
    from repro.fl.generators import make_instance
    from repro.net.faults import FaultPlan
    from repro.net.reliability import ReliabilityPolicy
    from repro.perf.cells import SolveCell, run_solve_cell

    values = {
        "fault_plan": FaultPlan(drop_probability=0.1, seed=1),
        "reliability": ReliabilityPolicy(),
        "healing": SelfHealingPolicy(),
        "truncate_rounds": 5,
    }
    instance = make_instance("uniform", 6, 15, seed=1)
    cell = SolveCell(instance, 4, engine="columnar", **{option: values[option]})
    with pytest.raises(AlgorithmError, match=option):
        run_solve_cell(cell)
