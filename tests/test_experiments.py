"""Tests for the experiment harness (quick configurations).

Every experiment runs once per module, and each test asserts the claim
the experiment reproduces (rounds linear in k, message bits under the
envelope, ratios under the approximation envelope, ...) on that shared
result. ``test_artifacts_match_committed`` is the exact gate: each
regenerated BENCH record must equal the committed
``benchmarks/_artifacts/<ID>.json``, which ``repro experiment all
--quick -o benchmarks/_artifacts`` writes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.analysis import experiments as exp
from repro.core.bounds import round_budget

ARTIFACTS = Path(__file__).resolve().parents[1] / "benchmarks" / "_artifacts"


@pytest.fixture(scope="module")
def results() -> dict[str, exp.ExperimentResult]:
    return {eid: runner(quick=True) for eid, runner in exp.EXPERIMENTS.items()}


def _finite(value) -> bool:
    return isinstance(value, float) and not math.isnan(value)


class TestTradeoffExperiments:
    def test_e1_envelope_holds(self, results):
        result = results["E1"]
        assert result.experiment_id == "E1"
        assert len(result.rows) > 0
        for row in result.rows:
            ratio_max, envelope = row[4], row[5]
            assert ratio_max <= envelope, f"envelope violated in row {row}"
        assert result.notes["max_implied_C"] <= 1.0

    def test_e2_series_structure(self, results):
        result = results["E2"]
        ks = result.column("k")
        assert ks == sorted(ks)
        ratios = result.column("ratio_mean")
        for ratio, envelope in zip(ratios, result.column("envelope")):
            assert 0.99 <= ratio <= envelope
        # The fine end of the sweep improves on the coarse end and lands
        # within 2x of the greedy reference the algorithm converges to.
        assert ratios[-1] <= ratios[0] * 0.8
        assert ratios[-1] <= result.column("greedy_ref")[0] * 2.0

    def test_e3_rounds_linear(self, results):
        result = results["E3"]
        for row in result.rows:
            k, rounds, budget = row
            assert rounds <= budget
        assert 2.0 <= result.notes["fit_slope"] <= 5.0

    def test_e4_bits_under_envelope(self, results):
        result = results["E4"]
        for row in result.rows:
            _n, max_bits, mean_bits, envelope = row
            assert max_bits <= envelope * 1.2  # small-N constant slack
            assert mean_bits <= max_bits
        # The protocol's messages carry at most one float + a 3-char tag.
        assert max(result.column("max_bits")) <= 88


class TestComparisonExperiments:
    def test_e5_structure(self, results):
        result = results["E5"]
        assert len(result.rows) >= 2
        dist_idx = result.headers.index("distributed")
        greedy_idx = result.headers.index("greedy")
        for row in result.rows:
            # Every ratio is >= 1 wherever defined.
            for value in row[1:]:
                if _finite(value):
                    assert value >= 0.99
            assert row[dist_idx] <= row[greedy_idx] * 3.0, row

    def test_e5_exact_is_best(self, results):
        result = results["E5"]
        exact_idx = result.headers.index("exact")
        for row in result.rows:
            exact = row[exact_idx]
            if _finite(exact):
                for value in row[1:]:
                    if _finite(value):
                        assert exact <= value + 1e-9

    def test_e6_ablation(self, results):
        result = results["E6"]
        assert result.rows[0][0] == "select_all"
        # select_all never needs the fallback.
        assert result.rows[0][3] == 0.0
        for row in result.rows:
            assert _finite(row[1]) and row[1] >= 0.99, row  # feasibility held

    def test_e10_variants(self, results):
        result = results["E10"]
        assert set(result.column("variant")) == {"greedy", "dual_ascent"}
        for k, variant, ratio_mean, _ratio_max, rounds in result.rows:
            assert ratio_mean >= 0.99
            assert rounds <= round_budget(k), (variant, k, rounds)


class TestRobustnessExperiments:
    def test_e7_rho(self, results):
        result = results["E7"]
        for row in result.rows:
            _t, rho_actual, ratio_mean, ratio_max, envelope = row
            assert ratio_max <= envelope
        # The envelope itself grows with rho (the claim's shape).
        envelopes = result.column("envelope")
        assert envelopes == sorted(envelopes)

    def test_e8_families(self, results):
        result = results["E8"]
        assert "uniform" in result.column("family")
        for family, _metric, _rho, ratio_mean, ratio_max in result.rows:
            assert ratio_mean >= 0.99
            assert ratio_max <= 25.0, f"family {family} ratio exploded"

    def test_e9_scalability(self, results):
        result = results["E9"]
        for row in result.rows:
            _n, sim_s, seq_s, speedup, messages = row
            assert sim_s > 0 and seq_s > 0
            assert messages > 0
        # The emulation is not slower than the simulator at the largest size.
        assert result.rows[-1][3] >= 1.0

    def test_e11_faults(self, results):
        result = results["E11"]
        # Fault-free row must be fully complete.
        assert result.rows[0][0] == 0.0
        assert result.rows[0][1] == 1.0
        assert result.rows[0][2] == 0.0
        for row in result.rows:
            if _finite(row[3]):
                assert row[3] <= 25.0, row  # repaired ratio stays bounded

    def test_e17_fault_families(self, results):
        result = results["E17"]
        assert len(result.rows) > 0
        plain_idx = result.headers.index("plain_complete")
        complete_idx = result.headers.index("resilient_complete")
        healed_idx = result.headers.index("healed_ratio")
        retries_idx = result.headers.index("retries_mean")
        for row in result.rows:
            # Resilience never completes less often than the plain run, and
            # at these moderate intensities it always completes.
            assert row[complete_idx] >= row[plain_idx], row
            assert row[complete_idx] == 1.0, row
            if _finite(row[healed_idx]):
                assert row[healed_idx] <= 25.0, row
            # The retransmit sublayer was exercised.
            assert row[retries_idx] > 0.0, row


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


class TestAblationExperiments:
    def test_e12_ladder_necessity(self, results):
        result = results["E12"]
        by_k = {row[0]: row[1] for row in result.rows}
        assert by_k[1] >= result.notes["gap"] * 0.5
        for k, ratio in by_k.items():
            if k > 1:
                assert ratio <= 1.5, f"k={k}: the ladder should isolate the good facility"

    def test_e13_settle_ablation(self, results):
        result = results["E13"]
        ratios = result.column("ratio_mean")
        # The settle effect is a trend: R >= 2 should not be meaningfully
        # worse than R = 1 (small slack absorbs seed noise), and the largest
        # R is (within that slack) the best.
        assert ratios[1] <= ratios[0] + 0.05
        assert ratios[-1] <= min(ratios) + 0.05
        rounds = result.column("rounds")
        assert rounds == sorted(rounds)

    def test_e14_anytime(self, results):
        result = results["E14"]
        served = result.column("served_frac")
        repairable = result.column("repairable_frac")
        assert served == sorted(served)
        assert repairable == sorted(repairable)
        # The full run is complete, fully served and repairable.
        assert result.rows[-1][0] == 1.0
        assert served[-1] == 1.0
        assert repairable[-1] == 1.0

    def test_e15_concentration(self, results):
        result = results["E15"]
        for row in result.rows:
            _k, p50, p95, worst, spread, envelope = row
            assert p50 <= p95 <= worst + 1e-12
            assert worst <= envelope
            assert spread <= 1.5, f"ratio distribution too dispersed: {row}"

    def test_e16_opening_rule(self, results):
        result = results["E16"]
        by_fraction = {row[0]: row[1] for row in result.rows}
        assert by_fraction[0.5] <= by_fraction[0.0] + 1e-9
        assert by_fraction[0.5] <= by_fraction[1.0] + 1e-9


def _mismatches(where: str, old, new) -> list[str]:
    """Where ``new`` differs from ``old``: floats to a relative 1e-9,
    everything else (ints, strings, key sets) exactly."""
    if isinstance(old, dict) and isinstance(new, dict):
        found = [f"{where}.{key}: on one side only" for key in set(old) ^ set(new)]
        for key in sorted(set(old) & set(new)):
            found += _mismatches(f"{where}.{key}", old[key], new[key])
        return found
    if isinstance(old, float) and isinstance(new, float):
        same = math.isclose(old, new, rel_tol=1e-9)
    else:
        same = old == new
    return [] if same else [f"{where}: {old!r} -> {new!r}"]


def test_artifacts_match_committed(results):
    """Each regenerated record equals the committed one, clocks aside."""
    committed = sorted(path.stem for path in ARTIFACTS.glob("E*.json"))
    assert committed == sorted(exp.EXPERIMENTS)
    found: list[str] = []
    for eid, result in results.items():
        old = json.loads((ARTIFACTS / f"{eid}.json").read_text())["records"][eid]
        new = result.to_record()
        for record in (old, new):
            del record["wall_seconds"]
            for column in result.timing_columns:
                del record["metrics"][f"{column}_mean"]
                del record["metrics"][f"{column}_max"]
        found += _mismatches(eid, old, new)
    assert not found, (
        "if intended, regenerate with "
        "`repro experiment all --quick -o benchmarks/_artifacts`:\n"
        + "\n".join(found)
    )
