"""Unit tests for repro.core.bounds."""

from __future__ import annotations

import math

import pytest

from repro.core.algorithm import solve_distributed
from repro.core.bounds import (
    approximation_envelope,
    best_k_for_target_ratio,
    message_bits_envelope,
    round_budget,
)
from repro.core.dual_ascent_nodes import dual_schedule_length
from repro.core.greedy_nodes import schedule_length
from repro.core.parameters import TradeoffParameters
from repro.exceptions import AlgorithmError
from repro.fl.generators import make_instance


class TestApproximationEnvelope:
    def test_formula(self):
        # k = 4: sqrt(k) = 2, spread = m * rho = 20, exponent 1/2.
        value = approximation_envelope(4, num_facilities=10, num_clients=10, rho=2.0)
        expected = 2.0 * math.sqrt(20.0) * math.log(20)
        assert value == pytest.approx(expected)

    def test_decreases_then_flattens(self):
        values = [
            approximation_envelope(k, 20, 60, 10.0) for k in (1, 4, 16, 64, 256)
        ]
        # Strictly improving over the early range (the regime that matters).
        assert values[0] > values[1] > values[2]

    def test_grows_with_rho(self):
        low = approximation_envelope(9, 20, 60, 2.0)
        high = approximation_envelope(9, 20, 60, 2000.0)
        assert high > low

    def test_grows_with_network_size(self):
        small = approximation_envelope(9, 10, 30, 10.0)
        large = approximation_envelope(9, 10, 3000, 10.0)
        assert large > small

    def test_constant_scales_linearly(self):
        base = approximation_envelope(9, 20, 60, 10.0, constant=1.0)
        assert approximation_envelope(9, 20, 60, 10.0, constant=2.5) == pytest.approx(
            2.5 * base
        )

    def test_validation(self):
        with pytest.raises(AlgorithmError):
            approximation_envelope(0, 10, 10, 2.0)
        with pytest.raises(AlgorithmError):
            approximation_envelope(1, 0, 10, 2.0)
        with pytest.raises(AlgorithmError):
            approximation_envelope(1, 10, 10, 0.5)


class TestRoundBudget:
    def test_linear(self):
        # Square k runs exactly k iterations; otherwise T = 3 * 3 for k = 7
        # and 8, and 4 * 3 for k = 10.
        for k in (1, 4, 9, 16, 25, 36):
            assert round_budget(k) == 4 * k + 5
        assert [round_budget(k) for k in (7, 8, 10)] == [41, 41, 53]

    @pytest.mark.parametrize("k", range(1, 37))
    def test_covers_the_schedule_the_code_runs(self, k):
        instance = make_instance("set_cover", 8, 40, seed=0)
        greedy = TradeoffParameters.from_instance(instance, k)
        # A greedy run with a left-over client takes the whole schedule,
        # one without it a round less; dual ascent always runs its own.
        assert round_budget(k) == schedule_length(greedy)
        assert dual_schedule_length(TradeoffParameters.linear(instance, k)) <= round_budget(k)
        for variant in ("greedy", "dual_ascent"):
            rounds = solve_distributed(instance, k, variant, seed=0).metrics.rounds
            assert rounds <= round_budget(k)

    def test_a_left_over_client_meets_the_budget(self):
        instance = make_instance("set_cover", 8, 40, seed=0)
        result = solve_distributed(instance, 2, seed=0)
        assert result.metrics.messages_by_kind["prb"] > 0  # the force phase probed
        assert result.metrics.rounds == round_budget(2)

    def test_validation(self):
        with pytest.raises(AlgorithmError):
            round_budget(0)


class TestMessageBitsEnvelope:
    def test_logarithmic(self):
        assert message_bits_envelope(1024) == pytest.approx(160.0)
        assert message_bits_envelope(2048) > message_bits_envelope(1024)

    def test_validation(self):
        with pytest.raises(AlgorithmError):
            message_bits_envelope(1)


class TestBestK:
    def test_finds_smallest_k(self):
        # A generous target is met at some finite k; the returned k is the
        # first one on the envelope curve that does.
        k = best_k_for_target_ratio(100.0, 20, 60, 10.0)
        assert approximation_envelope(k, 20, 60, 10.0) <= 100.0
        if k > 1:
            assert approximation_envelope(k - 1, 20, 60, 10.0) > 100.0

    def test_unreachable_target_returns_best_effort(self):
        k = best_k_for_target_ratio(1e-9, 20, 60, 10.0, k_max=200)
        assert 1 <= k <= 200

    def test_validation(self):
        with pytest.raises(AlgorithmError):
            best_k_for_target_ratio(0.0, 20, 60, 10.0)
