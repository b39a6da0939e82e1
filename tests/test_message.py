"""Unit tests for repro.net.message (bit accounting)."""

from __future__ import annotations

import copy
import math
import pickle
import random

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.net.message import Message, message_bits, payload_bits, scalar_bits


class TestScalarBits:
    def test_none_and_bool(self):
        assert scalar_bits(None) == 1
        assert scalar_bits(True) == 1
        assert scalar_bits(False) == 1

    def test_small_ints(self):
        assert scalar_bits(0) == 2
        assert scalar_bits(1) == 2
        assert scalar_bits(-1) == 2

    def test_int_growth_is_logarithmic(self):
        assert scalar_bits(255) == 9
        assert scalar_bits(1 << 20) < scalar_bits(1 << 40)
        # Doubling a value adds one bit.
        assert scalar_bits(2048) == scalar_bits(1024) + 1

    def test_float_is_one_word(self):
        assert scalar_bits(3.14) == 64
        assert scalar_bits(0.0) == 64

    def test_string_bits(self):
        assert scalar_bits("abc") == 24
        assert scalar_bits("") == 8  # at least one character slot

    def test_rejects_containers(self):
        with pytest.raises(SimulationError, match="unsupported"):
            scalar_bits([1, 2])
        with pytest.raises(SimulationError, match="unsupported"):
            scalar_bits({"a": 1})


class TestPayloadBits:
    def test_sum_of_values_only(self):
        assert payload_bits({"x": True, "y": 1.0}) == 1 + 64

    def test_empty_payload(self):
        assert payload_bits({}) == 0


class TestMessage:
    def test_bits_includes_kind_tag(self):
        message = Message(sender=0, receiver=1, kind="abc", payload={"v": True})
        assert message.bits == 24 + 1

    def test_accessors(self):
        message = Message(0, 1, "k", {"value": 7})
        assert message["value"] == 7
        assert message.get("value") == 7
        assert message.get("missing", "d") == "d"

    def test_repr_is_informative(self):
        message = Message(3, 5, "ping", {"n": 2}, round_sent=4)
        text = repr(message)
        assert "3->5" in text
        assert "ping" in text
        assert "r4" in text


def _float_int_bits(value: int) -> int:
    """The floating-point int pricing the exact ``bit_length`` form replaced."""
    return 1 + max(1, math.ceil(math.log2(abs(value) + 1)) if value else 1)


class TestExactIntPricing:
    def test_matches_the_float_form_below_two_to_the_49(self):
        values = {0, 1, 2, 3, 255, 256, 1000, 123_456_789}
        for k in range(1, 49):
            values |= {2**k - 1, 2**k, 2**k + 1}
        values |= {2**49 - 1}
        values |= set(random.Random(7).sample(range(2**49), 2000))
        for value in sorted(values):
            assert value < 2**49
            assert scalar_bits(value) == _float_int_bits(value), value
            assert scalar_bits(-value) == _float_int_bits(-value), value

    @pytest.mark.parametrize("exponent", [49, 53, 60])
    def test_exact_where_the_float_form_undercounts(self, exponent):
        # 2**k needs k + 1 magnitude bits plus the sign bit.
        assert scalar_bits(2**exponent) == exponent + 2
        assert scalar_bits(2**exponent - 1) == exponent + 1
        assert scalar_bits(-(2**exponent)) == exponent + 2

    def test_float_form_undercounts_at_two_to_the_49(self):
        assert _float_int_bits(2**49) == 50 < scalar_bits(2**49)


class TestMessageBits:
    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"a": 1.0},
            {"a": 0, "b": -7, "c": 2**60},
            {"t": True, "n": None, "s": "xy"},
            {"f": np.float64(2.5), "b": False},
        ],
    )
    def test_equals_kind_plus_scalar_bits(self, payload):
        expected = scalar_bits("alp") + sum(scalar_bits(v) for v in payload.values())
        assert payload_bits(payload) == expected - scalar_bits("alp")
        assert message_bits("alp", payload) == expected

    def test_non_string_kind_is_priced_as_a_scalar(self):
        assert message_bits(True, {}) == 1
        assert message_bits(1, {}) == 2

    def test_rejects_unsupported_values(self):
        with pytest.raises(SimulationError, match="unsupported"):
            message_bits("k", {"v": [1, 2]})


class TestImmutableMessage:
    def test_default_payload_is_empty(self):
        message = Message(0, 1, "k")
        assert message.payload == {}
        assert message.round_sent == 0
        assert message.bits == scalar_bits("k")

    def test_bits_field_is_kind_plus_payload(self):
        payload = {"x": 1.5, "id": 40}
        message = Message(2, 3, "prp", payload, round_sent=5)
        assert message.bits == scalar_bits("prp") + payload_bits(payload)

    def test_fields_cannot_be_assigned(self):
        message = Message(0, 1, "k", {"x": 1})
        with pytest.raises(AttributeError):
            message.kind = "other"
        with pytest.raises(TypeError):
            message.payload["x"] = 2
        with pytest.raises(TypeError):
            message.payload["y"] = 2

    def test_size_cannot_be_passed_in(self):
        with pytest.raises(TypeError):
            Message(0, 1, "k", {}, 0, 99)
        with pytest.raises(TypeError):
            Message(0, 1, "k", bits=99)

    def test_payload_is_a_copy_of_the_callers_dict(self):
        payload = {"x": 1}
        message = Message(0, 1, "k", payload)
        payload["x"] = 99
        assert message["x"] == 1

    def test_equality_and_integer_indexing(self):
        assert Message(0, 1, "k", {"x": 1}, 2) == Message(0, 1, "k", {"x": 1}, 2)
        assert Message(0, 1, "k", {"x": 1}) != Message(0, 1, "k", {"x": 2})
        message = Message(4, 5, "k")
        assert message[0] == 4 and message[1] == 5

    def test_pickles_and_copies(self):
        message = Message(0, 1, "k", {"x": 1.25}, round_sent=3)
        for clone in (pickle.loads(pickle.dumps(message)), copy.deepcopy(message)):
            assert clone == message
            assert type(clone) is Message
            with pytest.raises(TypeError):
                clone.payload["x"] = 0.0
