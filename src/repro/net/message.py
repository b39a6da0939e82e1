"""Messages and their bit-size accounting.

The CONGEST model allows ``O(log N)`` bits per message. To make that claim
*measurable*, every message carries the number of bits a straightforward
binary encoding of its payload would take:

* ``bool`` — 1 bit;
* ``int`` — ``1 + max(1, |v|.bit_length())`` bits (sign + magnitude), which
  is ``O(log N)`` for values polynomial in the network size and exact for
  every magnitude;
* ``float`` — 64 bits (one machine word; the theory model assumes costs are
  polynomially-bounded integers, for which a word is ``O(log N)`` bits —
  see DESIGN.md, fidelity note on cost encoding);
* ``str`` — 8 bits per character (used only for the message *kind* tag,
  which is drawn from a constant-size protocol alphabet and therefore
  contributes ``O(1)`` bits);
* ``None`` — 1 bit.

Payload values are restricted to these scalar types; containers are
deliberately rejected so no protocol can smuggle unbounded data through a
single message unnoticed.

A :class:`Message` is an immutable tuple whose ``bits`` field is priced
once, when the message is built (:func:`message_bits`); its payload is a
read-only mapping. The simulator's hot path prices a broadcast once and
shares that one payload among all of its copies.
"""

from __future__ import annotations

from collections import namedtuple
from types import MappingProxyType
from typing import Any, Mapping

from repro.exceptions import SimulationError

__all__ = ["Message", "message_bits", "payload_bits", "scalar_bits"]

_FLOAT_BITS = 64
_CHAR_BITS = 8


def scalar_bits(value: Any) -> int:
    """Bit cost of one scalar payload value (see module docstring)."""
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 1 + max(1, abs(value).bit_length())
    if isinstance(value, float):
        return _FLOAT_BITS
    if isinstance(value, str):
        return _CHAR_BITS * max(1, len(value))
    raise SimulationError(
        f"unsupported message payload type {type(value).__name__}; "
        "only None/bool/int/float/str scalars may be sent"
    )


def payload_bits(payload: Mapping[str, Any]) -> int:
    """Total bit cost of a payload mapping (keys cost nothing: they are the
    fixed field names of the protocol's message format, not transmitted
    data)."""
    bits = 0
    for value in payload.values():
        # Floats, the values protocols send most, skip the type checks.
        bits += _FLOAT_BITS if type(value) is float else scalar_bits(value)
    return bits


#: Bit cost of each kind tag seen so far (protocol alphabets are tiny).
_KIND_BITS: dict[str, int] = {}


def message_bits(kind: str, payload: Mapping[str, Any]) -> int:
    """Encoded size of one message: ``scalar_bits(kind)``, remembered per
    tag string, plus :func:`payload_bits`."""
    if type(kind) is str:
        bits = _KIND_BITS.get(kind)
        if bits is None:
            bits = _KIND_BITS[kind] = scalar_bits(kind)
    else:
        bits = scalar_bits(kind)
    return bits + payload_bits(payload)


_EMPTY_PAYLOAD: Mapping[str, Any] = MappingProxyType({})

_MessageFields = namedtuple(
    "_MessageFields", "sender receiver kind payload round_sent bits"
)


class Message(_MessageFields):
    """One message in flight: an immutable tuple.

    Attributes
    ----------
    sender / receiver:
        Node identifiers (integers assigned by the topology).
    kind:
        Protocol-level message type tag, e.g. ``"alpha"`` or ``"open"``.
    payload:
        Read-only mapping of field name to scalar value.
    round_sent:
        The round in which the message was submitted; it is delivered at
        ``round_sent + 1``.
    bits:
        Encoded size (:func:`message_bits`), priced at construction.
    """

    __slots__ = ()

    def __new__(
        cls,
        sender: int,
        receiver: int,
        kind: str,
        payload: Mapping[str, Any] = _EMPTY_PAYLOAD,
        round_sent: int = 0,
    ) -> "Message":
        if type(payload) is not MappingProxyType:
            payload = MappingProxyType(dict(payload))
        bits = message_bits(kind, payload)
        return tuple.__new__(
            cls, (sender, receiver, kind, payload, round_sent, bits)
        )

    def get(self, key: str, default: Any = None) -> Any:
        """Convenience accessor into the payload."""
        return self.payload.get(key, default)

    def __getitem__(self, key):
        """``msg["field"]`` reads the payload; integer indices and slices
        read the tuple."""
        if type(key) is str:
            return self.payload[key]
        return tuple.__getitem__(self, key)

    def __reduce__(self):
        # A read-only payload view cannot be pickled; its dict can. The
        # size is priced again on load.
        return (
            type(self),
            (
                self.sender,
                self.receiver,
                self.kind,
                dict(self.payload),
                self.round_sent,
            ),
        )

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self.payload.items())
        return (
            f"Message({self.sender}->{self.receiver} @r{self.round_sent} "
            f"{self.kind}[{fields}])"
        )
