"""Deterministic randomness for distributed nodes.

Every node must flip its own coins — sharing one stream across nodes would
silently leak information between them and would also make results depend
on node scheduling order. Node ``i``'s stream is
``SeedSequence(seed, spawn_key=(i,))`` feeding ``PCG64``
(:func:`node_rng`): the ``i``-th child of ``SeedSequence(seed).spawn``,
so streams are independent and stable across runs and platforms, and
one node's stream is built without its siblings.

Engines build a stream only for a node that draws. A simulator
:class:`~repro.net.node.Node` builds its ``Generator`` on its first draw,
and the loop engine keeps a :class:`NodeStreams` map filled the same way;
clients never draw, and dual facilities draw only under randomized
rounding. The columnar engine draws for thousands of facilities per
call, so it uses a :class:`CoinPlane` instead: the same streams, held as
numpy ``uint64`` limbs for a whole block of node ids, with
``random(ids)`` advancing only the rows drawn. The plane reproduces
numpy's seeding hash, PCG64's 128-bit step and its ``random()`` output
bit for bit; ``tests/test_net_support.py`` checks it against
:func:`node_rng`.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["node_rng", "NodeStreams", "derive_rng", "CoinPlane"]


def node_rng(seed: int, node: int) -> np.random.Generator:
    """The stream of one node, without spawning its siblings.

    ``SeedSequence.spawn`` keys each child purely by its index
    (``spawn_key=(i,)`` under the root entropy), so the stream of node
    ``i`` does not depend on how many siblings were spawned alongside it.
    This is bit-identical to
    ``default_rng(SeedSequence(seed).spawn(N)[node])`` for any ``N > node``.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(node,)))


class NodeStreams(dict):
    """Node id -> ``node_rng(seed, id)``, each built on its first lookup."""

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.seed = seed

    def __missing__(self, node: int) -> np.random.Generator:
        rng = self[node] = node_rng(self.seed, node)
        return rng


def derive_rng(seed: int, *keys: int) -> np.random.Generator:
    """A generator keyed by ``seed`` plus a tuple of integer sub-keys.

    Used when a component needs its own stream (e.g. the fault injector)
    that must not collide with any node stream: node streams use
    ``SeedSequence(seed).spawn`` while derived streams use entropy-extended
    sequences, so the two families never overlap.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, *keys)))


# ----------------------------------------------------------------------
# The coin plane
# ----------------------------------------------------------------------

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier, split into 64-bit limbs and the low
# limb into 32-bit halves for the high half of the 64x64 product.
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
_MULT_LO_0, _MULT_LO_1 = _PCG_MULT_LO & _M32, _PCG_MULT_LO >> 32


def _hash_consts(init: int, mult: int, count: int) -> list[tuple[int, int]]:
    """The (before, after) multiplier pairs of ``count`` hash calls.

    SeedSequence advances its hash multiplier on every call regardless
    of the value hashed, so the whole sequence is a constant.
    """
    pairs, const = [], init
    for _ in range(count):
        pairs.append((const, const * mult & _M32))
        const = pairs[-1][1]
    return pairs


def _columns(pairs: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """Multiplier pairs as two ``(k, 1)`` uint32 columns, one per row."""
    before, after = np.array(pairs, dtype=np.uint32).T
    return before[:, None], after[:, None]


# generate_state(4, uint64) hashes 8 words, cycling the pool twice.
_STATE_COLUMNS = _columns(_hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE))


def _words(value: int) -> list[int]:
    """``value`` as little-endian uint32 words (``0`` is one word)."""
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {value}")
    words = [value & _M32]
    while value > _M32:
        value >>= 32
        words.append(value & _M32)
    return words


def _mix(x, y):
    """SeedSequence's ``mix`` on uint32 ints or arrays."""
    result = ((_MIX_MULT_L * x & _M32) - _MIX_MULT_R * y) & _M32
    return result ^ (result >> 16)


def _hashmix(value, const: tuple[int, int]):
    """SeedSequence's ``hashmix`` with a precomputed multiplier pair."""
    value = ((value ^ const[0]) * const[1]) & _M32
    return value ^ (value >> 16)


def _seed_pool(seed: int) -> tuple[list[int], list[tuple[int, int]]]:
    """The mixing pool of ``SeedSequence(seed, spawn_key=(i,))`` before
    the spawn key is mixed in, plus the hash multipliers the key's word
    then uses. Both depend on ``seed`` alone."""
    entropy = _words(seed)
    # A spawned sequence pads its run entropy to the pool size.
    entropy += [0] * (_POOL_SIZE - len(entropy))
    extra = len(entropy) - _POOL_SIZE
    calls = _POOL_SIZE * _POOL_SIZE + (extra + 1) * _POOL_SIZE
    consts = iter(_hash_consts(_INIT_A, _MULT_A, calls))
    pool = [_hashmix(word, next(consts)) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(consts)))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, next(consts)))
    return pool, list(consts)


def _mulhi(a: np.ndarray) -> np.ndarray:
    """High 64 bits of ``a * _PCG_MULT_LO`` from 32-bit partial products."""
    a0, a1 = a & _M32, a >> 32
    p00, p01 = a0 * _MULT_LO_0, a0 * _MULT_LO_1
    p10, p11 = a1 * _MULT_LO_0, a1 * _MULT_LO_1
    mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
    return p11 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _step(hi, lo, inc_hi, inc_lo):
    """One PCG64 step, ``state * MULT + inc mod 2**128``, on uint64 limbs."""
    prod_lo = lo * _PCG_MULT_LO
    prod_hi = _mulhi(lo) + hi * _PCG_MULT_LO + lo * _PCG_MULT_HI
    new_lo = prod_lo + inc_lo
    return prod_hi + inc_hi + (new_lo < prod_lo), new_lo


class CoinPlane:
    """The :func:`node_rng` streams of node ids ``[start, stop)``, vectorized.

    ``random(ids)`` returns, for each id, the next value its own stream's
    ``Generator.random()`` would return, bit for bit, and advances only
    those rows. The plane holds four ``uint64`` limbs per node (PCG64's
    128-bit state and increment) and builds them on the first draw, so a
    run that never draws pays nothing.
    """

    def __init__(self, seed: int, start: int, stop: int) -> None:
        if not 0 <= start <= stop:
            raise ValueError(f"invalid node range [{start}, {stop})")
        if stop > 1 << 32:
            raise ValueError(
                f"node range [{start}, {stop}) reaches past 2**32; node ids "
                "that large have a two-word spawn key, which the plane does "
                "not implement"
            )
        self.seed = operator.index(seed)
        self.start, self.stop = start, stop
        self._limbs: np.ndarray | None = None  # (state hi, lo, inc hi, lo) x rows

    def _build(self) -> np.ndarray:
        """Seed every row: SeedSequence hash, then PCG64's seeding steps."""
        pool, consts = _seed_pool(self.seed)
        key = np.arange(self.start, self.stop, dtype=np.uint32)
        # Mix the one-word spawn key into each pool word: a (4, rows) pool.
        mixed = _mix(np.array(pool, dtype=np.uint32)[:, None], _hashmix(key, _columns(consts)))
        # generate_state(4, uint64): 8 words hashed cycling the pool twice,
        # paired little-endian into 4 uint64 words.
        words = _hashmix(np.tile(mixed, (2, 1)), _STATE_COLUMNS).astype(np.uint64)
        seed_hi, seed_lo, seq_hi, seq_lo = words[0::2] | (words[1::2] << 32)
        inc_hi = (seq_hi << 1) | (seq_lo >> 63)
        inc_lo = (seq_lo << 1) | 1
        # srandom: state = 0 -> step -> += seed -> step.
        lo = inc_lo + seed_lo
        hi = inc_hi + seed_hi + (lo < seed_lo)
        return np.stack([*_step(hi, lo, inc_hi, inc_lo), inc_hi, inc_lo])

    def random(self, ids: np.ndarray) -> np.ndarray:
        """The next ``random()`` of each node in ``ids`` (distinct ids)."""
        ids = np.asarray(ids, dtype=np.int64)
        if not ids.size:
            return np.empty(0)
        if self._limbs is None:
            self._limbs = self._build()
        rows = ids - self.start
        hi, lo = _step(*self._limbs[:, rows])
        self._limbs[:2, rows] = hi, lo
        # XSL-RR output, then the top 53 bits as a double in [0, 1).
        x = hi ^ lo
        rot = hi >> 58
        out = (x >> rot) | (x << ((64 - rot) & 63))
        return (out >> 11) * 2.0**-53
