"""Deterministic randomness for distributed nodes.

Every node must flip its own coins — sharing one stream across nodes would
silently leak information between them and would also make results depend
on node scheduling order. :func:`spawn_node_rngs` derives one independent
``numpy`` generator per node from a single experiment seed using
``SeedSequence.spawn``, which guarantees streams that are both independent
and stable across runs and platforms.
"""

from __future__ import annotations

import numpy as np

__all__ = ["spawn_node_rngs", "node_rng", "derive_rng"]


def spawn_node_rngs(seed: int, num_nodes: int) -> list[np.random.Generator]:
    """One independent, reproducible generator per node.

    Parameters
    ----------
    seed:
        The experiment-level seed.
    num_nodes:
        How many node streams to derive.
    """
    root = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in root.spawn(num_nodes)]


def node_rng(seed: int, node: int) -> np.random.Generator:
    """The stream of one node, without spawning its siblings.

    ``SeedSequence.spawn`` keys each child purely by its index
    (``spawn_key=(i,)`` under the root entropy), so the stream of node
    ``i`` does not depend on how many siblings were spawned alongside it.
    This is bit-identical to ``spawn_node_rngs(seed, N)[node]`` for any
    ``N > node`` — which lets a million-node columnar run (where only
    facilities ever draw coins) build a stream only when a node first
    draws from it.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(node,)))


def derive_rng(seed: int, *keys: int) -> np.random.Generator:
    """A generator keyed by ``seed`` plus a tuple of integer sub-keys.

    Used when a component needs its own stream (e.g. the fault injector)
    that must not collide with any node stream: node streams use
    ``SeedSequence(seed).spawn`` while derived streams use entropy-extended
    sequences, so the two families never overlap.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, *keys)))
