"""Seedable, splittable random streams.

Every stochastic component draws from a counter-based Philox generator.
Streams are derived from a root seed plus a tuple of stream keys, so any
consumer (sampler, queue, weight init, data generator) can be reproduced
in isolation regardless of thread scheduling.
"""

from __future__ import annotations

import numpy as np


def make_rng(seed: int | np.random.Generator | None, *keys: int) -> np.random.Generator:
    """Build a Philox-backed generator for the stream identified by ``keys``.

    Passing an existing ``Generator`` returns it unchanged (the caller owns
    the stream); passing an integer derives an independent child stream per
    distinct key tuple; ``None`` draws fresh OS entropy.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        return np.random.Generator(np.random.Philox())
    entropy = (int(seed),) + tuple(int(k) for k in keys)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
