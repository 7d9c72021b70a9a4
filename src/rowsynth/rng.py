"""Seeded randomness plumbing.

Every stochastic entry point derives its streams from a 64-bit master
seed through the counter-based Philox generator. Trials get substreams
keyed by (master seed, trial index), so results are a pure function of
the seed and independent of execution order or parallelism degree.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

DEFAULT_SEED = 0xDA7A


def validate_seed(seed: int) -> int:
    """Refuse a negative master seed, which numpy's SeedSequence cannot take."""
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    return seed


def master_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(validate_seed(seed))))


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Independent substream for one trial, keyed by (seed, index)."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(index,)))
    )


class BlockDraws:
    """Buffered uniform draws on [0, base); numpy-Generator-shaped.

    Scalar Generator.integers calls dominate tight simulation loops; this
    serves integers(base) from prefetched blocks instead. Other sizes are
    drawn from the generator directly, leaving the buffer untouched.
    """

    def __init__(self, gen: np.random.Generator, base: int, block: int = 8192):
        self._gen = gen
        self._base = base
        self._block = block
        self._buf: list[int] = []

    def integers(self, n: int) -> int:
        if n != self._base:
            return int(self._gen.integers(n))
        if not self._buf:
            self._buf = self._gen.integers(0, self._base, size=self._block).tolist()
        return self._buf.pop()
