"""Seeded randomness plumbing.

Every stochastic entry point derives its streams from a 64-bit master
seed through the counter-based Philox generator. Trials get substreams
keyed by (master seed, trial index), so results are a pure function of
the seed and independent of execution order or parallelism degree.
"""

from __future__ import annotations

from itertools import chain

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


# block_stream turns a block's draws into Python ints this many at a time,
# as the stream reaches them: a Monte Carlo trial of the random policy reads
# one coin per tie, about 1,000 at q=4 and 2,000 at q=2 for L=2000, of its
# block of 8192, and converting the whole block took 55 us of the first
# coin's 105-120 us (2-vCPU VM, best of 7).
_RUN = 1024


def block_stream(gen: np.random.Generator, base: int, block: int = 8192):
    """Uniform draws on [0, base) from ``gen`` as a zero-argument callable.

    Blocks of ``block`` draws are taken when the one before runs out and
    read from their end, without a Python method call per draw; a block's
    draws become Python ints _RUN at a time, as the stream reaches them.
    """
    def runs():
        while True:
            draws = gen.integers(0, base, size=block)
            for end in range(block, 0, -_RUN):
                yield draws[max(end - _RUN, 0):end][::-1].tolist()

    return chain.from_iterable(runs()).__next__
