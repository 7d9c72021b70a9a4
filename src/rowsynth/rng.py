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


def check_draw_base(base: int, draws: str) -> None:
    """Refuse, before any draw, a base numpy's int64 draw cannot hold: past 2**63.

    Every sampler that draws on [0, q) checks q here; ``draws`` names what
    it draws, and opens the message.
    """
    if base > 1 << 63:
        raise ConfigError(f"{draws}, so q must be <= 2**63, got {base}")


# block_stream turns a block's draws into Python ints this many at a time,
# as the stream reaches them: a random-policy trial reads one coin per tie,
# a small part of its block, and converting the whole block cost about half
# of the first coin's time. Measured with BENCH_15.json; CHANGES.md quotes
# the figures.
_RUN = 1024


def block_stream(gen: np.random.Generator, base: int, block: int = 8192):
    """Uniform draws on [0, base) from ``gen`` as a zero-argument callable.

    Blocks of ``block`` draws are taken when the one before runs out and
    read from their end, without a Python method call per draw; a block's
    draws become Python ints _RUN at a time, as the stream reaches them.
    The default block is the one both samplers read, the trial pass's
    coins and the offset chain's offsets. The base must pass
    check_draw_base.
    """
    def runs():
        while True:
            draws = gen.integers(0, base, size=block)
            for end in range(block, 0, -_RUN):
                yield draws[max(end - _RUN, 0):end][::-1].tolist()

    return chain.from_iterable(runs()).__next__
