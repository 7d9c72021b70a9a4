"""Shared test helpers: reference simulators kept independent of the library."""

from __future__ import annotations

import numpy as np
import pytest


def reference_solo(z, q, phase=0):
    """Slot-by-slot greedy solo synthesis; the oracle for closed-form times."""
    t = 0
    i = 0
    while i < len(z):
        t += 1
        if z[i] == (phase + t - 1) % q:
            i += 1
    return t if len(z) else 0


def random_pair(rng: np.random.Generator, q: int, length: int):
    x = tuple(rng.integers(0, q, size=length).tolist())
    y = tuple(rng.integers(0, q, size=length).tolist())
    return x, y


class BlockDraws:
    """Buffered uniform draws on [0, base); numpy-Generator-shaped.

    The reference for rng.block_stream: integers(base) is served from
    blocks of ``block`` draws, each popped from its end. Other sizes are
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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
