"""Seeded draw plumbing."""

from __future__ import annotations

import pytest

from rowsynth import ConfigError
from rowsynth.rng import BlockDraws, master_rng


class TestBlockDraws:
    def test_other_sizes_cover_their_whole_range(self):
        draws = BlockDraws(master_rng(1), 2)
        assert {draws.integers(5) for _ in range(200)} == set(range(5))

    def test_base_size_is_served_from_the_block(self):
        draws = BlockDraws(master_rng(2), 2)
        block = master_rng(2).integers(0, 2, size=8192).tolist()
        assert [draws.integers(2) for _ in range(50)] == block[::-1][:50]


def test_master_rng_refuses_negative_seed():
    with pytest.raises(ConfigError, match="got -1"):
        master_rng(-1)
    assert master_rng(0).integers(2**32) == master_rng(0).integers(2**32)
