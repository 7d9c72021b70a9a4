"""Seeded draw plumbing."""

from __future__ import annotations

import pytest

from rowsynth import ConfigError
from rowsynth.rng import block_stream, master_rng
from conftest import BlockDraws


class TestBlockDraws:
    def test_other_sizes_cover_their_whole_range(self):
        draws = BlockDraws(master_rng(1), 2)
        assert {draws.integers(5) for _ in range(200)} == set(range(5))

    def test_base_size_is_served_from_the_block(self):
        draws = BlockDraws(master_rng(2), 2)
        block = master_rng(2).integers(0, 2, size=8192).tolist()
        assert [draws.integers(2) for _ in range(50)] == block[::-1][:50]


@pytest.mark.parametrize("base, block", [(2, 8192), (2, 3), (5, 1), (7, 64), (2, 1024),
                                         (3, 1025), (4, 2500)])
def test_block_stream_is_the_block_draws_stream(base, block):
    draw = block_stream(master_rng(3), base, block)
    draws = BlockDraws(master_rng(3), base, block)
    n = 2 * block + 1100  # into a third block, across every run boundary of the first two
    assert [draw() for _ in range(n)] == [draws.integers(base) for _ in range(n)]


def test_master_rng_refuses_negative_seed():
    with pytest.raises(ConfigError, match="got -1"):
        master_rng(-1)
    assert master_rng(0).integers(2**32) == master_rng(0).integers(2**32)
