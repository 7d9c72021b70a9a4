"""The benchmark's yardstick of machine speed.

The benchmark was defined on a 2-vCPU x86_64 VM that shares its host. The
host's load changes the VM's speed by tens of percent, within seconds and
between runs, and process CPU time moves with wall time there. So the
benchmark samples fixed pure-Python work of its own between requests and
scales the request and span times it reports by
``NOMINAL_S / median(sample)``. Its figures then read as if the machine
ran at the speed where the work's median is ``NOMINAL_S``, about that
VM's typical speed.

The work runs no program code, so a change to the program cannot move it.
Contention slows different kinds of code by different amounts, so the
work has one part shaped like each of the program's hot loops: integer
arithmetic, a greedy pair loop that builds a tuple at every tie, a
backward fill of a flat (i, j, r) table, and offset-chain steps that
build a tuple every slot and pop buffered draws.
"""

from __future__ import annotations

import statistics
import time
from collections import namedtuple

NOMINAL_S = 0.004
SHARE = 0.1  # share of the timed phase spent on the yardstick

_Tie = namedtuple("_Tie", "i j r q ties")
_Offsets = namedtuple("_Offsets", "a b")


def _pseudo_strand(n: int, q: int, salt: int) -> list[int]:
    return [(k * 7 + k // 3 + salt) % q for k in range(n)]


def _arithmetic(n: int = 9_000) -> None:
    acc = 0
    for k in range(n):
        acc += k * k % 7


def _greedy(n: int = 600, q: int = 2) -> None:
    x, y = _pseudo_strand(n, q, 0), _pseudo_strand(n, q, 1)[::-1]
    i = j = r = ties = 0
    while i < n or j < n:
        can_x = i < n and x[i] == r
        can_y = j < n and y[j] == r
        if can_x and can_y:
            tie = _Tie(i, j, r, q, ties)
            ties += 1
            if tie.i <= tie.j:
                i += 1
            else:
                j += 1
        elif can_x:
            i += 1
        elif can_y:
            j += 1
        r = r + 1 if r + 1 < q else 0


def _table(n: int = 30, q: int = 2) -> None:
    x, y = _pseudo_strand(n, q, 0), _pseudo_strand(n, q, 1)[::-1]
    stride_i, stride_j = (n + 1) * q, q
    table = [0] * ((n + 1) * (n + 1) * q)
    for i in range(n, -1, -1):
        for j in range(n, -1, -1):
            base = i * stride_i + j * stride_j
            for r in range(q):
                rn = (r + 1) % q
                can_x = i < n and x[i] == r
                can_y = j < n and y[j] == r
                if can_x and can_y:
                    table[base + r] = 1 + min(table[base + stride_i + rn],
                                              table[base + stride_j + rn])
                elif can_x:
                    table[base + r] = 1 + table[base + stride_i + rn]
                elif can_y:
                    table[base + r] = 1 + table[base + stride_j + rn]
                elif i < n or j < n:
                    table[base + r] = 1 + table[base + rn]
    tuple(table)


def _chain(slots: int = 800, q: int = 3) -> None:
    draws: list[int] = []
    state = _Offsets(0, 0)
    for k in range(slots):
        if not draws:
            draws = [(m * 40503 + k) % q for m in range(512)]
        a, b = state
        if a and b:
            state = _Offsets(a - 1, b - 1)
        elif b:
            state = _Offsets(draws.pop(), b - 1)
        elif a:
            state = _Offsets(a - 1, draws.pop())
        else:
            state = _Offsets(draws.pop(), q - 1)


def work() -> float:
    """Seconds taken by one sample of the fixed work."""
    start = time.perf_counter()
    _arithmetic()
    _greedy()
    _table()
    _chain()
    return time.perf_counter() - start


class Yardstick:
    """Samples of the work, spread over a phase; ``scale()`` converts times."""

    def __init__(self):
        self.samples: list[float] = []
        self._total = 0.0
        self._start = time.perf_counter()

    def once(self) -> None:
        self.samples.append(work())
        self._total += self.samples[-1]

    def sample(self) -> None:
        """Sample until the work has taken SHARE of the time since creation."""
        while self._total < SHARE * (time.perf_counter() - self._start):
            self.once()

    def scale(self) -> float:
        if not self.samples:
            self.once()
        return NOMINAL_S / statistics.median(self.samples)
