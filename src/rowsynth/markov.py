"""Offset-chain analysis: rotations, closed-form moments, the lookahead chain.

While both strands are incomplete the pair simulator is exactly a Markov
chain on the offset pair (a, b), where each offset is the distance mod q
from a strand's next symbol to the current emission. Interior states
decrement both offsets deterministically; a state with one zero offset
advances that strand and redraws its offset uniformly; (0, 0) is the tie,
the only policy-dependent state. A full rotation runs from one (0, 0) slot
up to (but not including) the next, and carries the per-strand advance
counts and its length in slots.

This module simulates that chain, decomposes traces into rotations,
evaluates the exact rotation moments, and builds the 16-state transition
matrix of the binary one-symbol-lookahead rule together with its
stationary distribution and per-slot synthesis rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .policies import TieDecision
from .rng import BlockDraws, master_rng


class OffsetState(NamedTuple):
    a: int
    b: int


class ChainEvent(Enum):
    ADVANCE_X = 1
    ADVANCE_Y = 2
    IDLE = 0


class ChainStep(NamedTuple):
    """One chain slot, duck-compatible with simulator StepRecords."""

    a: int
    b: int
    advanced: int | None


TieRule = Callable[[], TieDecision]


def _as_tie_rule(tie) -> TieRule:
    if isinstance(tie, TieDecision):
        return lambda: tie
    return tie


def chain_step(state: OffsetState, q: int, tie_rule, rng) -> tuple[OffsetState, ChainEvent]:
    """One slot of the offset chain.

    Both offsets positive: idle, both decrement. Exactly one zero: that
    strand advances, its offset redraws uniformly on [0, q), the other
    decrements. Both zero: the tie rule picks the advancing strand, whose
    offset redraws while the other becomes q - 1. ``tie_rule`` is a
    TieDecision or a zero-argument callable returning one; ``rng`` needs a
    numpy-style integers() method.
    """
    a, b = state
    if a > 0 and b > 0:
        return OffsetState(a - 1, b - 1), ChainEvent.IDLE
    if a == 0 and b > 0:
        return OffsetState(int(rng.integers(q)), b - 1), ChainEvent.ADVANCE_X
    if a > 0 and b == 0:
        return OffsetState(a - 1, int(rng.integers(q))), ChainEvent.ADVANCE_Y
    if _as_tie_rule(tie_rule)() is TieDecision.ADVANCE_X:
        return OffsetState(int(rng.integers(q)), q - 1), ChainEvent.ADVANCE_X
    return OffsetState(q - 1, int(rng.integers(q))), ChainEvent.ADVANCE_Y


@dataclass(frozen=True)
class RotationRecord:
    v_x: int
    v_y: int
    t_len: int


def decompose_rotations(trace: Iterable) -> list[RotationRecord]:
    """Split a slot stream into full rotations at visits to offset (0, 0).

    Accepts anything iterable over records with ``a``, ``b`` and
    ``advanced`` attributes (simulator traces, chain step lists). Slots
    before the first (0, 0) and the trailing incomplete rotation are
    discarded; an empty list means no complete rotation was found.
    """
    rotations: list[RotationRecord] = []
    open_rotation = False
    v_x = v_y = t_len = 0
    for rec in trace:
        at_tie = rec.a == 0 and rec.b == 0
        if at_tie:
            if open_rotation:
                rotations.append(RotationRecord(v_x, v_y, t_len))
            open_rotation = True
            v_x = v_y = t_len = 0
        if not open_rotation:
            continue
        t_len += 1
        if rec.advanced == 1:
            v_x += 1
        elif rec.advanced == 2:
            v_y += 1
    return rotations


@dataclass(frozen=True)
class RotationStats:
    """Empirical rotation moments with enough second-order info for tests.

    Carries the per-rotation means of the two advance counts and the
    length, their standard errors, and the covariance entries needed for
    delta-method error bars on derived quantities.
    """

    n: int
    mean_vx: float
    mean_vy: float
    mean_t: float
    var_vx: float
    var_vy: float
    var_t: float
    cov_vx_vy: float
    cov_t_vx: float

    @property
    def means(self) -> tuple[float, float, float]:
        return (self.mean_vx, self.mean_vy, self.mean_t)

    @property
    def stderr_vx(self) -> float:
        return math.sqrt(self.var_vx / self.n)

    @property
    def stderr_vy(self) -> float:
        return math.sqrt(self.var_vy / self.n)

    @property
    def stderr_t(self) -> float:
        return math.sqrt(self.var_t / self.n)

    @property
    def mean_diff(self) -> float:
        return self.mean_vx - self.mean_vy

    @property
    def stderr_diff(self) -> float:
        var = self.var_vx + self.var_vy - 2.0 * self.cov_vx_vy
        return math.sqrt(max(var, 0.0) / self.n)

    @property
    def ratio_t_vx(self) -> float:
        return self.mean_t / self.mean_vx

    @property
    def stderr_ratio(self) -> float:
        # delta method for mean_t / mean_vx
        ratio = self.ratio_t_vx
        var = (self.var_t - 2.0 * ratio * self.cov_t_vx + ratio * ratio * self.var_vx)
        return math.sqrt(max(var, 0.0) / self.n) / self.mean_vx


def _resolve_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return master_rng(rng)


def _rotations(q: int, tie_rule, draws) -> Iterator[tuple[int, int, int]]:
    """Consecutive full rotations of the offset chain from (0, 0), as (v_x, v_y, slots).

    ``tie_rule`` is consulted only at the (0, 0) slot that opens a rotation,
    so a callable rule sees the counts of every rotation already yielded.
    """
    state = OffsetState(0, 0)
    while True:
        v_x = v_y = slots = 0
        while True:
            state, event = chain_step(state, q, tie_rule, draws)
            slots += 1
            if event is ChainEvent.ADVANCE_X:
                v_x += 1
            elif event is ChainEvent.ADVANCE_Y:
                v_y += 1
            if state == (0, 0):
                break
        yield v_x, v_y, slots


def rotation_moments(q: int, n_rotations: int, rng, tie=TieDecision.ADVANCE_X) -> RotationStats:
    """Empirical rotation moments of the offset chain from (0, 0).

    Runs the chain with the given tie rule (the advancing strand at every
    tie; defaults to strand 1) for n_rotations complete rotations and
    accumulates exact integer sums, so the returned statistics are a pure
    function of the seed.
    """
    if n_rotations < 1:
        raise ValueError("need at least one rotation")
    draws = BlockDraws(_resolve_rng(rng), q)
    s_vx = s_vy = s_t = 0
    s_vx2 = s_vy2 = s_t2 = s_xy = s_tx = 0
    for v_x, v_y, t_len in islice(_rotations(q, _as_tie_rule(tie), draws), n_rotations):
        s_vx += v_x
        s_vy += v_y
        s_t += t_len
        s_vx2 += v_x * v_x
        s_vy2 += v_y * v_y
        s_t2 += t_len * t_len
        s_xy += v_x * v_y
        s_tx += t_len * v_x
    n = n_rotations
    m_vx, m_vy, m_t = s_vx / n, s_vy / n, s_t / n
    return RotationStats(
        n=n,
        mean_vx=m_vx,
        mean_vy=m_vy,
        mean_t=m_t,
        var_vx=s_vx2 / n - m_vx * m_vx,
        var_vy=s_vy2 / n - m_vy * m_vy,
        var_t=s_t2 / n - m_t * m_t,
        cov_vx_vy=s_xy / n - m_vx * m_vy,
        cov_t_vx=s_tx / n - m_t * m_vx,
    )


def closed_form_rotation(q: int) -> tuple[Fraction, Fraction, Fraction]:
    """Exact rotation moments under always-advance-strand-1 ties.

    Returns (E[V_X], E[V_Y], E[T]) = (q(q+3)/(2(q+1)), q(q-1)/(2(q+1)),
    q(q+3)/4).
    """
    if q < 2:
        raise ValueError("alphabet size must be >= 2")
    e_vx = Fraction(q * (q + 3), 2 * (q + 1))
    e_vy = Fraction(q * (q - 1), 2 * (q + 1))
    e_t = Fraction(q * (q + 3), 4)
    return e_vx, e_vy, e_t


def visit_values(q: int) -> tuple[dict[int, Fraction], dict[int, Fraction]]:
    """Expected strand-1 advances to the next tie, from each one-sided state.

    Returns two maps over 1 <= k <= q-1: the first from states (0, b) where
    strand 1 is about to advance, A_b = b/(q+1) + q/2; the second from
    states (a, 0), B_a = -a/(q+1) + q/2. They satisfy the order-2 linear
    recurrence A_{b+1} = 2 A_b - A_{b-1}, and the first-step identity
    E[V_X] = 1 + (1/q) * sum_r A_r recovers the closed-form rotation mean.
    """
    if q < 2:
        raise ValueError("alphabet size must be >= 2")
    a_side = {b: Fraction(b, q + 1) + Fraction(q, 2) for b in range(1, q)}
    b_side = {a: -Fraction(a, q + 1) + Fraction(q, 2) for a in range(1, q)}
    return a_side, b_side


# --- the binary one-symbol-lookahead chain ----------------------------------


def lf1_state_index(a: int, b: int, c: int, d: int) -> int:
    return 8 * a + 4 * b + 2 * c + 1 * d


def lf1_matrix() -> list[list[Fraction]]:
    """16x16 transition matrix of the binary lookahead tie rule.

    States are bit quadruples (a, b, c, d), indexed 8a + 4b + 2c + d: the
    two current offsets plus each strand's lookahead offset (the distance
    from its following symbol to the emission). Fresh lookahead bits are
    uniform, so rows split 1/2 / 1/2 wherever a strand advances; double
    idles are deterministic. Ties with equal lookahead bits advance strand
    1, which leaves the per-slot synthesis rate unchanged.
    """
    rows = [[Fraction(0)] * 16 for _ in range(16)]
    for s in range(16):
        a, b, c, d = (s >> 3) & 1, (s >> 2) & 1, (s >> 1) & 1, s & 1

        def put(a2, b2, c2, d2, p):
            rows[s][lf1_state_index(a2, b2, c2, d2)] += p

        half = Fraction(1, 2)
        if a == 1 and b == 1:
            put(0, 0, 1 - c, 1 - d, Fraction(1))
        elif a == 0 and b == 1:
            for u in (0, 1):  # strand 1 advances; fresh lookahead bit u
                put(1 - c, 0, u, 1 - d, half)
        elif a == 1 and b == 0:
            for v in (0, 1):
                put(0, 1 - d, 1 - c, v, half)
        elif c == 0 and d == 1:
            for v in (0, 1):  # only strand 2's lookahead matches the next slot
                put(1, 1 - d, 1 - c, v, half)
        else:
            for u in (0, 1):  # lookahead favours strand 1, or equal bits
                put(1 - c, 1, u, 1 - d, half)
    return rows


def _is_exact_matrix(rows) -> bool:
    return all(isinstance(v, (Fraction, int)) for row in rows for v in row)


def stationary(matrix) -> list[Fraction] | np.ndarray:
    """Stationary distribution of a row-stochastic matrix.

    Solves the left-eigenvector system with the normalization row replacing
    one balance equation. Matrices of Fractions (or ints) are solved
    exactly, so transient states come out exactly zero; float matrices go
    through numpy. Raises ValueError when a row does not sum to 1.
    """
    rows = [list(row) for row in matrix]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("transition matrix must be square")
    exact = _is_exact_matrix(rows)
    for k, row in enumerate(rows):
        total = sum(row)
        ok = (total == 1) if exact else abs(total - 1.0) <= 1e-9
        if not ok or any(v < 0 for v in row):
            raise ValueError(f"row {k} is not a probability distribution (sum {total})")
    if exact:
        return _stationary_exact([[Fraction(v) for v in row] for row in rows])
    a = np.asarray(rows, dtype=float).T - np.eye(n)
    a[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    pi = np.linalg.solve(a, rhs)
    return pi


def _stationary_exact(rows: list[list[Fraction]]) -> list[Fraction]:
    n = len(rows)
    # columns of (P^T - I), last balance equation replaced by sum(pi) = 1
    m = [[rows[j][i] - (Fraction(1) if i == j else Fraction(0)) for j in range(n)]
         for i in range(n)]
    m[n - 1] = [Fraction(1)] * n
    rhs = [Fraction(0)] * (n - 1) + [Fraction(1)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular balance system; chain has no unique stationary law")
        m[col], m[pivot] = m[pivot], m[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        rhs[col] *= inv
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [vr - f * vc for vr, vc in zip(m[r], m[col])]
                rhs[r] -= f * rhs[col]
    return rhs


def synthesis_rate(pi) -> Fraction | float:
    """Long-run synthesized symbols per slot under the lookahead chain law.

    A slot yields one symbol exactly when its state permits an advance,
    i.e. either current offset is zero (indices 0..11); the four double-idle
    states contribute nothing.
    """
    pi = list(pi)
    if len(pi) != 16:
        raise ValueError("expected a distribution over the 16 lookahead states")
    return sum(pi[:12])


def drift_series(q: int, n_rotations: int, rng, policy: str = "lf") -> list[tuple[int, float]]:
    """Running mean of |advance-count imbalance| at logarithmic checkpoints.

    Simulates the offset chain for n_rotations rotations, resolving each
    tie by the laggard-first rule on cumulative advance counts (or always
    strand 1 with policy="x-first", under which the imbalance drifts
    linearly). After rotation n the imbalance d_n is the difference of
    cumulative advances; returns (n, running mean of |d_n|) at checkpoints
    1, 2, 5, 10, ... plus the final n.
    """
    if n_rotations < 10:
        raise ValueError("need at least 10 rotations")
    if policy not in ("lf", "x-first"):
        raise ValueError(f"unknown chain policy {policy!r}")
    draws = BlockDraws(_resolve_rng(rng), q)
    checkpoints = set()
    base = 1
    while base <= n_rotations:
        for mult in (1, 2, 5):
            if mult * base <= n_rotations:
                checkpoints.add(mult * base)
        base *= 10
    checkpoints.add(n_rotations)
    x_tot = y_tot = 0
    sum_abs_d = 0

    def laggard_first():
        return TieDecision.ADVANCE_X if x_tot <= y_tot else TieDecision.ADVANCE_Y

    tie = laggard_first if policy == "lf" else TieDecision.ADVANCE_X
    out: list[tuple[int, float]] = []
    for n, (v_x, v_y, _) in enumerate(islice(_rotations(q, tie, draws), n_rotations), 1):
        x_tot += v_x
        y_tot += v_y
        sum_abs_d += abs(x_tot - y_tot)
        if n in checkpoints:
            out.append((n, sum_abs_d / n))
    return out
