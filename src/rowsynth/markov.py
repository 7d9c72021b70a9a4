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
evaluates the exact rotation moments, and builds exact transition matrices
from the tie rule the simulator asks (TiePolicy.bind), with or without
each strand's lookahead offset. lf1's rule at q=2 gives the 16-state
binary lookahead chain, with its stationary law and per-slot synthesis rate.

``chain_step`` is the slot-by-slot reference. The rotation sampler behind
``rotation_moments`` and ``drift_series`` steps from advance to advance
instead: the min(a, b) forced idles after an advance are one step, and
the named policy's catalog rule, the one the simulator asks, is asked
once per rotation. An advance takes exactly one uniform draw, in the
order ``chain_step`` takes it, so the draw stream and every fixed-seed
result are those of the slot-by-slot chain. Exact stationary laws come
from sparse fraction-free Gauss-Jordan elimination on rows of Python ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import chain, compress, count, islice, product
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .model import validate_alphabet
from .policies import LF1, Tie, TieDecision, TiePolicy, policy_catalog
from .rng import block_stream, check_draw_base, master_rng


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


def chain_step(state: OffsetState, q: int, tie: TieDecision, rng) -> tuple[OffsetState, ChainEvent]:
    """One slot of the offset chain.

    Both offsets positive: idle, both decrement. Exactly one zero: that
    strand advances, its offset redraws uniformly on [0, q), the other
    decrements. Both zero: ``tie`` is the advancing strand, whose offset
    redraws while the other becomes q - 1. ``rng`` needs a numpy-style
    integers() method.
    """
    a, b = state
    if a > 0 and b > 0:
        return OffsetState(a - 1, b - 1), ChainEvent.IDLE
    if a == 0 and b > 0:
        return OffsetState(int(rng.integers(q)), b - 1), ChainEvent.ADVANCE_X
    if a > 0 and b == 0:
        return OffsetState(a - 1, int(rng.integers(q))), ChainEvent.ADVANCE_Y
    if tie is TieDecision.ADVANCE_X:
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


def _policy_rotations(q: int, n_rotations: int, rng, policy: str) -> Iterator[tuple[int, int, int]]:
    """The first n_rotations rotations under the named policy's catalog rule.

    q and the policy are checked before any draw: q must pass
    rng.check_draw_base. The chain keeps advances and ties but no lookahead
    symbols or coin, so lf1, random and unknown names raise ValueError.
    ``rng`` is a numpy Generator or a master seed.
    """
    validate_alphabet(q)
    check_draw_base(q, "the offset chain draws int64 offsets")
    runnable = {p.name: p for p in policy_catalog() if not (p.lookahead or p.uses_rng)}
    if policy not in runnable:
        raise ValueError(f"the offset chain cannot run policy {policy!r}; "
                         f"it runs {', '.join(runnable)}")
    gen = rng if isinstance(rng, np.random.Generator) else master_rng(rng)
    return islice(_rotations(q, runnable[policy].bind(q), gen), n_rotations)


def _rotations(q: int, tie: Tie, gen) -> Iterator[tuple[int, int, int]]:
    """Consecutive full rotations of the offset chain from (0, 0), as (v_x, v_y, slots).

    Steps from advance to advance: after each advance the forced idles,
    min(a, b) of them, are skipped in one step, and a rotation closes when
    that skip lands on (0, 0). Every advance takes one draw on [0, q) from
    the numpy Generator ``gen`` in rng.block_stream's blocks, each read
    from its end, in the order ``chain_step`` takes it, so a slot-by-slot
    ``chain_step`` loop on the same stream gives the same rotations. The
    bound tie rule is asked at the (0, 0) slot that opens a rotation, as
    ``tie(adv_x, adv_y, 1, rotation)``: each strand's advances and the ties
    (rotations) before it, at a slot that emits 0.
    """
    draw = block_stream(gen, q)
    top = q - 1
    adv_x = adv_y = 0
    for rotation in count():
        if tie(adv_x, adv_y, 1, rotation):
            a, b, v_x, v_y = draw(), top, 1, 0
        else:
            a, b, v_x, v_y = top, draw(), 0, 1
        slots = 1
        while a != b:
            if a < b:  # idle down to (0, b - a), then strand 1 advances
                slots += a + 1
                b -= a + 1
                a = draw()
                v_x += 1
            else:
                slots += b + 1
                a -= b + 1
                b = draw()
                v_y += 1
        adv_x += v_x
        adv_y += v_y
        yield v_x, v_y, slots + a


def rotation_moments(q: int, n_rotations: int, rng, policy: str = "x-first") -> RotationStats:
    """Empirical rotation moments of the offset chain from (0, 0).

    Runs the chain for n_rotations complete rotations, resolving each tie
    by the named catalog policy (x-first, y-first, lf or round-robin), and
    accumulates exact integer sums, so the returned statistics are a pure
    function of the seed. The closed forms hold under x-first.
    """
    if n_rotations < 1:
        raise ValueError("need at least one rotation")
    rotations = _policy_rotations(q, n_rotations, rng, policy)
    s_vx = s_vy = s_t = 0
    s_vx2 = s_vy2 = s_t2 = s_xy = s_tx = 0
    for v_x, v_y, t_len in rotations:
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
    validate_alphabet(q)
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
    The output is 2(q - 1) Fractions, O(q) by definition, and that is its
    documented limit rather than a budget: about 200 bytes per entry.
    """
    validate_alphabet(q)
    a_side = {b: Fraction(b, q + 1) + Fraction(q, 2) for b in range(1, q)}
    b_side = {a: -Fraction(a, q + 1) + Fraction(q, 2) for a in range(1, q)}
    return a_side, b_side


# --- chains built from tie rules, and the binary one-symbol-lookahead chain --


def _offset_chain(q: int, policy: TiePolicy, depth: int) -> list[list[Fraction]]:
    """Exact transition rows of the offset chain under a policy's tie rule.

    A state holds the offsets (a, b), plus at depth 1 each strand's
    lookahead offset (c, d), in lexicographic order (8a + 4b + 2c + d at
    q=2). Each slot counts every offset down by one mod q. The advancing
    strand takes its lookahead offset as its new offset, and the slot this
    frees redraws, each value with probability 1/q. At (0, 0) the chain
    binds the policy to {0: c} and {0: d} and asks tie(0, 0, 1, 0): at
    emission 0 an offset is its symbol.
    """
    states = list(product(range(q), repeat=2 + 2 * depth))
    index = {state: k for k, state in enumerate(states)}
    zero, share, one = Fraction(0), Fraction(1, q), Fraction(1)  # shared by every row
    rows = []
    for a, b, *look in states:
        row = [zero] * len(states)
        rows.append(row)
        nxt = [(v - 1) % q for v in (a, b, *look)]
        if a and b:
            row[index[tuple(nxt)]] = one
            continue
        if a or b:
            adv = 1 if a else 0  # the advancing strand: 0 for X, 1 for Y
        else:
            c, d = look or (None, None)
            adv = 0 if policy.bind(q, {0: c}, {0: d})(0, 0, 1, 0) else 1
        if depth:
            nxt[adv] = nxt[adv + 2]
        for v in range(q):  # each draw lands on its own state
            nxt[adv + 2 * depth] = v
            row[index[tuple(nxt)]] = share
    return rows


def lf1_matrix() -> list[list[Fraction]]:
    """16x16 transition matrix of the binary lookahead tie rule.

    States are bit quadruples (a, b, c, d), indexed 8a + 4b + 2c + d: the
    two current offsets plus each strand's lookahead offset (the distance
    from its following symbol to the emission). Fresh lookahead bits are
    uniform, so rows split 1/2 / 1/2 wherever a strand advances; double
    idles are deterministic. Ties ask lf1's own rule, so equal lookahead
    bits advance strand 1, which leaves the per-slot synthesis rate unchanged.
    """
    return _offset_chain(2, LF1, 1)


def stationary(matrix) -> list[Fraction] | np.ndarray:
    """Stationary distribution of a row-stochastic matrix.

    Matrices of Fractions (or ints) are solved exactly, so transient states
    come out exactly zero; float matrices go through numpy. Raises
    ValueError when the matrix is empty or not square, when a row does not
    sum to 1 or has a negative entry, and when the stationary law is not unique.
    """
    rows = [list(row) for row in matrix]
    n = len(rows)
    if n == 0:
        raise ValueError("transition matrix is empty")
    if any(len(row) != n for row in rows):
        raise ValueError("transition matrix must be square")
    if all(issubclass(t, (Fraction, int)) for t in set(map(type, chain.from_iterable(rows)))):
        return _stationary_exact(rows)
    for k, row in enumerate(rows):
        total = sum(row)
        if not abs(total - 1.0) <= 1e-9 or any(v < 0 for v in row):
            raise ValueError(f"row {k} is not a probability distribution (sum {total})")
    a = np.asarray(rows, dtype=float).T - np.eye(n)
    a[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    return np.linalg.solve(a, rhs)


def _stationary_exact(rows) -> list[Fraction]:
    """Exact stationary law of a stochastic matrix of Fractions or ints.

    Row j is checked on its nonzero entries in integers: scaled by the lcm
    D_j of their denominators, they must be nonnegative and sum to D_j. In
    y_j = pi_j / D_j the balance equations are rows {column: int}; all n sum
    to zero, so the first n - 1 are kept, and no normalization row fills
    them in. Sparse fraction-free Gauss-Jordan elimination pivots on the
    shortest remaining row, in its column held by the fewest rows
    (Markowitz 1957), updates only the rows holding that column and divides
    each by its gcd. Fewer than n - 1 pivots means no unique law.
    """
    n = len(rows)
    eqs, cols, scale = [{} for _ in range(n)], [], []  # cols[j]: the rows holding column j
    for j, row in enumerate(rows):
        nonzero = list(compress(range(n), row))
        den = math.lcm(*[row[i].denominator for i in nonzero])
        nums = [row[i].numerator * (den // row[i].denominator) for i in nonzero]
        if sum(nums) != den or min(nums, default=0) < 0:
            raise ValueError(f"row {j} is not a probability distribution "
                             f"(sum {Fraction(sum(nums), den)})")
        for i, num in zip(nonzero, nums):
            eqs[i][j] = num
        eqs[j][j] = eqs[j].get(j, 0) - den
        cols.append(set(nonzero) | {j})
        if not eqs[j][j]:
            del eqs[j][j]
            cols[j].remove(j)
        cols[j].discard(n - 1)
        scale.append(den)
    eqs.pop()
    todo, sizes, pivots = set(range(n - 1)), [len(eq) for eq in eqs], []
    while todo:
        r = min(todo, key=sizes.__getitem__)
        prow = eqs[r]
        if not prow:
            raise ValueError("singular balance system; chain has no unique stationary law")
        todo.remove(r)
        c = min(prow, key=lambda j: len(cols[j]))
        pivots.append((r, c))
        p = prow.pop(c)
        for i in cols[c] - {r}:
            f = eqs[i].pop(c)
            g = math.gcd(p, f)
            a, b = p // g, f // g
            row = {k: a * v for k, v in eqs[i].items()} if a != 1 else eqs[i]
            for k, v in prow.items():
                w = row.get(k, 0) - b * v
                if w:
                    row[k] = w
                    cols[k].add(i)
                else:
                    del row[k]
                    cols[k].remove(i)
            g = math.gcd(*row.values())
            eqs[i] = {k: v // g for k, v in row.items()} if g > 1 else row
            sizes[i] = len(row)
        prow[c] = p
        cols[c] = {r}
    free = (set(range(n)) - {c for _, c in pivots}).pop()
    top = math.lcm(*(eqs[r][c] for r, c in pivots))
    y = {c: -eqs[r].get(free, 0) * (top // eqs[r][c]) for r, c in pivots}
    w = [y.get(j, top) * d for j, d in enumerate(scale)]  # y[free] = top
    total = sum(w)
    return [Fraction(v, total) for v in w]


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
    tie by the named catalog policy as ``rotation_moments`` does: under lf
    the imbalance stays bounded, under x-first it drifts linearly. After
    rotation n the imbalance d_n is the difference of cumulative advances;
    returns (n, running mean of |d_n|) at checkpoints 1, 2, 5, 10, ... plus
    the final n.
    """
    if n_rotations < 10:
        raise ValueError("need at least 10 rotations")
    rotations = _policy_rotations(q, n_rotations, rng, policy)
    # 1, 2, 5, 10, 20, 50, ... up to n_rotations's decade, and n_rotations itself
    checkpoints = {m * 10**e for e in range(len(str(n_rotations))) for m in (1, 2, 5)}
    checkpoints.add(n_rotations)
    x_tot = y_tot = 0
    sum_abs_d = 0
    out: list[tuple[int, float]] = []
    for n, (v_x, v_y, _) in enumerate(rotations, 1):
        x_tot += v_x
        y_tot += v_y
        sum_abs_d += abs(x_tot - y_tot)
        if n in checkpoints:
            out.append((n, sum_abs_d / n))
    return out
