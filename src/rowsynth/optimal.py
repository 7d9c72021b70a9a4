"""Exact offline solver and combinatorial bounds.

The solver runs one wavefront over the progress cells (i, j), the symbols
done in each strand. Idle slots are forced, so a state is only needed
right after an advance: W(i, j, s) is the optimal remaining time at (i, j)
when strand s in {X, Y} advanced last, which fixes the next emission at
that strand's last symbol + 1. The start (0, 0) is the state just after
symbol q - 1. A strand u waits offset_u = (next_u - emission) mod q idle
slots and then advances, so

    W(i, j, s) = min over incomplete u of offset_u + 1 + W(next cell, u).

Taking the minimum over both strands, not only the one with the smaller
offset, gives the same value: idling past a usable slot never helps,
because dropping one advance from a schedule leaves a valid schedule of the
smaller instance. Every term lies on the anti-diagonal i + j + 1, so one
diagonal is one numpy step with no loop over cells. t_star keeps a single
diagonal per state, O(len_x + len_y) memory. An optimal schedule needs more
only where both strands can advance in the same slot, and there it takes X
iff W(i + 1, j, X) <= W(i, j + 1, Y): optimal_schedule keeps that one tie
bit per cell, packed eight to a byte, and runs the greedy simulator's walk
(model._run) with a tie rule that reads the bit, since an optimal schedule
never idles while a strand can advance. dp_solve keeps every diagonal and
expands them into the (i, j, r) table that reconstruct walks slot by slot;
the two are the reference API.

Alongside the solver live two fully independent cross-checks: a
brute-force minimum over all interleavings, and the binary runs/LCS
machinery that bounds the optimum combinatorially.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .errors import (
    BudgetExceededError,
    InvalidStrandError,
    TableIntegrityError,
    UnsupportedAlphabetError,
)
from .model import (
    ADVANCE_X,
    ADVANCE_Y,
    IDLE,
    Action,
    Schedule,
    Strand,
    _run,
    solo_time,
    validate_strand,
)

# Largest (len_x + 1) * (len_y + 1) * q table dp_solve builds. The table
# tuple takes 8 bytes per state and the kept wavefront 16 bytes per cell,
# so this is at most about 0.3 GB.
MAX_TABLE_STATES = 2 * 10**7

# Largest (len_x + 1) * (len_y + 1) cell count optimal_schedule keeps a tie
# bit for: 125 MB of bits, enough for two strands of about 31,600 symbols.
MAX_TIE_BITS = 10**9

# Stands for W at a cell past the end of a strand; larger than any
# completion time, so a term through such a cell never wins a minimum.
_UNREACHABLE = 1 << 60

# Table entries dp_solve expands from numpy to Python ints at a time.
_EXPAND_BLOCK = 1 << 16


@dataclass(frozen=True)
class DpTable:
    """Optimal remaining completion times, indexed by (i, j, r), zero-based."""

    q: int
    len_x: int
    len_y: int
    values: tuple[int, ...]

    def value(self, i: int, j: int, r: int) -> int:
        if not (0 <= i <= self.len_x and 0 <= j <= self.len_y and 0 <= r < self.q):
            raise IndexError(f"state ({i}, {j}, {r}) outside table")
        return self.values[(i * (self.len_y + 1) + j) * self.q + r]

    def __getitem__(self, state) -> int:
        return self.value(*state)


def _strand_arrays(z: Strand, q: int):
    """Per-position arrays of one strand, indexed by its progress k in [0, len].

    key[k]: the symbol advanced from k, plus q - 1 (the placeholder symbol
    at k = len is 0); last[k]: the symbol advanced into k, q - 1 before the
    first. The cost of advancing from k right after symbol s is
    _advance_costs(q)[key[k] - s].
    """
    key = np.array(z + (0,), dtype=np.int64) + (q - 1)
    last = np.concatenate(([q - 1], key[:-1] - (q - 1)))
    return key, last


def _advance_costs(q: int) -> np.ndarray:
    """offset + 1 slots to advance symbol a right after symbol s, at a - s + q - 1.

    The offset (a - s - 1) mod q counts the idle slots before a is emitted.
    """
    return (np.arange(2 * q - 1, dtype=np.int64) - q) % q + 1


def _wavefront(x: Strand, y: Strand, q: int, ties: list | None = None):
    """Yield (d, lo, wx, wy) for each anti-diagonal d = len_x + len_y, ..., 0.

    wx[k] and wy[k] are W(i, d - i, X) and W(i, d - i, Y) at i = lo + k.
    They are views of buffers the next step overwrites, so copy what must
    outlive it. A strand that has not advanced yet (X at i = 0, Y at j = 0)
    counts as having advanced symbol q - 1; only the start cell (0, 0)
    reads such an entry, and the last diagonal yields the optimum at wx[0].
    When ``ties`` is given, each computed diagonal d < len_x + len_y appends
    its tie bits, W(i + 1, j, X) > W(i, j + 1, Y) at bit k, packed
    big-endian into bytes.
    """
    lx, ly = len(x), len(y)
    cost = _advance_costs(q)
    x_key, x_last = _strand_arrays(x, q)
    y_key, y_last = _strand_arrays(y, q)
    x_self = cost[x_key - x_last]
    # y arrays reversed, so that y at j = d - i is a forward slice in i
    y_key, y_last = y_key[::-1], y_last[::-1]
    y_self = cost[y_key - y_last]
    # wx[i] and wy[i] hold the diagonal d + 1 while d is computed. A strand
    # that is complete reads _UNREACHABLE: X at i = lx reads wx[lx + 1], and
    # Y at j = ly reads wy[d - ly], set just before.
    wx = np.zeros(lx + 2, dtype=np.int64)
    wy = np.zeros(lx + 2, dtype=np.int64)
    wx[lx + 1] = _UNREACHABLE
    yield lx + ly, lx, wx[lx:lx + 1], wy[lx:lx + 1]
    for d in range(lx + ly - 1, -1, -1):
        lo, hi = max(0, d - ly), min(d, lx)
        if d >= ly:
            wy[lo] = _UNREACHABLE
        cx = slice(lo, hi + 1)
        cy = slice(ly - d + lo, ly - d + hi + 1)
        via_x = wx[lo + 1:hi + 2]
        via_y = wy[cx]
        xx = x_self[cx] + via_x
        xy = cost[y_key[cy] - x_last[cx]] + via_y
        yx = cost[x_key[cx] - y_last[cy]] + via_x
        yy = y_self[cy] + via_y
        if ties is not None:
            ties.append(np.packbits(via_x > via_y).tobytes())
        wx_d = wx[cx]
        wy_d = wy[cx]
        np.minimum(xx, xy, out=wx_d)
        np.minimum(yx, yy, out=wy_d)
        yield d, lo, wx_d, wy_d


def dp_solve(x, y, q: int) -> DpTable:
    """Fill the full table of optimal remaining times for a strand pair.

    Keeps every diagonal of the wavefront, then expands each row i of
    cells into value(i, j, r) = min over incomplete u of offset_u + 1 +
    W(next cell, u), with offset_u = (next_u - r) mod q. Refuses, before
    allocating, tables of more than MAX_TABLE_STATES states.
    O(len_x * len_y * q) time and space.
    """
    x = validate_strand(x, q)
    y = validate_strand(y, q)
    lx, ly = len(x), len(y)
    states = (lx + 1) * (ly + 1) * q
    if states > MAX_TABLE_STATES:
        raise BudgetExceededError(states, MAX_TABLE_STATES, what="solver table", unit="states")
    # W over cells (i, j) as flat (lx + 2) x (ly + 2) arrays; cell (i, d - i)
    # sits at i * (ly + 1) + d, so a diagonal is a strided slice
    stride = ly + 1
    wx_all = np.zeros((lx + 2) * (ly + 2), dtype=np.int64)
    wy_all = np.zeros((lx + 2) * (ly + 2), dtype=np.int64)
    for d, lo, wx, wy in _wavefront(x, y, q):
        cells = slice(lo * stride + d, (lo + len(wx) - 1) * stride + d + 1, stride)
        wx_all[cells] = wx
        wy_all[cells] = wy
    wx_all = wx_all.reshape(lx + 2, ly + 2)
    wy_all = wy_all.reshape(lx + 2, ly + 2)
    wx_all[lx + 1] = _UNREACHABLE
    wy_all[:, ly + 1] = _UNREACHABLE
    cost = _advance_costs(q)
    before_r = (np.arange(q, dtype=np.int64) - 1) % q  # symbol before emission r
    via_x_cost = cost[_strand_arrays(x, q)[0][:, None] - before_r]
    via_y_cost = cost[_strand_arrays(y, q)[0][:, None] - before_r]
    # rows of cells per expansion block, so numpy temporaries stay small
    block = max(1, _EXPAND_BLOCK // ((ly + 1) * q))
    # every entry is at most q slots per remaining symbol; the table shares
    # one Python int per value instead of allocating one per state
    ints = np.array(range(q * (lx + ly) + 1), dtype=object)

    def rows():
        for a in range(0, lx + 1, block):
            b = min(a + block, lx + 1)
            values = np.minimum(via_x_cost[a:b, None, :] + wx_all[a + 1:b + 1, :ly + 1, None],
                                via_y_cost[None, :, :] + wy_all[a:b, 1:, None])
            if b == lx + 1:
                values[-1, ly] = 0
            yield ints.take(values.ravel()).tolist()

    return DpTable(q, lx, ly, tuple(chain.from_iterable(rows())))


def t_star(x, y, q: int) -> int:
    """Optimal completion time of the pair, in O(len_x + len_y) memory.

    Equals dp_solve(x, y, q).value(0, 0, 0) without building the table.
    """
    x = validate_strand(x, q)
    y = validate_strand(y, q)
    for _, _, root, _ in _wavefront(x, y, q):
        pass
    return int(root[0])


@dataclass(frozen=True)
class OptimalResult:
    t_star: int
    schedule: Schedule


def reconstruct(x, y, table: DpTable) -> OptimalResult:
    """Walk an optimal schedule out of a solved table.

    From (0, 0, 0), each step takes an action consistent with the
    minimizing branch (ties between branches resolved toward X) and idles
    exactly when neither next symbol matches. The result always scores the
    table's root value; any disagreement raises TableIntegrityError.
    """
    q = table.q
    x = validate_strand(x, q)
    y = validate_strand(y, q)
    lx, ly = len(x), len(y)
    if table.len_x != lx or table.len_y != ly:
        raise TableIntegrityError(
            f"table was built for lengths ({table.len_x}, {table.len_y}), "
            f"got strands of lengths ({lx}, {ly})"
        )
    target = table.value(0, 0, 0)
    limit = q * (lx + ly) + q  # any advance waits at most q slots
    actions: list[Action] = []
    i = j = r = 0
    while i < lx or j < ly:
        if len(actions) > limit:
            raise TableIntegrityError("walk exceeded the maximal possible schedule length")
        rn = (r + 1) % q
        can_x = i < lx and x[i] == r
        can_y = j < ly and y[j] == r
        if can_x and can_y:
            if table.value(i + 1, j, rn) <= table.value(i, j + 1, rn):
                actions.append(ADVANCE_X)
                i += 1
            else:
                actions.append(ADVANCE_Y)
                j += 1
        elif can_x:
            actions.append(ADVANCE_X)
            i += 1
        elif can_y:
            actions.append(ADVANCE_Y)
            j += 1
        else:
            actions.append(IDLE)
        r = rn
    if len(actions) != target:
        raise TableIntegrityError(
            f"reconstructed schedule takes {len(actions)} slots, table claims {target}"
        )
    return OptimalResult(target, Schedule(tuple(actions)))


def optimal_schedule(x, y, q: int) -> OptimalResult:
    """An optimal schedule from one tie bit per cell, without the (i, j, r) table.

    Equals reconstruct(x, y, dp_solve(x, y, q)). The schedule is the greedy
    walk of model._run: the strand whose next symbol comes round first
    advances after that many idles, and when both come round in the same
    slot the tie bit of the cell picks X iff W(i + 1, j, X) <=
    W(i, j + 1, Y), reconstruct's rule. Refuses, before allocating, more
    than MAX_TIE_BITS cells, and raises TableIntegrityError if the walk
    does not score the optimum. O(len_x * len_y) time and bits.
    """
    x = validate_strand(x, q)
    y = validate_strand(y, q)
    lx, ly = len(x), len(y)
    cells = (lx + 1) * (ly + 1)
    if cells > MAX_TIE_BITS:
        raise BudgetExceededError(cells, MAX_TIE_BITS, what="tie-bit table", unit="bits")
    ties: list[bytes] = []  # diagonal d at ties[lx + ly - 1 - d]
    for _, _, root, _ in _wavefront(x, y, q, ties):
        pass
    target = int(root[0])
    top = lx + ly - 1

    def tie_bit_rule(i, j, r, la_x, la_y, n, coin):
        k = i - max(0, i + j - ly)  # cell (i, j) within its diagonal
        return not (ties[top - i - j][k >> 3] >> (7 - (k & 7))) & 1

    actions: list[Action] = []
    t = _run(x, y, q, tie_bit_rule, None, False, actions)
    if t != target:
        raise TableIntegrityError(f"tie-bit walk takes {t} slots, the solver claims {target}")
    return OptimalResult(target, Schedule(tuple(actions)))


def enumerate_interleavings_min(x, y, q: int, budget: int = 10**6) -> int:
    """Brute-force optimum: minimum solo time over every merge of x and y.

    Scheduling both strands equals solo-synthesizing some interleaving (one
    symbol per slot, each belonging to one strand), so the minimum over all
    C(len_x + len_y, len_x) merges is the optimal completion time. Entirely
    independent of dp_solve; refuses instances over the budget.
    """
    x = validate_strand(x, q)
    y = validate_strand(y, q)
    n, m = len(x), len(y)
    count = math.comb(n + m, n)
    if count > budget:
        raise BudgetExceededError(count, budget)
    best: int | None = None
    total = n + m
    for xpos in combinations(range(total), n):
        mask = [False] * total
        for p in xpos:
            mask[p] = True
        merged = []
        xi = yi = 0
        for p in range(total):
            if mask[p]:
                merged.append(x[xi])
                xi += 1
            else:
                merged.append(y[yi])
                yi += 1
        t = solo_time(merged, q)
        if best is None or t < best:
            best = t
    return 0 if best is None else best


def runs_count(z) -> int:
    """Number of adjacent unequal symbol pairs; 0 for length <= 1."""
    z = tuple(z)
    return sum(1 for a, b in zip(z, z[1:]) if a != b)


def _require_binary(z, name: str) -> Strand:
    z = tuple(z)
    if any(s not in (0, 1) for s in z):
        raise UnsupportedAlphabetError(f"{name} requires a binary strand")
    return validate_strand(z, 2)


def binary_runs_time(z) -> int:
    """Closed-form binary solo time from the run count.

    A symbol change costs one slot and a repeat costs two, so a strand of
    length n with rho runs takes 2n - 1 - rho slots when it opens with the
    first emission (symbol 0), plus one slot when it opens with 1. Agrees
    with solo_time(z, 2) on every binary strand.
    """
    z = _require_binary(z, "binary_runs_time")
    if not z:
        raise InvalidStrandError("binary_runs_time requires a nonempty strand")
    return 2 * len(z) - 1 - runs_count(z) + (1 if z[0] == 1 else 0)


def lcs_length(u, v) -> int:
    """Length of the longest common subsequence (quadratic, rolling row)."""
    u = tuple(u)
    v = tuple(v)
    if not u or not v:
        return 0
    prev = [0] * (len(v) + 1)
    for a in u:
        cur = [0]
        append = cur.append
        for k, b in enumerate(v, start=1):
            if a == b:
                append(prev[k - 1] + 1)
            else:
                pk = prev[k]
                ck = cur[k - 1]
                append(pk if pk >= ck else ck)
        prev = cur
    return prev[-1]


def complement(z) -> Strand:
    """Bitwise complement of a binary strand."""
    z = _require_binary(z, "complement")
    return tuple(1 - s for s in z)


def lcs_upper_bound(x, y) -> int:
    """Combinatorial upper bound on the binary optimum: 4L - 2*LCS(x, ~y).

    Matched symbols between x and the complement of y can be interleaved
    into runs costing one slot each (2*LCS slots), while every unmatched
    symbol costs at most two (4(L - LCS) slots).
    """
    x = _require_binary(x, "lcs_upper_bound")
    y = _require_binary(y, "lcs_upper_bound")
    if len(x) != len(y) or not x:
        raise InvalidStrandError("lcs_upper_bound requires equal nonzero lengths")
    return 4 * len(x) - 2 * lcs_length(x, complement(y))
