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
diagonal is one numpy step with no loop over cells.

The wavefront runs on potential-shifted values. With xs[i] the cost of
advancing x[i] right after x[i - 1] (ys[j] likewise), PX and PY their
prefix sums and phi(i, j) = PX[i] + PY[j], the values U = W(., ., X) + phi
and V = W(., ., Y) + phi obey

    U(i, j) = min(U(i + 1, j), V(i, j + 1) + E(i, j))
    V(i, j) = min(U(i + 1, j) + F(i, j), V(i, j + 1))

with E = cost(y[j] after x[i - 1]) - ys[j] and F = cost(x[i] after
y[j - 1]) - xs[i]: a strand that advances again after itself pays nothing.
E and F depend only on the instance, so they are computed for a band of
diagonals at a time, at most _BAND_CELLS cells per band, and a diagonal is
then two adds and two minimums into preallocated buffers. At the root
phi(0, 0) = 0, so U(0, 0) is the optimum. Several pairs of equal lengths
solve as lanes of one wavefront: cell i of lane b sits at i * B + b, so
every lane's diagonal is one contiguous slice. Memory is O((len_x + len_y)
* B) plus one band. t_star keeps only the current diagonal. An optimal
schedule needs more only where both strands can advance in the same slot,
and there it takes X iff W(i + 1, j, X) <= W(i, j + 1, Y). Since an
optimal schedule never idles while a strand can advance, both schedule
builders run the greedy simulator's walk (model._run) with a tie rule that
reads the solver: optimal_schedule keeps one tie bit per cell, packed
eight to a byte, and reads the bit. dp_solve keeps every diagonal,
subtracts phi, summed from the solo steps, and expands them into the
(i, j, r) table, where advancing strand u costs (next_u - r) mod q + 1
slots when r is the next emission; reconstruct compares its two entries
after the tie. The two are the reference API.

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
    Action,
    Schedule,
    Strand,
    _run,
    _solo_time,
    validate_strand,
)

# Largest (len_x + 1) * (len_y + 1) * q table dp_solve builds. The table
# tuple takes 8 bytes per state and the kept wavefront 16 bytes per cell,
# so this is at most about 0.3 GB.
MAX_TABLE_STATES = 2 * 10**7

# Largest (len_x + 1) * (len_y + 1) cell count optimal_schedule keeps a tie
# bit for: 125 MB of bits, enough for two strands of about 31,600 symbols.
MAX_TIE_BITS = 10**9

# Stands for U or V at a cell past the end of a strand; larger than any
# completion time, so a term through such a cell never wins a minimum.
_UNREACHABLE = 1 << 60

# Table entries dp_solve expands from numpy to Python ints at a time.
_EXPAND_BLOCK = 1 << 16

# Cells of E (and of F) the wavefront computes in one band of diagonals:
# large enough that a band costs little per diagonal, small enough (64 KB
# per array) that the band stays in cache and adds little to a process's
# peak memory, which 256 KB bands raised by about 1 MB. Diagonals wider
# than a quarter of this still get four per band, O(len_x + len_y) cells:
# at L = 10^4 one per band was 15% slower than the unbanded wavefront, and
# four were 20% faster.
_BAND_CELLS = 1 << 13


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


def _wavefront(xs, ys, q: int, ties: list | None = None):
    """Yield (d, lo, u, v) for each anti-diagonal d = len_x + len_y, ..., 0.

    xs and ys hold B strands each, all of one length per side (already
    validated); pair b is (xs[b], ys[b]). u[k * B + b] and v[k * B + b] are
    U(i, d - i) and V(i, d - i) of lane b at i = lo + k, the potential-shifted
    values of the module docstring. They are views of buffers the next step
    overwrites, so copy what must outlive it. A strand that has not advanced
    yet counts as having advanced symbol q - 1, and the last diagonal yields
    each lane's optimum at u[b]. When ``ties`` is given, each computed
    diagonal d < len_x + len_y appends its tie bits, W(i + 1, j, X) >
    W(i, j + 1, Y) at bit k * B + b, packed big-endian into bytes.
    """
    lanes, lx, ly = len(xs), len(xs[0]), len(ys[0])
    top = lx + ly
    # offset + 1 slots to advance symbol a right after symbol s, at a - s + q - 1
    cost = np.arange(2 * q - 1, dtype=np.int64) % q + 1
    # One (row, lane) array of symbols: x at rows 1..lx, y at rows
    # y0 + 1..y0 + ly and q - 1 everywhere else, the symbol before each
    # strand's first. A strand at progress k reads row p (x: p = i, y:
    # p = y0 + j): last[p] is its last symbol, key[p] its next one plus
    # q - 1, adv[p] the cost of that advance. The band views below also read
    # the lx rows before y's and the lx after, at cells they never use.
    y0 = lx + 1
    sym = np.full((2 * lx + ly + 3, lanes), q - 1, dtype=np.int64)
    sym.T[:, 1:lx + 1] = xs
    sym.T[:, y0 + 1:y0 + ly + 1] = ys
    last = sym[:-1]
    key = sym[1:] + (q - 1)
    adv = cost.take(key - last)
    adv[lx] = 0  # x has no symbol at lx, so its advance costs are now xs then ys
    # U of diagonal d sits at (d' + i) * B + b with d' = top - d, so U(i, d - i)
    # overwrites U(i + 1, d - i) in place; V sits at i * B + b. Entries never
    # written stay _UNREACHABLE, which is what the cells past the end read.
    u = np.full((top + 1) * lanes, _UNREACHABLE, dtype=np.int64)
    v = np.full((lx + 1) * lanes, _UNREACHABLE, dtype=np.int64)
    end = u[lx * lanes:(lx + 1) * lanes]
    adv[:top + 1].sum(0, out=end)  # phi(len_x, len_y)
    v[lx * lanes:] = end
    yield top, lx, end, v[lx * lanes:]
    rows = max(4, _BAND_CELLS // ((lx + 1) * lanes))
    band_lo = top
    for d in range(top - 1, -1, -1):
        if d < band_lo:
            # E and F of diagonals d..band_lo over the cells i0 <= i < i1 they
            # touch, as (diagonal, i, lane) arrays; the y side is a strided
            # view of the rows y0 + d - i
            band_hi, band_lo = d, max(0, d - rows + 1)
            i0, i1 = max(0, band_lo - ly), min(d, lx) + 1
            shape = (d - band_lo + 1, i1 - i0, lanes)
            strides = (-8 * lanes, -8 * lanes, 8)
            at = (y0 + d - i0) * lanes * 8
            y_adv = np.ndarray(shape, np.int64, adv, at, strides)
            e = cost.take(np.ndarray(shape, np.int64, key, at, strides) - last[i0:i1])
            e -= y_adv
            f = cost.take(key[i0:i1] - np.ndarray(shape, np.int64, last, at, strides))
            f -= adv[i0:i1]
            if ties is not None:
                t = (y_adv - adv[i0:i1]).ravel()  # ys[j] - xs[i]
            e, f = e.ravel(), f.ravel()
            width, first = (i1 - i0) * lanes, i0 * lanes
        lo = d - ly if d > ly else 0
        a = lo * lanes
        n = ((d if d < lx else lx) + 1) * lanes - a
        o = (band_hi - d) * width + a - first
        s = (top - d) * lanes + a
        ud = u[s:s + n]  # U(i + 1, j), then U(i, j)
        vd = v[a:a + n]  # V(i, j + 1), then V(i, j)
        ed = e[o:o + n]
        fd = f[o:o + n]
        if ties is not None:
            td = t[o:o + n]
            np.add(ud, td, out=td)
            ties.append(np.packbits(np.greater(td, vd)).tobytes())
        np.add(vd, ed, out=ed)
        np.add(ud, fd, out=fd)
        np.minimum(fd, vd, out=vd)
        np.minimum(ud, ed, out=ud)
        yield d, lo, ud, vd


def dp_solve(x, y, q: int) -> DpTable:
    """Fill the full table of optimal remaining times for a strand pair.

    Keeps every diagonal of the wavefront, subtracts the potential phi (the
    solo times of x[:i] and y[:j]) to get W back, then expands each row i
    of cells into value(i, j, r) = min over incomplete u of offset_u + 1 +
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
    # U and V over cells (i, j) as flat (lx + 2) x (ly + 2) arrays; cell
    # (i, d - i) sits at i * (ly + 1) + d, so a diagonal is a strided slice
    stride = ly + 1
    wx_all = np.zeros((lx + 2) * (ly + 2), dtype=np.int64)
    wy_all = np.zeros((lx + 2) * (ly + 2), dtype=np.int64)
    for d, lo, u, v in _wavefront((x,), (y,), q):
        cells = slice(lo * stride + d, (lo + len(u) - 1) * stride + d + 1, stride)
        wx_all[cells] = u
        wy_all[cells] = v
    wx_all = wx_all.reshape(lx + 2, ly + 2)
    wy_all = wy_all.reshape(lx + 2, ly + 2)
    # each strand with a 0 after its end, which only meets _UNREACHABLE cells,
    # its solo steps (z[k] - z[k - 1] - 1) mod q + 1, and phi(i, j) =
    # solo_time(x[:i]) + solo_time(y[:j]) from their prefix sums
    x_sym, y_sym = (np.array(z + (0,), dtype=np.int64) for z in (x, y))
    x_step, y_step = ((np.diff(z, prepend=q - 1) - 1) % q + 1 for z in (x_sym, y_sym))
    phi = (x_step.cumsum() - x_step)[:, None] + (y_step.cumsum() - y_step)
    wx_all[:lx + 1, :ly + 1] -= phi
    wy_all[:lx + 1, :ly + 1] -= phi
    wx_all[lx + 1] = _UNREACHABLE
    wy_all[:, ly + 1] = _UNREACHABLE
    r = np.arange(q, dtype=np.int64)  # the next emission
    via_x_cost = (x_sym[:, None] - r) % q + 1
    via_y_cost = (y_sym[:, None] - r) % q + 1
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

    Equals dp_solve(x, y, q).value(0, 0, 0) without building the table. The
    wavefront keeps one diagonal of the potential-shifted values U = W_X +
    phi and V = W_Y + phi, where phi(i, j) is the solo cost of x[:i] plus
    that of y[:j], and one band of at most _BAND_CELLS of its E and F terms
    (module docstring); phi(0, 0) = 0, so U at the root is the optimum. The
    Monte Carlo harness solves its equal-length trials as lanes of the same
    wavefront (_t_star_lanes).
    """
    x = validate_strand(x, q)
    y = validate_strand(y, q)
    return _t_star_lanes((x,), (y,), q)[0]


def _t_star_lanes(xs, ys, q: int) -> list[int]:
    """Optimal completion time of each pair (xs[b], ys[b]), solved as lanes of one wavefront.

    Every x has one length and every y one length, and the strands are
    already valid: nothing is checked.
    """
    for _, _, root, _ in _wavefront(xs, ys, q):
        pass
    return root.tolist()


@dataclass(frozen=True)
class OptimalResult:
    t_star: int
    schedule: Schedule


def _walk(x: Strand, y: Strand, q: int, tie_rule, target: int, walk: str,
          claim: str) -> OptimalResult:
    """model._run's walk under a tie rule that reads the solver, as a schedule of ``target`` slots.

    The walk always ends, since some strand advances within q slots. Raises
    TableIntegrityError, naming the ``walk`` and the ``claim``ed source of
    ``target``, unless it takes exactly ``target`` slots.
    """
    actions: list[Action] = []
    t = _run(x, y, q, tie_rule, None, False, actions)
    if t != target:
        raise TableIntegrityError(f"{walk} takes {t} slots, {claim} claims {target}")
    return OptimalResult(target, Schedule(tuple(actions)))


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

    def table_rule(i, j, r, la_x, la_y, ties, coin):
        rn = (r + 1) % q
        return table.value(i + 1, j, rn) <= table.value(i, j + 1, rn)

    return _walk(x, y, q, table_rule, table.value(0, 0, 0), "reconstructed schedule", "table")


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
    for _, _, root, _ in _wavefront((x,), (y,), q, ties):
        pass
    top = lx + ly - 1

    def tie_bit_rule(i, j, r, la_x, la_y, n, coin):
        k = i - max(0, i + j - ly)  # cell (i, j) within its diagonal
        return not (ties[top - i - j][k >> 3] >> (7 - (k & 7))) & 1

    return _walk(x, y, q, tie_bit_rule, int(root[0]), "tie-bit walk", "the solver")


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
        t = _solo_time(merged, q)
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
    """Length of the longest common subsequence, bit-parallel (Allison & Dix 1986, Hyyrö 2004).

    The DP row against v is one int, bit k clear where the row steps up at
    v[k]; each symbol a of u updates it as hit = row & match[a], row =
    ((row + hit) | (row - hit)) & mask, and the LCS counts the clear bits.
    """
    v = tuple(v)
    mask = (1 << len(v)) - 1
    match: dict = {}
    for k, b in enumerate(v):
        match[b] = match.get(b, 0) | 1 << k
    row = mask
    for a in u:
        hit = row & match.get(a, 0)
        row = ((row + hit) | (row - hit)) & mask
    return len(v) - row.bit_count()


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
