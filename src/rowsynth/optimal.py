"""Exact offline solver and combinatorial bounds.

The paper's dynamic program runs over states (i, j, r): the symbols done in
each strand and the next emission. Advancing strand u, whose next symbol is
z_u, takes (z_u - r) mod q idles and then the advance, so, with
value(len_x, len_y, r) = 0,

    value(i, j, r) = min over incomplete u of
                     (z_u - r) mod q + 1 + value(next cell, z_u + 1 mod q),

and the optimum is value(0, 0, 0). Taking the minimum over both strands,
not only the one with the smaller offset, gives the same value: idling past
a usable slot never helps, because dropping one advance from a schedule
leaves a valid schedule of the smaller instance. A state is read only right
after an advance, as W(i, j, s) with s in {X, Y} the strand that advanced
last, whose last symbol + 1 is then the next emission; the start (0, 0)
follows symbol q - 1. The terms of W(i, j, s) lie on the anti-diagonal
i + j + 1, so a diagonal is one numpy step with no loop over cells. dp_solve,
the reference, runs this recurrence on plain values and expands the two W
of every cell into the (i, j, r) table, _CELL_BLOCK entries at a time;
reconstruct walks that table.

t_star and conjecture's lanes need the optimum alone, which a bit-parallel
kernel on Python ints computes, as Myers' edit distance (JACM 46:395, 1999)
and Hyyrö's LCS (2004) do. Scheduling both strands is solo-synthesizing
some merge z of x and y, which costs q N(z) + z[-1] - (q - 1) slots, N
counting the non-ascents z[k] <= z[k - 1] with z[-1] = q - 1. So

    t* = min(q X + x[-1], q Y + y[-1]) - (q - 1),

with X and Y the fewest non-ascents over merges of all of x and y that end
in x and in y. Forward, with x[-1] = y[-1] = q - 1,

    X(i, j) = min(X(i - 1, j) + [x[i - 1] <= x[i - 2]], Y(i - 1, j) + [x[i - 1] <= y[j - 1]])
    Y(i, j) = min(Y(i, j - 1) + [y[j - 1] <= y[j - 2]], X(i, j - 1) + [y[j - 1] <= x[i - 1]]),

from X(0, 0) = 0. The cells no merge reaches are made finite, Y(0, 0) = 1,
Y(i, 0) = X(i, 0) + 1 and X(0, j) = Y(0, j) + 1, and none of them wins a
minimum. Then three differences stay small: Y's step along a row is -1, 0
or 1 (bit vectors HP and HN), X - Y is -1, 0 or 1 (GP1 and GN1), and Y's
step down a column, v, is 0 or 1. Each cell of v is set, reset or copied
from the cell before it, so one carry-propagating add scans the row, and a
row of every lane is 37 big-int operations.

A lane holds len_y + 2 bits, rounded up to whole bytes, bit j for column
j; lane b's bits start at b times that width, and NS is every bit but each
lane's bit 0. GP1 and GN1 hold column j - 1 at bit j. Row i reads s = x[i -
1] and a = [s <= x[i - 2]] through three masks: D, bit 0 a and bit j [y[j -
1] <= s]; B1, bit j >= 2 [s <= y[j - 2]]; and Am, every bit of the lanes
where a = 1. B1's bit 1 would be 1, but X - Y is -1 in column 0, so no
step there reads it. C, bit 0 set and bit j [y[j - 1] <= y[j - 2]],
is fixed. The row step is

    gP = B1 & (GP1 | (Am & ~GN1)); gN = GN1 & ~Am
    A = HP ^ HN ^ D ^ (gP | (gN & (HN | D)))   # cells where v may be 1
    S = A & ((C ^ HP) | HN)                     # cells where v is 1
    v = (((A + S) ^ A) & A) | S                 # the carry copies S along A
    v1 = (v << 1) & NS
    T = (HP | v) & (HN | v1)
    HP = (HP ^ v ^ T) & NS; HN ^= v1 ^ T
    GP1 = gP & ~v1; GN1 = (gN | v1) & ~gP

from HP = C on bits 2..len_y, HN = 0, GP1 on bits 2..len_y + 1 and GN1 on
bit 1. At the end, Y = 1 + sum of a + popcount(HP) - popcount(HN) over
bits 1..len_y, and X is Y plus G at bit len_y + 1. A carry out of a lane
reaches only the next lane's bit 0, which is in A only when it is in S,
and bits past len_y + 1 never reach a lower one, so lanes do not mix. An
empty strand leaves the other strand's solo time.

One lane runs its own loop, with two row bodies picked by a, D's bit 0,
and no Am. Where a = 1, gN is 0, so A drops its gN & (HN | D) term, and
gP = B1 & ~GN1 is taken as B1 ^ (B1 & GN1), since an operation on a
negative int costs more; where a = 0, gP = B1 & GP1 and gN = GN1, v has
no bit 0 and no vector a bit past the lane, so HP needs no mask. In both,
gP and gN share no bit, so with w = gP & v1, GP1 = gP ^ w and GN1 = gN |
(v1 ^ w). A row is then 25 big-int operations where a = 1 and 27 where a
= 0, besides the test of a, and the end values are int.bit_count of
masked ints.

The masks are never built for all rows at once. For q <= 128, when x has
at least q symbols, each lane's D and B1 are tabled per symbol, a build
that costs about what comparing q rows does: one lane reads Python ints
from its tables, and many lanes gather a block of rows' packed bytes,
_CELL_BLOCK bytes a mask at most, and read each row with one
int.from_bytes; Am is then (st << width) - st, st being D's lane-start
bits. Otherwise a block compares its rows' symbols with y. The kernel's
time was measured with BENCH_26.json. conjecture's lane blocks hold at
most _LANE_CELLS = 2**15 cells a row, about where the cost per pair stops
falling.

An optimal schedule never idles while a strand can advance, so both
schedule builders run the greedy simulator's walk (model._run) with a tie
rule that reads the solver. Where both strands can advance in the same
slot, x[i] == y[j] = c, the walk takes X iff W(i + 1, j, X) <= W(i, j + 1,
Y): reconstruct compares the table's two entries after the tie, and
optimal_schedule reads one tie bit per cell that _tie_rows, the same bit
kernel run on the reversed pair, keeps. Both W follow symbol c, so each is
the fewest slots q M + z[-1], less c, over merges z of x[i:] and y[j:]
that open with x[i], or with y[j], M counting z's non-ascents after its
first symbol. Reversed and complemented, x~[k] = q - 1 - x[len_x - 1 - k]
and y~ the same way, a merge keeps its non-ascents, and the reversed
merge's first symbol counts one against q - 1, so M + 1 is the kernel's X,
or Y, on x~ and y~ at cell (len_x - i, len_y - j), save for the term
z[-1]: the strand the schedule ends on, x[-1] or y[-1], now enters at the
reversed start. To carry it the kernel runs two lanes of one int. Lane p
starts at p = q - 1 - max(x[-1], y[-1]), so it counts a merge's reversed
first symbol only where the merge ends on the larger end symbol. Lane u
counts every merge's: it starts at q - 1, as t_star's lanes do, where
x[-1] >= y[-1], and else below p, where it counts none and is read plus
one. Either way row 1 wraps in both lanes or in neither, iff x[-1] >=
y[-1], and HN's bit 1 is set in lane u iff x[-1] < y[-1] and in lane p iff
y[-1] < x[-1]. Then X_u - X_p is 1 iff some merge of fewest non-ascents
ends on the smaller end symbol, and with e(1) = min(x[-1], y[-1]) and e(0)
= max(x[-1], y[-1]) the two W are q X_u + e(X_u - X_p) and q Y_u + e(Y_u -
Y_p), less one constant. As e(0) - e(1) < q, Y wins iff G_u > 0, or G_u =
0, f = 1 and G_p != 0, with G = X - Y (GP1 and GN1) and f = Y_u - Y_p in
{0, 1}. f starts as columns 1 to len_y iff y~[0] > p, and each row applies
f ^= v_u ^ v_p. Where f = 1 and G_u = -1, G_p is at most 0, so a row's tie
bits are GP1_u | (f & GP1_p), on lane u's bits 2 to len_y + 1, with f held
one bit on, as GP1 is.

The lanes share every row's wrap bit, so the kernel runs the one-lane
bodies on masks copied into both lanes: where a = 1, gN is 0 in both, and
where a = 0, v has bit 0 in neither. 7 big-int operations more a row keep
f and the tie bits. At cell (len_x, len_y)

    t* = min(q X_u + e(X_u - X_p), q Y_u + e(Y_u - Y_p)) - (q - 1)

with X_u - X_p = G_u + f - G_p. Where the end symbols are equal, lane p
is lane u and f stays 0, so there is no special case.

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
    MAX_SCHEDULE_SLOTS,
    Action,
    Schedule,
    Strand,
    _run,
    _solo_slots,
    _solo_time,
    validate_strand,
)

# Largest (len_x + 1) * (len_y + 1) * q table dp_solve builds. The table
# tuple takes 8 bytes per state and the two entries kept per cell 16 bytes,
# so this is at most about 0.3 GB.
MAX_TABLE_STATES = 2 * 10**7

# Largest (len_x + 1) * (len_y + 1) cell count optimal_schedule keeps a tie
# bit for, enough for two strands of 31,621 symbols. A row's bits are one
# int, 4 bytes per 30 bits plus 28, and 8 more for its list slot: 134.5 MB
# at that size, measured with tracemalloc.
MAX_TIE_BITS = 10**9

# Stands for W at a cell past the end of a strand; larger than any
# completion time, so a term through such a cell never wins a minimum.
_UNREACHABLE = 1 << 60

# Bytes of each mask the bit kernel gathers at a time, and entries dp_solve
# expands from numpy to Python ints at a time. See the module docstring.
_CELL_BLOCK = 1 << 15

# Most cells a row of one of conjecture's lane blocks holds, lanes * (L +
# 1): the bit kernel's cost per pair falls as its lanes share each row's
# interpreter work, until a row holds about this many bits. Measured with
# BENCH_26.json; CHANGES.md quotes the figures.
_LANE_CELLS = 1 << 15


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


def _check_range(q: int, len_x: int, len_y: int) -> None:
    """Refuse an alphabet so large that q (len_x + len_y + 1) reaches _UNREACHABLE."""
    if q * (len_x + len_y + 1) >= _UNREACHABLE:
        raise UnsupportedAlphabetError(
            f"the exact solver needs q * (len_x + len_y + 1) < 2**60, "
            f"got q = {q} with {len_x} + {len_y} symbols")


def dp_solve(x, y, q: int) -> DpTable:
    """Fill the full table of optimal remaining times for a strand pair.

    Runs the module docstring's recurrence on plain values, one
    anti-diagonal of cells per numpy step: W(i, j, s), the value at the
    emission after strand s's last symbol, from W(i + 1, j, X) and W(i, j +
    1, Y). It then expands each row i of cells into value(i, j, r) = min
    over incomplete u of offset_u + 1 + W(next cell, u), with offset_u =
    (next_u - r) mod q. Refuses, before allocating, tables of more than
    MAX_TABLE_STATES states, a budget that also keeps q * (len_x + len_y +
    1) far below _UNREACHABLE. O(len_x * len_y * q) time and space.
    """
    x = validate_strand(x, q)
    y = validate_strand(y, q)
    lx, ly = len(x), len(y)
    states = (lx + 1) * (ly + 1) * q
    if states > MAX_TABLE_STATES:
        raise BudgetExceededError(states, MAX_TABLE_STATES, what="solver table", unit="states")
    # W(i, j, X) and W(i, j, Y) over (lx + 2) x (ly + 2) cells; the row past
    # x's end and the column past y's end stay _UNREACHABLE, so a term that
    # advances a complete strand never wins a minimum
    wx_all = np.full((lx + 2, ly + 2), _UNREACHABLE, dtype=np.int64)
    wy_all = np.full((lx + 2, ly + 2), _UNREACHABLE, dtype=np.int64)
    wx_all[lx, ly] = wy_all[lx, ly] = 0
    # each strand between the q - 1 before its first symbol and a 0 read only
    # by _UNREACHABLE terms: at row i, X's last symbol is x_sym[i], its next
    # x_sym[i + 1], and the emission x_emit[i]; y reversed reads as slices too
    x_sym, y_sym = (np.array((q - 1, *z, 0), dtype=np.int64) for z in (x, y))
    y_rev = y_sym[::-1]
    x_emit, y_emit = x_sym + 1, y_rev + 1
    # cell (i, d - i) sits at i * (ly + 1) + d of the flat arrays, so a
    # diagonal is a strided slice; (i + 1, j) is ly + 2 further on, (i, j + 1) 1
    wx, wy, step = wx_all.reshape(-1), wy_all.reshape(-1), ly + 1
    for d in range(lx + ly - 1, -1, -1):
        lo, hi = max(0, d - ly), min(d, lx) + 1
        k0, k1 = lo * step + d, hi * step + d
        after_x, after_y = wx[k0 + step + 1:k1 + step + 1:step], wy[k0 + 1:k1 + 1:step]
        x_next, y_next = x_sym[lo + 1:hi + 1], y_rev[ly - d + lo:ly - d + hi]
        for r, w in ((x_emit[lo:hi], wx), (y_emit[ly + 1 - d + lo:ly + 1 - d + hi], wy)):
            cell = w[k0:k1:step]  # 1 + min over u of (z_u - r) mod q + W(next, u)
            np.minimum((x_next - r) % q + after_x, (y_next - r) % q + after_y, out=cell)
            cell += 1
    r = np.arange(q, dtype=np.int64)  # the next emission
    via_x_cost = (x_sym[1:, None] - r) % q + 1
    via_y_cost = (y_sym[1:, None] - r) % q + 1
    # rows of cells per expansion block, so numpy temporaries stay small
    block = max(1, _CELL_BLOCK // ((ly + 1) * q))
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

    Equals dp_solve(x, y, q).value(0, 0, 0) without building the table: the
    pair is _t_star_lanes' one lane. Refuses, before allocating, an alphabet
    so large that q * (len_x + len_y + 1) reaches 2**60.
    """
    x = validate_strand(x, q)
    y = validate_strand(y, q)
    _check_range(q, len(x), len(y))
    return _t_star_lanes([x], [y], q)[0]


def _t_star_lanes(xs, ys, q: int) -> list[int]:
    """Optimal completion time of each pair (xs[b], ys[b]), solved as lanes of one block.

    Runs the module docstring's non-ascent recurrence bit-parallel, one row
    per symbol of x, with lane b's bits from b * width on in one Python int
    per vector, and a lone lane through its own two row bodies. Every x has
    one length and every y one length, the strands are already valid and
    _check_range passes: nothing is checked.
    """
    x, y = np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64)
    lanes, lx = x.shape
    ly = y.shape[1]
    if not lx or not ly:
        return [_solo_time(z, q) for z in (x if lx else y).tolist()]
    width, wraps, yd, yb, tables, starts, c = _lanes(x, y, q)
    ns = (starts << width) - starts - starts  # every bit but each lane's bit 0
    hp, hn = c & ((1 << ly + 1) - 4) * starts, 0
    gp, gn = ((1 << ly + 2) - 4) * starts, 2 * starts
    if lanes == 1:
        blocks = _copied_blocks(x, wraps, yd, yb, tables, starts)
        for ds, bs in blocks:
            for d, b1 in zip(ds, bs):
                if d & 1:  # a = 1, so gN = 0
                    g_p = b1 ^ (b1 & gn)  # B1 & ~GN1
                    a = hp ^ hn ^ d ^ g_p  # cells where v may be 1
                    s = a & ((c ^ hp) | hn)  # cells where v is 1
                    v = (((a + s) ^ a) & a) | s  # the carry copies s along a
                    v1 = (v << 1) & ns
                    t = (hp | v) & (hn | v1)
                    hp = (hp ^ v ^ t) & ns  # clears bit 0, which v holds
                    hn ^= v1 ^ t
                    w = g_p & v1  # GP1 and GN1 share no bit
                    gp = g_p ^ w
                    gn = v1 ^ w
                else:
                    g_p = b1 & gp
                    a = hp ^ hn ^ d ^ (g_p | (gn & (hn | d)))
                    s = a & ((c ^ hp) | hn)
                    v = (((a + s) ^ a) & a) | s
                    v1 = (v << 1) & ns
                    t = (hp | v) & (hn | v1)
                    hp ^= v ^ t  # v has no bit 0
                    hn ^= v1 ^ t
                    w = g_p & v1
                    gp = g_p ^ w
                    gn |= v1 ^ w
        cells = (1 << ly + 1) - 2  # bits 1 to len_y
        y_end = int(wraps.sum()) + 1 + (hp & cells).bit_count() - (hn & cells).bit_count()
        x_end = y_end + (gp >> ly + 1 & 1) - (gn >> ly + 1 & 1)
        return [min(q * x_end + int(x[0, -1]), q * y_end + int(y[0, -1])) - (q - 1)]
    for ds, bs in _mask_blocks(x, wraps, yd, yb, tables):
        for d, b1 in zip(ds, bs):
            st = d & starts
            am = (st << width) - st  # every bit of the lanes where a = 1
            g_p = b1 & (gp | (am & ~gn))
            g_n = gn & ~am
            a = hp ^ hn ^ d ^ (g_p | (g_n & (hn | d)))  # cells where v may be 1
            s = a & ((c ^ hp) | hn)  # cells where v is 1
            v = (((a + s) ^ a) & a) | s  # the carry copies s along a
            v1 = (v << 1) & ns
            t = (hp | v) & (hn | v1)
            hp = (hp ^ v ^ t) & ns
            hn ^= v1 ^ t
            gp = g_p & ~v1
            gn = (g_n | v1) & ~g_p

    # each vector's (lane, bit) array
    hp, hn, gp, gn = np.unpackbits(
        np.frombuffer(b"".join(z.to_bytes(lanes * width // 8, "little") for z in (hp, hn, gp, gn)),
                      np.uint8).reshape(4, lanes, -1), axis=2, bitorder="little").view(np.int8)
    y_end = wraps.sum(0, dtype=np.int64) + 1 + hp[:, 1:ly + 1].sum(1) - hn[:, 1:ly + 1].sum(1)
    x_end = y_end + gp[:, ly + 1] - gn[:, ly + 1]
    return (np.minimum(q * x_end + x[:, -1], q * y_end + y[:, -1]) - (q - 1)).tolist()


def _pack(bits):
    """Bool arrays packed along their last axis, bit j at bit j % 8 of byte j // 8."""
    return np.packbits(bits, axis=-1, bitorder="little")


def _to_int(packed) -> int:
    return int.from_bytes(packed.tobytes(), "little")


def _lanes(x, y, q: int):
    """A block's set-up from its (lane, symbol) arrays: the lane width, the rows' wrap bits, y
    placed for D and B1, the mask tables or None, each lane's bit 0 and C."""
    lanes, lx = x.shape
    ly = y.shape[1]
    size = (ly + 9) // 8  # bytes a lane: bits 0 to len_y + 1, rounded up
    # a = [x[i - 1] <= x[i - 2]] of row i, by row and lane; row 1 wraps
    wraps = np.ones((lx, lanes), dtype=np.uint8)
    np.less_equal(x[:, 1:], x[:, :-1], out=wraps[1:].T.view(bool))
    # D's [y[j - 1] <= s] and B1's [s <= y[j - 2]] at bit j compare s with
    # y placed one and two bits on; the padding compares false
    yd = np.full((lanes, 8 * size), q, dtype=np.int64)
    yd[:, 1:ly + 1] = y
    yb = np.full((lanes, 8 * size), -1, dtype=np.int64)
    yb[:, 2:ly + 2] = y
    starts = int.from_bytes((b"\1" + bytes(size - 1)) * lanes, "little")
    # C: bits 0 and 1, and [y[j - 1] <= y[j - 2]] at bit j from 2 on
    c = _to_int(_pack(np.less_equal(yd, yb))) | 3 * starts
    tables = None
    if q <= min(128, lx):  # D and B1 of each lane and symbol, where x has as many rows
        sym = np.arange(q)[:, None]
        tables = _pack(np.less_equal(yd[:, None], sym)), _pack(np.less_equal(sym, yb[:, None]))
    return 8 * size, wraps, yd, yb, tables, starts, c


def _mask_blocks(x, wraps, yd, yb, tables):
    """D and B1 of each row as ints, a list of each a block of rows.

    A block gathers the rows' masks from the lanes' ``tables`` or, without
    them, compares the rows' symbols with yd and yb, and fills at most
    _CELL_BLOCK bytes a mask.
    """
    lanes, lx = x.shape
    n = lanes * yd.shape[1] // 8  # bytes a mask
    lane, rows = np.arange(lanes), max(1, _CELL_BLOCK // n)
    for at in range(0, lx, rows):
        s = x[:, at:at + rows].T  # (row, lane)
        if tables:
            d, b = tables[0][lane, s], tables[1][lane, s]
        else:
            d, b = _pack(np.less_equal(yd, s[:, :, None])), _pack(np.less_equal(s[:, :, None], yb))
        d[:, :, 0] |= wraps[at:at + len(s)]
        yield [[int.from_bytes(m[o:o + n], "little") for o in range(0, len(m), n)]
               for m in (d.tobytes(), b.tobytes())]


def _copied_blocks(x, wraps, yd, yb, tables, starts):
    """_mask_blocks' blocks for one lane, or for lanes that each read the same masks.

    With tables, one block read from Python ints of each symbol's masks,
    copied into every lane, which costs less than gathering packed bytes.
    """
    if not tables:
        return _mask_blocks(x, wraps, yd, yb, None)
    d_ints = [_to_int(d) | w for d in tables[0].swapaxes(0, 1) for w in (0, starts)]
    b_ints = list(map(_to_int, tables[1].swapaxes(0, 1)))
    return [(list(map(d_ints.__getitem__, (2 * x[0] + wraps[:, 0]).tolist())),
             list(map(b_ints.__getitem__, x[0].tolist())))]


def _tie_rows(x, y, q: int) -> tuple[int, list[int]]:
    """The pair's optimum and one int of tie bits a row, from two lanes on the reversed pair.

    Runs the bit kernel on x~ and y~ as the module docstring sets out: row
    r, r = 1 to len_x, appends an int whose bit len_y + 1 - j is set where
    Y wins the tie at cell (len_x - r, j). The strands are already valid and
    _check_range passes: nothing is checked. An empty strand leaves no tie.
    """
    lx, ly = len(x), len(y)
    if not lx or not ly:
        return _solo_time(x if lx else y, q), []
    low, high = sorted((x[-1], y[-1]))  # e(1) and e(0)
    # lane p starts at p = q - 1 - high, lane u at q - 1 where x ends on high
    # and else below y~[0] = p, one count less: row 1 then wraps in both or
    # in neither, and HN's bit 1 is set where y~[0] is above the start
    shift, flat = int(x[-1] < y[-1]), int(y[-1] < x[-1])
    z = np.subtract(q - 1, (x[::-1] + y[::-1]) * 2, dtype=np.int64).reshape(2, lx + ly)
    x_r = z[:, :lx]  # x~ in both lanes, then y~
    width, wraps, yd, yb, tables, starts, c = _lanes(x_r, z[:, lx:], q)
    wraps[0] = 1 - shift
    ns = (starts << width) - starts - starts
    hp, hn = c & ((1 << ly + 1) - 4) * starts, (shift | flat << width) << 1
    gp, gn = ((1 << ly + 2) - 4) * starts, 2 * starts
    cells = (1 << ly + 2) - 4  # lane u's columns 1 to len_y, as GP1 holds them
    f = cells * flat  # Y_u - Y_p, as GP1 holds it
    ties: list[int] = []
    tie = ties.append
    for ds, bs in _copied_blocks(x_r, wraps, yd, yb, tables, starts):
        for d, b1 in zip(ds, bs):  # _t_star_lanes' one-lane bodies
            if d & 1:
                g_p = b1 ^ (b1 & gn)
                a = hp ^ hn ^ d ^ g_p
                s = a & ((c ^ hp) | hn)
                v = (((a + s) ^ a) & a) | s
                v1 = (v << 1) & ns
                t = (hp | v) & (hn | v1)
                hp = (hp ^ v ^ t) & ns
                hn ^= v1 ^ t
                w = g_p & v1
                gp = g_p ^ w
                gn = v1 ^ w
            else:
                g_p = b1 & gp
                a = hp ^ hn ^ d ^ (g_p | (gn & (hn | d)))
                s = a & ((c ^ hp) | hn)
                v = (((a + s) ^ a) & a) | s
                v1 = (v << 1) & ns
                t = (hp | v) & (hn | v1)
                hp ^= v ^ t
                hn ^= v1 ^ t
                w = g_p & v1
                gp = g_p ^ w
                gn |= v1 ^ w
            f ^= v1 ^ (v1 >> width)
            tie((gp | (f & (gp >> width))) & cells)
    lane = (1 << ly + 1) - 2  # lane u's bits 1 to len_y
    y_u = int(wraps[:, 0].sum()) + shift + 1 + (hp & lane).bit_count() - (hn & lane).bit_count()
    g_u = (gp >> ly + 1 & 1) - (gn >> ly + 1 & 1)
    g_p = (gp >> width + ly + 1 & 1) - (gn >> width + ly + 1 & 1)
    f = f >> ly + 1 & 1
    end = high, low
    return min(q * (y_u + g_u) + end[g_u + f - g_p], q * y_u + end[f]) - (q - 1), ties


@dataclass(frozen=True)
class OptimalResult:
    t_star: int
    schedule: Schedule


def _walk(x: Strand, y: Strand, q: int, tie, target: int, walk: str,
          claim: str) -> OptimalResult:
    """model._run's walk under a tie rule that reads the solver, as a schedule of ``target`` slots.

    The walk always ends, since some strand advances within q slots. Raises
    TableIntegrityError, naming the ``walk`` and the ``claim``ed source of
    ``target``, unless it takes exactly ``target`` slots.
    """
    actions: list[Action] = []
    t = _run(_solo_slots(x, q), _solo_slots(y, q), q, tie, actions)
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

    def table_tie(i, j, t, n):
        rn = t % q  # the emission after the tie's slot t
        return table.value(i + 1, j, rn) <= table.value(i, j + 1, rn)

    return _walk(x, y, q, table_tie, table.value(0, 0, 0), "reconstructed schedule", "table")


def optimal_schedule(x, y, q: int) -> OptimalResult:
    """An optimal schedule from one tie bit per cell, without the (i, j, r) table.

    Equals reconstruct(x, y, dp_solve(x, y, q)). The schedule is the greedy
    walk of model._run: the strand whose next symbol comes round first
    advances after that many idles, and when both come round in the same
    slot the tie bit _tie_rows keeps for the cell picks X iff W(i + 1, j,
    X) <= W(i, j + 1, Y), reconstruct's rule. Refuses, before allocating, more
    than MAX_TIE_BITS cells or q * (len_x + len_y + 1) >= 2**60, and before
    the walk an optimum of more than MAX_SCHEDULE_SLOTS slots; raises
    TableIntegrityError if the walk does not score the optimum.
    O(len_x * len_y) time and bits.
    """
    x = validate_strand(x, q)
    y = validate_strand(y, q)
    lx, ly = len(x), len(y)
    _check_range(q, lx, ly)
    cells = (lx + 1) * (ly + 1)
    if cells > MAX_TIE_BITS:
        raise BudgetExceededError(cells, MAX_TIE_BITS, what="tie-bit table", unit="bits")
    slots, ties = _tie_rows(x, y, q)  # row i at ties[lx - 1 - i]
    if slots > MAX_SCHEDULE_SLOTS:
        raise BudgetExceededError(slots, MAX_SCHEDULE_SLOTS, what="optimal schedule",
                                  unit="slots")
    last_x, top = lx - 1, ly + 1

    def tie_bit(i, j, t, n):
        return not ties[last_x - i] >> (top - j) & 1  # Y's win at cell (i, j)

    return _walk(x, y, q, tie_bit, slots, "tie-bit walk", "the solver")


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
