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
of every cell into the (i, j, r) table; reconstruct walks that table.

The fast solvers run on shifted values. Advancing symbol a right after
symbol s costs (a - s - 1) mod q + 1 = a - s + q [a <= s] slots, so the
solo cost of a strand's first k symbols telescopes to q N + z[k - 1] - (q -
1), where N counts its wraps: the symbols not above the one before, the
first compared with q - 1. With N(i, j) the wraps of x[:i] and y[:j], the
values

    U'(i, j) = W(i, j, X) + q N(i, j) + x[i - 1] - (q - 1)
    V'(i, j) = W(i, j, Y) + q N(i, j) + y[j - 1] - (q - 1)

obey

    U'(i, j) = min(U'(i + 1, j), V'(i, j + 1) + E'(i, j))
    V'(i, j) = min(U'(i + 1, j) + F'(i, j), V'(i, j + 1))

with E' = q ([y[j] <= x[i - 1]] - [y[j] <= y[j - 1]]) and F' = q ([x[i] <=
y[j - 1]] - [x[i] <= x[i - 1]]): a strand that advances again after itself
pays nothing, and a cross term is two symbol comparisons, so no table of
advance costs is needed and no array is sized by q. At the root both shifts
vanish, so U'(0, 0), all that the kernels return, is the optimum.

_row_sweep solves B pairs of equal lengths as lanes, row by row, i = len_x
down to 0, with y read backwards: a row's V' is a running minimum, as in
Gotoh's horizontal-gap state (J. Mol. Biol. 162:705, 1982), so V'(i, .) is
one np.minimum.accumulate of U'(i + 1, .) + F'(i, .) and U'(i, .) one add
and one minimum. One row array holds every lane, lane b's len_y + 1 cells
from b (len_y + 1) on, as in Rognes' inter-sequence layout (BMC
Bioinformatics 12:221, 2011), and lane b's values are stored b D below
their own, with D = q (len_x + len_y + 2) above any value plus a cross
term. Every lane then lies below every earlier one, so the running minimum
never carries a value into the next lane and the E' cell that spans two
lanes never wins: a row is four numpy calls whatever B is, about 2.8 us
plus 4.5 ns a cell. _wavefront solves B pairs as lanes, one anti-diagonal
per step, on one symbol array with x[i] at row c + 1 + i and y[j] at row c
- 1 - j: a band of diagonals reads x as one slice and y as a view of
consecutive runs, and lane b's cell i sits at i * B + b; memory is
O((len_x + len_y) * B) plus one band.

Both kernels take E' and F' _CELL_BLOCK = 2**15 cells at a time: the row
sweep in rows, at least one, and the wavefront in bands of at least four
diagonals. conjecture's lane blocks hold at most _LANE_CELLS = _CELL_BLOCK /
4 cells a row, so a full block's four-diagonal band fills one cell block.
Wavefront at 2**15-cell bands over 2**13 (median of 15 alternating rounds,
2-vCPU VM): 0.76-0.95 on blocks of 2,814-6,432 cells a row (14-32 lanes at
q=2, L=200; 10-21 at q=4, L=300; 3-6 at q=2, L=1000), narrowing as the
block widens; 0.77 / 0.82 / 0.89 / 0.94 for one lane at q=2, L=3000 / 4000
/ 5000 / 6000; and 0.998-1.005 on full blocks of 8,004-8,127 cells, whose
band is four diagonals at either size.

The row sweep keeps O(len_y * B) values besides its block. A row reads
x only through x[i], [x[i] <= x[i - 1]] (F') and x[i - 1] (E'), so a
sweep that fills at least one block and whose tables fit in one, 3 q B
(len_y + 1) <= _CELL_BLOCK <= len_x B (len_y + 1), builds each lane's
2 q rows of F' and q rows of E', one per symbol and wrap bit, and reads a
block's F' and E' with one np.take each, where the comparisons cost three
numpy calls and three passes over the block each. The row for len_x is
then E' of x[len_x - 1], read from the table. A table build costs about
ten numpy calls, so a smaller sweep, or an alphabet whose tables would not
fit (large q times long rows), compares symbols: tables over comparisons,
one lane at q = 2 and 4, 1.13-1.16 at L = 4, 1.07 at 24, 1.01-1.02 at
100, 0.95-0.97 at 200 and 0.93-0.95 at 300, and four lanes at q = 2, 1.05
at L = 24, 0.94 at 64, 0.92 at 100 and 0.77 at 200 (median of 11
alternating rounds). Per call, ms at blocks of 2**13 / 2**14 / 2**15 /
2**16 cells (median of 15 alternating rounds): 1.90 / 1.33 / 1.30 / 1.66
for 4 lanes at q=2, L=200 (the first without tables, which do not fit
2**13), 1.18 / 1.11 / 1.10 / 1.09 for one lane at q=4, L=300, 10.4 / 6.7 /
6.4 / 8.3 for one lane at q=2, L=1000, and 12.9 / 12.2 / 11.6 / 13.7 for
optimal_schedule there (2-vCPU VM).

A row costs about as much as four numpy calls on its cells, so a solve of
few lanes pays for its len_x rows more than for its cells; _split_sweep
halves the rows, as Hirschberg's alignment (CACM 18:341, 1975) meets in
the middle. Every schedule passes through the state right after x's m-th
advance, m = ceil(len_x / 2), with some j symbols of y done, so t* is the
minimum over j of the cost up to that state plus W(m, j, X) after it.
Lane A is the recurrence on (x[m - 1:], y): its W(1, j, X) is W(m, j, X).
An advance from s to a costs (a - s - 1) mod q + 1 slots, which is
unchanged by complementing both, c(z) = q - 1 - z, and swapping them, so
the cost up to the state, read backwards from x[m - 1], is that of the
recurrence on the complemented strands reversed: lane B runs on
(c(x[m - 1]), c(x[m - 2]), ..., c(x[0])) and c(y) reversed, with len_y -
j symbols of the latter done, and ends on the step to the start's symbol q
- 1, c(q - 1) = 0, which costs x[0] + 1 slots after x[0] and y[0] + 1
after y[0]: those are lane B's end values W(len_x, len_y, X) and W(len_x,
len_y, Y), where the recurrence's are 0. Both lanes have len_x // 2 + 1
rows, lane B's led by a q - 1 when len_x is even. In an identity row E' is
the sentinel, so U'(i, .) = U'(i + 1, .): lane A's row 0 and lane B's row
0, and row 1 after the q - 1, carry the values after x[m - 1] to each
lane's final row, which _row_sweep returns. Unshifting them, the wraps of
y that the two shifts count sum to the same at every j but for the pair
(y[j - 1], y[j]), and x[m - 1] + c(x[m - 1]) = q - 1, so with R_b the
count of rises y[j - 1] < y[j] in pair b and r lane B's identity rows,

    t* = min over j of (U'_A(0, j) + U'_B(0, len_y - j)
                        - q [0 < j < len_y and y[j - 1] < y[j]])
         + q R_b - q (len_y + r) - 1.

A rows block of B pairs from _SPLIT_ROWS = 64 rows on runs as 2B lanes of
half the rows, unless that block's lanes do not fit int64 (below). The
split costs about 25 numpy calls more (the halves' strands, the identity
rows, the join), so shorter blocks stay whole: split over unsplit (median
of 21 alternating rounds, 2-vCPU VM) was 1.15-1.19 at L = 32, 0.97-1.01
at 48, 0.89-1.00 at 64, 0.85-0.96 at 80 and 0.77-0.88 at 128, over one
lane at q = 2 and 4, two at q = 7 and four at q = 2. A scratch check
matched the unsplit sweep on 3,000 random blocks (q 2-7, 1-4 lanes, len_x
1-39, len_y 0-39).

A block sweeps rows while B (min(len_x, len_y) + 1) is at most _ROW_CELLS
= 2700 cells, as each of the wavefront's len_x + len_y diagonals pays four
numpy calls against each of the split sweep's len_x / 2 + 1 rows' four on
twice the cells; past it the rows' per-cell work loses and the block runs
the wavefront. Wavefront over split rows, on 2**15-cell blocks (median of
11-15 alternating rounds a shape, four runs; 2-vCPU VM), at q=2: 1.00-1.30
at 2,613 cells a row (13 lanes at L=200) and 0.83-0.95 at 2,814 (14
lanes); 1.16-1.41 at 2,002 (2 lanes at L=1000) and 0.75-0.98 at 3,003 (3
lanes); for one lane, 1.02-1.44 at L=2600-2698 and 0.93-1.03 at L=2800.
At q=2 the split block builds its tables up to 2**15 / 12 = 2730 cells a
row; at q=3 and 4 they stop at 1820 and 1365, and the kernels cross
earlier and less steadily: 0.77-1.01 at 2,408 cells (8 lanes at q=4,
L=300), 0.91-1.00 at q=3, and 0.76-0.96 at 2,709 (9 lanes); one lane at
q=4, 0.84-1.17 at L=2400 and 0.96-1.06 at L=2800. 2700 lies inside the
q=2 crossover; any value that sends 8 lanes at q=4, L=300 to the wavefront
also sends 12 lanes at q=2, L=200 (2,412 cells, 1.14-1.34) there.

No value exceeds q (len_x + len_y), and the wavefront's entries past the
end plus a cross term stay within q of its sentinel, so with S = q (len_x
+ len_y + 1) values are int32 with sentinel 2**30 when S < 2**30, and
int64 with _UNREACHABLE above; callers refuse S >= _UNREACHABLE before
allocating. A rows block of B lanes spans q (B (len_x + len_y + 2) - 1),
which is S at one lane, and takes its type by the same bounds; past
_UNREACHABLE it runs the wavefront, whose lanes are not shifted, and a
split block past it runs unsplit. End values of at most q keep a lane's
values within q (len_x + len_y + 2) - 1 of each other, so the span holds
them, and an identity row's V' plus the sentinel stays below 2**31 in
int32. A split block spans about twice its pairs' span, so near 2**30 it
can take int64 where the pairs alone would not. int32 took 100 wavefront
lane trials from 34-40 to 18-29 ms, and t_star at q=2, L=10^4 from 894 to
686-716 ms.

An optimal schedule never idles while a strand can advance, so both
schedule builders run the greedy simulator's walk (model._run) with a tie
rule that reads the solver. Where both strands can advance in the same
slot, x[i] == y[j], advancing either from the X-last state costs the same,
so taking X iff W(i + 1, j, X) <= W(i, j + 1, Y) is taking the first
candidate of U'(i, j)'s minimum: optimal_schedule has _row_sweep keep that
as one tie bit per cell, packed eight to a byte, and reads the bit, where
reconstruct compares the table's two entries after the tie. Its sweep is
never split, as the walk reads a bit from every row.

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
# bit for: 125 MB of bits, enough for two strands of about 31,600 symbols.
MAX_TIE_BITS = 10**9

# Stands for U or V at a cell past the end of a strand; larger than any
# completion time, so a term through such a cell never wins a minimum.
_UNREACHABLE = 1 << 60

# Table entries dp_solve expands from numpy to Python ints at a time.
_EXPAND_BLOCK = 1 << 16

# Cells of E' (and of F') either kernel computes at a time: the row sweep
# in rows, at least one, and the wavefront in bands of at least four
# diagonals. The row sweep's cross-term tables are built only where they fit
# in one block and the sweep fills one. See the module docstring.
_CELL_BLOCK = 1 << 15

# Most cells a row of one of conjecture's lane blocks holds, over all its
# lanes, so that a full block's four-diagonal band fills one cell block.
_LANE_CELLS = _CELL_BLOCK // 4

# Rows of x from which _t_star_lanes solves a rows block from both ends;
# see the module docstring.
_SPLIT_ROWS = 64


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
    """Refuse an instance whose times could reach _UNREACHABLE, the kernels' int64 sentinel."""
    if q * (len_x + len_y + 1) >= _UNREACHABLE:
        raise UnsupportedAlphabetError(
            f"the exact solver needs q * (len_x + len_y + 1) < 2**60, "
            f"got q = {q} with {len_x} + {len_y} symbols")


def _value_type(q: int, len_x: int, len_y: int, lanes: int = 1):
    """The kernels' value dtype and past-the-end sentinel, by the module docstring's rule.

    None when a rows block of ``lanes`` lanes spans _UNREACHABLE or more.
    """
    span = q * (lanes * (len_x + len_y + 2) - 1)
    if span < 1 << 30:
        return np.int32, 1 << 30
    return (np.int64, _UNREACHABLE) if span < _UNREACHABLE else None


def _row_sweep(xs, ys, q: int, ties: list | None = None, ends=None, identity=None,
               out=None) -> list[int]:
    """Each lane's U'(0, 0), solved row by row with y read backwards.

    xs and ys hold B strands each, all of one length per side; pair b is
    (xs[b], ys[b]), the strands are valid and _value_type(q, len_x, len_y,
    B) is not None. Row i holds lane b's cell (i, j) at b * (len_y + 1) +
    len_y - j, less b * q * (len_x + len_y + 2). Given ``ties`` and one
    lane, rows len_x - 1 down to 0 each append their tie bits packed
    big-endian into bytes: bit len_y - 1 - j is U'(i + 1, j) > V'(i, j + 1)
    + E'(i, j), the second candidate winning. ``ends`` gives each lane's
    W(len_x, len_y, X) and W(len_x, len_y, Y), both 0 by default; in its
    ``identity[b]`` identity rows, rows 0 up, lane b keeps U'(i, .) = U'(i +
    1, .), as E' is the sentinel there. Given ``out``, a (B, len_y + 1)
    int64 array, it receives each lane's final row: U'(0, len_y - k) at k.
    """
    lanes, lx, ly = len(xs), len(xs[0]), len(ys[0])
    value, sentinel = _value_type(q, lx, ly, lanes)
    # each lane's strands read backwards, each followed by the q - 1 before
    # its first symbol: y, then x. With k = len_y - j, y[j - 1] sits at k and
    # y[j] at k - 1; x[i] sits at len_y + len_x - i and x[i - 1] one on
    sym = np.empty((lanes, lx + ly + 2), dtype=np.int8 if q <= 128 else np.int64)
    sym[:, :ly][:, ::-1], sym[:, ly + 1:-1][:, ::-1] = ys, xs
    sym[:, ly::lx + 1] = q - 1  # at len_y and at the end
    # 1 where a symbol is not above the one before it in its strand: y[j] <=
    # y[j - 1] at k - 1, x[i] <= x[i - 1] at len_y + len_x - i; 0 at len_y
    wrap = np.less_equal(sym[:, :-1], sym[:, 1:]).view(np.int8)
    wrap[:, ly] = 0
    n = lanes * (ly + 1)
    y_cells, wrap_y = sym[:, :ly + 1], wrap[:, :ly + 1]
    u = np.empty(n, dtype=value)
    by_lane = u.reshape(lanes, ly + 1)
    rows = max(1, min(lx, _CELL_BLOCK // n))
    f_tab = None
    if 3 * q * n <= _CELL_BLOCK <= lx * n:
        # per lane and symbol a, F' = q [a <= y[j - 1]] - q w at table row
        # (w B + b) q + a, w = [x[i] <= x[i - 1]], and E' = q [y[j] <= a] - q
        # [y[j] <= y[j - 1]] at row b q + a: column k serves cell k, and E'
        # reads column k - 1, as the comparisons below do
        a = np.arange(q, dtype=sym.dtype)[:, None]
        e_tab = np.subtract(np.less_equal(y_cells[:, None], a), wrap_y[:, None]).astype(value)
        e_tab *= q
        e_tab = e_tab.reshape(-1, ly + 1)
        f_up = np.less_equal(a, y_cells[:, None]).astype(value)
        f_up *= q
        f_tab = np.concatenate((f_up, f_up - q)).reshape(-1, ly + 1)
        # e_rows[r], the E' rows of row len_x - r, read x[len_x - 1 - r] (the
        # q - 1 at r = len_x); f_rows[r], the F' rows of row len_x - 1 - r,
        # read that symbol and its wrap bit
        e_rows = np.add(sym[:, ly + 1:], np.arange(0, lanes * q, q)[:, None], dtype=np.intp).T
        f_rows = np.multiply(wrap[:, ly + 1:].T, lanes * q, dtype=np.intp)
        f_rows += e_rows[:-1]
        e_top = e_tab[e_rows[0], :ly]  # E'(len_x, .)
    else:
        # x[i] and x[i] <= x[i - 1] at row len_x - 1 - i, as (row, lane, 1) views
        x_rows, wrap_x = sym[:, ly + 1:].T[:, :, None], wrap[:, ly + 1:].T[:, :, None]
        e_top = np.multiply(np.subtract(np.less_equal(sym[:, :ly], sym[:, ly + 1:ly + 2]),
                                        wrap[:, :ly]), q, dtype=value)
    # row len_x: V' is V'(len_x, len_y) all along, so U'(len_x, j) is that
    # plus E'(len_x, j), e_top above, and U'(len_x, len_y) is that plus
    # x[len_x - 1] - y[len_y - 1] - W(len_x, len_y, Y) + W(len_x, len_y, X);
    # U'(i, len_y) = U'(len_x, len_y) in every row. V'(len_x, len_y) is q
    # N(len_x, len_y) - (q - 1) + y[len_y - 1] + W(len_x, len_y, Y), less
    # each lane's shift, in Python ints, which cost less than numpy calls on
    # B values
    delta = q * (lx + ly + 2)
    end_x, end_y = ends or ((0,) * lanes, (0,) * lanes)
    y_last, x_last = sym[:, 0].tolist(), sym[:, ly + 1].tolist()
    start = [q * wraps - (q - 1) + last + end - b * delta
             for b, (wraps, last, end) in enumerate(zip(wrap.sum(1).tolist(), y_last, end_y))]
    np.add(e_top, np.array(start, dtype=value)[:, None], out=by_lane[:, 1:])
    by_lane[:, 0] = [s + xl - yl + ex - ey
                     for s, xl, yl, ex, ey in zip(start, x_last, y_last, end_x, end_y)]
    v = np.empty(n, dtype=value)
    u_on, v_before = u[1:], v[:-1]  # U'(., j) and V'(., j + 1) for j < len_y
    bits = np.empty((rows, n - 1), dtype=bool) if ties is not None else [None] * rows
    if identity is not None:
        # (row, lane) in sweep order: row i < identity[b]
        kept = np.greater_equal(np.arange(lx)[:, None], lx - np.array(identity))
        kept_from = lx - max(identity)
    add, minimum, accumulate, greater, take = (
        np.add, np.minimum, np.minimum.accumulate, np.greater, np.take)
    for at in range(0, lx, rows):
        # F' and E' of rows len_x - 1 - at on down as (row, cell) arrays, E'
        # from k = 1 and at the cell before each later lane, where it never wins
        if f_tab is not None:
            f = take(f_tab, f_rows[at:at + rows], axis=0).reshape(-1, n)
            e = take(e_tab, e_rows[at + 1:at + rows + 1], axis=0)
        else:
            x_at = x_rows[at:at + rows + 1]  # x[i], then x[i - 1] one row on
            f = np.multiply(np.subtract(np.less_equal(x_at[:-1], y_cells), wrap_x[at:at + rows]),
                            q, dtype=value).reshape(-1, n)
            e = np.multiply(np.subtract(np.less_equal(y_cells, x_at[1:]), wrap_y), q,
                            dtype=value)
        if identity is not None and at + rows > kept_from:
            e[kept[at:at + rows]] = sentinel
        e = e.reshape(-1, n)[:, :-1]
        for fi, ei, tie in zip(f, e, bits):
            add(u, fi, out=fi)
            accumulate(fi, out=v)  # V'(i, .)
            add(v_before, ei, out=ei)
            if tie is not None:
                greater(u_on, ei, out=tie)
            minimum(u_on, ei, out=u_on)  # U'(i, .)
        if ties is not None:
            ties += map(bytes, np.packbits(bits[:len(f)], axis=1))
    if out is not None:
        np.add(by_lane, np.arange(0, lanes * delta, delta)[:, None], out=out)
    return [root + b * delta for b, root in enumerate(by_lane[:, ly].tolist())]


def _wavefront(xs, ys, q: int) -> np.ndarray:
    """Each lane's optimum, U'(0, 0), as an array of B values.

    xs and ys hold B strands each, all of one length per side (already
    validated, with q * (len_x + len_y + 1) < _UNREACHABLE); pair b is
    (xs[b], ys[b]). The wavefront runs on the shifted values U' and V' of
    the module docstring, from diagonal len_x + len_y down to the root,
    where a strand that has not advanced yet counts as having advanced
    symbol q - 1.
    """
    lanes, lx, ly = len(xs), len(xs[0]), len(ys[0])
    top = lx + ly
    # One (row, lane) array of symbols: x[i] at row c + 1 + i and y[j] at row
    # c - 1 - j, and q - 1 elsewhere. At row c it is the symbol before each
    # strand's first; the lx + 1 rows before y's and the row after x's are
    # read only by cells past the end, whose cross terms, at least -q, are
    # added to the sentinel. Symbols are int8 when they fit, so the band's
    # comparisons read an eighth of the bytes: a 4-lane q=2, L=200 solve took
    # 2.1 ms against 2.4 ms on int64 symbols (2-vCPU VM, best of 15).
    c = top + 1
    grid = np.empty((c + lx + 2, lanes), dtype=np.int8 if q <= 128 else np.int64)
    grid.fill(q - 1)
    grid.T[:, c + 1:c + lx + 1] = xs
    grid.T[:, c - 1:lx:-1] = ys
    sym, size = grid.reshape(-1), grid.itemsize
    # wrap is 1 where a symbol is not above its strand's previous one: y[j]
    # <= y[j - 1] at row c - 1 - j, x[i] <= x[i - 1] at row c + 1 + i
    wrap = np.zeros(sym.shape, dtype=np.int8)
    is_wrap = wrap.view(bool)
    np.less_equal(sym[:c * lanes], sym[lanes:(c + 1) * lanes], out=is_wrap[:c * lanes])
    np.less_equal(sym[(c + 1) * lanes:], sym[c * lanes:-lanes], out=is_wrap[(c + 1) * lanes:])
    # U' of diagonal d sits at (d' + i) * B + b with d' = top - d, so U'(i, d - i)
    # overwrites U'(i + 1, d - i) in place; V' sits at i * B + b. Entries never
    # written stay _UNREACHABLE, which is what the cells past the end read.
    value, unreachable = _value_type(q, lx, ly)  # its lanes are not shifted
    uv = np.empty((top + lx + 2) * lanes, dtype=value)
    uv.fill(unreachable)
    u, v = uv[:(top + 1) * lanes], uv[(top + 1) * lanes:]
    # U' and V' at (len_x, len_y): q N - (q - 1) plus each strand's last
    # symbol, in Python ints, which cost less than numpy calls on B values
    wraps = wrap.reshape(-1, lanes)[c - ly:c + lx + 1].sum(0).tolist()
    u[lx * lanes:(lx + 1) * lanes] = [
        q * n - (q - 1) + last for n, last in zip(wraps, grid[c + lx].tolist())]
    v[lx * lanes:] = [q * n - (q - 1) + last for n, last in zip(wraps, grid[c - ly].tolist())]
    # Row r of a window is the run of cells from row r on, so the y side of a
    # band is a slice of consecutive rows, one row further on per diagonal
    width_max = (lx + 1) * lanes
    y_rows = np.ndarray((c, width_max + lanes), sym.dtype, sym, 0, (lanes * size, size))
    wrap_rows = np.ndarray((c, width_max), np.int8, wrap, 0, (lanes, 1))
    # Local names for the loop's numpy calls took 3-9% off solves at L=16 to 10^4
    add, minimum, less_equal, subtract, multiply = (
        np.add, np.minimum, np.less_equal, np.subtract, np.multiply)
    rows = max(4, _CELL_BLOCK // width_max)
    band_lo = top
    for d in range(top - 1, -1, -1):
        if d < band_lo:
            # E' and F' of diagonals d..band_lo over the cells i0 <= i < i1
            # they touch, as (diagonal, i * B + b) arrays. The y rows start
            # at y[d - i0] and hold a cell to spare: y[j] at cell k is
            # y[j - 1] at cell k + 1, as x[i - 1] at k is x[i] at k + 1.
            band_hi, band_lo = d, max(0, d - rows + 1)
            i0, i1 = max(0, band_lo - ly), min(d, lx) + 1
            width, first = (i1 - i0) * lanes, i0 * lanes
            r0, r1 = c - 1 - d + i0, c - band_lo + i0
            x_at = (c + 1 + i0) * lanes
            x_sym = sym[x_at - lanes:x_at + width]
            y_sym = y_rows[r0:r1, :width + lanes]
            # the differences are int8; dtype makes the products the values'
            # type under any numpy's promotion rules, as the adds below need
            e = multiply(subtract(less_equal(y_sym, x_sym)[:, :width], wrap_rows[r0:r1, :width]),
                         q, dtype=value).ravel()
            f = multiply(subtract(less_equal(x_sym, y_sym)[:, lanes:], wrap[x_at:x_at + width]),
                         q, dtype=value).ravel()
        lo = d - ly if d > ly else 0
        a = lo * lanes
        n = ((d if d < lx else lx) + 1) * lanes - a
        o = (band_hi - d) * width + a - first
        s = (top - d) * lanes + a
        ud = u[s:s + n]  # U'(i + 1, j), then U'(i, j)
        vd = v[a:a + n]  # V'(i, j + 1), then V'(i, j)
        ed = e[o:o + n]
        fd = f[o:o + n]
        add(vd, ed, ed)
        add(ud, fd, fd)
        minimum(fd, vd, out=vd)
        minimum(ud, ed, out=ud)
    return u[top * lanes:]


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

    Equals dp_solve(x, y, q).value(0, 0, 0) without building the table:
    the pair is _t_star_lanes' one lane, so from _SPLIT_ROWS symbols of x
    on both halves of x run as two lanes of one row sweep. Refuses, before
    allocating, an alphabet so large that q * (len_x + len_y + 1) reaches
    2**60.
    """
    x = validate_strand(x, q)
    y = validate_strand(y, q)
    _check_range(q, len(x), len(y))
    return _t_star_lanes([x], [y], q)[0]


_ROW_CELLS = 2700  # see the module docstring


def _t_star_lanes(xs, ys, q: int) -> list[int]:
    """Optimal completion time of each pair (xs[b], ys[b]), solved as lanes of one block.

    The block sweeps rows while lanes * (shorter strand + 1) is at most
    _ROW_CELLS and its shifted lanes fit int64, and runs the wavefront
    otherwise. A rows block of at least _SPLIT_ROWS rows runs as
    _split_sweep's 2B lanes of half the rows, unless those lanes do not fit
    int64. Every x has one length and every y one length, the strands are
    already valid and _check_range passes: nothing is checked.
    """
    lanes, lx, ly = len(xs), len(xs[0]), len(ys[0])
    if lanes * (min(lx, ly) + 1) > _ROW_CELLS or not _value_type(q, lx, ly, lanes):
        return _wavefront(xs, ys, q).tolist()
    if lx < _SPLIT_ROWS or not _value_type(q, lx // 2 + 1, ly, 2 * lanes):
        return _row_sweep(xs, ys, q)
    return _split_sweep(xs, ys, q)


def _split_sweep(xs, ys, q: int) -> list[int]:
    """Each pair's optimum, from one row sweep of both halves of x as 2B lanes.

    Lane b is the recurrence on (x[m - 1:], y) and lane B + b on x[:m] and y
    complemented and reversed, m = ceil(len_x / 2), each of len_x // 2 + 1
    rows; the module docstring derives the join of their final rows. Every
    x has one length len_x >= 1 and every y one length; the strands are
    valid and _value_type(q, len_x // 2 + 1, len_y, 2B) is not None.
    """
    x, y = np.array(xs), np.array(ys)
    lanes, lx, ly = len(xs), len(xs[0]), len(ys[0])
    m, rows = (lx + 1) // 2, lx // 2 + 1
    # lane B + b: the complements of x[m - 1], ..., x[0], after a q - 1 when len_x is even
    back = np.full((lanes, rows), q - 1, dtype=x.dtype)
    np.subtract(q - 1, x[:, m - 1::-1], out=back[:, rows - m:])
    lead, zeros = rows - m + 1, [0] * lanes  # identity rows of lane B + b
    ends = zeros + (x[:, 0] + 1).tolist(), zeros + ((y[:, 0] + 1).tolist() if ly else zeros)
    out = np.empty((2 * lanes, ly + 1), dtype=np.int64)
    _row_sweep(np.concatenate((x[:, m - 1:], back)), np.concatenate((y, q - 1 - y[:, ::-1])), q,
               None, ends, [1] * lanes + [lead] * lanes, out)
    # at j, U'(0, j) of lane b plus U'(0, len_y - j) of lane B + b, less q
    # where y[j - 1] < y[j], 0 < j < len_y
    join = out[:lanes, ::-1] + out[lanes:]
    rise = np.greater(y[:, 1:], y[:, :-1])
    join[:, 1:-1] -= q * rise
    shift = q * (ly + lead) + 1
    return [low + q * rises - shift for low, rises in zip(join.min(1).tolist(), rise.sum(1).tolist())]


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
    slot the tie bit _row_sweep keeps for the cell picks X iff W(i + 1, j,
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
    ties: list[bytes] = []  # row i at ties[lx - 1 - i]
    slots = _row_sweep([x], [y], q, ties)[0]
    if slots > MAX_SCHEDULE_SLOTS:
        raise BudgetExceededError(slots, MAX_SCHEDULE_SLOTS, what="optimal schedule",
                                  unit="slots")
    last_x, last_y = lx - 1, ly - 1

    def tie_bit(i, j, t, n):
        k = last_y - j  # cell (i, j) within its row
        return not (ties[last_x - i][k >> 3] >> (7 - (k & 7))) & 1

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
