"""Synthesis model: periodic machine, strands, schedules, greedy simulation.

The machine emits one symbol per time slot, cycling through the alphabet:
slot t (1-based) emits (t - 1) mod q, so slot 1 emits 0. In each slot, at
most one strand of the row may append its next symbol, and only when that
symbol equals the emitted one. A schedule is the per-slot action list
(advance strand 1 / advance strand 2 / idle) and its length is the
completion time: the slot of the final advance.

The greedy simulator never idles when progress is possible; when both
strands can advance it defers to the tie policy. Its loop runs once per
advance, not once per slot. Run alone, a strand's next advance comes
((z_k - z_{k-1} - 1) mod q) + 1 slots after the previous one, so its
solo slots, computed once per strand by _solo_slots, telescope to q times
the wraps so far plus z_k - (q - 1). A tie delays the losing strand by
exactly q slots, to the next time its symbol comes round, and leaves
every later solo gap unchanged. So the loop keeps one offset per strand,
q per lost tie, advances the strand whose next solo slot plus offset is
earlier, and asks tie(i, j, t, n), bound once per walk by TiePolicy.bind,
when the two are equal; when one strand finishes, the other's completion
is its last solo slot plus its offset. Forced idles are never visited: a
schedule is rebuilt afterwards from where each strand lost its ties. The
loop takes solo slots and a bound tie rule, so the exact solver runs it
with a rule that reads its tie bits and the Monte Carlo harness with solo
slots built from the strands it drew; rows of three or more strands step
by the same rule. The one per-slot loop is apply_schedule's replay, which
checks any schedule, idles allowed, and reads simulate's trace off each
schedule it simulates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import add, index

import numpy as np

from .errors import (
    BudgetExceededError,
    ConfigError,
    IllegalActionError,
    IncompleteScheduleError,
    InvalidStrandError,
    ScheduleError,
)
from .policies import HistoryDigest, Tie, TiePolicy
from .rng import DEFAULT_SEED, master_rng

Strand = tuple[int, ...]

# Most slots a schedule lays out, one action each: about 160 MB of list and
# tuple. A schedule's length grows with q as well as with the strands, so a
# large alphabet exhausts memory with a few symbols unless it is refused.
MAX_SCHEDULE_SLOTS = 10**7

_BYTES = bytes(range(256))
_DIGITS = bytes.maketrans(b"0123456789", _BYTES[:10])  # ASCII digit to its value


def validate_alphabet(q: int) -> int:
    if not isinstance(q, int) or q < 2:
        raise InvalidStrandError(f"alphabet size must be an integer >= 2, got {q!r}")
    return q


def validate_strand(strand, q: int) -> Strand:
    """Normalize to a tuple of ints and check every symbol is an integer in [0, q).

    Symbols convert with operator.index, so Python and numpy integers pass
    while floats and strings are refused rather than truncated; up to q =
    256, bytes() converts and checks them first, 3x faster at 400 symbols,
    and a bytes strand, as parse_strand's digit form gives, goes to that
    check as it is.
    """
    validate_alphabet(q)
    if type(strand) is not bytes:
        strand = tuple(strand)
    try:
        if q <= 256 and not (packed := bytes(strand)).translate(None, _BYTES[:q]):
            return tuple(packed)
        out = tuple(map(index, strand))
    except (TypeError, ValueError):  # a symbol that is not an integer, or not a byte
        out = None
    if out is None or out and (min(out) < 0 or max(out) >= q):
        for k, s in enumerate(strand):
            try:
                s = index(s)
            except TypeError:
                raise InvalidStrandError(f"symbol {s!r} at position {k} is not an integer") from None
            if not 0 <= s < q:
                raise InvalidStrandError(f"symbol {s} at position {k} outside alphabet of size {q}")
    return out


def parse_strand(text: str, q: int) -> Strand:
    """Parse "1,3,2,2" or, for q <= 10, the compact digit form "1322".

    Each comma-separated token, padding stripped, must be ASCII digits. For
    q <= 10 a single token is the digit form, read whole by one
    bytes.translate whose bytes validate_strand checks as they are; for q >
    10 it is one symbol, as format_strand writes a strand of one.
    """
    text = text.strip()
    if not text:
        return ()
    tokens = digit_tokens(text)
    if tokens is None:
        raise InvalidStrandError(f"cannot parse strand {text!r}")
    if len(tokens) > 1:
        return validate_strand(map(int, tokens), q)
    if q <= 10:
        return validate_strand(tokens[0].encode().translate(_DIGITS), q)
    symbol = int(tokens[0])
    if symbol >= q:
        raise InvalidStrandError(f"{text} is not one symbol of q={q}; write several symbols "
                                 "in comma-separated form")
    return (symbol,)


def digit_tokens(text: str) -> list[str] | None:
    """text's comma-separated tokens, padding stripped, or None unless each is ASCII digits."""
    tokens = [tok.strip() for tok in text.split(",")]
    digits = "".join(tokens)
    # all(tokens) refuses an empty token; isdigit alone passes '²' and '٣'
    return tokens if all(tokens) and digits.isascii() and digits.isdigit() else None


def format_strand(strand) -> str:
    return ",".join([str(s) for s in strand])


def periodic_symbol(q: int, t: int) -> int:
    """Symbol emitted at 1-based slot t; slot 1 emits 0."""
    validate_alphabet(q)
    if t < 1:
        raise ValueError(f"slot index must be >= 1, got {t}")
    return (t - 1) % q


def solo_time(z, q: int) -> int:
    """Slots needed to synthesize a single strand greedily from slot 1.

    Each symbol costs ((z_k - z_{k-1} - 1) mod q) + 1 slots after its
    predecessor, the first one counted from symbol q - 1 before slot 1,
    which is exactly the slot-by-slot greedy behaviour. Empty strands take
    0 slots.
    """
    return _solo_time(validate_strand(z, q), q)


def _solo_time(z: Strand, q: int) -> int:
    """solo_time of a strand already known to be valid."""
    t = 0
    cur = q - 1
    for s in z:
        t += ((s - cur - 1) % q) + 1
        cur = s
    return t


# _solo_slots takes numpy from this strand length on, and while q * (len(z)
# + 1) stays below _SLOT_RANGE, in int64. numpy's fixed cost loses to a
# Python loop below it. Measured with BENCH_15.json; CHANGES.md quotes the
# figures.
_NUMPY_SLOTS = 160
_SLOT_RANGE = 1 << 62


def _solo_slots(z, q: int) -> list[int]:
    """The slot of each advance of a valid strand z run alone from slot 1.

    Telescoping _solo_time's sum gives S[k] = q * W[k] + z[k] - (q - 1),
    where W[k] counts the wraps among z[0..k]: a symbol not above the one
    before it, z[0] compared with q - 1, so z[0] always wraps. So S[-1] is
    _solo_time(z, q). z may be a tuple or an integer numpy array; numpy
    computes S in int64 (``less_equal`` and ``cumsum``) for strands of
    _NUMPY_SLOTS symbols or more while q * (len(z) + 1) < 2**62, and
    Python ints do otherwise.
    """
    n = len(z)
    if n >= _NUMPY_SLOTS and q * (n + 1) < _SLOT_RANGE:
        a = np.fromiter(z, np.int64, n) if isinstance(z, tuple) else np.asarray(z, dtype=np.int64)
        slots = a + 1  # z[0] wraps: S[0] = q + z[0] - (q - 1)
        slots[1:] += np.less_equal(a[1:], a[:-1]).cumsum(dtype=np.int64) * q
        return slots.tolist()
    if isinstance(z, np.ndarray):
        z = z.tolist()
    slots = []
    wraps, prev = 0, q - 1
    for s in z:
        wraps += s <= prev
        prev = s
        slots.append(q * wraps + s - (q - 1))
    return slots


# --- actions and schedules -------------------------------------------------


@dataclass(frozen=True)
class Action:
    """Advance a 1-based strand index, or idle (strand=None)."""

    strand: int | None = None

    @property
    def is_advance(self) -> bool:
        return self.strand is not None

    def token(self) -> str:
        return _TOKENS.get(self.strand) or f"X{self.strand}"


IDLE = Action(None)
ADVANCE_X = Action(1)
ADVANCE_Y = Action(2)


# Schedule text of the actions of a pair, by strand and by token (an idle also
# reads as the minus sign); any other strand k >= 1 is written X<k>.
_TOKENS = {None: "-", 1: "X", 2: "Y"}
_ACTIONS = {"-": IDLE, "\u2212": IDLE, "X": ADVANCE_X, "Y": ADVANCE_Y}


def _parse_token(tok: str) -> Action:
    tok = tok.strip()
    if tok in _ACTIONS:
        return _ACTIONS[tok]
    k = tok[1:].encode()  # bytes.isdigit passes ASCII digits only
    if tok[:1] == "X" and k.isdigit() and int(k) >= 1:
        return Action(int(k))
    raise ScheduleError(f"unknown schedule token {tok!r}")


@dataclass(frozen=True)
class Schedule:
    """An ordered action list; its length is the completion time.

    Trailing idles are forbidden: the schedule ends at the slot of the
    final advance.
    """

    actions: tuple[Action, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(self.actions))
        if self.actions and not self.actions[-1].is_advance:
            raise ScheduleError("a schedule must end with an advance, not an idle")

    @property
    def completion_time(self) -> int:
        return len(self.actions)

    def __len__(self) -> int:
        return len(self.actions)

    def __iter__(self):
        return iter(self.actions)

    def advance_count(self, strand: int) -> int:
        return sum(1 for a in self.actions if a.strand == strand)

    def to_string(self) -> str:
        try:
            return ",".join([_TOKENS[a.strand] for a in self.actions])
        except KeyError:  # strands 3 and up
            return ",".join([a.token() for a in self.actions])

    @classmethod
    def from_string(cls, text: str) -> "Schedule":
        text = text.strip()
        if not text:
            return cls(())
        tokens = text.split(",")
        try:
            actions = tuple([_ACTIONS[tok] for tok in tokens])
        except KeyError:  # padded, "X<k>" or unknown tokens
            actions = tuple(map(_parse_token, tokens))
        return cls(actions)


@dataclass(frozen=True)
class StepRecord:
    """One simulated slot: emission, chosen action, and both strand offsets.

    The offset of a strand is (next symbol - r) mod q, i.e. the number of
    slots until its next symbol comes around; None once the strand is
    complete. An offset of 0 means the strand can advance now.
    """

    t: int
    r: int
    action: Action
    a: int | None
    b: int | None

    @property
    def advanced(self) -> int | None:
        return self.action.strand


@dataclass(frozen=True)
class SimTrace:
    records: tuple[StepRecord, ...] = ()

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


_NEVER = float("inf")   # next-advance slot of a complete strand


def _lay_out(slots: list, lost: list, t: int) -> list[Action]:
    """One action per slot 1..t: strand s + 1 advances at its solo slots, slots[s], delayed.

    lost[s][k] is q times the ties strand s + 1 lost at its index k, and
    each such loss delays that symbol and every later one by q. A schedule
    past MAX_SCHEDULE_SLOTS raises BudgetExceededError, naming its first
    advance past the budget, before the schedule is allocated.
    """
    placed = [list(map(add, z, accumulate(delay))) for z, delay in zip(slots, lost)]
    if t > MAX_SCHEDULE_SLOTS:
        first = min(u for us in placed for u in us if u > MAX_SCHEDULE_SLOTS)
        raise BudgetExceededError(first, MAX_SCHEDULE_SLOTS, what="schedule", unit="slots")
    actions = [IDLE] * (t + 1)  # slot u at index u; index 0 is dropped
    for s, us in enumerate(placed):
        action = Action(s + 1)
        for u in us:
            actions[u] = action
    del actions[0]
    return actions


def _run(sx: list, sy: list, q: int, tie: Tie, actions: list | None = None) -> int:
    """The greedy loop: one iteration per advance; returns the completion time.

    Each strand advances at its solo slots, ``sx``/``sy`` from _solo_slots,
    plus an offset, ``dx``/``dy``: q times the ties it has lost, since a
    lost tie delays a strand by exactly q slots, to the next time its
    symbol comes round, and leaves every later solo gap unchanged. The
    earlier of ``tx``/``ty`` advances, in one tight loop per strand, so idle
    slots cost nothing. At a tie in slot t, ``tie(i, j, t, n)`` is asked
    (True advances strand 1), n counting the ties before it; the loser's
    offset grows by q. The loop stops when a strand runs out of slots (its
    IndexError is the only end test), and the other finishes at its last
    solo slot plus its offset. With ``actions``, a wrapper around ``tie``
    records q at each strand's index at each tie it lost, and _lay_out
    appends the schedule rebuilt from those delays to ``actions``.
    """
    if actions is not None:
        lost = lost_x, lost_y = [0] * len(sx), [0] * len(sy)  # q per tie lost at each index
        ask = tie

        def tie(i, j, t, n):
            if ask(i, j, t, n):
                lost_y[j] += q
                return True
            lost_x[i] += q
            return False

    lx = len(sx)
    i = j = n = dx = dy = 0
    if lx and sy:
        tx, ty = sx[0], sy[0]
        while True:
            try:
                while tx < ty:
                    i += 1
                    tx = sx[i] + dx
                while ty < tx:
                    j += 1
                    ty = sy[j] + dy
            except IndexError:
                break
            if tx == ty:
                if tie(i, j, tx, n):
                    dy += q
                    ty += q
                else:
                    dx += q
                    tx += q
                n += 1
    rest, d = (sy, dy) if i == lx else (sx, dx)
    t = rest[-1] + d if rest else 0
    if actions is not None:
        actions += _lay_out((sx, sy), lost, t)
    return t


def _greedy(x: Strand, y: Strand, policy: TiePolicy, q: int, rng,
            actions: list | None = None) -> int:
    """_run on a valid pair under the policy; coins are int(rng.integers(2)), default rng if None."""
    nx = ny = coins = None
    if policy.lookahead:
        nx, ny = (*x[1:], None), (*y[1:], None)
    if policy.uses_rng:
        gen = master_rng(DEFAULT_SEED) if rng is None else rng
        coins = lambda: int(gen.integers(2))
    return _run(_solo_slots(x, q), _solo_slots(y, q), q, policy.bind(q, nx, ny, coins), actions)


def simulate(x, y, policy: TiePolicy, q: int, rng=None) -> tuple[Schedule, SimTrace]:
    """Greedy simulation of a strand pair under a tie policy.

    Each slot, the strand whose next symbol matches the emission advances;
    at a tie the policy decides; otherwise the machine idles. Stops at the
    slot completing the last strand. Returns the schedule plus a per-slot
    trace of emissions, actions and offsets, read off by apply_schedule's
    replay, which also checks the schedule against the model.
    """
    x = validate_strand(x, q)
    y = validate_strand(y, q)
    actions: list[Action] = []
    _greedy(x, y, policy, q, rng, actions)
    return Schedule(tuple(actions)), SimTrace(tuple(_replay(x, y, q, actions, [])))


def completion_time(x, y, policy: TiePolicy, q: int, rng=None) -> int:
    """Completion time of the greedy simulation, without materializing a trace."""
    return _greedy(validate_strand(x, q), validate_strand(y, q), policy, q, rng)


def simulate_k(strands, policy: TiePolicy, q: int, rng=None) -> Schedule:
    """Greedy simulation of any number of strands in one row.

    At most one strand advances per slot; when several match, the policy's
    k-strand selection rule picks one. Rows of exactly two strands go
    through the same path as simulate(), so lookahead policies work there.
    Other rows step from advance to advance by _run's rule, and every
    strand that loses a tie is delayed by q slots. Either way a schedule
    past MAX_SCHEDULE_SLOTS slots is refused with BudgetExceededError.
    """
    strands = [validate_strand(s, q) for s in strands]
    if len(strands) == 2:
        actions: list[Action] = []
        _greedy(strands[0], strands[1], policy, q, rng, actions)
        return Schedule(tuple(actions))
    if len(strands) > 2 and policy.choose is None:
        raise ConfigError(f"policy {policy.name!r} has no selection rule for k > 2 strands")
    if policy.uses_rng and rng is None:
        rng = master_rng(DEFAULT_SEED)
    slots = [_solo_slots(z, q) for z in strands]
    done = [0] * len(strands)
    delay = [0] * len(strands)  # q per lost tie
    lost = [[0] * len(z) for z in slots]  # q per tie lost at each index
    nxt = [z[0] if z else _NEVER for z in slots]  # slot of each next advance
    ties = last = 0
    while (t := min(nxt, default=_NEVER)) != _NEVER:
        cands = [s for s, ts in enumerate(nxt) if ts == t]
        chosen = cands[0]
        if len(cands) > 1:
            coin = int(rng.integers(1 << 30)) if policy.uses_rng else 0
            chosen = policy.choose(cands, done, HistoryDigest(ties, coin))
            ties += 1
            for s in cands:
                if s != chosen:
                    delay[s] += q
                    nxt[s] += q
                    lost[s][done[s]] += q
        last = t
        done[chosen] += 1
        z, i = slots[chosen], done[chosen]
        nxt[chosen] = z[i] + delay[chosen] if i < len(z) else _NEVER
    return Schedule(tuple(_lay_out(slots, lost, last)))


def _replay(x: Strand, y: Strand, q: int, actions, records: list | None = None):
    """apply_schedule's slot-by-slot check of a schedule; returns ``records``.

    A ``records`` list gets each slot's StepRecord, with both offsets before
    the slot's action; without one, an idle slot computes nothing.
    """
    strands = (x, y)
    done = [0, 0]
    for t, action in enumerate(actions, start=1):
        s = action.strand
        if records is not None:
            r = (t - 1) % q
            i, j = done
            records.append(StepRecord(t, r, action,
                                      (x[i] - r) % q if i < len(x) else None,
                                      (y[j] - r) % q if j < len(y) else None))
        if s is None:
            continue
        if s not in (1, 2):
            raise IllegalActionError(t, f"schedule references strand {s}; only 1 and 2 exist")
        strand, idx = strands[s - 1], done[s - 1]
        if idx >= len(strand):
            raise IllegalActionError(t, f"strand {action.token()} is already complete")
        r = (t - 1) % q
        if strand[idx] != r:
            raise IllegalActionError(
                t, f"strand {action.token()} needs symbol {strand[idx]} but slot emits {r}"
            )
        done[s - 1] += 1
    if done[0] < len(x) or done[1] < len(y):
        raise IncompleteScheduleError(
            f"schedule ends with {len(x) - done[0]} symbols of X and "
            f"{len(y) - done[1]} of Y unsynthesized"
        )
    return records


def apply_schedule(x, y, schedule: Schedule, q: int) -> int:
    """Validate an externally supplied schedule against the model and score it.

    An advance at slot t is legal only if that strand is incomplete and its
    next symbol equals the slot's emission; idles are always legal, even
    when progress was possible. Raises IllegalActionError naming the
    offending slot, or IncompleteScheduleError if the schedule ends with a
    strand unfinished. Returns the completion time (the schedule length).
    """
    _replay(validate_strand(x, q), validate_strand(y, q), q, schedule)
    return schedule.completion_time
