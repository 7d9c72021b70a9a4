"""Synthesis model: periodic machine, strands, schedules, greedy simulation.

The machine emits one symbol per time slot, cycling through the alphabet:
slot t (1-based) emits (t - 1) mod q, so slot 1 emits 0. In each slot, at
most one strand of the row may append its next symbol, and only when that
symbol equals the emitted one. A schedule is the per-slot action list
(advance strand 1 / advance strand 2 / idle) and its length is the
completion time: the slot of the final advance.

The greedy simulator never idles when progress is possible; when both
strands can advance it defers to the tie policy. Its loop runs once per
advance, not once per slot: between ties each strand runs solo, its next
advance coming ((z_k - z_{k-1} - 1) mod q) + 1 slots after the previous
one, and a tie delays the losing strand by exactly q slots. So the loop
keeps the slot of each strand's next advance, advances the earlier one,
and asks the policy's positional tie rule when the two slots are equal;
forced idles are never visited unless a schedule is requested, in which
case each advance fills in the idles it skipped. The loop takes the tie
rule, a coin source and a lookahead flag rather than a policy, so the
exact solver runs the same walk with a rule that reads its tie bits;
rows of three or more strands step by the same rule. The one per-slot
loop is apply_schedule's replay, which checks any schedule, idles
allowed, and reads simulate's trace off each schedule it simulates.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

from .errors import (
    BudgetExceededError,
    ConfigError,
    IllegalActionError,
    IncompleteScheduleError,
    InvalidStrandError,
    ScheduleError,
)
from .policies import HistoryDigest, TiePolicy, TieRule
from .rng import DEFAULT_SEED, master_rng

Strand = tuple[int, ...]

# Most slots a schedule lays out, one action each: about 160 MB of list and
# tuple. A schedule's length grows with q as well as with the strands, so a
# large alphabet exhausts memory with a few symbols unless it is refused.
MAX_SCHEDULE_SLOTS = 10**7


def validate_alphabet(q: int) -> int:
    if not isinstance(q, int) or q < 2:
        raise InvalidStrandError(f"alphabet size must be an integer >= 2, got {q!r}")
    return q


def validate_strand(strand, q: int) -> Strand:
    """Normalize to a tuple of ints and check every symbol is an integer in [0, q).

    Symbols convert with operator.index, so Python and numpy integers pass
    while floats and strings are refused rather than truncated.
    """
    validate_alphabet(q)
    strand = tuple(strand)
    try:
        out = tuple(map(index, strand))
    except TypeError:
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
    """Parse "1,3,2,2" or, for q <= 10, the compact digit form "1322"."""
    text = text.strip()
    if not text:
        return ()
    if "," in text:
        try:
            symbols = [int(tok) for tok in text.split(",")]
        except ValueError as exc:
            raise InvalidStrandError(f"cannot parse strand {text!r}: {exc}") from None
    else:
        if not text.isdigit():
            raise InvalidStrandError(f"cannot parse strand {text!r}")
        if q > 10:
            raise InvalidStrandError(
                f"digit-string strands are ambiguous for q={q} > 10; use comma-separated form"
            )
        symbols = [int(ch) for ch in text]
    return validate_strand(symbols, q)


def format_strand(strand) -> str:
    return ",".join(str(s) for s in strand)


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


# --- actions and schedules -------------------------------------------------


@dataclass(frozen=True)
class Action:
    """Advance a 1-based strand index, or idle (strand=None)."""

    strand: int | None = None

    @property
    def is_advance(self) -> bool:
        return self.strand is not None

    def token(self) -> str:
        if self.strand is None:
            return "-"
        if self.strand == 1:
            return "X"
        if self.strand == 2:
            return "Y"
        return f"X{self.strand}"


IDLE = Action(None)
ADVANCE_X = Action(1)
ADVANCE_Y = Action(2)


def _parse_token(tok: str) -> Action:
    tok = tok.strip()
    if tok in ("-", "−"):
        return IDLE
    if tok == "X":
        return ADVANCE_X
    if tok == "Y":
        return ADVANCE_Y
    if tok.startswith("X") and tok[1:].isdigit():
        idx = int(tok[1:])
        if idx >= 1:
            return Action(idx)
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
        return ",".join(a.token() for a in self.actions)

    @classmethod
    def from_string(cls, text: str) -> "Schedule":
        text = text.strip()
        if not text:
            return cls(())
        return cls(tuple(_parse_token(tok) for tok in text.split(",")))


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


_ACTION_BY_INDEX = {0: IDLE, 1: ADVANCE_X, 2: ADVANCE_Y}
_NEVER = float("inf")   # next-advance slot of a complete strand


def _tie_args(policy: TiePolicy, q: int, rng) -> tuple:
    """``_run``'s tie arguments for a policy at q: its rule, coin source and lookahead flag.

    The coin source is None for a policy that draws no coin, and the
    default generator for one that does when no rng is given.
    """
    if not policy.uses_rng:
        rng = None
    elif rng is None:
        rng = master_rng(DEFAULT_SEED)
    return policy.tie_rule(q), rng, policy.lookahead == 1


def _run(x: Strand, y: Strand, q: int, rule: TieRule, coins, look: bool,
         actions: list | None = None) -> int:
    """The greedy loop: one iteration per advance; returns the completion time.

    ``tx``/``ty`` hold the slot of each strand's next advance (``_NEVER``
    once it is complete). Running solo, a strand that advanced at slot t
    advances next at t + 1 + ((next symbol - t) mod q); a tie at
    ``tx == ty`` delays the loser by exactly q slots, to the next time its
    symbol comes round. The earlier strand always advances first, so idle
    slots cost nothing. At a tie ``rule`` is asked (True advances strand
    1), with a coin from ``coins.integers(2)`` when ``coins`` is not None
    and each strand's following symbol when ``look`` is set. When
    ``actions`` is given, each advance appends the idles it skipped and
    then itself, so the list holds one action per slot, and an advance at
    slot t > MAX_SCHEDULE_SLOTS raises BudgetExceededError(t, ...) first.
    """
    lx, ly = len(x), len(y)
    i = j = ties = last = 0
    tx = x[0] + 1 if lx else _NEVER
    ty = y[0] + 1 if ly else _NEVER
    while True:
        if tx < ty:
            t = tx
            adv = 1
        elif ty < tx:
            t = ty
            adv = 2
        elif tx == _NEVER:
            return last
        else:
            t = tx
            coin = int(coins.integers(2)) if coins is not None else 0
            la_x = x[i + 1] if look and i + 1 < lx else None
            la_y = y[j + 1] if look and j + 1 < ly else None
            if rule(i, j, (t - 1) % q, la_x, la_y, ties, coin):
                adv = 1
                ty += q
            else:
                adv = 2
                tx += q
            ties += 1
        if actions is not None:
            if t > MAX_SCHEDULE_SLOTS:
                raise BudgetExceededError(t, MAX_SCHEDULE_SLOTS, what="schedule", unit="slots")
            actions.extend([IDLE] * (t - last - 1))
            actions.append(_ACTION_BY_INDEX[adv])
        last = t
        if adv == 1:
            i += 1
            tx = t + 1 + (x[i] - t) % q if i < lx else _NEVER
        else:
            j += 1
            ty = t + 1 + (y[j] - t) % q if j < ly else _NEVER


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
    _run(x, y, q, *_tie_args(policy, q, rng), actions)
    return Schedule(tuple(actions)), SimTrace(tuple(_replay(x, y, q, actions, [])))


def completion_time(x, y, policy: TiePolicy, q: int, rng=None) -> int:
    """Completion time of the greedy simulation, without materializing a trace."""
    x = validate_strand(x, q)
    y = validate_strand(y, q)
    return _run(x, y, q, *_tie_args(policy, q, rng))


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
        _run(strands[0], strands[1], q, *_tie_args(policy, q, rng), actions)
        return Schedule(tuple(actions))
    if len(strands) > 2 and policy.choose is None:
        raise ConfigError(f"policy {policy.name!r} has no selection rule for k > 2 strands")
    if policy.uses_rng and rng is None:
        rng = master_rng(DEFAULT_SEED)
    done = [0] * len(strands)
    nxt = [z[0] + 1 if z else _NEVER for z in strands]  # slot of each next advance
    actions = []
    ties = last = 0
    while (t := min(nxt, default=_NEVER)) != _NEVER:
        cands = [s for s, ts in enumerate(nxt) if ts == t]
        chosen = cands[0]
        if len(cands) > 1:
            coin = int(rng.integers(1 << 30)) if policy.uses_rng else 0
            chosen = policy.choose(cands, done, HistoryDigest(ties, coin))
            ties += 1
            for s in cands:
                nxt[s] += q  # the winner's is set again below
        if t > MAX_SCHEDULE_SLOTS:
            raise BudgetExceededError(t, MAX_SCHEDULE_SLOTS, what="schedule", unit="slots")
        actions.extend([IDLE] * (t - last - 1))
        actions.append(Action(chosen + 1))
        last = t
        done[chosen] += 1
        z, i = strands[chosen], done[chosen]
        nxt[chosen] = t + 1 + (z[i] - t) % q if i < len(z) else _NEVER
    return Schedule(tuple(actions))


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
