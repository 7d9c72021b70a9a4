"""Tie-break policies for two-strand synthesis.

The greedy simulator never idles when progress is possible, so the only
decision left to a policy is the tie: a slot where both strands' next
symbols equal the emitted symbol. Each policy here is a pure function of
the information window it declares. Depth-0 policies may consult only past
information (progress counts, tie history, an externally drawn coin);
depth-1 policies additionally see each strand's symbol after the matching
one.

Each catalog rule is written once, as a positional function of
(i, j, r, lookahead_x, lookahead_y, ties, coin) that the simulator calls
at every tie; the public TieContext functions unpack the context into it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, Sequence

from .errors import UnsupportedAlphabetError


class TieDecision(Enum):
    ADVANCE_X = 1
    ADVANCE_Y = 2


class HistoryDigest(NamedTuple):
    """Past information available to depth-0 policies at a tie.

    ``ties`` counts ties resolved before this one; ``coin`` is an
    RNG-derived value supplied by the simulator (0 for policies that do not
    declare randomness).
    """

    ties: int = 0
    coin: int = 0


class TieContext(NamedTuple):
    """Everything a policy may look at when both strands can advance.

    ``lookahead_x``/``lookahead_y`` are the symbols after each strand's
    currently matching symbol. They are populated only for depth-1
    policies, and are None near a strand's end.
    """

    i: int
    j: int
    r: int
    q: int
    lookahead_x: int | None = None
    lookahead_y: int | None = None
    history: HistoryDigest = HistoryDigest()


# k-strand selection rule: (candidate indices, progress counts, digest) -> chosen index
KChooser = Callable[[Sequence[int], Sequence[int], HistoryDigest], int]

# positional tie rule: (i, j, r, lookahead_x, lookahead_y, ties, coin) -> True for strand 1
TieRule = Callable[[int, int, int, int | None, int | None, int, int], bool]


@dataclass(frozen=True)
class TiePolicy:
    """A named tie-break rule.

    ``lookahead`` declares the information window (0 or 1). ``decide`` maps
    a TieContext to a TieDecision and must be deterministic given the
    context; randomized policies read the coin in the history digest
    instead of drawing themselves. ``choose`` optionally generalizes the
    rule to rows of more than two strands.
    """

    name: str
    lookahead: int
    decide: Callable[[TieContext], TieDecision]
    uses_rng: bool = False
    choose: KChooser | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.lookahead not in (0, 1):
            raise ValueError(f"lookahead depth must be 0 or 1, got {self.lookahead}")

    def tie_rule(self, q: int) -> TieRule:
        """``decide`` at alphabet size q as a positional rule; True advances strand 1.

        Catalog decide functions map to the rule they are written from, so
        the simulator builds no TieContext. Any other decide (a custom
        policy, or a wrapper such as a counting one) gets an adapter that
        builds the context and calls it, as does lf1 away from q=2, so that
        its UnsupportedAlphabetError is raised at the first tie.
        """
        decide = self.decide
        for fn, rule in _RULES:
            if fn is decide and (fn is not lf1 or q == 2):
                return rule

        def adapter(i, j, r, la_x, la_y, ties, coin):
            ctx = TieContext(i, j, r, q, la_x, la_y, HistoryDigest(ties, coin))
            return decide(ctx) is TieDecision.ADVANCE_X

        return adapter


def _x_first_rule(i, j, r, la_x, la_y, ties, coin):
    return True


def _y_first_rule(i, j, r, la_x, la_y, ties, coin):
    return False


def _laggard_rule(i, j, r, la_x, la_y, ties, coin):
    return i <= j


def _lf1_rule(i, j, r, la_x, la_y, ties, coin):
    if la_x is not None and la_y is not None and la_x != la_y:
        return la_x == (r + 1) % 2
    return i <= j   # laggard-first


def _round_robin_rule(i, j, r, la_x, la_y, ties, coin):
    return ties % 2 == 0


def _random_rule(i, j, r, la_x, la_y, ties, coin):
    return coin % 2 == 0


def _decide_by(rule: TieRule, ctx: TieContext) -> TieDecision:
    h = ctx.history
    if rule(ctx.i, ctx.j, ctx.r, ctx.lookahead_x, ctx.lookahead_y, h.ties, h.coin):
        return TieDecision.ADVANCE_X
    return TieDecision.ADVANCE_Y


def x_first(ctx: TieContext) -> TieDecision:
    """Always advance strand 1."""
    return _decide_by(_x_first_rule, ctx)


def y_first(ctx: TieContext) -> TieDecision:
    """Always advance strand 2 (mirror of x_first)."""
    return _decide_by(_y_first_rule, ctx)


def laggard_first(ctx: TieContext) -> TieDecision:
    """Advance the strand with fewer synthesized symbols; strand 1 on equality."""
    return _decide_by(_laggard_rule, ctx)


def lf1(ctx: TieContext) -> TieDecision:
    """Binary one-symbol lookahead rule.

    When the two lookahead symbols differ, advance the strand whose
    lookahead equals the next slot's emission (that strand can then advance
    again immediately). When they are equal, or either strand has no symbol
    left after the matching one, fall back to laggard_first.
    """
    if ctx.q != 2:
        raise UnsupportedAlphabetError(
            f"lf1 is defined only for the binary alphabet, got q={ctx.q}"
        )
    return _decide_by(_lf1_rule, ctx)


def round_robin(ctx: TieContext) -> TieDecision:
    """Alternate X, Y, X, ... across successive ties."""
    return _decide_by(_round_robin_rule, ctx)


def random_tie(ctx: TieContext) -> TieDecision:
    """Resolve by the seeded coin the simulator placed in the history digest."""
    return _decide_by(_random_rule, ctx)


# each catalog decide function and the positional rule it is written from
_RULES = (
    (x_first, _x_first_rule),
    (y_first, _y_first_rule),
    (laggard_first, _laggard_rule),
    (lf1, _lf1_rule),
    (round_robin, _round_robin_rule),
    (random_tie, _random_rule),
)


def _choose_lowest(cands, progress, digest):
    return cands[0]


def _choose_highest(cands, progress, digest):
    return cands[-1]


def _choose_laggard(cands, progress, digest):
    return min(cands, key=lambda s: (progress[s], s))


def _choose_round_robin(cands, progress, digest):
    return cands[digest.ties % len(cands)]


def _choose_random(cands, progress, digest):
    return cands[digest.coin % len(cands)]


X_FIRST = TiePolicy("x-first", 0, x_first, choose=_choose_lowest)
Y_FIRST = TiePolicy("y-first", 0, y_first, choose=_choose_highest)
LAGGARD_FIRST = TiePolicy("lf", 0, laggard_first, choose=_choose_laggard)
LF1 = TiePolicy("lf1", 1, lf1)
ROUND_ROBIN = TiePolicy("round-robin", 0, round_robin, choose=_choose_round_robin)
RANDOM_TIE = TiePolicy("random", 0, random_tie, uses_rng=True, choose=_choose_random)

_CATALOG = (X_FIRST, Y_FIRST, LAGGARD_FIRST, LF1, ROUND_ROBIN, RANDOM_TIE)


def policy_catalog() -> list[TiePolicy]:
    """All shipped policies, in a stable order."""
    return list(_CATALOG)


def get_policy(name: str) -> TiePolicy:
    """Look a policy up by its CLI name (e.g. "lf", "x-first")."""
    for policy in _CATALOG:
        if policy.name == name:
            return policy
    known = ", ".join(p.name for p in _CATALOG)
    raise KeyError(f"unknown policy {name!r}; known policies: {known}")


def policy_names() -> list[str]:
    return [p.name for p in _CATALOG]
