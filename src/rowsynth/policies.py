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
at every tie. The public TieContext function of the same name is made from
it, unpacks the context into it and carries it for TiePolicy.tie_rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import partial
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
        rule = getattr(decide, "rule", None)
        # a wrapper made with functools.wraps copies ``rule`` but is not its decide
        if rule is not None and rule.decide is decide and (q == 2 or not rule.binary):
            return rule

        def adapter(i, j, r, la_x, la_y, ties, coin):
            ctx = TieContext(i, j, r, q, la_x, la_y, HistoryDigest(ties, coin))
            return decide(ctx) is TieDecision.ADVANCE_X

        return adapter


def _catalog_decide(rule: TieRule, binary: bool = False) -> Callable[[TieContext], TieDecision]:
    """The public TieContext function of a positional catalog rule.

    It takes the rule's name and docstring and carries the rule itself as
    ``rule``, for TiePolicy.tie_rule; the rule points back at it. A
    ``binary`` rule refuses any alphabet but q=2 with UnsupportedAlphabetError.
    """

    def decide(ctx: TieContext) -> TieDecision:
        if binary and ctx.q != 2:
            raise UnsupportedAlphabetError(
                f"{rule.__name__} is defined only for the binary alphabet, got q={ctx.q}"
            )
        h = ctx.history
        if rule(ctx.i, ctx.j, ctx.r, ctx.lookahead_x, ctx.lookahead_y, h.ties, h.coin):
            return TieDecision.ADVANCE_X
        return TieDecision.ADVANCE_Y

    decide.__name__ = decide.__qualname__ = rule.__name__
    decide.__doc__ = rule.__doc__
    decide.rule, rule.decide, rule.binary = rule, decide, binary
    return decide


@_catalog_decide
def x_first(i, j, r, la_x, la_y, ties, coin):
    """Always advance strand 1."""
    return True


@_catalog_decide
def y_first(i, j, r, la_x, la_y, ties, coin):
    """Always advance strand 2 (mirror of x_first)."""
    return False


@_catalog_decide
def laggard_first(i, j, r, la_x, la_y, ties, coin):
    """Advance the strand with fewer synthesized symbols; strand 1 on equality."""
    return i <= j


@partial(_catalog_decide, binary=True)
def lf1(i, j, r, la_x, la_y, ties, coin):
    """Binary one-symbol lookahead rule.

    When the two lookahead symbols differ, advance the strand whose
    lookahead equals the next slot's emission (that strand can then advance
    again immediately). When they are equal, or either strand has no symbol
    left after the matching one, fall back to laggard_first.
    """
    if la_x is not None and la_y is not None and la_x != la_y:
        return la_x == (r + 1) % 2
    return i <= j   # laggard-first


@_catalog_decide
def round_robin(i, j, r, la_x, la_y, ties, coin):
    """Alternate X, Y, X, ... across successive ties."""
    return ties % 2 == 0


@_catalog_decide
def random_tie(i, j, r, la_x, la_y, ties, coin):
    """Resolve by the seeded coin the simulator placed in the history digest."""
    return coin % 2 == 0


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
