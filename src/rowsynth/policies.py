"""Tie-break policies for two-strand synthesis.

The greedy simulator never idles when progress is possible, so the only
decision left to a policy is the tie: a slot where both strands' next
symbols equal the emitted symbol. Each policy here is a pure function of
the information window it declares. Depth-0 policies may consult only past
information (progress counts, tie history, an externally drawn coin);
depth-1 policies additionally see each strand's symbol after the matching
one.

Each catalog rule is written once, as a binder rule(q, nx, ny, coins)
that TiePolicy.bind calls once per walk and that returns tie(i, j, t, n):
at each tie the walk passes progress counts, the 1-based slot t (emission
(t - 1) mod q) and the n ties before it. The public TieContext function
of the same name is derived from the binder and carries it.
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

# tie rule bound to one walk: (i, j, t, n) -> True for strand 1, at 1-based slot t after n ties
Tie = Callable[[int, int, int, int], bool]


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

    def bind(self, q: int, nx=None, ny=None, coins=None) -> Tie:
        """``decide`` at alphabet size q bound to one walk: tie(i, j, t, n), True for strand 1.

        t is the tie's 1-based slot, emitting (t - 1) % q, after n ties. Only
        a lookahead policy reads ``nx[i]`` and ``ny[j]``, each strand's
        symbol after its current one (None at its end), and only a
        ``uses_rng`` policy calls ``coins()``, once per tie. A catalog decide
        binds the rule it is derived from, so no TieContext is built; any
        other decide (a custom policy, or a counting wrapper) gets an adapter
        that builds one.
        """
        decide = self.decide
        rule = getattr(decide, "rule", None)
        # a wrapper made with functools.wraps copies ``rule`` but is not its decide
        if rule is not None and rule.decide is decide:
            return rule(q, nx, ny, coins)

        def adapter(i, j, t, n):
            look = self.lookahead == 1
            ctx = TieContext(i, j, (t - 1) % q, q, nx[i] if look else None, ny[j] if look else None,
                             HistoryDigest(n, coins() if self.uses_rng else 0))
            return decide(ctx) is TieDecision.ADVANCE_X

        return adapter


def _catalog_decide(rule: Callable[..., Tie]):
    """The public TieContext function of a catalog rule ``rule(q, nx, ny, coins) -> tie``.

    It binds the rule to the context's q, {i: lookahead_x}, {j: lookahead_y}
    and the digest's coin, and asks it at slot r + 1 after the digest's
    ties. It takes the rule's name and docstring and carries the rule as
    ``rule``, for TiePolicy.bind; the rule points back at it.
    """

    def decide(ctx: TieContext) -> TieDecision:
        h = ctx.history
        tie = rule(ctx.q, {ctx.i: ctx.lookahead_x}, {ctx.j: ctx.lookahead_y}, lambda: h.coin)
        return TieDecision.ADVANCE_X if tie(ctx.i, ctx.j, ctx.r + 1, h.ties) else TieDecision.ADVANCE_Y

    decide.__name__ = decide.__qualname__ = rule.__name__
    decide.__doc__ = rule.__doc__
    decide.rule, rule.decide = rule, decide
    return decide


@_catalog_decide
def x_first(q, nx, ny, coins):
    """Always advance strand 1."""
    return lambda i, j, t, n: True


@_catalog_decide
def y_first(q, nx, ny, coins):
    """Always advance strand 2 (mirror of x_first)."""
    return lambda i, j, t, n: False


@_catalog_decide
def laggard_first(q, nx, ny, coins):
    """Advance the strand with fewer synthesized symbols; strand 1 on equality."""
    return lambda i, j, t, n: i <= j


@_catalog_decide
def lf1(q, nx, ny, coins):
    """Binary one-symbol lookahead rule.

    When the two lookahead symbols differ, advance the strand whose
    lookahead equals the next slot's emission (that strand can then advance
    again immediately). When they are equal, or either strand has no symbol
    left after the matching one, fall back to laggard_first. Bound at any
    alphabet but q=2, its first tie raises UnsupportedAlphabetError.
    """
    def tie(i, j, t, n):
        la_x, la_y = nx[i], ny[j]
        if la_x is not None and la_y is not None and la_x != la_y:
            return la_x == t % q   # slot t + 1 emits t mod q
        return i <= j   # laggard-first

    def refuse(i, j, t, n):
        raise UnsupportedAlphabetError(f"lf1 is defined only for the binary alphabet, got q={q}")

    return tie if q == 2 else refuse


@_catalog_decide
def round_robin(q, nx, ny, coins):
    """Alternate X, Y, X, ... across successive ties."""
    return lambda i, j, t, n: n % 2 == 0


@_catalog_decide
def random_tie(q, nx, ny, coins):
    """Resolve by the seeded coin drawn for the tie (the history digest's coin)."""
    return lambda i, j, t, n: coins() % 2 == 0


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
