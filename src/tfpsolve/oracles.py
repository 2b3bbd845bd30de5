"""Exhaustive baselines and structural checks used to validate the solvers.

Everything here favors being obviously correct over being fast: seedings are
enumerated one bracket-equivalence class at a time, witness forests are found
by straight backtracking, and the niceness repair regroups the blocks of a
partly played bracket.  Hard player caps raise ``OracleLimitError`` before a
call can silently take hours.  A bracket tree is held as in the solvers: the
leaf order of a bracket its root wins, root first, and ``core._fold`` builds
it from blocks.  A played bracket is read as the rounds of
``core.bracket_rounds``, and the repair returns the rounds it last played.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .core import (
    Match,
    Seeding,
    Tournament,
    _covered,
    _fold,
    _round,
    _winner,
    bracket_rounds,
    champion_of,
)

__all__ = [
    "OracleLimitError",
    "NicenessReport",
    "enumerate_seedings",
    "brute_force_decide",
    "niceness",
    "repair_to_nice",
    "extract_local_lba",
    "is_wwf",
    "brute_force_wwf",
]


_SEEDINGS_MAX_N = 8
_WWF_MAX_N = 16


class OracleLimitError(ValueError):
    """An exhaustive routine was asked for more players than its cap allows."""


def _brackets(players: tuple[int, ...]) -> Iterator[list[int]]:
    # One representative per bracket-equivalence class: the first player
    # always sits in the left half, recursively.  Counts per size 1/2/4/8:
    # 1, 1, 3, 315.
    if len(players) == 1:
        yield [players[0]]
        return
    half = len(players) // 2
    first, rest = players[0], players[1:]
    for mates in itertools.combinations(rest, half - 1):
        left = (first,) + mates
        right = tuple(x for x in rest if x not in mates)
        for lo in _brackets(left):
            for ro in _brackets(right):
                yield lo + ro


def enumerate_seedings(n: int) -> Iterator[Seeding]:
    """All seedings of n players up to mirror-symmetry of sub-brackets."""
    if n > _SEEDINGS_MAX_N:
        raise OracleLimitError(
            f"seeding enumeration is capped at {_SEEDINGS_MAX_N} players, got n={n}"
        )
    if n & (n - 1) or n < 1:
        raise ValueError(f"player count must be a power of two, got {n}")
    for order in _brackets(tuple(range(n))):
        yield Seeding(tuple(order))


def brute_force_decide(t: Tournament) -> Seeding | None:
    """First seeding (in enumeration order) that crowns the favorite, else None."""
    for s in enumerate_seedings(t.n):
        if champion_of(t, s.leaf_order) == t.vstar:
            return s
    return None


@dataclass(frozen=True)
class NicenessReport:
    per_round: tuple[bool, ...]
    all_nice: bool


def niceness(t: Tournament, rounds: Sequence[Sequence[Match]]) -> NicenessReport:
    """Read from the rounds of a played bracket, as ``bracket_rounds``
    returns them: a round is *nice* when one of its losers beats the
    favorite, or when none of the players in it does."""
    ins = t.in_neighbors
    per = tuple(
        any(l in ins for _, l in matches) or not any(w in ins for w, _ in matches)
        for matches in rounds
    )
    return NicenessReport(per_round=per, all_nice=all(per))


def repair_to_nice(t: Tournament, s: Seeding) -> tuple[Seeding, int]:
    """Rewrite a winning seeding until every round is nice.

    Returns (seeding, number of rewrites).  Each rewrite finds the last
    round p that is not nice and plays the first p rounds.  That leaves
    blocks of 2**p leaves, one per round-p match, each the winner's
    sub-bracket, root first, followed by the loser's.  The winners' halves
    go on the left in their order and the losers' halves on the right,
    sorted by leader, and the two sides are folded root first.  The left
    side replays rounds p+1 onward on the same players, so the favorite
    wins it.  The right side is a bracket on the round-p losers W.  A round
    that is not nice eliminates no conqueror, so nobody in W beats the
    favorite, and the favorite wins the new final against W's winner.

    Rounds 1..p-1 are untouched.  Each new round q with p <= q < log2(n)
    holds the old round q+1's matches and W's round q-p+1.  W holds no
    conqueror, so the same conquerors start round q and fall in it as in
    the old round q+1, which was nice.  The new final is nice because no
    conqueror outlasted the old final.  So the last non-nice round moves
    earlier with each rewrite, and at most log2(n) rewrites happen.
    """
    if s.n != t.n:
        raise ValueError(f"seeding over {s.n} players does not fit n={t.n}")
    return _repair_played(t, s, bracket_rounds(t, s.leaf_order))[:2]


def _repair_played(
    t: Tournament, s: Seeding, rounds: list[list[Match]]
) -> tuple[Seeding, int, list[list[Match]]]:
    """``repair_to_nice`` from the rounds ``bracket_rounds`` played over
    ``s``, plus the rounds of the seeding it returns."""
    if _winner(s.leaf_order, rounds) != t.vstar:
        raise ValueError("can only repair a seeding that crowns the favorite")
    total = t.num_rounds
    count = 0
    while True:
        rep = niceness(t, rounds)
        if rep.all_nice:
            return s, count, rounds
        p = max(i for i, ok in enumerate(rep.per_round) if not ok) + 1
        if p >= total:
            raise AssertionError("the final round of a winning bracket is always nice")
        blocks = [(v,) for v in s.leaf_order]
        for _ in range(p):
            blocks = _round(t, blocks)
        half = len(blocks[0]) // 2
        lost = sorted(b[half:] for b in blocks)
        if t.in_neighbors.intersection(b[0] for b in lost):
            raise AssertionError("a non-nice round eliminated a conqueror")
        s = Seeding(_fold(t, [b[:half] for b in blocks] + lost))
        rounds = bracket_rounds(t, s.leaf_order)
        count += 1
        if _winner(s.leaf_order, rounds) != t.vstar:
            raise AssertionError("the rewrite lost the favorite")
        if count > total:
            raise AssertionError("repair failed to terminate")


def extract_local_lba(t: Tournament, s: Seeding, b: int) -> tuple[int, ...]:
    """The bracket tree on 2**k players around ``b`` in ``s``: the aligned
    block of 2**k leaves that holds ``b``, as the leaf order its winner
    wins, winner first.

    ``s`` must be a *nice* winning seeding.  Write B for that block and u for
    its winner.  In the bracket's arborescence every loser hangs off the
    player who beat it, and a player who loses inside B won only a sub-block
    of B smaller than 2**k, so its subtree is smaller than 2**k.  Walking up
    from ``b``, the first player whose subtree reaches 2**k is therefore u,
    and u's k smallest child subtrees, the players it beat in rounds 1..k,
    fill exactly B.  u survived k rounds, and in a nice bracket everyone who
    beats the favorite is gone by then, so u is not one of the favorite's
    conquerors.
    """
    if s.n != t.n:
        raise ValueError(f"seeding over {s.n} players does not fit n={t.n}")
    size = 1 << t.k
    if size > s.n:
        raise ValueError("the seeding is smaller than one block")
    if b not in s.leaf_order:
        raise ValueError(f"player {b} is not in the seeding")
    lo = s.leaf_order.index(b) & -size
    block = _fold(t, [(v,) for v in s.leaf_order[lo : lo + size]])
    if block[0] in t.in_neighbors:
        raise AssertionError("carving from a non-nice bracket")
    return block


def is_wwf(t: Tournament, trees: Sequence[Sequence[int]]) -> bool:
    """Whether ``trees``, held as root-first leaf orders, form a witness
    forest: at most k trees that pass the solvers' own check
    ``core._covered``.  A player id outside 0..n-1 makes the forest invalid.
    """
    if len(trees) > t.k:
        return False
    try:
        _covered(t, trees)
    except (AssertionError, ValueError):
        return False
    return True


def brute_force_wwf(t: Tournament) -> tuple[tuple[int, ...], ...] | None:
    """Backtracking search for a witness forest; None when none exists.

    Blocks are chosen for the smallest not-yet-covered conqueror of the
    favorite, trying every vertex set of the right size; a block is usable if
    some bracket on it crowns an allowed root (the favorite itself when the
    favorite is inside, anyone outside the favorite's in-set otherwise).
    The forest is the trees that cover the conquerors, each as a root-first
    leaf order, the form ``complete_wwf`` takes.
    """
    if t.n > _WWF_MAX_N:
        raise OracleLimitError(
            f"witness-forest search is capped at {_WWF_MAX_N} players, got n={t.n}"
        )
    k = t.k
    size = 1 << k
    if k == 0:
        return ()
    if k * size >= t.n:
        raise ValueError("witness forests only characterize instances with k*2**k < n")
    outcome_cache: dict[frozenset, dict[int, tuple[int, ...]]] = {}

    def outcomes(block: tuple[int, ...]) -> dict[int, tuple[int, ...]]:
        key = frozenset(block)
        got = outcome_cache.get(key)
        if got is None:
            got = {}
            for order in _brackets(block):
                got.setdefault(champion_of(t, order), tuple(order))
            outcome_cache[key] = got
        return got

    def search(
        available: set[int], uncovered: list[int], picked: list[tuple[int, ...]]
    ) -> list[tuple[int, ...]] | None:
        if not uncovered:
            return picked
        b = uncovered[0]
        pool = sorted(available - {b})
        for mates in itertools.combinations(pool, size - 1):
            block = tuple(sorted((b,) + mates))
            outs = outcomes(block)
            if t.vstar in block:
                order = outs.get(t.vstar)
            else:
                order = next(
                    (outs[c] for c in sorted(outs) if c not in t.in_neighbors), None
                )
            if order is None:
                continue
            got = search(
                available - set(block),
                [x for x in uncovered if x not in block],
                picked + [_fold(t, [(v,) for v in order])],
            )
            if got is not None:
                return got
        return None

    found = search(set(t.players), sorted(t.in_neighbors), [])
    if found is None:
        return None
    if not is_wwf(t, found):
        raise AssertionError("backtracker assembled an invalid forest")
    return tuple(found)
