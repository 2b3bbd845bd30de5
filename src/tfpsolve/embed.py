"""The exact bracket solver: a subset DP over player sets.

Bit u of ``winners[S]`` says that player u can win a bracket on exactly the
player set S.  A bracket on S splits into two halves of equal size, and u
wins it when u wins one half and beats a winner of the other.  Bit u of
``beats_some[M]`` says that u beats some member of the mask M, and
``beats_winner[S] = beats_some[winners[S]]``, written along with each
level's sets, says that u beats some winner of S.  The winners through a
split of S into ``sub`` and ``rest`` are then ``(winners[sub] &
beats_winner[rest]) | (winners[rest] & beats_winner[sub])``: four
int64-indexed gathers per split, and one vectorized pass per bracket size
fills the table.  The tables hold one ``uint16`` word per player set, one
bit per player, which is exact up to ``EXACT_MAX_N`` = 16 players and keeps
each table at 2**n words.  ``solve_exact`` reads a winning seeding back off
the table, one split per bracket, winner first.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .core import Seeding, Tournament

__all__ = [
    "solve_exact",
]


EXACT_MAX_N = 16  # the winners table has 2**n words
# One bit per player; a cap that is no numpy word width fails at import.
_WORD = np.dtype(f"uint{EXACT_MAX_N}")


@lru_cache(maxsize=None)
def _split_levels(n: int):
    """Per bracket size s: the s-subsets of players and the subs that split them.

    ``sets`` has one mask per s-subset and ``subs[i, j]`` is the half that
    split pattern i takes from ``sets[j]``; the other half is ``sets - subs``.
    Every sub holds its set's smallest player, so unordered splits appear
    once, and a row per pattern makes the OR over a set's splits a reduce
    over contiguous rows.
    """
    levels = []
    size = 2
    while size <= n:
        combos = np.array(list(itertools.combinations(range(n), size)), np.int64)
        bits = 2**combos
        # picks[j, i] = 1: pattern i puts the set's j-th player in the sub
        pats = list(itertools.combinations(range(1, size), size // 2 - 1))
        picks = np.zeros((size, len(pats)), np.int64)
        picks[0] = 1
        picks[np.array(pats, np.intp).T, np.arange(len(pats))] = 1
        levels.append((picks.T @ bits.T, bits.sum(axis=1)))
        size *= 2
    return tuple(levels)


def _winners_table(t: Tournament) -> np.ndarray:
    """Bit u of winners[S]: player u can win a bracket on exactly the set S."""
    n = t.n
    beats_some = np.zeros(1 << n, _WORD)
    for v, beaten_by in enumerate(t.in_masks):
        beats_some[1 << v : 2 << v] = beats_some[: 1 << v] | beaten_by
    winners = np.zeros(1 << n, _WORD)
    beats_winner = np.zeros(1 << n, _WORD)
    singles = 1 << np.arange(n)
    winners[singles] = singles
    beats_winner[singles] = beats_some[singles]
    for subs, sets in _split_levels(n):
        rests = sets - subs
        ch = np.take(winners, subs) & np.take(beats_winner, rests)
        ch |= np.take(winners, rests) & np.take(beats_winner, subs)
        won = np.bitwise_or.reduce(ch, axis=0)
        winners[sets] = won
        beats_winner[sets] = beats_some[won]
    return winners


def _winning_order(t: Tournament, winners: np.ndarray, root: int, mask: int) -> list[int]:
    """Leaf order of a bracket on the player set ``mask`` that ``root`` wins,
    root first: ``root``'s half, then the half of the player it beats last."""
    if mask == 1 << root:
        return [root]
    others = [b for b in range(t.n) if mask >> b & 1 and b != root]
    for sub_bits in itertools.combinations(others, len(others) // 2):
        sub = (1 << root) + sum(1 << b for b in sub_bits)
        rest = mask ^ sub
        if not int(winners[sub]) >> root & 1:
            continue
        cand = int(winners[rest]) & t.out_masks[root]
        if not cand:
            continue
        v = (cand & -cand).bit_length() - 1
        return _winning_order(t, winners, root, sub) + _winning_order(t, winners, v, rest)
    raise AssertionError("winners table admits no split; table is inconsistent")


def solve_exact(t: Tournament) -> Seeding | None:
    """A seeding the favorite wins, or None if none exists.

    Reads one spanning bracket off the winners table (see the module
    docstring).  Guarded at ``EXACT_MAX_N`` players since the table has 2**n
    entries.
    """
    if t.n > EXACT_MAX_N:
        raise ValueError(f"exact solver is capped at {EXACT_MAX_N} players, got n={t.n}")
    winners = _winners_table(t)
    full = (1 << t.n) - 1
    if not int(winners[full]) >> t.vstar & 1:
        return None
    return Seeding(tuple(_winning_order(t, winners, t.vstar, full)))
