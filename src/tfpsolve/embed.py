"""The exact bracket solver: a subset DP over player sets.

Bit u of ``winners[S]`` says that player u can win a bracket on exactly the
player set S.  A bracket on S splits into two halves of equal size, and u
wins it when u wins one half and beats a winner of the other.  Bit u of
``beats_some[S]`` says that u beats some member of S, so the winners through
a split with half-winners a and b are ``(a & beats_some[b]) | (b &
beats_some[a])``: one table lookup per split, and one vectorized pass per
bracket size fills the table.  Both tables hold one ``uint16`` word per
player set, one bit per player, which is exact up to ``EXACT_MAX_N`` = 16
players and keeps each table at 2**n words.  ``solve_exact`` reads a
winning seeding back off the table, one split per bracket, winner first.
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
    """Per bracket size s: all (sub, rest) splits of every s-subset of players.

    Splits are grouped set-major with a fixed count per set, and each sub
    contains its set's smallest player so that unordered splits appear once.
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
        masks = bits.sum(axis=1)
        s1 = (bits @ picks).reshape(-1)
        s2 = np.repeat(masks, len(pats)) - s1
        levels.append((s1, s2, masks, len(pats)))
        size *= 2
    return tuple(levels)


def _winners_table(t: Tournament) -> np.ndarray:
    """Bit u of winners[S]: player u can win a bracket on exactly the set S."""
    n = t.n
    beats_some = np.zeros(1 << n, _WORD)
    for v, beaten_by in enumerate(t.in_masks):
        beats_some[1 << v : 2 << v] = beats_some[: 1 << v] | beaten_by
    winners = np.zeros(1 << n, _WORD)
    singles = 1 << np.arange(n)
    winners[singles] = singles
    for s1, s2, targets, per_set in _split_levels(n):
        a = winners[s1]
        b = winners[s2]
        ch = (a & beats_some[b]) | (b & beats_some[a])
        winners[targets] = np.bitwise_or.reduce(ch.reshape(-1, per_set), axis=1)
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
