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
(two for the half-size sets, below) fills the table.  The tables hold one
``uint16`` word per player set, one bit per player, which is exact up to
``EXACT_MAX_N`` = 16 players and keeps each table at 2**n words.
``solve_exact`` reads a winning seeding back off the table, one split per
bracket, winner first.

The half-size level, where most of the work is, is listed as the
top-level splits of the whole set, one complementary pair of sets per
split, and filled in two chunks: the first ``_FIRST`` splits, then the
rest.  The whole set's winners are OR-ed in chunk by chunk from the pairs
rather than built as a level of their own, so ``solve_exact`` stops the
table after the first chunk in which the favorite wins the whole set.  On
planted YES instances at n=16 that is nearly always the first chunk.
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
_FIRST = 64  # top-level splits in the half-size level's first chunk


def _splits(combos: np.ndarray):
    """``(subs, sets)`` of the player sets in the rows of ``combos``, each row
    ascending: one row of ``subs`` per split pattern (see ``_split_levels``)."""
    size = combos.shape[1]
    bits = 2**combos
    # picks[j, i] = 1: pattern i puts the set's j-th player in the sub;
    # single players (the halves at n = 2) have no split
    pats = list(itertools.combinations(range(1, size), size // 2 - 1)) if size > 1 else []
    picks = np.zeros((size, len(pats)), np.int64)
    picks[0] = 1
    picks[np.array(pats, np.intp).T, np.arange(len(pats))] = 1
    return picks.T @ bits.T, bits.sum(axis=1)


@lru_cache(maxsize=None)
def _split_levels(n: int):
    """The player sets below the whole set, with the subs that split them.

    Returns ``(lower, halves)``: ``lower`` has one ``(subs, sets)`` per
    bracket size s = 2, 4, …, n/4, and ``halves`` the size-n/2 sets as
    ``(subs, sets)`` chunks.  ``sets`` has one mask per set and ``subs[i, j]``
    is the half that split pattern i takes from ``sets[j]``; the other half
    is ``sets - subs``.  Every sub holds its set's smallest player, so
    unordered splits appear once, and a row per pattern makes the OR over a
    set's splits a reduce over contiguous rows.

    The halves come in complementary pairs, one per top-level split of the
    whole set: set 2i holds player n−1 and the i-th (n/2 − 1)-subset of the
    other players in ``itertools.combinations(range(n - 1), n/2 - 1)``
    order, and set 2i+1 is its complement.  The first chunk holds the first
    ``_FIRST`` pairs and the second the rest; each is built from its own
    subsets into its own C-contiguous arrays.
    """
    lower = tuple(
        _splits(np.array(list(itertools.combinations(range(n), 1 << r)), np.int64))
        for r in range(1, n.bit_length() - 2)
    )
    if n == 1:
        return lower, ()
    heads = np.array(list(itertools.combinations(range(n - 1), n // 2 - 1)), np.int64)
    halves = []
    for part in heads[:_FIRST], heads[_FIRST:]:
        if len(part):
            member = np.zeros((len(part), n), bool)
            member[np.arange(len(part))[:, None], part] = True
            member[:, n - 1] = True
            pairs = np.stack([member, ~member], axis=1).reshape(-1, n)
            halves.append(_splits(np.nonzero(pairs)[1].reshape(len(pairs), n // 2)))
    return lower, tuple(halves)


def _through(winners, beats_winner, subs: np.ndarray, rests: np.ndarray) -> np.ndarray:
    """The players that win through each split of ``subs | rests``."""
    won = np.take(winners, subs)
    part = np.take(beats_winner, rests)
    won &= part
    # every index is in range; mode="raise" would buffer the output
    np.take(winners, rests, out=part, mode="clip")
    part &= np.take(beats_winner, subs)
    won |= part
    return won


def _fill(winners, beats_winner, beats_some, subs: np.ndarray, sets: np.ndarray) -> None:
    """Write ``winners`` and ``beats_winner`` of ``sets`` from their splits."""
    won = np.bitwise_or.reduce(_through(winners, beats_winner, subs, sets - subs), axis=0)
    winners[sets] = won
    beats_winner[sets] = beats_some[won]


def _winners_table(out_masks, until: int | None = None) -> np.ndarray:
    """Bit u of winners[S]: player u can win a bracket on exactly the set S,
    for the tournament whose player u beats the players in ``out_masks[u]``.

    With ``until``, it stops after the first chunk of half-size sets that
    lets player ``until`` win the whole set; the later chunks' sets stay 0.
    """
    n = len(out_masks)
    full = (1 << n) - 1
    beats_some = np.zeros(1 << n, _WORD)
    for v, row in enumerate(out_masks):  # the players that beat v: all but v and row
        beats_some[1 << v : 2 << v] = beats_some[: 1 << v] | full ^ (row | 1 << v)
    winners = np.zeros(1 << n, _WORD)
    beats_winner = np.zeros(1 << n, _WORD)
    singles = 1 << np.arange(n)
    winners[singles] = singles
    beats_winner[singles] = beats_some[singles]
    lower, halves = _split_levels(n)
    for subs, sets in lower:
        _fill(winners, beats_winner, beats_some, subs, sets)
    for subs, sets in halves:
        if len(subs):  # else the halves are the singles, written above
            _fill(winners, beats_winner, beats_some, subs, sets)
        top = _through(winners, beats_winner, sets[0::2], sets[1::2])
        winners[full] |= np.bitwise_or.reduce(top)
        if until is not None and int(winners[full]) >> until & 1:
            break
    return winners


def _winning_order(out_masks, winners: np.ndarray, root: int, mask: int) -> list[int]:
    """Leaf order of a bracket on the player set ``mask`` that ``root`` wins,
    root first: ``root``'s half, then the half of the player it beats last."""
    if mask == 1 << root:
        return [root]
    others = [b for b in range(mask.bit_length()) if mask >> b & 1 and b != root]
    for sub_bits in itertools.combinations(others, len(others) // 2):
        sub = (1 << root) + sum(1 << b for b in sub_bits)
        rest = mask ^ sub
        if not int(winners[sub]) >> root & 1:
            continue
        cand = int(winners[rest]) & out_masks[root]
        if not cand:
            continue
        v = (cand & -cand).bit_length() - 1
        return _winning_order(out_masks, winners, root, sub) + _winning_order(
            out_masks, winners, v, rest
        )
    raise AssertionError("winners table admits no split; table is inconsistent")


def solve_exact(t: Tournament) -> Seeding | None:
    """A seeding the favorite wins, or None if none exists.

    Reads one spanning bracket off the winners table (see the module
    docstring).  Guarded at ``EXACT_MAX_N`` players since the table has 2**n
    entries.

    The players are relabeled so that the favorite is player n−1 and the
    others keep their order, and the table stops at the favorite's first
    winning top-level split.  The seeding is the one the full table in the
    original labels gives:

    - The readback scans the top-level splits {n−1} ∪ sub, rest in exactly
      the order of ``_split_levels``' pairs.
    - Its test at a split, "the favorite wins sub and beats a winner of
      rest", is bit n−1 of that split's term in the whole set's winners.  So
      every split it scans, up to its first hit, lies in a chunk the table
      filled, and below the top it reads only the full lower levels.
    - It roots every set that holds the favorite at the favorite, and the
      favorite is never a candidate, so each order it compares (the
      players it splits, the least candidate) is among non-favorites, whose
      order the relabel keeps.
    """
    if t.n > EXACT_MAX_N:
        raise ValueError(f"exact solver is capped at {EXACT_MAX_N} players, got n={t.n}")
    n, f = t.n, t.vstar
    old = [*range(f), *range(f + 1, n), f]  # old[q]: the player relabeled q
    masks = [
        (m & (1 << f) - 1) | (m >> (f + 1) << f) | (m >> f & 1) << (n - 1)
        for m in (t.out_masks[p] for p in old)
    ]
    winners = _winners_table(masks, until=n - 1)
    full = (1 << n) - 1
    if not int(winners[full]) >> (n - 1) & 1:
        return None
    return Seeding(tuple(old[q] for q in _winning_order(masks, winners, n - 1, full)))
