"""The exact bracket solver: a subset DP over player sets.

Bit u of ``winners[S]`` says that player u can win a bracket on exactly the
player set S.  A bracket on S splits into two halves of equal size, and u
wins it when u wins one half and beats the winner of the other, so one
vectorized pass per bracket size fills the table.  That keeps the
spanning-arborescence search at 2**n words.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .arborescence import Lba
from .core import Tournament

__all__ = [
    "solve_exact",
]


EXACT_MAX_N = 16  # the winners table has 2**n words


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
        masks = (np.int64(1) << combos).sum(axis=1)
        pats = list(itertools.combinations(range(1, size), size // 2 - 1))
        cols = [
            (np.int64(1) << combos[:, [0, *p]]).sum(axis=1) for p in pats
        ]
        s1 = np.stack(cols, axis=1).reshape(-1)
        s2 = np.repeat(masks, len(pats)) - s1
        levels.append((s1, s2, masks, len(pats)))
        size *= 2
    return tuple(levels)


def _winners_table(t: Tournament) -> np.ndarray:
    """Bit u of winners[S]: player u can win a bracket on exactly the set S."""
    n = t.n
    winners = np.zeros(1 << n, np.uint32)
    for u in range(n):
        winners[1 << u] = 1 << u
    for s1, s2, targets, per_set in _split_levels(n):
        a = winners[s1]
        b = winners[s2]
        ch = np.zeros(a.shape, np.uint32)
        for u in range(n):
            om = t.out_masks[u]
            bit = np.uint32(1 << u)
            ch |= ((a & bit != 0) & (b & om != 0)).astype(np.uint32) * bit
            ch |= ((b & bit != 0) & (a & om != 0)).astype(np.uint32) * bit
        winners[targets] = np.bitwise_or.reduce(ch.reshape(-1, per_set), axis=1)
    return winners


def _extract_arborescence(
    t: Tournament, winners: np.ndarray, root: int, mask: int, parent: dict[int, int]
) -> None:
    if mask == 1 << root:
        return
    bits = [b for b in range(t.n) if mask >> b & 1]
    half = len(bits) // 2
    others = [b for b in bits if b != root]
    for sub_bits in itertools.combinations(others, half - 1):
        sub = (1 << root) + sum(1 << b for b in sub_bits)
        rest = mask ^ sub
        if not int(winners[sub]) >> root & 1:
            continue
        cand = int(winners[rest]) & t.out_masks[root]
        if not cand:
            continue
        v = (cand & -cand).bit_length() - 1
        parent[v] = root
        _extract_arborescence(t, winners, root, sub, parent)
        _extract_arborescence(t, winners, v, rest, parent)
        return
    raise AssertionError("winners table admits no split; table is inconsistent")


def solve_exact(t: Tournament) -> Lba | None:
    """Spanning arborescence rooted at the favorite, or None if none exists.

    Reads one spanning bracket off the winners table (see the module
    docstring).  Guarded at ``EXACT_MAX_N`` players since the table has 2**n
    entries.
    """
    if t.n > EXACT_MAX_N:
        raise ValueError(f"exact solver is capped at {EXACT_MAX_N} players, got n={t.n}")
    if t.n == 1:
        return Lba(root=t.vstar, parent={})
    winners = _winners_table(t)
    full = (1 << t.n) - 1
    if not int(winners[full]) >> t.vstar & 1:
        return None
    parent: dict[int, int] = {}
    _extract_arborescence(t, winners, t.vstar, full, parent)
    return Lba(root=t.vstar, parent=parent)
