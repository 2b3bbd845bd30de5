"""Seedable tournament generators for experiments and tests.

Both generators put the favorite at player 0 and give it exactly k losses.
``gen_random`` orients everything else by fair coins; ``gen_planted_yes``
first hides a spanning bracket tree rooted at the favorite (so the instance
is solvable by construction and the winning seeding is returned alongside),
then coin-flips the remaining pairs.
"""

from __future__ import annotations

import numpy as np

from .arborescence import Lba, lba_to_seeding
from .core import Seeding, Tournament, champion_of

__all__ = ["gen_random", "gen_planted_yes"]


def _check_nk(n: int, k: int) -> None:
    if n < 1 or n & (n - 1):
        raise ValueError(f"player count must be a power of two, got {n}")
    if not 0 <= k <= n - 1:
        raise ValueError(f"the favorite's loss count must be in 0..{n - 1}, got {k}")


def gen_random(n: int, k: int, seed: int = 0) -> Tournament:
    """Uniform-ish instance: k conquerors chosen at random, coin flips elsewhere."""
    _check_nk(n, k)
    rng = np.random.default_rng(seed)
    ins = {int(v) for v in rng.choice(np.arange(1, n), size=k, replace=False)} if k else set()
    coins = rng.integers(0, 2, size=(n - 1) * (n - 2) // 2)
    out = [0] * n
    for v in range(1, n):
        if v in ins:
            out[v] |= 1
        else:
            out[0] |= 1 << v
    idx = 0
    for u in range(1, n):
        for v in range(u + 1, n):
            if coins[idx]:
                out[u] |= 1 << v
            else:
                out[v] |= 1 << u
            idx += 1
    return Tournament(n=n, vstar=0, out_masks=tuple(out))


def gen_planted_yes(n: int, k: int, seed: int = 0) -> tuple[Tournament, Seeding]:
    """Solvable instance plus one seeding that provably crowns the favorite.

    A canonical bracket tree over shuffled labels is planted arc-for-arc
    (parent beats child), the favorite's k conquerors are drawn from players
    the tree does not force it to beat, and untouched pairs get coin flips.
    Needs k <= n - 1 - log2(n): the favorite must stay free to win its
    log2(n) planted matches.
    """
    _check_nk(n, k)
    rounds = n.bit_length() - 1
    if k > n - 1 - rounds:
        raise ValueError(
            f"cannot plant a win with k={k}: the favorite needs {rounds} "
            f"beatable opponents, so k <= {n - 1 - rounds}"
        )
    rng = np.random.default_rng(seed)
    label = [0] + [int(x) for x in rng.permutation(n - 1) + 1]
    root_kids = {1 << j for j in range(rounds)}
    non_kids = sorted(label[i] for i in range(1, n) if i not in root_kids)
    ins = {int(v) for v in rng.choice(np.array(non_kids), size=k, replace=False)} if k else set()
    coins = rng.integers(0, 2, size=(n - 1) * (n - 2) // 2)

    forced: dict[tuple[int, int], int] = {}
    for i in range(1, n):
        p = i & (i - 1)
        if p:
            w, l = label[p], label[i]
            forced[(min(w, l), max(w, l))] = w

    out = [0] * n
    for v in range(1, n):
        if v in ins:
            out[v] |= 1
        else:
            out[0] |= 1 << v
    idx = 0
    for u in range(1, n):
        for v in range(u + 1, n):
            w = forced.get((u, v), u if coins[idx] else v)
            l = v if w == u else u
            out[w] |= 1 << l
            idx += 1
    t = Tournament(n=n, vstar=0, out_masks=tuple(out))
    planted = Lba(root=0, parent={label[i]: label[i & (i - 1)] for i in range(1, n)})
    s = lba_to_seeding(planted)
    if champion_of(t, s.leaf_order) != 0:
        raise AssertionError("planting failed")
    return t, s
