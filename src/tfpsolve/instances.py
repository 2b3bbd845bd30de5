"""Seedable tournament generators for experiments and tests.

Both generators put the favorite at player 0 and give it exactly k losses.
``gen_random`` orients everything else by fair coins; ``gen_planted_yes``
first hides a spanning bracket tree rooted at the favorite (so the instance
is solvable by construction and the winning seeding is returned alongside),
then coin-flips the remaining pairs.
"""

from __future__ import annotations

import operator

import numpy as np

from .core import _BLOCK, Seeding, Tournament, champion_of

__all__ = ["gen_random", "gen_planted_yes"]


def _check_nk(n: int, k: int) -> tuple[int, int]:
    """n and k as plain ints; numpy integers lack ``bit_length``."""
    n, k = operator.index(n), operator.index(k)
    if n < 1 or n & (n - 1):
        raise ValueError(f"player count must be a power of two, got {n}")
    if not 0 <= k <= n - 1:
        raise ValueError(f"the favorite's loss count must be in 0..{n - 1}, got {k}")
    return n, k


def _coin_flips(n: int, rng: np.random.Generator) -> np.ndarray:
    """Bool results table with every pair of players 1..n-1 oriented by a coin.

    Pairs (u, v), u < v, take coins from ``rng.integers(0, 2)`` in row-major
    order, 1 meaning u beats v.  The coins are drawn a block of rows at a
    time, which gives the same stream as one call for all of them.  The
    favorite's row and column stay empty.
    """
    a = np.zeros((n, n), bool)
    sub = a[1:, 1:]
    m = n - 1
    for lo in range(0, m, _BLOCK):
        hi = min(m, lo + _BLOCK)
        upper = np.arange(m) > np.arange(lo, hi)[:, None]
        sub[lo:hi][upper] = rng.integers(0, 2, size=int(upper.sum()))
        # the mirror cells below the diagonal: v beats u iff u does not beat v
        sub[lo:hi, :hi] |= np.tril(~sub[:hi, lo:hi].T, lo - 1)
    return a


def _set_favorite(a: np.ndarray, ins: set[int]) -> None:
    """Player 0 loses to the players in ``ins`` and beats everyone else."""
    a[0, 1:] = True
    for v in ins:
        a[0, v], a[v, 0] = False, True


def gen_random(n: int, k: int, seed: int = 0) -> Tournament:
    """Uniform-ish instance: k conquerors chosen at random, coin flips elsewhere."""
    n, k = _check_nk(n, k)
    rng = np.random.default_rng(seed)
    ins = {int(v) for v in rng.choice(np.arange(1, n), size=k, replace=False)} if k else set()
    a = _coin_flips(n, rng)
    _set_favorite(a, ins)
    return Tournament.from_matrix(a, vstar=0)


def gen_planted_yes(n: int, k: int, seed: int = 0) -> tuple[Tournament, Seeding]:
    """Solvable instance plus one seeding that provably crowns the favorite.

    A canonical bracket tree over shuffled labels is planted arc-for-arc
    (parent beats child), the favorite's k conquerors are drawn from players
    the tree does not force it to beat, and untouched pairs get coin flips.
    Needs k <= n - 1 - log2(n): the favorite must stay free to win its
    log2(n) planted matches.
    """
    n, k = _check_nk(n, k)
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
    a = _coin_flips(n, rng)
    for i in range(1, n):
        p = i & (i - 1)
        if p:  # the favorite's own planted arcs come from _set_favorite
            w, l = label[p], label[i]
            a[w, l], a[l, w] = True, False
    _set_favorite(a, ins)
    t = Tournament.from_matrix(a, vstar=0)
    # Node i hangs off i & (i - 1), so node p's subtree is the index range
    # p .. p + (p & -p) - 1 (all of it for p = 0), and ``lba_to_seeding``
    # folds the tree into index order: the winning seeding is ``label``.
    s = Seeding(tuple(label))
    if champion_of(t, s.leaf_order) != 0:
        raise AssertionError("planting failed")
    return t, s
