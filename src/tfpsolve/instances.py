"""Seedable tournament generators for experiments and tests.

Both generators put the favorite at player 0 and give it exactly k losses.
``gen_random`` orients everything else by fair coins; ``gen_planted_yes``
first hides a spanning bracket tree rooted at the favorite (so the instance
is solvable by construction and the winning seeding is returned alongside),
then coin-flips the remaining pairs.

Both build the table through ``_tournament`` directly as the packed rows
``Tournament`` checks, a block of ``_BLOCK`` rows at a time, so the largest
temporary is one block's bool slab and its coins, never an n-by-n matrix.
The coins are those of ``rng.integers(0, 2)``, but ``_coins`` reads them
off raw PCG64 words, one bit per 32-bit half, instead of one int64 each.
"""

from __future__ import annotations

import operator

import numpy as np

from .core import _BLOCK, Seeding, Tournament, _transpose, champion_of

__all__ = ["gen_random", "gen_planted_yes"]


def _check_nk(n: int, k: int) -> tuple[int, int]:
    """n and k as plain ints; numpy integers lack ``bit_length``."""
    n, k = operator.index(n), operator.index(k)
    if n < 1 or n & (n - 1):
        raise ValueError(f"player count must be a power of two, got {n}")
    if not 0 <= k <= n - 1:
        raise ValueError(f"the favorite's loss count must be in 0..{n - 1}, got {k}")
    return n, k


def _coins(rng: np.random.Generator, count: int) -> np.ndarray:
    """``rng.integers(0, 2, size=count)`` as bools, drawn from raw words.

    ``rng`` must be ``default_rng``'s PCG64, and it is left in the state
    that call leaves it in.  For a range of 2 numpy's 32-bit Lemire step
    (Lemire, ACM TOMACS 2019) rejects no draw, so each coin is bit 31 of
    one ``next_uint32``.  PCG64 hands out the low half of each 64-bit word
    first and keeps the high half in its state (``has_uint32`` and
    ``uinteger``) for the next 32-bit draw.  So a buffered half word gives
    the first coin, and the halves of ``random_raw`` words, read as
    little-endian uint32 pairs, give the rest in order.  As numpy does, the
    last word's high half is left in ``uinteger``, and ``has_uint32`` marks
    it as not yet drawn when those words served an odd number of coins.
    """
    bits = rng.bit_generator
    state = bits.state
    held = int(state["has_uint32"] and count > 0)
    rest = count - held
    words = bits.random_raw((rest + 1) // 2).astype("<u8", copy=False)
    coins = np.empty(count, bool)
    if held:
        coins[0] = state["uinteger"] >> 31
    np.greater_equal(words.view("<u4")[:rest], 1 << 31, out=coins[held:])
    if count:
        state = bits.state
        state["has_uint32"] = rest % 2
        if rest:
            state["uinteger"] = int(words[-1] >> 32)
        bits.state = state
    return coins


def _tournament(
    n: int, rng: np.random.Generator, ins: set[int], winners=(), losers=()
) -> Tournament:
    """Favorite 0 losing to ``ins``, the planted arcs ``winners[i]`` beats
    ``losers[i]`` (none involving the favorite), and a coin for every other pair.

    Pairs (u, v), 1 <= u < v, take the coins of ``rng.integers(0, 2)`` in
    row-major order, 1 meaning u beats v; they come from ``_coins``, so
    ``rng`` must be ``default_rng``'s PCG64.  The table is built as packed
    rows (the layout of ``core._packed``) a block of ``_BLOCK`` rows at a
    time: a bool slab of the block's upper-triangle cells takes the
    favorite's row, one coin draw for the block's pairs (the same stream as
    one draw for all of them) and the planted arcs, and is packed into its
    rows.  The lower triangle is then the complement of the transposed
    upper one, ``P ^= transpose(P) ^ L`` with L the strictly-lower cells.
    """
    w, l = np.asarray(winners, np.intp), np.asarray(losers, np.intp)
    top, bottom, top_wins = np.minimum(w, l), np.maximum(w, l), w < l
    size = max(n, 8)  # _transpose takes whole bytes of rows
    packed = np.zeros((size, size // 8), np.uint8)
    for lo in range(0, n, _BLOCK):
        hi = min(n, lo + _BLOCK)
        upper = np.zeros((hi - lo, n), bool)
        if lo == 0:
            upper[0, 1:] = True
            upper[0, list(ins)] = False
        first = max(lo, 1)
        coins = _coins(rng, (2 * n - 1 - first - hi) * (hi - first) // 2)
        at = 0
        for u in range(first, hi):
            upper[u - lo, u + 1 :] = coins[at : at + n - 1 - u]
            at += n - 1 - u
        mine = (lo <= top) & (top < hi)
        upper[top[mine] - lo, bottom[mine]] = top_wins[mine]
        packed[lo:hi] = np.packbits(upper, axis=1, bitorder="little")
    ids = np.arange(size)
    lower = np.where(np.arange(size // 8) < (ids >> 3)[:, None], np.uint8(0xFF), np.uint8(0))
    lower[ids, ids >> 3] = (1 << (ids & 7)) - 1
    mirror = _transpose(packed)
    mirror ^= lower
    packed ^= mirror
    return Tournament._from_rows(packed[:n], vstar=0)


def gen_random(n: int, k: int, seed: int = 0) -> Tournament:
    """Uniform-ish instance: k conquerors chosen at random, coin flips elsewhere."""
    n, k = _check_nk(n, k)
    rng = np.random.default_rng(seed)
    ins = {int(v) for v in rng.choice(np.arange(1, n), size=k, replace=False)} if k else set()
    return _tournament(n, rng, ins)


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
    # the favorite's own planted arcs, those from node 0, are in its row
    kids = [i for i in range(1, n) if i & (i - 1)]
    t = _tournament(n, rng, ins, [label[i & (i - 1)] for i in kids], [label[i] for i in kids])
    # Node i hangs off i & (i - 1), so node p's subtree is the index range
    # p .. p + (p & -p) - 1 (all of it for p = 0): played in index order,
    # node p beats p + 2**j in round j + 1, and the winning seeding is ``label``.
    s = Seeding(tuple(label))
    if champion_of(t, s.leaf_order) != 0:
        raise AssertionError("planting failed")
    return t, s
