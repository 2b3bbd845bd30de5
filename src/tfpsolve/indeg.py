"""Solver parameterized by how many players beat the favorite.

Write k for the number of players that beat the favorite, its conquerors.
A seeding that crowns the favorite survives in three regimes:

* k == 0: the favorite beats everyone, so any seeding works.
* k * 2**k >= n: the instance is small in the parameter; solve exactly.
* otherwise: a seeding exists iff the tournament contains a *witness
  forest* -- at most k disjoint bracket trees on 2**k players each, whose
  roots all avoid the favorite's in-set, which jointly swallow every
  in-neighbor, and in which the favorite appears only as a root.  Each
  tree is held as its leaf order: a bracket its root wins, root first.
  ``find_wwf`` finds a forest by a deterministic bounded search, exact for
  k <= 2 (its docstring carries the proof); k >= 3 here is out of reach.
  YES answers carry a verified seeding, and every NO is exact.

``complete_wwf`` then grows the witness forest into a winning seeding.
The leaf order is a concatenation: each witness tree's leaf order, then
the leftover players in ascending order, which chunk into blocks of 2**k.
One bracket pass over that order puts each match winner's half on the
left.  The favorite wins one block, and every other block winner lies
outside its in-set, so the favorite wins every later match and comes
first.

``solve`` is the one solver entry point, shared by the command line and
the tests; ``pick`` resolves ``auto``.  ``solve`` routes by the favorite's
out-degree ell and in-degree k, both read off its bitmask row.  Except for
the ``brute`` oracle, which runs unfiltered, the degree certificate comes
first: a favorite that beats fewer than log2(n) players cannot win log2(n)
matches, so the answer is NO.  Otherwise n <= 2**ell, and the out-degree
parameterization is exact search; ``indeg`` takes the witness-forest search
instead when k*2**k < n.  Each solver checks its own limit on entry, before
any work, and raises one ValueError naming it.  The limits are n <=
``EXACT_MAX_N`` for ``solve_exact``, k <= 2 for ``find_wwf``, and n <= 8
for the ``brute`` oracle's seeding enumeration.
"""

from __future__ import annotations

import itertools
import operator
from typing import Sequence

from .core import Seeding, Tournament, _players, champion_of
from .embed import EXACT_MAX_N, solve_exact
from .oracles import brute_force_decide

__all__ = [
    "find_wwf",
    "complete_wwf",
    "pick",
    "solve",
]

ALGOS = ("auto", "brute", "exact", "outdeg", "indeg")
Order = tuple[int, ...]  # a bracket tree as the leaf order its root wins, root first


def _low(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _apart(xs: int, ys: int) -> tuple[int, int] | None:
    """Distinct players x in bitmask ``xs`` and y in ``ys``, or None."""
    if not xs or not ys or xs == ys and not xs & (xs - 1):
        return None
    y = _low(ys)
    rest = xs & ~(1 << y)
    if rest:
        return _low(rest), y
    return y, _low(ys & ~(1 << y))


def _find(t: Tournament, in_masks: tuple[int, ...], W: tuple[int, ...], X: int) -> Order | None:
    """One bracket tree on 2**k players, k <= 2, or None if there is none.

    The tree holds the conquerors in ``W`` as non-roots, avoids the players
    in the bitmask ``X``, has its root outside the favorite's in-set, and
    holds the favorite only as its root.  At k = 2 the tree is r -> a and
    r -> b -> c, played as (r, a, b, c).  Each placement of W on a, b and c
    is tried; r runs over the allowed roots and b over r's allowed out-neighbors, after which a
    and c are any distinct picks from their candidate sets.  A call costs
    O(n**2) bitset operations.
    """
    out = t.out_masks
    free = ((1 << t.n) - 1) & ~X
    roots = free & ~t.in_masks[t.vstar]
    kids = free & ~(1 << t.vstar) & ~sum(1 << w for w in W)
    if t.k == 1:
        (u,) = W
        r = roots & in_masks[u] if free >> u & 1 else 0
        return (_low(r), u) if r else None
    for places in itertools.permutations("abc", len(W)):
        pin = dict(zip(places, W))
        dom = {p: free & 1 << pin[p] if p in pin else kids for p in "abc"}
        rdom, bdom = roots, dom["b"]
        for p in pin.keys() & {"a", "b"}:  # r beats a and b
            rdom &= in_masks[pin[p]]
        if "c" in pin:  # b beats c
            bdom &= in_masks[pin["c"]]
        if not bdom:  # no root has a b: skip the scan over the roots
            continue
        for r in _players(rdom):
            for b in _players(bdom & out[r]):
                got = _apart(dom["a"] & out[r] & ~(1 << b), dom["c"] & out[b])
                if got is not None:
                    a, c = got
                    return r, a, b, c
    return None


def _split(
    t: Tournament, in_masks: tuple[int, ...], u1: int, u2: int, X: int
) -> tuple[Order, Order] | None:
    """The branch of ``find_wwf`` at avoid-set ``X``: disjoint trees for u1 and u2."""
    t1 = _find(t, in_masks, (u1,), X | 1 << u2)
    if t1 is None:
        return None
    t2 = _find(t, in_masks, (u2,), sum(1 << v for v in t1))
    if t2 is not None:
        return t1, t2
    if X.bit_count() < 3:
        for v in sorted(set(t1) - {u1}):
            got = _split(t, in_masks, u1, u2, X | 1 << v)
            if got is not None:
                return got
    return None


def find_wwf(t: Tournament) -> tuple[Order, ...] | None:
    """A witness forest, or None when none exists; for 1 <= k <= 2 and
    k*2**k < n, by at most 81 calls of ``_find``.

    k = 1: one call decides.  k = 2, with conquerors u1 < u2: a tree that
    holds both is a forest by itself.  Otherwise, starting from X = {}, take
    T1 = find({u1}, X | {u2}) and T2 = find({u2}, T1).  When T2 misses,
    branch on each v in T1 - {u1} by adding v to X, down to |X| = 3.

    Exactness: let (T1*, T2*) be a solution with u1 in T1* and u2 in T2*,
    and let X be a subset of T2* - {u2}, as X = {} is.  T1* avoids X | {u2},
    so T1 exists.  If T2 misses, T2* meets T1, since otherwise T2* would be
    a T2; it does so in some v of T1 - {u1} that is neither u2 nor in X,
    because T1 avoids both.  The branch on v keeps X a subset of T2* - {u2}
    with one more player, so at |X| = 3 we have X = T2* - {u2}, T1 avoids
    T2*, and T2 cannot miss.  Some branch therefore finds a forest whenever
    one exists.  Calls: one for the shared tree, then two on each of the
    1 + 3 + 9 + 27 = 40 branch nodes, 81 in all.
    """
    k = t.k
    if k > 2:
        raise ValueError(f"the witness-forest search covers k <= 2, got k={k}")
    if k < 1 or k << k >= t.n:
        raise ValueError("witness-forest search applies when 1 <= k <= 2 and k*2**k < n")
    us = tuple(_players(t.in_masks[t.vstar]))
    whole = _find(t, t.in_masks, us, 0)
    if whole is not None:
        trees = (whole,)
    else:
        trees = _split(t, t.in_masks, *us, 0) if k == 2 else None
        if trees is None:
            return None
    _covered(t, trees)
    return trees


def _covered(t: Tournament, trees: Sequence[Sequence[int]]) -> int:
    """The bitmask of the players in ``trees``; raises AssertionError unless
    they form a witness forest (see the module docstring)."""
    ins, covered = t.in_masks[t.vstar], 0
    for order in trees:
        order = tuple(map(operator.index, order))  # numpy ids overflow the shifts
        mask = sum(1 << v for v in order)
        if covered & mask:
            raise AssertionError("witness trees overlap")
        covered |= mask
        if len(order) != 1 << t.k or mask.bit_count() != len(order):
            raise AssertionError("witness trees have a wrong size")
        if ins >> order[0] & 1:
            raise AssertionError("a merge root fell inside the favorite's in-set")
        if t.vstar in order[1:]:
            raise AssertionError("the favorite must root exactly one tree")
        if champion_of(t, order) != order[0]:
            raise AssertionError("a witness tree does not crown its root")
    if ins & ~covered:
        raise AssertionError("the witness trees miss a player that beats the favorite")
    return covered


def _round(t: Tournament, blocks: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """One bracket round over equal-size blocks, each led by its winner:
    adjacent blocks meet, and the winner's block goes on the left."""
    return [a + b if t.beats(a[0], b[0]) else b + a for a, b in zip(blocks[::2], blocks[1::2])]


def complete_wwf(t: Tournament, trees: Sequence[Sequence[int]]) -> Seeding:
    """Grow a witness forest into a seeding the favorite wins.

    Leftover players (none of whom beat the favorite, since the forest
    swallowed the whole in-set) are chunked in ascending order into blocks of
    the forest's tree size and bracketed in that order.  The witness trees'
    leaf orders go first, as given, and the blocks then meet in list order,
    each match winner's block going left.
    """
    covered = _covered(t, trees)
    blocks = [(v,) for v in _players(((1 << t.n) - 1) & ~covered)]
    for _ in range(t.k):
        blocks = _round(t, blocks)
    blocks = [tuple(order) for order in trees] + blocks
    while len(blocks) > 1:
        blocks = _round(t, blocks)
    if blocks[0][0] != t.vstar:
        raise AssertionError("completion lost the favorite")
    return Seeding(blocks[0])


def pick(t: Tournament, algo: str = "auto") -> str:
    """The algorithm ``solve`` runs for ``algo``: one of ``ALGOS``, with
    ``auto`` resolved to ``outdeg`` when the degree certificate answers NO,
    to ``exact`` up to ``EXACT_MAX_N`` players, and to ``indeg`` beyond.
    It checks no limit: each solver checks its own when ``solve`` calls it."""
    if algo not in ALGOS:
        raise ValueError(f"unknown algorithm {algo!r}, expected one of {', '.join(ALGOS)}")
    if algo != "auto":
        return algo
    if t.ell < t.num_rounds:
        return "outdeg"
    return "exact" if t.n <= EXACT_MAX_N else "indeg"


def solve(t: Tournament, algo: str = "auto") -> Seeding | None:
    """Winning seeding for the favorite, or None.

    ``algo`` is one of ``ALGOS`` (see ``pick``).  Each solver checks its
    limit on entry, before any work.  Every YES is verified by simulation
    before it is returned, and every None is exact.
    """
    algo = pick(t, algo)
    k = t.k
    if algo == "brute":
        s = brute_force_decide(t)
    elif t.ell < t.num_rounds:
        return None
    elif algo != "indeg" or k << k >= t.n:
        s = solve_exact(t)
    elif k == 0:
        s = Seeding(tuple(range(t.n)))
    else:
        trees = find_wwf(t)
        s = None if trees is None else complete_wwf(t, trees)
    if s is not None and champion_of(t, s.leaf_order) != t.vstar:
        raise AssertionError("solver produced a seeding that does not crown the favorite")
    return s
