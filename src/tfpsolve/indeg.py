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
  For k <= 2 one tree that holds every conqueror decides: a forest
  exists iff such a tree does (``find_wwf``'s docstring carries the
  proof), and ``find_wwf`` finds one or proves there is none by one
  deterministic search.  k >= 3 here is out of reach.
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

from .core import Seeding, Tournament, _fold, _players, _round, champion_of
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


def _find(t: Tournament) -> Order | None:
    """One bracket tree on 2**k players, k <= 2, that holds every conqueror,
    or None if there is none.

    The conquerors are non-roots, the root lies outside the favorite's
    in-set, and the favorite appears only as the root.  At k = 2 the tree is
    r -> a and r -> b -> c, played as (r, a, b, c).  Each placement of the
    two conquerors on a, b and c is tried; r runs over the allowed roots and
    b over r's allowed out-neighbors, after which a and c are any distinct
    picks from their candidate sets.  A call costs O(n**2) bitset
    operations.
    """
    out, ins = t.out_masks, t.in_masks
    W = tuple(_players(ins[t.vstar]))
    roots = ((1 << t.n) - 1) & ~ins[t.vstar]
    kids = roots & ~(1 << t.vstar)
    if t.k == 1:
        (u,) = W
        r = roots & ins[u]
        return (_low(r), u) if r else None
    for places in itertools.permutations("abc", len(W)):
        pin = dict(zip(places, W))
        dom = {p: 1 << pin[p] if p in pin else kids for p in "abc"}
        rdom, bdom = roots, dom["b"]
        for p in pin.keys() & {"a", "b"}:  # r beats a and b
            rdom &= ins[pin[p]]
        if "c" in pin:  # b beats c
            bdom &= ins[pin["c"]]
        if not bdom:  # no root has a b: skip the scan over the roots
            continue
        for r in _players(rdom):
            for b in _players(bdom & out[r]):
                got = _apart(dom["a"] & out[r] & ~(1 << b), dom["c"] & out[b])
                if got is not None:
                    a, c = got
                    return r, a, b, c
    return None


def find_wwf(t: Tournament) -> tuple[Order, ...] | None:
    """A witness forest, or None when none exists; for 1 <= k <= 2 and
    k*2**k < n, by one call of ``_find``.

    One tree that holds every conqueror is a forest by itself, and the
    converse holds too: for k <= 2 a forest exists iff one tree holds all
    the conquerors.  At k = 1 there is only one conqueror.  At k = 2, write
    a tree as (r, a, b, c) with arcs r -> a, r -> b and b -> c, and let u
    and w be the conquerors, u beating w.  Suppose disjoint trees T_u, which
    holds u, and T_w, which holds w, form a forest, and let p be u's parent
    in T_u.

    (a) p is T_u's root, so it may be a root, and it has another child x.
        x is not w, as the trees are disjoint, and not the favorite, which
        is only ever a root.  So (p, x, u, w) is a tree.
    (b) p is T_u's middle node.  p is neither u nor w, so it is no
        conqueror and may be a root; it is not the favorite, which is only
        ever a root.  If p beats some x outside {u, w, favorite}, then
        (p, x, u, w) is a tree.
    (c) Otherwise p beats nobody outside {u, w}, since p, no conqueror,
        loses to the favorite.  Let q be w's parent in T_w.  q is no
        conqueror, as u lies in T_u; it is not the favorite, as q beats w
        and w beats the favorite; and it is not p, as the trees are
        disjoint.  So q beats p, and (q, w, p, u) is a tree.

    ``_find`` searches every placement of the two conquerors in one tree,
    so it misses only when no forest exists, and every NO is exact.
    """
    k = t.k
    if k > 2:
        raise ValueError(f"the witness-forest search covers k <= 2, got k={k}")
    if k < 1 or k << k >= t.n:
        raise ValueError("witness-forest search applies when 1 <= k <= 2 and k*2**k < n")
    tree = _find(t)
    if tree is None:
        return None
    _covered(t, (tree,))
    return (tree,)


def _covered(t: Tournament, trees: Sequence[Sequence[int]]) -> int:
    """The bitmask of the players in ``trees``; raises AssertionError unless
    they form a witness forest (see the module docstring), and ValueError
    for a player id outside 0..n-1."""
    ins, covered = t.in_masks[t.vstar], 0
    for order in trees:
        order = tuple(map(operator.index, order))  # numpy ids overflow the shifts
        for v in order:
            if not 0 <= v < t.n:
                raise ValueError(f"witness trees name player {v}, not one of the {t.n} players")
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


def complete_wwf(t: Tournament, trees: Sequence[Sequence[int]]) -> Seeding:
    """Grow a witness forest into a seeding the favorite wins.

    Leftover players (none of whom beat the favorite, since the forest
    swallowed the whole in-set) are chunked in ascending order into blocks of
    the forest's tree size and bracketed in that order.  The witness trees'
    leaf orders go first, as given, and the blocks then meet in list order,
    each match winner's block going left.  A player id outside 0..n-1
    raises ValueError, and a forest that is no witness AssertionError.
    """
    covered = _covered(t, trees)
    blocks = [(v,) for v in range(t.n) if not covered >> v & 1]
    for _ in range(t.k):
        blocks = _round(t, blocks)
    order = _fold(t, [tuple(map(operator.index, tree)) for tree in trees] + blocks)
    if order[0] != t.vstar:
        raise AssertionError("completion lost the favorite")
    return Seeding(order)


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
