"""Solver parameterized by how many players beat the favorite.

Write k for the number of players that beat the favorite, its conquerors.
For 1 <= k and k*2**k < n, a seeding that crowns the favorite exists iff
the tournament contains a *witness forest*: at most k disjoint bracket
trees on 2**k players each, whose roots all avoid the favorite's in-set,
which jointly swallow every in-neighbor, and in which the favorite appears
only as a root.  Each tree is held as its leaf order: a bracket its root
wins, root first.  For k <= 2 one tree that holds every conqueror decides:
a forest exists iff such a tree does (``find_wwf``'s docstring carries the
proof), and ``find_wwf`` finds one or proves there is none by one
deterministic search.  YES answers carry a verified seeding, and every NO
is exact.

``complete_wwf`` then grows the witness forest into a winning seeding.
The leaf order is a concatenation: each witness tree's leaf order, then
the leftover players in ascending order, which chunk into blocks of 2**k.
One bracket pass over that order puts each match winner's half on the
left.  The favorite wins one block, and every other block winner lies
outside its in-set, so the favorite wins every later match and comes
first.

``solve`` is the one solver entry point, shared by the command line and
the tests, and ``_plan``'s table is its route.  Each solver checks its own
limit on entry, before any work, and raises one ValueError naming it.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Callable, Sequence

from .core import (
    Match,
    Seeding,
    Tournament,
    _covered,
    _fold,
    _in_mask,
    _players,
    _round,
    _winner,
    bracket_rounds,
)
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
    out = t.out_masks
    W = tuple(_players(_in_mask(out, t.vstar)))
    ins = {w: _in_mask(out, w) for w in W}
    kids = out[t.vstar]
    roots = kids | 1 << t.vstar
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


def _plan(t: Tournament, algo: str) -> tuple[str, Callable[[Tournament], Seeding | None]]:
    """The route ``solve`` takes for ``algo``: ``(label, answer)``, where
    ``label`` is what ``pick`` returns and ``answer(t)`` the one call that
    decides, a seeding or None.  The first row that holds is taken; m is
    log2(n), ell the favorite's out-degree and k its in-degree.  This is
    the one place that reads them to choose a route.

    | `--algo` | when | label | answer |
    |---|---|---|---|
    | `auto` | ell < m | `outdeg` | NO by the degree bound |
    | `auto` | n <= 16 | `exact` | as `exact` |
    | `auto` | n > 16 | `indeg` | as `indeg` |
    | `brute` | always | `brute` | `brute_force_decide` (limit n <= 8) |
    | `exact`, `outdeg`, `indeg` | ell < m | as given | NO by the degree bound |
    | `exact`, `outdeg` | n <= 16 | as given | NO by the depth profile, else `solve_exact` |
    | `exact`, `outdeg` | n > 16 | as given | `solve_exact` (limit n <= 16) |
    | `indeg` | k*2**k >= n | `indeg` | as `exact` |
    | `indeg` | k = 0 | `indeg` | the identity seeding |
    | `indeg` | otherwise | `indeg` | `find_wwf` (limit k <= 2), then `complete_wwf` |
    """
    if algo not in ALGOS:
        raise ValueError(f"unknown algorithm {algo!r}, expected one of {', '.join(ALGOS)}")
    degree_no, small = t.ell < t.num_rounds, t.n <= EXACT_MAX_N
    if algo == "auto":
        algo = "outdeg" if degree_no else "exact" if small else "indeg"
    # solvers are read from this module on each call, so rebinding one reroutes it
    if algo == "brute":
        return algo, brute_force_decide
    if degree_no:
        return algo, lambda t: None
    if algo != "indeg" or t.k << t.k >= t.n:
        if not small:
            return algo, solve_exact
        return algo, lambda t: solve_exact(t) if _depth_profile_holds(t) else None
    if t.k == 0:
        return algo, lambda t: Seeding(tuple(range(t.n)))
    return algo, lambda t: None if (trees := find_wwf(t)) is None else complete_wwf(t, trees)


def pick(t: Tournament, algo: str = "auto") -> str:
    """The label of the route ``solve`` takes for ``algo``, one of
    ``ALGOS`` other than ``auto`` (see ``_plan``).  It checks no limit."""
    return _plan(t, algo)[0]


def _depth_profile_holds(t: Tournament) -> bool:
    """False when, for some d, fewer players lie within d arcs of the
    favorite than a bracket it wins needs: a breadth-first search over
    ``out_masks``, one OR per player in the frontier.

    Play a bracket on n = 2**m players and hang each loser off the player
    who beat it.  That is a spanning tree rooted at the champion, the
    binomial tree B_m: the champion beat m players, whose subtrees are
    B_0, ..., B_{m-1}, so B_m has C(m, d) players at depth d.  Each tree
    arc runs from a match's winner to its loser, so it is an arc of the
    tournament, and a player at depth d lies within d arcs of the champion.
    So if the favorite wins, then for every d at least
    C(m, 0) + ... + C(m, d) players lie within d arcs of it.  At d = 1 that
    is the degree bound: the favorite beats at least m players.  The first
    depth that falls short proves NO.
    """
    out, m = t.out_masks, t.num_rounds
    reach = frontier = 1 << t.vstar
    need = 1
    for d in range(1, m + 1):
        step = 0
        for u in _players(frontier):
            step |= out[u]
        frontier = step & ~reach
        reach |= frontier
        need += math.comb(m, d)
        if reach.bit_count() < need:
            return False
    return True


def solve(t: Tournament, algo: str = "auto") -> Seeding | None:
    """Winning seeding for the favorite, or None.

    ``algo`` is one of ``ALGOS``, routed by ``_plan``'s table.  Every YES
    is verified by simulation before it is returned: ``_solve_played``
    plays the seeding once and returns it with its rounds, and ``solve``
    keeps the seeding.
    """
    played = _solve_played(t, algo)[1]
    return None if played is None else played[0]


def _solve_played(t: Tournament, algo: str) -> tuple[str, tuple[Seeding, list[list[Match]]] | None]:
    """``pick``'s label and ``solve``'s seeding with the rounds of the one
    play that verified it, as ``bracket_rounds`` returns them, or None in
    place of the pair.  A seeding whose champion is not the favorite
    raises AssertionError."""
    algo, answer = _plan(t, algo)
    s = answer(t)
    if s is None:
        return algo, None
    rounds = bracket_rounds(t, s.leaf_order)
    if _winner(s.leaf_order, rounds) != t.vstar:
        raise AssertionError("solver produced a seeding that does not crown the favorite")
    return algo, (s, rounds)
