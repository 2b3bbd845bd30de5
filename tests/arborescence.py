"""Labeled binomial arborescences: the tests' independent view of a bracket.

The champion of a 2**c bracket beats one opponent per round, and the opponent
beaten in round r had itself won a sub-bracket of size 2**(r-1).  Drawing an
arc from each match winner to its loser therefore yields a spanning binomial
arborescence, and conversely any spanning binomial arborescence rooted at a
player can be folded back into a seeding that player wins.

The package holds every bracket tree as a root-first leaf order.  This module
keeps the parent-map form as a reference the tests compare that against:
``is_lba`` checks a tree's shape and arcs without playing a bracket,
``merge_lbas`` with ``lba_to_seeding`` rebuilds what ``complete_wwf`` should
return, and ``lba_to_seeding`` folds the tree ``gen_planted_yes`` plants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from tfpsolve import Seeding, Tournament, bracket_rounds


@dataclass(frozen=True)
class Lba:
    """Binomial arborescence labeled by player ids.

    ``parent`` maps every non-root vertex to its parent; arcs run parent to
    child and stand for "parent beat child".  Treat instances as immutable.
    """

    root: int
    parent: dict[int, int]

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(self.parent) | {self.root}

    @property
    def size(self) -> int:
        return len(self.parent) + 1


def _tree_structure(l: Lba) -> tuple[dict[int, list[int]], dict[int, int]] | None:
    """Children lists and subtree sizes, or None if not a tree rooted at l.root."""
    if l.root in l.parent:
        return None
    verts = l.vertices
    children: dict[int, list[int]] = {v: [] for v in verts}
    for v, p in l.parent.items():
        if p not in verts:
            return None
        children[p].append(v)
    sizes: dict[int, int] = {}
    order: list[int] = []
    stack = [l.root]
    while stack:  # reachability from the root rules out cycles and strays
        u = stack.pop()
        order.append(u)
        stack.extend(children[u])
    if len(order) != len(verts):
        return None
    for u in reversed(order):
        sizes[u] = 1 + sum(sizes[c] for c in children[u])
    return children, sizes


def _shape_ok(children: dict[int, list[int]], sizes: dict[int, int], root: int) -> bool:
    """Every node's child subtrees must have sizes exactly 1, 2, 4, ..."""
    for u, kids in children.items():
        got = sorted(sizes[c] for c in kids)
        if got != [1 << j for j in range(len(kids))]:
            return False
    return sizes[root] == len(sizes)


def is_lba(t: Tournament, cand: Lba) -> bool:
    """True iff cand is a binomial arborescence whose arcs all exist in t."""
    if not all(0 <= v < t.n for v in cand.vertices):
        return False
    struct = _tree_structure(cand)
    if struct is None:
        return False
    children, sizes = struct
    if not _shape_ok(children, sizes, cand.root):
        return False
    return all(t.beats(p, v) for v, p in cand.parent.items())


def bracket_lba(t: Tournament, order: Sequence[int]) -> Lba:
    """Arborescence of the bracket played over ``order``: every loser hangs
    off its winner, and the champion is the root."""
    rounds = bracket_rounds(t, order)
    parent = {l: w for matches in rounds for w, l in matches}
    return Lba(root=rounds[-1][0][0] if rounds else order[0], parent=parent)


def lba_to_seeding(l: Lba) -> Seeding:
    """Fold a spanning arborescence back into a seeding its root wins."""
    return Seeding(tuple(_leaf_order(l)))


def _leaf_order(l: Lba) -> list[int]:
    """The players of ``l`` in the leaf order of a bracket its root wins.

    At every node the largest child subtree becomes the opposite half of the
    block, so the root meets that child's root in the block's last round.
    The root comes first, and so does each sub-block's winner.
    """
    struct = _tree_structure(l)
    if struct is None or not _shape_ok(*struct, l.root):
        raise ValueError("not a binomial arborescence")
    children, sizes = struct
    for u in children:
        children[u].sort(key=lambda c: sizes[c])

    return _fill(l.root, children[l.root], children)


def _fill(u: int, kids: list[int], children: dict[int, list[int]]) -> list[int]:
    """Leaf order of the block that ``u`` wins by beating ``kids`` in order.

    A module-level function, not a closure: a recursive closure is a
    reference cycle, which keeps ``children`` (one list per player) alive
    until the cyclic garbage collector runs.
    """
    if not kids:
        return [u]
    return _fill(u, kids[:-1], children) + _fill(kids[-1], children[kids[-1]], children)


def merge_lbas(t: Tournament, a: Lba, b: Lba) -> Lba:
    """Join two disjoint equal-size arborescences by playing root against root:
    the independent reference that the tests check ``complete_wwf`` against."""
    if a.size != b.size:
        raise ValueError("can only merge arborescences of equal size")
    if a.vertices & b.vertices:
        raise ValueError("arborescences overlap")
    win, lose = (a, b) if t.beats(a.root, b.root) else (b, a)
    parent = dict(win.parent)
    parent.update(lose.parent)
    parent[lose.root] = win.root
    return Lba(root=win.root, parent=parent)
