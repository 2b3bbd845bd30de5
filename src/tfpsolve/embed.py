"""Colorful rooted-tree embedding into digraphs, and the exact bracket solver.

The engine answers: does the host contain a copy of a rooted tree pattern,
with the pattern root pinned to a distinguished host vertex, all arcs running
parent to child, and all image vertices carrying pairwise distinct colors?
It is one bottom-up DP whose state per (subtree shape, host vertex) is the
family of usable color sets.  A subtree of s nodes can only be colorful on
exactly s colors, so its family keeps one column per s-subset of the
palette, comb(num_colors, s) in all, and merges go through precomputed
tables of disjoint pairs.  The DP is bit-packed: it decides many colorings
of the same pattern/host at once, 64 per machine word.  A coloring is a
row of 0-based int colors, one per host vertex, and a batch is a [B, H]
array of such rows.  ``_PackedDp`` is the engine's one interface: building
it decides every row of a batch (``hits``), and ``witness(j)`` rebuilds row
j's embedding from bit j of the same families, recomputing the merge stages
at each host vertex it visits.

``solve_exact`` runs the identity coloring.  There a color set IS a player
set, so the per-(node, vertex) families collapse into one word per subset of
players: bit u of ``winners[S]`` says u can win a bracket on exactly S.  That
keeps the spanning-arborescence search at 2**n words.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .arborescence import Lba
from .core import Tournament, _bits

__all__ = [
    "PatternTree",
    "HostGraph",
    "solve_exact",
]


@dataclass(frozen=True)
class PatternTree:
    """Rooted tree on nodes 0..n-1; ``parents[root]`` is -1, arcs run parent to child."""

    parents: tuple[int, ...]
    root: int

    def __post_init__(self):
        n = len(self.parents)
        if not 0 <= self.root < n or self.parents[self.root] != -1:
            raise ValueError("root must be the unique node with parent -1")
        for x in range(n):
            seen = set()
            y = x
            while y != self.root:
                if y in seen or not 0 <= self.parents[y] < n:
                    raise ValueError("parents do not form a tree on the root")
                seen.add(y)
                y = self.parents[y]

    @property
    def n(self) -> int:
        return len(self.parents)

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        kids: list[list[int]] = [[] for _ in range(self.n)]
        for x, p in enumerate(self.parents):
            if p >= 0:
                kids[p].append(x)
        return tuple(tuple(k) for k in kids)

    @cached_property
    def subtree_sizes(self) -> tuple[int, ...]:
        sizes = [1] * self.n
        for x in self.postorder:  # children come first
            for c in self.children[x]:
                sizes[x] += sizes[c]
        return tuple(sizes)

    @cached_property
    def postorder(self) -> tuple[int, ...]:
        order: list[int] = []
        stack: list[tuple[int, bool]] = [(self.root, False)]
        while stack:
            x, done = stack.pop()
            if done:
                order.append(x)
                continue
            stack.append((x, True))
            stack.extend((c, False) for c in self.children[x])
        return tuple(order)


@dataclass(frozen=True)
class HostGraph:
    """Digraph over vertices 0..n-1 stored as out-neighbor bitmask rows."""

    out_masks: tuple[int, ...]

    def __post_init__(self):
        # plain ints, as in ``Tournament``: numpy integers lack ``to_bytes``
        object.__setattr__(self, "out_masks", tuple(map(operator.index, self.out_masks)))
        full = (1 << self.n) - 1
        for u, row in enumerate(self.out_masks):
            if row & ~full or row >> u & 1:
                raise ValueError(f"bad out-mask for vertex {u}")

    @property
    def n(self) -> int:
        return len(self.out_masks)

    @cached_property
    def out_lists(self) -> tuple[list[int], ...]:
        """Out-neighbors of every vertex in ascending order, built once per host."""
        return tuple(np.flatnonzero(row).tolist() for row in _bits(self.out_masks, self.n))


# ---------------------------------------------------------------------------
# The DP, bit-packed: many colorings of one pattern/host, 64 per word.

_BATCH_MAX_COLORS = 20


@lru_cache(maxsize=None)
def _masks_of_popcount(num_colors: int, pc: int) -> tuple[int, ...]:
    """The color sets of size pc in combination order: column i is entry i."""
    return tuple(
        sum(1 << b for b in comb)
        for comb in itertools.combinations(range(num_colors), pc)
    )


@lru_cache(maxsize=None)
def _union_table(num_colors: int, a: int, b: int) -> np.ndarray:
    """Rows (i1, i2, iu): a-set column i1 and b-set column i2 are disjoint,
    and iu is their union's column.  Empty when a + b > num_colors."""
    union_col = {m: i for i, m in enumerate(_masks_of_popcount(num_colors, a + b))}
    table = np.array(
        [
            (i1, i2, union_col[s1 | s2])
            for i1, s1 in enumerate(_masks_of_popcount(num_colors, a))
            for i2, s2 in enumerate(_masks_of_popcount(num_colors, b))
            if not s1 & s2
        ],
        np.intp,
    ).reshape(-1, 3)
    table.flags.writeable = False
    return table


def _pack_bits(bools: np.ndarray) -> np.ndarray:
    """[B, H] bools with B % 64 == 0 -> [B//64, H] uint64, bit j = row 64w+j."""
    packed = np.packbits(bools, axis=0, bitorder="little")  # [B//8, H]
    words = packed.T.copy().view(np.uint64)  # [H, B//64]
    if sys.byteorder == "big":
        words = words.byteswap()
    return words.T


def _unpack_bits(words: np.ndarray, count: int) -> np.ndarray:
    w = words.byteswap() if sys.byteorder == "big" else words
    bits = np.unpackbits(np.ascontiguousarray(w).view(np.uint8), bitorder="little")
    return bits[:count].astype(bool)


def _shape_keys(pattern: PatternTree) -> list[tuple]:
    """Canonical key of every node's subtree; equal keys share DP families."""
    keys: list[tuple] = [()] * pattern.n
    for x in pattern.postorder:
        keys[x] = tuple(sorted(keys[c] for c in pattern.children[x]))
    return keys


def _merge(cur: np.ndarray, reach: np.ndarray, num_colors: int, a: int, b: int) -> np.ndarray:
    """Fold a child's reached family on b-sets into a prefix family on a-sets."""
    new = np.zeros(cur.shape[:-1] + (math.comb(num_colors, a + b),), np.uint64)
    for i1, i2, iu in _union_table(num_colors, a, b).tolist():
        new[..., iu] |= cur[..., i1] & reach[..., i2]
    return new


class _PackedDp:
    """The DP's families for a [B, H] array of 0-based colors, and the
    per-coloring answers with the pattern root pinned to host vertex ``d``.

    Bit j of ``fam[x][w, h, i]`` says that coloring 64w+j admits a colorful
    copy of the subtree of node x rooted at host vertex h on exactly the color
    set ``_masks_of_popcount(C, s)[i]``, where s is the subtree's size, so the
    array has comb(C, s) columns; ``base`` is the s = 1 family.  Nodes with
    identical subtree shapes share one array.  The root is evaluated only at
    single host vertices, by ``stages``: once at ``d`` on construction, which
    gives ``hits``, the [B] bools of the colorings that admit a copy.
    """

    def __init__(
        self, pattern: PatternTree, host: HostGraph, d: int, color_idx: np.ndarray, num_colors: int
    ):
        if num_colors > _BATCH_MAX_COLORS:
            raise ValueError(f"batch DP capped at {_BATCH_MAX_COLORS} colors")
        B, H = color_idx.shape
        if H != host.n:
            raise ValueError("color array width must match the host")
        C = num_colors
        padded_rows = -(-B // 64) * 64
        W = padded_rows // 64
        idx = np.full((padded_rows, H), -1, dtype=np.int32)
        idx[:B] = color_idx

        base = np.zeros((W, H, C), np.uint64)
        for c in range(C):  # the 1-sets in combination order are 1 << c
            base[:, :, c] = _pack_bits(idx == c)

        keys = _shape_keys(pattern)
        sizes = pattern.subtree_sizes
        size_of = {keys[x]: sizes[x] for x in range(pattern.n)}
        out_lists = host.out_lists

        def reach_of(child_fam: np.ndarray) -> np.ndarray:
            r = np.zeros_like(child_fam)
            for h in range(H):
                if out_lists[h]:
                    r[:, h, :] = np.bitwise_or.reduce(child_fam[:, out_lists[h], :], axis=1)
            return r

        fam: dict[tuple, np.ndarray] = {(): base}
        reach_memo: dict[tuple, np.ndarray] = {}
        inner = sorted(
            {keys[x] for x in range(pattern.n) if x != pattern.root and keys[x] != ()},
            key=lambda kk: size_of[kk],
        )
        for key in inner:
            cur = base
            acc = 1
            for ck in key:
                if ck not in reach_memo:
                    reach_memo[ck] = reach_of(fam[ck])
                cur = _merge(cur, reach_memo[ck], C, acc, size_of[ck])
                acc += size_of[ck]
            fam[key] = cur
        self.pattern = pattern
        self.host = host
        self.d = d
        self.color_idx = color_idx
        self.num_colors = C
        self.base = base
        self.fam = [fam.get(key) for key in keys]
        self._root_stages = self.stages(pattern.root, d)
        self.hits = _unpack_bits(np.bitwise_or.reduce(self._root_stages[0][-1], axis=1), B)

    def stages(
        self, x: int, h: int, last: bool = True
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Merge stages of node x at host vertex h, children in pattern order.

        Returns ``(prefixes, reaches)`` of [W, comb(C, s)] arrays, s being the
        number of nodes each covers: ``prefixes[0]`` is h's own color, and
        ``prefixes[i + 1]`` folds in child i, whose family reached over the
        arcs out of h is ``reaches[i]``.  With ``last=False`` the final fold,
        which only the root's color sets need, is skipped.
        """
        out_h = self.host.out_lists[h]
        kids = self.pattern.children[x]
        cur = self.base[:, h, :]
        prefixes, reaches = [cur], []
        acc = 1
        for i, c in enumerate(kids):
            reach = np.bitwise_or.reduce(self.fam[c][:, out_h, :], axis=1)  # 0 if no arcs
            reaches.append(reach)
            if not last and i == len(kids) - 1:
                break
            size = self.pattern.subtree_sizes[c]
            cur = _merge(cur, reach, self.num_colors, acc, size)
            acc += size
            prefixes.append(cur)
        return prefixes, reaches

    def witness(self, j: int) -> dict[int, int] | None:
        """Pattern-node to host-vertex map of a colorful copy under coloring
        j, with the root on ``d``; None when coloring j admits no copy.

        The copy is rebuilt from bit j of the families.  It uses the least
        root color set by mask value; each merge, from the last child back,
        takes the least prefix color set by mask value and then the first
        out-neighbor whose child family holds the remaining colors.  Only
        color sets decide, so neither ``num_colors`` nor the other rows
        change the witness.
        """
        pattern, host, C = self.pattern, self.host, self.num_colors
        word, bit = divmod(j, 64)
        bit = np.uint64(1 << bit)
        mapping: dict[int, int] = {}

        # ``i`` is the column of node x's color set among the sets of its
        # subtree's size
        def rebuild(x: int, h: int, i: int, stages) -> None:
            mapping[x] = h
            prefixes, reaches = stages
            kids = pattern.children[x]
            out_h = host.out_lists[h]
            acc = pattern.subtree_sizes[x]
            for c in reversed(range(len(kids))):
                size = pattern.subtree_sizes[kids[c]]
                acc -= size
                i1, i2, iu = _union_table(C, acc, size).T
                held = (prefixes[c][word, i1] & bit != 0) & (reaches[c][word, i2] & bit != 0)
                ok = np.flatnonzero((iu == i) & held)
                # the least prefix set by mask value, not by column
                best = ok[np.argmin(np.asarray(_masks_of_popcount(C, acc))[i1[ok]])]
                i, rest = int(i1[best]), int(i2[best])
                h2 = next(v for v in out_h if self.fam[kids[c]][word, v, rest] & bit)
                rebuild(kids[c], h2, rest, self.stages(kids[c], h2, last=False))

        cols = np.flatnonzero(self._root_stages[0][-1][word] & bit)
        if not cols.size:
            return None
        masks = np.asarray(_masks_of_popcount(C, pattern.n))[cols]
        rebuild(pattern.root, self.d, int(cols[np.argmin(masks)]), self._root_stages)
        _check_embedding(pattern, host, self.d, self.color_idx[j], mapping)
        return mapping


def _check_embedding(pattern, host, d, row: np.ndarray, m: dict[int, int]) -> None:
    if set(m) != set(range(pattern.n)):
        raise AssertionError("embedding must cover the pattern")
    if m[pattern.root] != d:
        raise AssertionError("root must land on the distinguished vertex")
    images = list(m.values())
    if len(set(images)) != len(images):
        raise AssertionError("embedding must be injective")
    colors = row[images].tolist()
    if len(set(colors)) != len(colors):
        raise AssertionError("image colors must be distinct")
    for x, p in enumerate(pattern.parents):
        if p >= 0 and not host.out_masks[m[p]] >> m[x] & 1:
            raise AssertionError("pattern arc missing in host")


# ---------------------------------------------------------------------------
# Exact solver via the identity coloring.

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

    Equivalent to embedding the full-bracket tree pattern under the identity
    coloring with the root pinned to the favorite; see the module docstring
    for why that collapses to one winners word per player subset.  Guarded at
    ``EXACT_MAX_N`` players since the table has 2**n entries.
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
