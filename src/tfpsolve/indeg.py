"""Randomized solver parameterized by how many players beat the favorite.

Write k for the number of players that beat the favorite.  A seeding that
crowns the favorite survives in three regimes:

* k == 0: the favorite beats everyone, so any seeding works.
* k * 2**k >= n: the instance is small in the parameter; solve exactly.
* otherwise: a seeding exists iff the tournament contains a *witness
  forest* -- k vertex-disjoint arborescences, each on exactly 2**k
  vertices and shaped like a bracket, whose roots all avoid the
  favorite's in-set, which jointly swallow every in-neighbor, and in
  which the favorite appears only as the root of one tree.  Such a
  forest is tiny (k * 2**k vertices), so it is found by color coding:
  in-neighbors get k fixed colors, everyone else draws uniformly from
  the remaining 2**k * k - k, the host's stem vertex gets a color of its
  own, and the tree-embedding engine searches a colorful copy of the
  forest pattern.  A coloring is a row of 0-based colors over the host
  vertices, the form the engine reads.  A draw makes a fixed
  witness colorful with probability at least e**-(k*2**k - k), so
  ceil(multiplier * e**(k*2**k - k)) draws miss with probability at most
  e**-multiplier.  YES answers carry a verified seeding; NO answers are
  correct up to that failure bound.

``complete_wwf`` then grows the witness forest into a spanning bracket
tree: leftover players are chunked into blocks of 2**k, each block gets
an arbitrary internal bracket, and trees are merged pairwise.  Every
merge root lies outside the favorite's in-set, so the favorite's own
tree keeps winning merges and ends up spanning the field.

``solve`` is the one solver entry point, shared by the command line and
the tests; ``pick`` resolves ``auto``.  Before any work, one
feasibility gate (``_route``) chooses the route and raises a single
ValueError naming the limit that fails.  Except for the ``brute`` oracle,
which runs unfiltered, the degree certificate comes first: a favorite that
beats fewer than log2(n) players cannot win log2(n) matches, so the answer
is NO.  Otherwise n <= 2**ell, and the out-degree parameterization is exact
search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arborescence import Lba, arbitrary_lba, is_lba, lba_to_seeding, merge_lbas
from .core import Seeding, Tournament, champion_of
from .embed import _BATCH_MAX_COLORS, EXACT_MAX_N, HostGraph, PatternTree, _PackedDp, solve_exact
from .oracles import Wwf, brute_force_decide, is_wwf

__all__ = [
    "Wwf",
    "IndegConfig",
    "sample_coloring",
    "build_pattern_forest",
    "build_host",
    "find_wwf",
    "complete_wwf",
    "pick",
    "solve",
]

ALGOS = ("auto", "brute", "exact", "outdeg", "indeg")

_BUDGET_CAP = 100_000_000


@dataclass(frozen=True)
class IndegConfig:
    """Knobs for the randomized search.

    ``iteration_multiplier`` scales the draw budget, so that a NO misses a
    witness with probability at most e**-multiplier; it must be positive and
    finite for that bound to mean anything.
    """

    rng_seed: int = 0
    iteration_multiplier: float = 1.0

    def __post_init__(self):
        m = self.iteration_multiplier
        if not (math.isfinite(m) and m > 0):
            raise ValueError(f"iteration multiplier must be positive and finite, got {m}")


def build_pattern_forest(k: int) -> PatternTree:
    """Pattern for the embedding engine: a stem node over k bracket trees.

    Node 0 is the stem; block i occupies ids 1 + i*2**k onward, wired like a
    canonical bracket tree (parent of in-block offset j is offset j & (j-1)).
    The stem exists so the whole pattern is one rooted tree.
    """
    if k < 1:
        raise ValueError("pattern needs at least one block")
    size = 1 << k
    parents = [-1]
    for i in range(k):
        off = 1 + i * size
        parents.append(0)
        parents.extend(off + (j & (j - 1)) for j in range(1, size))
    return PatternTree(parents=tuple(parents), root=0)


def build_host(t: Tournament) -> HostGraph:
    """Host digraph: the tournament minus arcs into the favorite, plus a
    fresh stem vertex d = n with arcs to the favorite and its out-set.

    Dropping arcs into the favorite means no embedded tree may contain the
    favorite below its root, and the stem's arcs force every block root into
    the favorite's out-set or the favorite itself.
    """
    masks = []
    for u in range(t.n):
        m = t.out_masks[u]
        if u != t.vstar:
            m &= ~(1 << t.vstar)
        masks.append(m)
    d_mask = 1 << t.vstar
    for v in t.out_neighbors:
        d_mask |= 1 << v
    masks.append(d_mask)
    return HostGraph(out_masks=tuple(masks))


def _color_rows(t: Tournament, draws: np.ndarray) -> np.ndarray:
    """Host colorings, one [n+1] row of 0-based colors per row of ``draws``.

    In-neighbors get colors 0..k-1 in ascending player order, the other
    players in ascending order take ``draw - 1``, and the stem vertex n gets
    the top color k*2**k.
    """
    k, n = t.k, t.n
    rows = np.empty((len(draws), n + 1), np.int32)
    rows[:, sorted(t.in_neighbors)] = np.arange(k)
    rows[:, sorted(t.out_neighbors | {t.vstar})] = draws - 1
    rows[:, n] = k << k
    return rows


def sample_coloring(t: Tournament, rng: np.random.Generator) -> np.ndarray:
    """One random host coloring as an [n+1] row of 0-based colors.

    In-neighbors get colors 0..k-1 in ascending player order, everyone else
    draws uniformly from k .. k*2**k - 1, and the stem vertex n gets k*2**k.
    """
    k = t.k
    if k < 1:
        raise ValueError("coloring is only defined when someone beats the favorite")
    hi = k * (1 << k)
    return _color_rows(t, rng.integers(k + 1, hi + 1, size=t.n - k)[None])[0]


def _iteration_budget(exponent: int, cfg: IndegConfig) -> int:
    if exponent <= 700:
        raw = cfg.iteration_multiplier * math.exp(exponent)
    else:
        raw = math.inf
    if raw > _BUDGET_CAP:
        raise ValueError(
            f"color coding needs ceil({cfg.iteration_multiplier} * e**{exponent}) draws, "
            f"over the cap of {_BUDGET_CAP}"
        )
    return math.ceil(raw)


def _chunk_sizes(total: int) -> list[int]:
    sizes = []
    step = 64
    remaining = total
    while remaining > 0:
        take = min(step, remaining)
        sizes.append(take)
        remaining -= take
        if step < 1024:
            step *= 2
    return sizes


def _wwf_from_embedding(m: dict[int, int], k: int) -> Wwf:
    size = 1 << k
    trees = []
    for i in range(k):
        off = 1 + i * size
        parent = {m[off + j]: m[off + (j & (j - 1))] for j in range(1, size)}
        trees.append(Lba(root=m[off], parent=parent))
    return Wwf(trees=tuple(trees))


def find_wwf(t: Tournament, cfg: IndegConfig = IndegConfig()) -> Wwf | None:
    """Search for a witness forest by repeated random colorings.

    Draws come off ``cfg.rng_seed`` in the order of one draw per iteration
    but are made and decided in batches; a hit reports the lowest iteration
    index in the batch, so the result for a given seed is identical to
    deciding draws one by one.
    Returns None once the budget is exhausted (see the module docstring for
    the failure bound).
    """
    k, n = t.k, t.n
    if k < 1 or k * (1 << k) >= n:
        raise ValueError("witness-forest search applies when 1 <= k and k*2**k < n")
    hi = k * (1 << k)
    pattern = build_pattern_forest(k)
    host = build_host(t)
    d = t.n
    budget = _iteration_budget(hi - k, cfg)
    rng = np.random.default_rng(cfg.rng_seed)
    for chunk in _chunk_sizes(budget):
        # one call per chunk yields the same stream as one call per row
        rows = _color_rows(t, rng.integers(k + 1, hi + 1, size=(chunk, n - k)))
        dp = _PackedDp(pattern, host, d, rows, hi + 1)
        if dp.hits.any():
            mapping = dp.witness(int(np.argmax(dp.hits)))
            if mapping is None:
                raise AssertionError("batch hit has no witness")
            wwf = _wwf_from_embedding(mapping, k)
            if not is_wwf(t, wwf):
                raise AssertionError("embedded forest failed the witness checks")
            return wwf
        del dp  # free this chunk's families before the next chunk builds its own
    return None


def _assert_mergeable(t: Tournament, trees: list[Lba]) -> None:
    roots = [tree.root for tree in trees]
    if len(trees) % 2:
        raise AssertionError("tree count must halve cleanly")
    if any(r in t.in_neighbors for r in roots):
        raise AssertionError("a merge root fell inside the favorite's in-set")
    if sum(r == t.vstar for r in roots) != 1:
        raise AssertionError("the favorite must root exactly one tree")


def complete_wwf(t: Tournament, wwf: Wwf) -> Lba:
    """Grow a witness forest into a spanning bracket tree rooted at the
    favorite.

    Leftover players (none of whom beat the favorite, since the forest
    swallowed the whole in-set) are chunked in ascending order into blocks of
    the forest's tree size, bracketed arbitrarily, and merged pairwise in
    list order until one tree remains.
    """
    size = 1 << t.k
    covered: set[int] = set()
    for tree in wwf.trees:
        if not covered.isdisjoint(tree.vertices):
            raise AssertionError("witness trees overlap")
        covered |= tree.vertices
    rest = sorted(set(t.players) - covered)
    if len(covered) != len(wwf.trees) * size:
        raise AssertionError("witness trees have a wrong size")
    trees = list(wwf.trees)
    for lo in range(0, len(rest), size):
        trees.append(arbitrary_lba(t, rest[lo : lo + size]))
    while len(trees) > 1:
        _assert_mergeable(t, trees)
        trees = [merge_lbas(t, trees[i], trees[i + 1]) for i in range(0, len(trees), 2)]
    final = trees[0]
    if final.root != t.vstar:
        raise AssertionError("completion lost the favorite")
    if final.vertices != set(t.players):
        raise AssertionError("completion does not span the field")
    if not is_lba(t, final):
        raise AssertionError("completion is not a valid bracket tree")
    return final


def _verify(t: Tournament, s: Seeding) -> None:
    if champion_of(t, s.leaf_order) != t.vstar:
        raise AssertionError("solver produced a seeding that does not crown the favorite")


def pick(t: Tournament, algo: str = "auto") -> str:
    """The algorithm ``solve`` runs for ``algo``: one of ``ALGOS``, with
    ``auto`` resolved to ``outdeg`` when the degree certificate answers NO,
    to ``exact`` up to ``EXACT_MAX_N`` players, and to ``indeg`` beyond."""
    if algo not in ALGOS:
        raise ValueError(f"unknown algorithm {algo!r}, expected one of {', '.join(ALGOS)}")
    if algo != "auto":
        return algo
    if t.ell < t.num_rounds:
        return "outdeg"
    return "exact" if t.n <= EXACT_MAX_N else "indeg"


def _route(t: Tournament, algo: str, cfg: IndegConfig) -> str:
    """The feasibility gate: the route ``solve`` takes for a concrete ``algo``.

    Returns ``brute``, ``degree`` (NO by the degree certificate),
    ``identity`` (nobody beats the favorite), ``exact`` or ``color`` (color
    coding), or raises ValueError naming the limit the route exceeds.
    """
    if algo == "brute":
        return "brute"
    if t.ell < t.num_rounds:
        return "degree"
    k = t.k
    palette = k * (1 << k)
    if algo == "indeg" and k == 0:
        return "identity"
    if algo != "indeg" or palette >= t.n:
        if t.n > EXACT_MAX_N:
            raise ValueError(f"exact solver is capped at {EXACT_MAX_N} players, got n={t.n}")
        return "exact"
    if palette + 1 > _BATCH_MAX_COLORS:  # one more color for the stem vertex
        raise ValueError(
            f"color coding at k={k} needs {palette + 1} colors, "
            f"over the cap of {_BATCH_MAX_COLORS}"
        )
    _iteration_budget(palette - k, cfg)
    return "color"


def solve(t: Tournament, algo: str = "auto", cfg: IndegConfig = IndegConfig()) -> Seeding | None:
    """Winning seeding for the favorite, or None.

    ``algo`` is one of ``ALGOS`` (see ``pick``).  The feasibility gate runs
    before any work.  Every YES is verified by simulation before it is
    returned.  A None from color coding is wrong with probability at most
    e**-iteration_multiplier; every other None is exact.
    """
    route = _route(t, pick(t, algo), cfg)
    if route == "degree":
        return None
    if route == "brute":
        s = brute_force_decide(t)
    elif route == "identity":
        s = Seeding(tuple(range(t.n)))
    elif route == "exact":
        lba = solve_exact(t)
        s = None if lba is None else lba_to_seeding(lba)
    else:
        wwf = find_wwf(t, cfg)
        s = None if wwf is None else lba_to_seeding(complete_wwf(t, wwf))
    if s is not None:
        _verify(t, s)
    return s
