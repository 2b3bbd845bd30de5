import itertools
import math

import numpy as np
import pytest
from conftest import tournaments
from hypothesis import given, settings

from tfpsolve import (
    HostGraph,
    Lba,
    PatternTree,
    Tournament,
    brute_force_decide,
    build_host,
    build_pattern_forest,
    gen_random,
    is_lba,
    solve_exact,
)
from tfpsolve.embed import _PackedDp, _winners_table


def brute_embed(pattern, host, d, colors):
    """Reference decision: try every injective map with distinct image colors."""
    nodes = list(range(pattern.n))
    for image in itertools.permutations(range(host.n), pattern.n):
        m = dict(zip(nodes, image))
        if m[pattern.root] != d:
            continue
        if len({colors[h] for h in image}) != pattern.n:
            continue
        if all(
            host.out_masks[m[p]] >> m[x] & 1
            for x, p in enumerate(pattern.parents)
            if p >= 0
        ):
            return True
    return False


def random_pattern(rng, n):
    parents = [-1] + [int(rng.integers(0, x)) for x in range(1, n)]
    return PatternTree(parents=tuple(parents), root=0)


def random_host(rng, n):
    masks = [0] * n
    for u in range(n):
        for v in range(n):
            if u != v and rng.integers(0, 2):
                masks[u] |= 1 << v
    return HostGraph(out_masks=tuple(masks))


class TestPatternTree:
    def test_children_and_postorder(self):
        p = PatternTree(parents=(-1, 0, 0, 2), root=0)
        assert p.children == ((1, 2), (), (3,), ())
        assert p.subtree_sizes == (4, 1, 2, 1)
        order = p.postorder
        assert set(order) == {0, 1, 2, 3}
        assert order.index(3) < order.index(2)
        assert order[-1] == 0

    def test_rejects_cycle(self):
        with pytest.raises(ValueError):
            PatternTree(parents=(-1, 2, 1), root=0)

    def test_rejects_bad_root(self):
        with pytest.raises(ValueError):
            PatternTree(parents=(0, -1), root=0)


class TestHostGraph:
    def test_out_list(self):
        h = HostGraph(out_masks=(6, 0, 1))
        assert h.out_lists == ([1, 2], [], [0])
        assert h.out_lists is h.out_lists  # built once per host

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            HostGraph(out_masks=(1, 0))


def witness(pattern, host, d, row, num_colors=None):
    """The engine's witness for one coloring, on the palette 0..max(row) by default."""
    row = np.asarray(row, np.int32)
    C = int(row.max()) + 1 if num_colors is None else num_colors
    return _PackedDp(pattern, host, d, row[None], C).witness(0)


class TestColoring:
    def test_colors_outside_the_palette_are_unused(self):
        # a color that is not in 0..num_colors-1 puts its vertex in no color
        # set, like the padding rows of a batch
        p = PatternTree(parents=(-1, 0), root=0)
        h = HostGraph(out_masks=(2, 0))
        assert witness(p, h, 0, [0, -1], num_colors=2) is None
        assert witness(p, h, 0, [0, 2], num_colors=2) is None
        assert witness(p, h, 0, [0, 1]) == {0: 0, 1: 1}


class TestEngine:
    def test_reference_embedding(self, t4_yes):
        # stem over a single 2-block, hosted on the no-arcs-into-0 variant
        pattern = build_pattern_forest(1)
        host = build_host(t4_yes)
        assert witness(pattern, host, 4, [1, 1, 0, 1, 2]) == {0: 4, 1: 1, 2: 2}

    def test_no_embedding_when_colors_clash(self, t4_yes):
        pattern = build_pattern_forest(1)
        host = build_host(t4_yes)
        # only one color for everything but the stem: blocks need two
        assert witness(pattern, host, 4, [0, 0, 0, 0, 1]) is None

    def test_rejects_uncolored_vertex(self):
        p = PatternTree(parents=(-1, 0), root=0)
        h = HostGraph(out_masks=(2, 0))
        with pytest.raises(ValueError, match="width must match the host"):
            witness(p, h, 0, [0])

    def test_color_budget_guard(self):
        p = PatternTree(parents=(-1, 0), root=0)
        h = HostGraph(out_masks=(2, 0))
        assert witness(p, h, 0, [0, 19]) == {0: 0, 1: 1}  # 20 colors fit
        with pytest.raises(ValueError, match="capped at 20 colors"):
            witness(p, h, 0, [0, 20])

    @pytest.mark.parametrize(
        "parents, masks, colors, d, expect",
        [
            # the least root color set is {2, 3, 4, 5, 7} (mask 188), whose
            # column among the 5-subsets of 8 colors is not the least one
            (
                (-1, 0, 1, 1, 2),
                (226, 189, 250, 198, 229, 142, 188, 54),
                (3, 7, 8, 2, 1, 5, 5, 4),
                6,
                {0: 6, 1: 3, 2: 7, 3: 1, 4: 4},
            ),
            # at the root's second merge the least prefix set by mask value
            # is not the first one in combination order
            (
                (-1, 0, 0, 1, 2),
                (472, 244, 344, 487, 234, 91, 33, 305, 255),
                (3, 2, 1, 1, 5, 4, 2, 2, 4),
                1,
                {0: 1, 1: 5, 2: 2, 3: 0, 4: 4},
            ),
        ],
    )
    def test_witness_tie_breaks_by_mask_value(self, parents, masks, colors, d, expect):
        pattern = PatternTree(parents=parents, root=0)
        row = [c - 1 for c in colors]
        assert witness(pattern, HostGraph(out_masks=masks), d, row) == expect

    def test_agrees_with_brute_force(self):
        rng = np.random.default_rng(2024)
        hits = 0
        for trial in range(1000):
            pn = int(rng.integers(1, 5))
            hn = int(rng.integers(pn, 7))
            pattern = random_pattern(rng, pn)
            host = random_host(rng, hn)
            ncol = int(rng.integers(pn, pn + 3))
            row = [int(rng.integers(1, ncol + 1)) - 1 for _ in range(hn)]
            d = int(rng.integers(0, hn))
            got = witness(pattern, host, d, row)
            expect = brute_embed(pattern, host, d, row)
            assert (got is not None) == expect, (trial, pattern, host, row, d)
            if got is not None:
                hits += 1
        # make sure the sample actually exercised both outcomes
        assert 100 < hits < 900

    def test_wider_palette_leaves_witness_unchanged(self):
        # unused colors above the row's own widen every family; the witness
        # breaks ties by color set, so it must not change
        rng = np.random.default_rng(77)
        hits = 0
        for trial in range(300):
            pn = int(rng.integers(1, 5))
            hn = int(rng.integers(pn, 7))
            pattern = random_pattern(rng, pn)
            host = random_host(rng, hn)
            row = rng.integers(0, pn + 2, size=hn)
            d = int(rng.integers(0, hn))
            wide = int(row.max()) + 1 + int(rng.integers(1, 4))
            got = witness(pattern, host, d, row)
            got_wide = witness(pattern, host, d, row, num_colors=wide)
            assert (got is not None) == brute_embed(pattern, host, d, row), trial
            assert got_wide == got, (trial, pattern, host, row, d, wide)
            hits += got is not None
        assert 30 < hits < 270


class TestBatchEngine:
    def test_agrees_with_brute_force(self):
        # 130 colorings span three words, the last one mostly padding
        rng = np.random.default_rng(130)
        decided = hits = 0
        for trial in range(12):
            pn = int(rng.integers(1, 5))
            hn = int(rng.integers(pn, 7))
            pattern = random_pattern(rng, pn)
            host = random_host(rng, hn)
            # palettes smaller than the pattern merge through empty tables
            ncol = int(rng.integers(max(1, pn - 1), pn + 3))
            d = int(rng.integers(0, hn))
            idx = rng.integers(0, ncol, size=(130, hn)).astype(np.int32)
            dp = _PackedDp(pattern, host, d, idx, ncol)
            assert dp.hits.shape == (130,)
            for j, row in enumerate(idx):
                expect = brute_embed(pattern, host, d, row)
                assert dp.hits[j] == expect, (trial, j)
                got = dp.witness(j)
                assert (got is not None) == expect, (trial, j)
                # bit j of the batch rebuilds what a one-row run rebuilds
                assert got == _PackedDp(pattern, host, d, idx[j : j + 1], ncol).witness(0)
            decided += len(idx)
            hits += int(dp.hits.sum())
        assert 0.1 * decided < hits < 0.9 * decided

    def test_families_keep_only_their_popcount_columns(self):
        # a subtree of s nodes is colorful only on s-sets: comb(C, s) columns
        p = build_pattern_forest(2)
        host = build_host(gen_random(32, 2, seed=3))
        idx = np.random.default_rng(0).integers(0, 9, size=(100, host.n)).astype(np.int32)
        dp = _PackedDp(p, host, host.n - 1, idx, num_colors=9)
        assert dp.base.shape == (2, host.n, 9)
        for x in range(p.n):
            if x != p.root:
                assert dp.fam[x].shape == (2, host.n, math.comb(9, p.subtree_sizes[x]))

    def test_color_cap(self):
        p = PatternTree(parents=(-1,), root=0)
        h = HostGraph(out_masks=(0,))
        with pytest.raises(ValueError):
            _PackedDp(p, h, 0, np.zeros((1, 1), np.int32), num_colors=21)


class TestSolveExact:
    def test_reference_yes(self, t4_yes):
        assert solve_exact(t4_yes) == Lba(root=0, parent={3: 0, 1: 0, 2: 3})

    def test_reference_no(self, t4_no):
        assert solve_exact(t4_no) is None

    def test_winners_table_frozen(self, t4_yes):
        winners = _winners_table(t4_yes)
        assert int(winners[0b1111]) == 0b0011  # only players 0 and 1 can win it all
        assert int(winners[0b0011]) == 0b0001  # 0 beats 1 head to head

    def test_single_player(self):
        t = Tournament(n=1, vstar=0, out_masks=(0,))
        assert solve_exact(t) == Lba(root=0, parent={})

    def test_two_players(self):
        t = Tournament(n=2, vstar=0, out_masks=(2, 0))
        assert solve_exact(t) == Lba(root=0, parent={1: 0})
        t = Tournament(n=2, vstar=0, out_masks=(0, 1))
        assert solve_exact(t) is None

    def test_player_cap(self):
        with pytest.raises(ValueError, match="capped at 16 players, got n=32"):
            solve_exact(gen_random(32, 4, seed=0))

    @settings(max_examples=60)
    @given(tournaments(max_rounds=2))
    def test_agrees_with_seeding_enumeration(self, t):
        lba = solve_exact(t)
        winning = brute_force_decide(t)
        assert (lba is None) == (winning is None)
        if lba is not None:
            assert lba.root == t.vstar
            assert is_lba(t, lba)
            assert lba.vertices == set(range(t.n))
