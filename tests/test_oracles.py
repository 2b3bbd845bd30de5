import numpy as np
import pytest
import schedules
from arborescence import Lba, bracket_lba, is_lba, lba_to_seeding
from conftest import tournaments
from hypothesis import given, settings

from tfpsolve import (
    OracleLimitError,
    Seeding,
    Tournament,
    brute_force_decide,
    brute_force_wwf,
    champion_of,
    enumerate_seedings,
    extract_local_lba,
    find_wwf,
    gen_random,
    is_wwf,
    niceness,
    repair_to_nice,
    simulate,
    solve_exact,
)


class TestEnumeration:
    def test_class_counts(self):
        # n! / 2^(n-1): one representative per bracket-equivalence class
        assert sum(1 for _ in enumerate_seedings(2)) == 1
        assert sum(1 for _ in enumerate_seedings(4)) == 3
        assert sum(1 for _ in enumerate_seedings(8)) == 315

    def test_representatives_are_canonical(self):
        for s in enumerate_seedings(8):
            order = s.leaf_order
            size = 8
            blocks = [order]
            while size > 1:
                half = size // 2
                nxt = []
                for b in blocks:
                    left, right = b[:half], b[half:]
                    assert min(b) in left
                    nxt += [left, right]
                blocks, size = nxt, half

    def test_cap(self):
        with pytest.raises(OracleLimitError):
            list(enumerate_seedings(16))

    def test_distinct(self):
        seen = set(s.leaf_order for s in enumerate_seedings(8))
        assert len(seen) == 315


class TestBruteForce:
    def test_reference_instances(self, t4_yes, t4_no):
        assert brute_force_decide(t4_yes) == Seeding((0, 1, 2, 3))
        assert brute_force_decide(t4_no) is None

    def test_cap(self):
        t = gen_random(16, 1, seed=0)
        with pytest.raises(OracleLimitError):
            brute_force_decide(t)


class TestNiceness:
    def test_all_nice_reference(self, t4_yes):
        rep = niceness(t4_yes, simulate(t4_yes, Seeding((0, 1, 2, 3))))
        # round 1 drops conqueror 2; round 2 starts with no conqueror alive
        assert rep.per_round == (True, True) and rep.all_nice

    def test_non_nice_round_detected(self):
        t = gen_random(8, 1, seed=0)  # lone conqueror is player 6
        assert sorted(t.in_neighbors) == [6]
        trace = simulate(t, Seeding((0, 1, 2, 3, 4, 5, 6, 7)))
        assert trace.champion == 0
        rep = niceness(t, trace)
        assert rep.per_round == (False, True, True) and not rep.all_nice


class TestRepair:
    def test_frozen_case(self):
        t = gen_random(8, 1, seed=0)
        fixed, rewrites = repair_to_nice(t, Seeding((0, 1, 2, 3, 4, 5, 6, 7)))
        assert rewrites == 1
        assert fixed == Seeding((0, 3, 4, 6, 7, 5, 1, 2))
        assert champion_of(t, fixed.leaf_order) == 0
        assert niceness(t, simulate(t, fixed)).all_nice

    def test_already_nice_returns_unchanged(self, t4_yes):
        s = Seeding((0, 1, 2, 3))
        assert repair_to_nice(t4_yes, s) == (s, 0)

    def test_rejects_losing_seeding(self, t4_yes):
        with pytest.raises(ValueError):
            repair_to_nice(t4_yes, Seeding((0, 2, 1, 3)))  # crowns player 1

    @settings(max_examples=60, deadline=None)
    @given(tournaments(max_rounds=3))
    def test_repair_fixes_any_winning_seeding(self, t):
        s = solve_exact(t)
        if s is None:
            return
        fixed, rewrites = repair_to_nice(t, s)
        assert champion_of(t, fixed.leaf_order) == t.vstar
        assert niceness(t, simulate(t, fixed)).all_nice
        assert rewrites <= t.num_rounds

    def test_matches_schedule_reference(self):
        # random seedings of random tables, each crowning its own champion:
        # the favorite of gen_random(n, 1) loses once, so it often wins
        # with one conqueror left standing, and about a quarter need repair
        rng = np.random.default_rng(0)
        rewritten = 0
        for i in range(1050):
            n = 2 << i % 7
            t = gen_random(n, 1, seed=i)
            order = rng.permutation(n)
            t = Tournament(n, champion_of(t, order), t.out_masks)
            s = Seeding(order)
            got = repair_to_nice(t, s)
            assert got == schedules.repair_to_nice(t, s)
            rewritten += got[1] > 0
        assert rewritten >= 100


class TestExtractLocalLba:
    def setup_method(self):
        # hand-built n=8 bracket tree: 0 over {1}, {2,3}, {4,5,6,7}
        self.full = Lba(
            root=0, parent={1: 0, 2: 0, 3: 2, 4: 0, 5: 4, 6: 4, 7: 6}
        )
        # favorite 0 loses exactly to 3 and 7 (deep in the tree), wins the rest
        out = [0] * 8
        pairs = {(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (4, 6), (6, 7)}
        pairs |= {(3, 0), (7, 0)}
        for u in range(8):
            for v in range(u + 1, 8):
                if (u, v) in pairs:
                    out[u] |= 1 << v
                elif (v, u) in pairs:
                    out[v] |= 1 << u
                else:
                    out[u] |= 1 << v  # low player wins the rest
        self.t = Tournament(n=8, vstar=0, out_masks=tuple(out))
        assert self.t.in_neighbors == frozenset({3, 7})
        assert is_lba(self.t, self.full)
        self.s = lba_to_seeding(self.full)
        assert self.s == Seeding(tuple(range(8)))

    def test_carve_near_root(self):
        sub = extract_local_lba(self.t, self.s, 3)
        assert sub == (0, 1, 2, 3)
        assert bracket_lba(self.t, sub) == Lba(root=0, parent={1: 0, 2: 0, 3: 2})

    def test_carve_inner_subtree(self):
        sub = extract_local_lba(self.t, self.s, 7)
        assert bracket_lba(self.t, sub) == Lba(root=4, parent={5: 4, 6: 4, 7: 6})
        assert sub[0] == 4 and sub[0] not in self.t.in_neighbors

    def test_block_comes_root_first(self):
        # the block (5, 4, 7, 6) is won by 4, whose half goes left each round
        s = Seeding((0, 1, 2, 3, 5, 4, 7, 6))
        assert extract_local_lba(self.t, s, 7) == (4, 5, 6, 7)

    def test_rejects_foreign_vertex(self):
        with pytest.raises(ValueError):
            extract_local_lba(self.t, self.s, 9)

    def test_rejects_other_size(self, t4_yes):
        with pytest.raises(ValueError, match="seeding over 2 players does not fit n=4"):
            extract_local_lba(t4_yes, Seeding((1, 0)), 1)

    def test_rejects_block_larger_than_seeding(self):
        t = gen_random(4, 3, seed=0)  # a block of 8 players
        with pytest.raises(ValueError, match="smaller than one block"):
            extract_local_lba(t, Seeding((0, 1, 2, 3)), 1)


class TestIsWwf:
    def test_reference(self, t4_yes):
        assert is_wwf(t4_yes, ((1, 2),))
        assert is_wwf(t4_yes, [(3, 2),])

    def test_wrong_count(self, t4_yes):
        assert not is_wwf(t4_yes, [])
        assert not is_wwf(t4_yes, [(1, 2), (0, 3)])  # two trees at k = 1

    def test_wrong_size(self, t4_yes):
        assert not is_wwf(t4_yes, [(1,)])
        assert champion_of(t4_yes, (0, 1, 3, 2)) == 0
        assert not is_wwf(t4_yes, [(0, 1, 3, 2)])  # a good tree, but on 4 players at k = 1

    def test_root_must_win(self, t4_yes):
        # the favorite may root a tree, but 2 beats it
        assert not is_wwf(t4_yes, [(0, 2)])

    def test_uncovered_conqueror(self, t4_yes):
        assert not is_wwf(t4_yes, [(1, 3)])

    def test_root_is_conqueror(self):
        t = gen_random(8, 1, seed=0)
        b = min(t.in_neighbors)  # player 6
        y = next(v for v in sorted(t.out_neighbors) if t.beats(b, v))
        assert champion_of(t, (b, y)) == b  # a perfectly good tree, rooted in the wrong set
        assert not is_wwf(t, [(b, y)])

    def test_overlapping_trees(self):
        t = gen_random(16, 2, seed=3)
        (tree,) = find_wwf(t)
        assert t.k == 2 and is_wwf(t, [tree])
        assert not is_wwf(t, (tree, tree))

    def test_favorite_must_be_root(self):
        # r beats both conquerors u and w, and w beats the favorite: the tree
        # (r, u, w, favorite) meets every condition but the favorite's place
        t = gen_random(16, 2, seed=0)
        u, w = sorted(t.in_neighbors)
        r = min(v for v in t.out_neighbors if t.beats(v, u) and t.beats(v, w))
        tree = (r, u, w, t.vstar)
        assert champion_of(t, tree) == r and r not in t.in_neighbors
        assert not is_wwf(t, [tree])

    def test_fewer_trees_than_k(self):
        # one tree holding both conquerors is a forest at k = 2
        t = gen_random(16, 2, seed=3)
        (tree,) = find_wwf(t)
        assert t.in_neighbors <= set(tree) and is_wwf(t, [tree])


class TestBruteForceWwf:
    def test_reference(self, t4_yes):
        assert brute_force_wwf(t4_yes) == ((1, 2),)

    def test_k0_is_empty_forest(self):
        t = gen_random(8, 0, seed=0)
        assert brute_force_wwf(t) == ()

    def test_regime_guard(self, t4_no):
        with pytest.raises(ValueError):
            brute_force_wwf(t4_no)

    def test_cap(self):
        t = gen_random(32, 1, seed=0)
        with pytest.raises(OracleLimitError):
            brute_force_wwf(t)

    def test_absence_on_no_instance(self):
        from test_indeg import dominating_conquerors

        assert brute_force_wwf(dominating_conquerors(16)) is None

    @settings(max_examples=40, deadline=None)
    @given(tournaments(max_rounds=3))
    def test_presence_matches_solvability(self, t):
        if t.k * (1 << t.k) >= t.n:
            return
        w = brute_force_wwf(t)
        solvable = solve_exact(t) is not None
        assert (w is not None) == solvable
        if w is not None:
            assert is_wwf(t, w)
