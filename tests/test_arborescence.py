import gc

import pytest
from arborescence import Lba, bracket_lba, is_lba, lba_to_seeding, merge_lbas
from conftest import tournaments
from hypothesis import given

from tfpsolve import Seeding, champion_of

T4_LBA = Lba(root=0, parent={1: 0, 3: 0, 2: 3})


class TestIsLba:
    def test_reference_tree(self, t4_yes):
        assert is_lba(t4_yes, T4_LBA)

    def test_rejects_reversed_arc(self, t4_yes):
        assert not is_lba(t4_yes, Lba(root=0, parent={1: 0, 3: 0, 0: 3}))

    def test_rejects_arc_loser_as_parent(self, t4_yes):
        # 2 beats 0, so an arc 2 -> 0 pointing down the tree is fine, but
        # 0 -> 2 is not (0 does not beat 2)
        assert not is_lba(t4_yes, Lba(root=0, parent={1: 0, 3: 0, 2: 0}))

    def test_rejects_bad_shape(self, t4_yes):
        # a path on 4 vertices is not a bracket shape
        assert not is_lba(t4_yes, Lba(root=0, parent={1: 0, 3: 1, 2: 3}))

    def test_rejects_cycle(self, t4_yes):
        assert not is_lba(t4_yes, Lba(root=0, parent={1: 2, 2: 1, 3: 0}))

    def test_rejects_out_of_range(self, t4_yes):
        assert not is_lba(t4_yes, Lba(root=0, parent={1: 0, 3: 0, 7: 3}))

    def test_singleton(self, t4_yes):
        assert is_lba(t4_yes, Lba(root=2, parent={}))


class TestSeedingConversions:
    def test_seeding_to_lba(self, t4_yes):
        lba = bracket_lba(t4_yes, Seeding((0, 1, 2, 3)).leaf_order)
        assert lba == Lba(root=0, parent={1: 0, 2: 3, 3: 0})

    def test_bracket_lba_on_subset(self, t4_yes):
        assert bracket_lba(t4_yes, [3, 1]) == Lba(root=1, parent={3: 1})
        assert bracket_lba(t4_yes, [2]) == Lba(root=2, parent={})

    def test_lba_to_seeding_frozen(self):
        assert lba_to_seeding(T4_LBA) == Seeding((0, 1, 3, 2))

    def test_lba_to_seeding_leaves_no_cyclic_garbage(self):
        # cyclic garbage lives until a collection, so a 2048-player fold
        # would hold one list per player that long
        lba = Lba(root=0, parent={v: v & (v - 1) for v in range(1, 64)})
        gc.collect()
        gc.disable()
        try:
            assert lba_to_seeding(lba).leaf_order == tuple(range(64))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_lba_to_seeding_rejects_non_bracket_shape(self):
        with pytest.raises(ValueError):
            lba_to_seeding(Lba(root=0, parent={1: 0, 2: 1, 3: 2}))

    @given(tournaments())
    def test_round_trip_from_seeding(self, t):
        lba = bracket_lba(t, range(t.n))
        assert is_lba(t, lba)
        back = lba_to_seeding(lba)
        # same champion and same tree, though leaf order may be a sibling flip
        assert champion_of(t, back.leaf_order) == lba.root
        assert bracket_lba(t, back.leaf_order) == lba


class TestArbitraryAndMerge:
    def test_arbitrary_lba_pair(self, t4_yes):
        assert bracket_lba(t4_yes, [2, 1]) == Lba(root=1, parent={2: 1})

    def test_arbitrary_lba_requires_power_of_two(self, t4_yes):
        with pytest.raises(ValueError, match="leaf count 3 is not a power of two"):
            bracket_lba(t4_yes, [0, 1, 2])

    def test_merge_singletons(self, t4_yes):
        a, b = Lba(root=0, parent={}), Lba(root=1, parent={})
        assert merge_lbas(t4_yes, a, b) == Lba(root=0, parent={1: 0})

    def test_merge_requires_equal_sizes(self, t4_yes):
        with pytest.raises(ValueError):
            merge_lbas(t4_yes, Lba(root=0, parent={}), Lba(root=1, parent={3: 1}))

    def test_merge_requires_disjoint(self, t4_yes):
        with pytest.raises(ValueError):
            merge_lbas(t4_yes, Lba(root=0, parent={}), Lba(root=0, parent={}))

    def test_merge_pair_trees(self, t4_yes):
        a = bracket_lba(t4_yes, [0, 1])
        b = bracket_lba(t4_yes, [2, 3])
        merged = merge_lbas(t4_yes, a, b)
        assert merged.root == 0 and is_lba(t4_yes, merged)
        assert merged.vertices == {0, 1, 2, 3}
