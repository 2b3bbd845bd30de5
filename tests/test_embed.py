import pytest
from conftest import tournaments
from hypothesis import given, settings

from tfpsolve import (
    Lba,
    Tournament,
    brute_force_decide,
    gen_random,
    is_lba,
    solve_exact,
)
from tfpsolve.embed import _winners_table


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
