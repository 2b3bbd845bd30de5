import itertools
import math

import numpy as np
import pytest
from conftest import tournaments
from hypothesis import given, settings

from tfpsolve import (
    Lba,
    Seeding,
    Tournament,
    brute_force_decide,
    gen_random,
    is_lba,
    seeding_to_lba,
    solve_exact,
)
from tfpsolve.embed import EXACT_MAX_N, _split_levels, _winners_table


def bracket_winners(t: Tournament, players: tuple[int, ...]) -> int:
    """Reference: bitmask of the players that can win a bracket on ``players``."""
    if len(players) == 1:
        return 1 << players[0]
    got = 0
    for half in itertools.combinations(players, len(players) // 2):
        rest = tuple(p for p in players if p not in half)
        champs, beaten = bracket_winners(t, half), bracket_winners(t, rest)
        for u in half:
            if champs >> u & 1 and t.out_masks[u] & beaten:
                got |= 1 << u
    return got


class TestSolveExact:
    def test_reference_yes(self, t4_yes):
        s = solve_exact(t4_yes)
        assert s == Seeding((0, 1, 3, 2))
        assert seeding_to_lba(t4_yes, s) == Lba(root=0, parent={3: 0, 1: 0, 2: 3})

    def test_reference_no(self, t4_no):
        assert solve_exact(t4_no) is None

    def test_winners_table_frozen(self, t4_yes):
        winners = _winners_table(t4_yes)
        assert int(winners[0b1111]) == 0b0011  # only players 0 and 1 can win it all
        assert int(winners[0b0011]) == 0b0001  # 0 beats 1 head to head

    @settings(max_examples=60, deadline=None)
    @given(tournaments(max_rounds=3))
    def test_winners_table_matches_reference(self, t):
        winners = _winners_table(t)
        assert winners.dtype == np.dtype(f"uint{EXACT_MAX_N}")
        want = np.zeros(1 << t.n, np.int64)  # sets of other sizes stay empty
        for size in (1 << r for r in range(t.num_rounds + 1)):
            for players in itertools.combinations(t.players, size):
                want[sum(1 << p for p in players)] = bracket_winners(t, players)
        assert winners.tolist() == want.tolist()

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_split_levels(self, n):
        levels = _split_levels(n)
        assert [int(sets[0]).bit_count() for _, _, sets, _ in levels] == [
            1 << r for r in range(1, n.bit_length())
        ]
        for s1, s2, sets, per_set in levels:
            size = int(sets[0]).bit_count()
            assert len(np.unique(sets)) == len(sets) == math.comb(n, size)
            assert per_set == math.comb(size - 1, size // 2 - 1)
            whole = np.repeat(sets, per_set)
            assert not (s1 & s2).any()
            assert ((s1 | s2) == whole).all()
            least = whole & -whole
            assert ((s1 & least) == least).all()
            for half in (s1, s2):
                assert (sum(half >> p & 1 for p in range(n)) == size // 2).all()

    def test_single_player(self):
        t = Tournament(n=1, vstar=0, out_masks=(0,))
        assert solve_exact(t) == Seeding((0,))

    def test_two_players(self):
        t = Tournament(n=2, vstar=0, out_masks=(2, 0))
        assert solve_exact(t) == Seeding((0, 1))
        t = Tournament(n=2, vstar=0, out_masks=(0, 1))
        assert solve_exact(t) is None

    def test_player_cap(self):
        with pytest.raises(ValueError, match="capped at 16 players, got n=32"):
            solve_exact(gen_random(32, 4, seed=0))

    @settings(max_examples=60)
    @given(tournaments(max_rounds=2))
    def test_agrees_with_seeding_enumeration(self, t):
        s = solve_exact(t)
        winning = brute_force_decide(t)
        assert (s is None) == (winning is None)
        if s is not None:
            lba = seeding_to_lba(t, s)
            assert lba.root == t.vstar
            assert is_lba(t, lba)
            assert lba.vertices == set(range(t.n))
