import itertools
import math

import numpy as np
import pytest
from arborescence import Lba, bracket_lba, is_lba
from conftest import tournaments
from hypothesis import given, settings

from tfpsolve import (
    Seeding,
    Tournament,
    brute_force_decide,
    gen_planted_yes,
    gen_random,
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


def level_winners(t: Tournament) -> dict[int, int]:
    """Reference for the whole winners table in pure Python: one dict of
    Python-int masks per bracket size, built from the level below it."""

    def beats_any(mask: int) -> int:
        return sum(1 << u for u in range(t.n) if t.out_masks[u] & mask)

    level = {1 << v: 1 << v for v in range(t.n)}
    table = dict(level)
    size = 1
    while size < t.n:
        beats = {half: beats_any(won) for half, won in level.items()}
        size *= 2
        nxt = {}
        for bits in itertools.combinations([1 << p for p in range(t.n)], size):
            whole = sum(bits)
            won = 0
            for others in itertools.combinations(bits[1:], size // 2 - 1):
                sub = bits[0] + sum(others)
                rest = whole - sub
                won |= level[sub] & beats[rest] | level[rest] & beats[sub]
            nxt[whole] = won
        level = nxt
        table.update(level)
    return table


class TestSolveExact:
    def test_reference_yes(self, t4_yes):
        s = solve_exact(t4_yes)
        assert s == Seeding((0, 1, 3, 2))
        assert bracket_lba(t4_yes, s.leaf_order) == Lba(root=0, parent={3: 0, 1: 0, 2: 3})

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

    @pytest.mark.parametrize(
        "t, favorite_wins",
        [
            (gen_random(16, 3, seed=0), None),
            (gen_random(16, 8, seed=1), None),
            (gen_random(16, 13, seed=2), False),  # degree NO: out-degree 2 < 4 rounds
            (gen_planted_yes(16, 5)[0], True),
        ],
        ids=["k3", "k8", "k13-degree-no", "planted-k5"],
    )
    def test_winners_table_matches_levels_at_16(self, t, favorite_wins):
        winners = _winners_table(t)
        want = [0] * (1 << t.n)  # sets whose size is no power of two stay empty
        for mask, won in level_winners(t).items():
            want[mask] = won
        assert winners.tolist() == want
        if favorite_wins is not None:
            assert bool(int(winners[-1]) >> t.vstar & 1) == favorite_wins

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_split_levels(self, n):
        levels = _split_levels(n)
        assert [int(sets[0]).bit_count() for _, sets in levels] == [
            1 << r for r in range(1, n.bit_length())
        ]
        for subs, sets in levels:
            size = int(sets[0]).bit_count()
            assert len(np.unique(sets)) == len(sets) == math.comb(n, size)
            assert subs.shape == (math.comb(size - 1, size // 2 - 1), len(sets))
            ordered = np.sort(subs, axis=0)
            assert (ordered[1:] != ordered[:-1]).all()  # no split of a set twice
            rests = sets - subs
            assert not (subs & rests).any()
            assert ((subs | rests) == sets).all()
            least = sets & -sets
            assert ((subs & least) == least).all()
            for half in (subs, rests):
                assert (sum(half >> p & 1 for p in range(n)) == size // 2).all()

    def test_split_levels_cache_bytes(self):
        assert sum(a.nbytes for level in _split_levels(16) for a in level) <= 3.9e6

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
            lba = bracket_lba(t, s.leaf_order)
            assert lba.root == t.vstar
            assert is_lba(t, lba)
            assert lba.vertices == set(range(t.n))
