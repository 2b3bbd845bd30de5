import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import T4_YES_TEXT, tournaments
from hypothesis import given, settings

import tfpsolve
from tfpsolve import (
    IndegConfig,
    Lba,
    Seeding,
    Tournament,
    Wwf,
    brute_force_decide,
    build_host,
    build_pattern_forest,
    champion_of,
    complete_wwf,
    find_wwf,
    gen_planted_yes,
    gen_random,
    is_lba,
    is_wwf,
    pick,
    sample_coloring,
    solve,
)
from tfpsolve.embed import _PackedDp
from tfpsolve.indeg import _chunk_sizes, _color_rows, _iteration_budget


def dominating_conquerors(n: int) -> Tournament:
    """k=2 no-instance: players 1 and 2 beat everyone except each other/0."""
    out = [0] * n
    for v in range(3, n):
        out[0] |= 1 << v
    out[1] = 1 | (1 << 2) | sum(1 << v for v in range(3, n))
    out[2] = 1 | sum(1 << v for v in range(3, n))
    for u in range(3, n):
        for v in range(u + 1, n):
            out[u] |= 1 << v
    return Tournament(n=n, vstar=0, out_masks=tuple(out))


class TestPatternAndHost:
    def test_pattern_k1(self):
        assert build_pattern_forest(1).parents == (-1, 0, 1)

    def test_pattern_k2(self):
        p = build_pattern_forest(2)
        assert p.parents == (-1, 0, 1, 1, 3, 0, 5, 5, 7)
        assert p.subtree_sizes[0] == 9
        assert p.subtree_sizes[1] == p.subtree_sizes[5] == 4

    def test_pattern_rejects_k0(self):
        with pytest.raises(ValueError):
            build_pattern_forest(0)

    def test_host_reference(self, t4_yes):
        host = build_host(t4_yes)
        assert host.out_masks == (10, 12, 0, 4, 11)

    def test_host_drops_only_arcs_into_favorite(self, t4_yes):
        host = build_host(t4_yes)
        # arc 2 -> 0 removed; every other original arc kept
        for u in range(4):
            for v in range(4):
                if u == v:
                    continue
                kept = host.out_masks[u] >> v & 1
                orig = t4_yes.beats(u, v)
                assert kept == (orig and v != 0)


class TestColorings:
    def test_in_neighbors_get_low_colors(self):
        t = gen_random(16, 3, seed=5)
        row = sample_coloring(t, np.random.default_rng(0))
        assert row.shape == (17,)
        assert row[sorted(t.in_neighbors)].tolist() == [0, 1, 2]
        assert row[16] == 3 * 8  # the stem's own top color
        for v in t.out_neighbors | {t.vstar}:
            assert 3 <= row[v] <= 23

    def test_deterministic_given_seed(self):
        t = gen_random(16, 2, seed=5)
        a = sample_coloring(t, np.random.default_rng(42))
        b = sample_coloring(t, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_rejects_k0(self):
        t = gen_random(4, 0, seed=1)
        with pytest.raises(ValueError):
            sample_coloring(t, np.random.default_rng(0))


class TestBudget:
    def test_reference_budgets(self):
        assert _iteration_budget(6, IndegConfig()) == 404
        assert _iteration_budget(6, IndegConfig(iteration_multiplier=20.0)) == 8069
        assert _iteration_budget(1, IndegConfig(iteration_multiplier=20.0)) == 55
        assert _iteration_budget(6, IndegConfig(iteration_multiplier=0.25)) == 101

    def test_absurd_budget_raises(self):
        with pytest.raises(ValueError, match="over the cap of 100000000"):
            _iteration_budget(21, IndegConfig())
        with pytest.raises(ValueError, match="over the cap of 100000000"):
            _iteration_budget(889, IndegConfig())  # would overflow exp if evaluated

    @pytest.mark.parametrize("m", [0.0, -5.0, math.nan, math.inf, -math.inf])
    def test_rejects_multiplier_without_miss_bound(self, m):
        with pytest.raises(ValueError, match="positive and finite"):
            IndegConfig(iteration_multiplier=m)

    def test_chunks_cover_budget_in_order(self):
        assert _chunk_sizes(100) == [64, 36]
        assert _chunk_sizes(8069) == [64, 128, 256, 512] + [1024] * 6 + [965]
        assert sum(_chunk_sizes(8069)) == 8069


class TestFindWwf:
    def test_reference_forest(self, t4_yes):
        w = find_wwf(t4_yes, IndegConfig(rng_seed=5, iteration_multiplier=20.0))
        assert w == Wwf(trees=(Lba(root=1, parent={2: 1}),))
        assert is_wwf(t4_yes, w)

    def test_first_hit_matches_sequential_draws(self):
        # the batch path must consume the generator exactly like one
        # sample_coloring call per iteration
        t = gen_random(16, 2, seed=9)
        rng = np.random.default_rng(31)
        first = sample_coloring(t, rng)
        cfg = IndegConfig(rng_seed=31, iteration_multiplier=0.002)
        assert _iteration_budget(6, cfg) == 1
        w = find_wwf(t, cfg)
        # iteration 0 uses exactly `first`; embeddability of that coloring
        # decides the one-iteration search
        dp = _PackedDp(build_pattern_forest(2), build_host(t), t.n, first[None], 9)
        assert (w is not None) == bool(dp.hits[0])

    def test_every_batch_row_matches_sequential_draws(self, monkeypatch):
        # every row of every chunk, not just the first, is the coloring that
        # one sample_coloring call per iteration would draw
        t = gen_random(16, 2, seed=9)
        cfg = IndegConfig(rng_seed=31, iteration_multiplier=0.5)
        assert _iteration_budget(6, cfg) == 202  # chunks of 64, 128 and 10
        rows = []

        class Record:
            def __init__(self, pattern, host, d, color_idx, num_colors):
                rows.append(color_idx.copy())
                self.hits = np.zeros(len(color_idx), bool)  # never hit: use every draw

        monkeypatch.setattr(tfpsolve.indeg, "_PackedDp", Record)
        assert find_wwf(t, cfg) is None
        assert [len(r) for r in rows] == _chunk_sizes(202)
        rng = np.random.default_rng(31)
        expect = [sample_coloring(t, rng) for _ in range(202)]
        assert np.array_equal(np.concatenate(rows), np.array(expect))

    def test_one_dp_per_decided_chunk(self, monkeypatch):
        # a hit rebuilds its witness from the batch that found it, so no
        # second DP is built
        built = []

        class Counted(_PackedDp):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(len(self.hits))

        monkeypatch.setattr(tfpsolve.indeg, "_PackedDp", Counted)
        t, _ = gen_planted_yes(32, 2, seed=1)
        assert find_wwf(t, IndegConfig(rng_seed=0, iteration_multiplier=20.0)) is not None
        assert built == [64]
        built.clear()
        assert find_wwf(dominating_conquerors(16), IndegConfig(iteration_multiplier=0.5)) is None
        assert built == _chunk_sizes(202)

    def test_no_instance_exhausts_budget(self):
        t = dominating_conquerors(16)
        assert find_wwf(t, IndegConfig(rng_seed=0, iteration_multiplier=0.5)) is None

    def test_rejects_wrong_regime(self, t4_no):
        with pytest.raises(ValueError):
            find_wwf(t4_no, IndegConfig())  # k * 2**k = 8 >= 4


class TestCompleteWwf:
    def test_reference_completion(self, t4_yes):
        w = Wwf(trees=(Lba(root=1, parent={2: 1}),))
        full = complete_wwf(t4_yes, w)
        assert full.root == 0 and is_lba(t4_yes, full)
        assert full.vertices == {0, 1, 2, 3}
        from tfpsolve import lba_to_seeding

        assert lba_to_seeding(full) == Seeding((0, 3, 1, 2))

    def test_rejects_forest_rooted_in_conqueror(self, t4_yes):
        bad = Wwf(trees=(Lba(root=2, parent={1: 2}),))  # 2 beats 0
        with pytest.raises(AssertionError):
            complete_wwf(t4_yes, bad)

    def test_guard_survives_optimize_flag(self):
        # the forest guards raise explicitly, so `python -O` keeps them
        script = (
            "from tfpsolve import Lba, Seeding, Wwf, complete_wwf, extract_local_lba\n"
            "from tfpsolve import gen_random, parse_tournament, seeding_to_lba\n"
            f"t = parse_tournament({T4_YES_TEXT!r})\n"
            "try:\n"
            "    complete_wwf(t, Wwf(trees=(Lba(root=2, parent={1: 2}),)))\n"
            "except AssertionError as exc:\n"
            "    print(exc)\n"
            "t = gen_random(8, 1, seed=0)\n"
            "try:\n"
            "    extract_local_lba(t, seeding_to_lba(t, Seeding(tuple(range(8)))), 6)\n"
            "except AssertionError as exc:\n"
            "    print(exc)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(tfpsolve.__file__).parents[1])}
        run = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout == (
            "a merge root fell inside the favorite's in-set\n"
            "carving from a non-nice bracket\n"
        )

    def test_empty_forest_spans_k0_instance(self):
        t = gen_random(8, 0, seed=3)
        full = complete_wwf(t, Wwf(trees=()))
        assert full.root == 0 and full.vertices == set(range(8))


class TestSolveIndeg:
    def test_k0_returns_identity(self):
        t = gen_random(8, 0, seed=1)
        assert solve(t, "indeg") == Seeding(tuple(range(8)))

    def test_small_parameter_routes_to_exact(self, t4_no):
        assert solve(t4_no, "indeg") is None

    def test_exact_route_respects_cap(self):
        t = dominating_conquerors(32)
        # k = 2, 2 * 4 = 8 < 32: randomized route, 101 draws end in NO
        assert solve(t, "indeg", IndegConfig(iteration_multiplier=0.25)) is None

    def test_planted_instances_solved_and_verified(self):
        for seed in range(5):
            t, _ = gen_planted_yes(32, 2, seed=seed)
            s = solve(t, "indeg", IndegConfig(rng_seed=seed, iteration_multiplier=20.0))
            assert s is not None and champion_of(t, s.leaf_order) == 0

    def test_reference_instances(self, t4_yes, t4_no):
        cfg = IndegConfig(rng_seed=5, iteration_multiplier=20.0)
        s = solve(t4_yes, "indeg", cfg)
        assert s is not None and champion_of(t4_yes, s.leaf_order) == 0
        assert solve(t4_no, "indeg", cfg) is None

    @settings(max_examples=50, deadline=None)
    @given(tournaments(max_rounds=2))
    def test_agrees_with_brute_force(self, t):
        got = solve(t, "indeg", IndegConfig(rng_seed=7, iteration_multiplier=20.0))
        expect = brute_force_decide(t)
        assert (got is None) == (expect is None)
        if got is not None:
            assert champion_of(t, got.leaf_order) == t.vstar


class TestSolveGate:
    def test_pick_resolves_auto(self, t4_yes, t4_no):
        assert pick(t4_no) == "outdeg"  # ell = 1 < 2 rounds
        assert pick(t4_yes) == "exact"
        assert pick(gen_random(32, 3, seed=0)) == "indeg"
        assert pick(t4_yes, "brute") == "brute"
        with pytest.raises(ValueError, match="unknown algorithm"):
            pick(t4_yes, "fast")

    def test_gate_names_the_draw_cap(self):
        # k = 2 fits the engine; only an absurd multiplier exceeds the cap
        cfg = IndegConfig(iteration_multiplier=1e6)
        with pytest.raises(ValueError, match=r"e\*\*6\) draws, over the cap of 100000000$"):
            solve(gen_random(32, 2, seed=0), "auto", cfg)

    @pytest.mark.parametrize("algo", ["brute", "exact", "outdeg", "indeg"])
    def test_every_yes_is_simulated(self, t4_yes, monkeypatch, algo):
        import tfpsolve.indeg

        losing = Seeding((0, 2, 1, 3))
        assert champion_of(t4_yes, losing.leaf_order) != 0
        monkeypatch.setattr(tfpsolve.indeg, "lba_to_seeding", lambda lba: losing)
        monkeypatch.setattr(tfpsolve.indeg, "brute_force_decide", lambda t: losing)
        with pytest.raises(AssertionError, match="does not crown the favorite"):
            solve(t4_yes, algo, IndegConfig(rng_seed=5, iteration_multiplier=20.0))


def test_color_rows_layout():
    t = gen_random(8, 2, seed=11)
    draws = np.arange(3, 9)[None]  # six non-conquerors, colors 3..8
    rows = _color_rows(t, draws)
    others = sorted(t.out_neighbors | {t.vstar})
    assert rows.shape == (1, 9) and rows.dtype == np.int32
    assert rows[0, others].tolist() == list(range(2, 8))
    assert rows[0, sorted(t.in_neighbors)].tolist() == [0, 1]
    assert rows[0, 8] == 8  # the stem
