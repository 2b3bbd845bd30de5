import pytest

from tfpsolve import (
    Seeding,
    champion_of,
    gen_planted_yes,
    gen_random,
    niceness,
    simulate,
)


def test_gen_random_degree_and_determinism():
    for k in range(8):
        t = gen_random(8, k, seed=100 + k)
        assert t.n == 8 and t.vstar == 0 and t.k == k
    assert gen_random(16, 3, seed=1) == gen_random(16, 3, seed=1)
    assert gen_random(16, 3, seed=1) != gen_random(16, 3, seed=2)


def test_gen_random_validates():
    with pytest.raises(ValueError):
        gen_random(6, 1)
    with pytest.raises(ValueError):
        gen_random(8, 8)
    with pytest.raises(ValueError):
        gen_random(8, -1)


def test_planted_witness_wins():
    for seed in range(10):
        t, s = gen_planted_yes(16, 2, seed=seed)
        assert t.k == 2
        assert isinstance(s, Seeding)
        assert champion_of(t, s.leaf_order) == 0


def test_planted_large():
    t, s = gen_planted_yes(64, 2, seed=80000)
    assert t.n == 64 and champion_of(t, s.leaf_order) == 0


def test_planted_k_bound():
    # the favorite needs log2(n) beatable opponents for its planted run
    gen_planted_yes(8, 4, seed=0)
    with pytest.raises(ValueError):
        gen_planted_yes(8, 5, seed=0)


def test_planted_determinism():
    a = gen_planted_yes(32, 3, seed=9)
    b = gen_planted_yes(32, 3, seed=9)
    assert a == b


def test_planted_witness_is_usable_by_repair():
    t, s = gen_planted_yes(16, 1, seed=4)
    from tfpsolve import repair_to_nice

    fixed, _ = repair_to_nice(t, s)
    assert niceness(t, simulate(t, fixed)).all_nice


def test_single_player_edge():
    t = gen_random(1, 0, seed=0)
    assert t.n == 1
    t, s = gen_planted_yes(1, 0, seed=0)
    assert s == Seeding((0,))
