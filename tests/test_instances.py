import hashlib
import itertools

import numpy as np
import pytest
from arborescence import Lba, lba_to_seeding

from tfpsolve import (
    Seeding,
    bracket_rounds,
    champion_of,
    format_tournament,
    gen_planted_yes,
    gen_random,
    niceness,
    parse_tournament,
)
from tfpsolve.core import _BLOCK
from tfpsolve.instances import _coins


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of format_tournament(gen_random(n, k, seed)); a change breaks every stored instance
RANDOM_PINS = {
    (2, 1, 0): "3146fa51283265a1299f5b38ccc099511885a7f35328e952c302f44fa1c8da3a",
    (16, 3, 1): "e063024f72f802d0b314d485bac7ac504889404b0a54e48f788c896ff6ae7229",
    (64, 2, 7): "aa2aa9a2d685fa5b902d8f38bea3c0e9e21f5861852bf051a249186f5659373b",
    (256, 5, 3): "33839656bf9a0ed96c3e685a98e9b127e141c42e56fb455d006487f05e6b9bc8",
    (2048, 5, 11): "fc0bdc27578192235ce3bdc2715ba27894ac998c3eb5232bb4ef8ced815d6387",
}

# sha256 of the formatted gen_planted_yes(n, k, seed) instance and of its witness
PLANTED_PINS = {
    (2, 0, 0): (
        "f40ba9aa83c830609e3781e281478fe147ea74fa179534de16f6050d1193be82",
        "5cc3a6551605a0b4e9c3334f5eb5554c404973daf0b1a58655fa29c0ba3d47b0",
    ),
    (16, 2, 4): (
        "47f4e8766a64264c142976f881638e9dcfad7988139d88cc5250a8f0e5f56c60",
        "f02b27a3afed95288a58c3864e16a4a3f14362d0c5e3d7c529c00c69c03dc21e",
    ),
    (64, 3, 9): (
        "fe9e8ec78fbb5338ca399640ae15235f060e6736dc1e67bd974555341714f5ad",
        "23ecb4ebcbc45b4b9b5f5dfdf50b159de8d30eae3453a34020eb53aa8e5f10c2",
    ),
    (256, 2, 5): (
        "3d211275a2aceb899a4671430db93e8e5e34f706f248c18875b4fc7550683c1b",
        "30c8ae9d1519a33220aa5c70f7d01d406b9403b87b4ef67e7f74332397f169d3",
    ),
    (2048, 5, 0): (
        "ded7ee011be51fe0c1ddaa94c32b310164564eb1f7c9a087790d441916baff6c",
        "cdb14fc38fd095ead28a80c099b69f9ba910168c619bf01917e376ac25c36d1a",
    ),
}


def _nks_id(nks):
    return "n{}-k{}-seed{}".format(*nks)


@pytest.mark.parametrize("nks", RANDOM_PINS, ids=_nks_id)
def test_gen_random_pinned_text(nks):
    n, k, seed = nks
    assert _sha256(format_tournament(gen_random(n, k, seed=seed))) == RANDOM_PINS[nks]


@pytest.mark.parametrize("nks", PLANTED_PINS, ids=_nks_id)
def test_gen_planted_pinned_text(nks):
    n, k, seed = nks
    t, s = gen_planted_yes(n, k, seed=seed)
    got = (_sha256(format_tournament(t)), _sha256(" ".join(map(str, s.leaf_order))))
    assert got == PLANTED_PINS[nks]


# the coin count of the first full 128-row block at n=2048: pairs (u, v),
# 128 <= u < 256, u < v < 2048
_FULL_BLOCK = sum(2047 - u for u in range(_BLOCK, 2 * _BLOCK))


@pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "half_word_held"])
@pytest.mark.parametrize("count", [0, 1, 2, 3, 127, _FULL_BLOCK])
def test_coins_are_the_integers_draw(count, buffered):
    rng, twin = np.random.default_rng(count), np.random.default_rng(count)
    if buffered:  # as gen_random's choice of conquerors leaves it
        for g in (rng, twin):
            g.choice(np.arange(1, 2048), size=5, replace=False)
    assert rng.bit_generator.state["has_uint32"] == buffered
    coins = _coins(rng, count)
    assert coins.dtype == bool
    assert np.array_equal(coins, twin.integers(0, 2, size=count))
    assert rng.bit_generator.state == twin.bit_generator.state
    assert np.array_equal(rng.integers(0, 2, size=3), twin.integers(0, 2, size=3))


def _reference_masks(n: int, k: int, seed: int, planted: bool) -> tuple[int, ...]:
    """The generators' table built cell by cell from the same draws: the
    planted tree's labels and the favorite's conquerors, then one coin per
    pair (u, v), 1 <= u < v, in row-major order with 1 meaning u beats v.
    The planted arcs overwrite their coins and the favorite's row comes last."""
    rng = np.random.default_rng(seed)
    pool, arcs = list(range(1, n)), []
    if planted:
        label = [0] + [int(x) for x in rng.permutation(n - 1) + 1]
        root_kids = {1 << j for j in range(n.bit_length() - 1)}
        pool = sorted(label[i] for i in range(1, n) if i not in root_kids)
        arcs = [(label[i & (i - 1)], label[i]) for i in range(1, n) if i & (i - 1)]
    ins = {int(v) for v in rng.choice(np.array(pool), size=k, replace=False)} if k else set()
    m = n - 1
    coins = rng.integers(0, 2, size=m * (m - 1) // 2).tolist()
    out = [0] * n
    for (u, v), coin in zip(itertools.combinations(range(1, n), 2), coins):
        w, l = (u, v) if coin else (v, u)
        out[w] |= 1 << l
    for w, l in arcs:
        out[w] |= 1 << l
        out[l] &= ~(1 << w)
    for v in range(1, n):
        if v in ins:
            out[v] |= 1
        else:
            out[0] |= 1 << v
    return tuple(out)


def _reference_cases(planted: bool):
    for n in (1, 2, 4, 8, 16, 32, 64, 128, 256):
        top = n - n.bit_length() if planted else n - 1
        for i, k in enumerate(sorted({0, min(2, top), top})):
            yield n, k, 97 * n + i


@pytest.mark.parametrize("nks", _reference_cases(False), ids=_nks_id)
def test_gen_random_matches_cell_reference(nks):
    assert gen_random(*nks).out_masks == _reference_masks(*nks, planted=False)


@pytest.mark.parametrize("nks", _reference_cases(True), ids=_nks_id)
def test_gen_planted_matches_cell_reference(nks):
    t, s = gen_planted_yes(*nks)
    assert t.out_masks == _reference_masks(*nks, planted=True)


@pytest.mark.parametrize("n", [1, 2, 4, 64, 2048])
def test_planted_witness_is_folded_tree(n):
    # the planted tree over the generator's first draw, folded by lba_to_seeding
    rng = np.random.default_rng(n)
    label = [0] + [int(x) for x in rng.permutation(n - 1) + 1]
    planted = Lba(root=0, parent={label[i]: label[i & (i - 1)] for i in range(1, n)})
    _, s = gen_planted_yes(n, 0 if n < 4 else 1, seed=n)
    assert s == lba_to_seeding(planted)


def test_planted_round_trip_at_scale():
    t, s = gen_planted_yes(2048, 5, seed=3)
    back = parse_tournament(format_tournament(t, comments=("n=2048",)))
    assert back == t and back.k == 5
    assert champion_of(back, s.leaf_order) == 0


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
    assert niceness(t, bracket_rounds(t, fixed.leaf_order)).all_nice


def test_single_player_edge():
    t = gen_random(1, 0, seed=0)
    assert t.n == 1
    t, s = gen_planted_yes(1, 0, seed=0)
    assert s == Seeding((0,))
