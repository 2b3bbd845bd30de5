import argparse
import collections
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from arborescence import Lba, bracket_lba, is_lba, lba_to_seeding, merge_lbas
from conftest import T4_NO_TEXT, T4_YES_TEXT, tournaments
from hypothesis import given, settings
from test_embed import renamed, undefeated_conqueror

import tfpsolve
from tfpsolve import (
    Seeding,
    Tournament,
    bracket_rounds,
    brute_force_decide,
    brute_force_wwf,
    champion_of,
    complete_wwf,
    find_wwf,
    gen_planted_yes,
    gen_random,
    is_wwf,
    parse_tournament,
    pick,
    solve,
    solve_exact,
)
from tfpsolve.cli import _check_multiplier
from tfpsolve.core import _in_mask, _packed, _strip
from tfpsolve.embed import _split_levels, _winners_table
from tfpsolve.indeg import _apart, _depth_profile_holds, _find, _solve_played


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


def _orient(a: np.ndarray, winner: int, loser: int) -> None:
    a[winner, loser], a[loser, winner] = True, False


def biased(n: int, k: int, seed: int) -> Tournament:
    """``gen_random`` with each conqueror beating each outsider with one
    probability drawn from [0.75, 1]: NOs that no degree bound certifies."""
    t = gen_random(n, k, seed=seed)
    a = _strip(_packed(t.out_masks, n), 0, n)
    rng = np.random.default_rng(seed)
    outsiders = sorted(t.out_neighbors)
    for c in sorted(t.in_neighbors):
        for o, win in zip(outsiders, rng.random(len(outsiders)) < rng.uniform(0.75, 1)):
            _orient(a, *((c, o) if win else (o, c)))
    return Tournament.from_matrix(a, t.vstar)


def gadget(n: int, k: int, seed: int, head: int = 0) -> Tournament:
    """NO for k >= 2 that neither degree nor reachability certifies.

    Every conqueror beats every outsider, except that one out-neighbor w of
    the favorite beats the chain's first conqueror and nobody else.  The
    conquerors form a chain from there, so conqueror i is i arcs below w,
    deeper than a bracket tree on 2**k players reaches.  ``head`` rotates
    the ascending conquerors to pick the one w beats.
    """
    t = gen_random(n, k, seed=seed)
    a = _strip(_packed(t.out_masks, n), 0, n)
    ins = sorted(t.in_neighbors)
    chain = ins[head:] + ins[:head]
    w = random.Random(seed).choice(sorted(t.out_neighbors))
    for c in chain:
        for o in t.out_neighbors:
            _orient(a, c, o)
    for c, d in zip(chain, chain[1:]):
        _orient(a, c, d)
    for o in t.players:
        if o != w:
            _orient(a, o, w)
    _orient(a, w, chain[0])
    return Tournament.from_matrix(a, t.vstar)


def sample(i: int, n: int = 16) -> Tournament:
    """Instance i of the forest-search suites: k alternates 1, 2; every third
    is a gadget, the rest biased."""
    k = 1 + i % 2
    return gadget(n, k, seed=i, head=i // 3 % 2) if i % 3 == 0 else biased(n, k, seed=i)


def brute_find(t: Tournament, W: tuple[int, ...], X: int) -> bool:
    """Reference for ``_find``: some bracket tree r -> x (k = 1) or
    r -> a, r -> b -> c (k = 2) on players outside ``X``, rooted outside the
    favorite's in-set, with the favorite only as its root and ``W`` among its
    non-roots."""
    free = [v for v in t.players if not X >> v & 1]
    for tup in itertools.permutations(free, 1 << t.k):
        r, kids = tup[0], tup[1:]
        if r in t.in_neighbors or t.vstar in kids or not set(W) <= set(kids):
            continue
        arcs = [(r, kids[0])] if t.k == 1 else [(r, kids[0]), (r, kids[1]), (kids[1], kids[2])]
        if all(t.beats(p, x) for p, x in arcs):
            return True
    return False


class TestTreeSearch:
    """The bracket tree ``_find`` looks for (the pattern) and the arcs it may
    use (the host: every arc of the tournament except those into the favorite)."""

    def test_pattern_k1(self):
        yes = 0
        for i in range(0, 40, 2):  # k = 1
            t = sample(i)
            w = find_wwf(t)
            if w is not None:
                (u,) = t.in_neighbors
                ((r, x),) = w
                assert x == u and t.beats(r, u), i
                yes += 1
        assert 0 < yes < 20

    def test_pattern_k2(self):
        yes = 0
        for i in range(1, 40, 2):  # k = 2
            t = sample(i)
            w = find_wwf(t)
            if w is None:
                continue
            yes += 1
            # one tree holds both conquerors
            assert len(w) == 1, i
            # r -> a and r -> b -> c, played as the leaf order (r, a, b, c)
            ((r, a, b, c),) = w
            assert len({r, a, b, c}) == 4 and t.in_neighbors <= {a, b, c}, i
            assert t.beats(r, a) and t.beats(b, c) and t.beats(r, b), i
        assert 0 < yes < 20

    def test_pattern_rejects_k0(self):
        for n in (4, 32):
            with pytest.raises(ValueError, match="1 <= k <= 2"):
                find_wwf(gen_random(n, 0, seed=1))

    def test_host_reference(self, t4_yes):
        assert tuple(_in_mask(t4_yes.out_masks, v) for v in t4_yes.players) == (4, 1, 10, 3)
        # conqueror 2 is beaten by 1 and 3, both outside the in-set {2}
        assert _find(t4_yes) == (1, 2) and brute_find(t4_yes, (2,), 0)
        # 2 beats 1 as well: only 3 is left to beat it
        t = Tournament(n=4, vstar=0, out_masks=(0b1010, 0b1000, 0b0011, 0b0100))
        assert _find(t) == (3, 2) and brute_find(t, (2,), 0)
        # 2 beats 3 too: nobody outside the in-set beats it
        t = Tournament(n=4, vstar=0, out_masks=(0b1010, 0b1000, 0b1011, 0b0000))
        assert _find(t) is None and not brute_find(t, (2,), 0)

    @pytest.mark.parametrize(
        "xs, ys, expect",
        [
            (0b001, 0b011, (0, 1)),  # xs holds only y's first pick: x takes it, y moves on
            (0b110, 0b010, (2, 1)),
            (0b010, 0b010, None),  # one player for both
            (0, 0b1, None),
        ],
    )
    def test_apart(self, xs, ys, expect):
        assert _apart(xs, ys) == expect

    def test_unbeaten_conqueror_has_no_tree(self):
        # a conqueror that beats everyone has no parent in any placement, so
        # every call misses, with or without the other conqueror in W
        for seed in range(2):
            t = gen_random(8, 2, seed=seed)
            a = _strip(_packed(t.out_masks, 8), 0, 8)
            us = sorted(t.in_neighbors)
            c = us[seed % 2]
            for v in t.players:
                if v != c:
                    _orient(a, c, v)
            t = Tournament.from_matrix(a, t.vstar)
            assert _find(t) is None and not brute_find(t, tuple(us), 0), seed

    def test_host_drops_only_arcs_into_favorite(self):
        found = missed = 0
        for i in range(120):
            k = 1 + i % 2
            t = gen_random(8, k, seed=i) if i % 4 < 2 else biased(8, k, seed=i)
            us = tuple(sorted(t.in_neighbors))
            got = _find(t)
            assert (got is not None) == brute_find(t, us, 0), i
            if got is None:
                missed += 1
                continue
            found += 1
            tree = bracket_lba(t, got)
            assert tree.root == got[0] and is_lba(t, tree) and tree.size == 1 << k, i
            assert t.vstar not in tree.parent and set(us) <= tree.parent.keys(), i
            assert tree.root not in t.in_neighbors, i
        assert 20 < found and 20 < missed


class TestDeterministicSolve:
    """``solve(t, "indeg")`` draws no random numbers, so an answer is a
    function of the instance, and it answers k = 0 without the forest search."""

    def test_draws_no_random_numbers(self, monkeypatch):
        ts = [sample(i, 32) for i in range(8)]
        before = [solve(t, "indeg") for t in ts]
        assert None in before and any(s is not None for s in before)

        def draw(*args, **kwargs):
            raise AssertionError("the solver drew a random number")

        for name in ("default_rng", "random", "integers", "permutation", "shuffle"):
            if hasattr(np.random, name):
                monkeypatch.setattr(np.random, name, draw)
        for name in ("random", "randrange", "randint", "choice", "shuffle", "sample"):
            monkeypatch.setattr(random, name, draw)
        assert [solve(t, "indeg") for t in ts] == before

    def test_rejects_k0(self, monkeypatch):
        # k = 0 never reaches the forest search
        def search(t):
            raise AssertionError("k = 0 reached the forest search")

        monkeypatch.setattr(tfpsolve.indeg, "find_wwf", search)
        t = gen_random(16, 0, seed=1)
        assert solve(t, "indeg") == Seeding(tuple(range(16)))


class TestMultiplierFlag:
    """``--multiplier`` is validated, although no solver reads it."""

    @pytest.mark.parametrize("m", [0.0, -5.0, math.nan, math.inf, -math.inf])
    def test_rejects_multiplier_not_positive_and_finite(self, m):
        with pytest.raises(ValueError, match="positive and finite"):
            _check_multiplier(argparse.Namespace(multiplier=m))
        _check_multiplier(argparse.Namespace(multiplier=20.0))


class TestFindWwf:
    def test_reference_forest(self, t4_yes):
        w = find_wwf(t4_yes)
        assert w == ((1, 2),) and is_wwf(t4_yes, w)
        assert bracket_lba(t4_yes, w[0]) == Lba(root=1, parent={2: 1})

    def test_agrees_with_oracles(self):
        nos = split = 0
        for i in range(60):
            t = sample(i)
            w = find_wwf(t)
            expect = brute_force_wwf(t)
            assert (w is None) == (expect is None) == (solve_exact(t) is None), i
            if w is not None:
                assert is_wwf(t, w), i
                # the oracle's forest may split the conquerors across two
                # trees, the premise of the lemma in find_wwf's docstring
                split += not any(t.in_neighbors <= set(tree) for tree in expect)
            nos += w is None
        assert 10 < nos < 50  # both outcomes exercised
        assert split > 0

    def test_k2_needs_one_call(self, monkeypatch):
        calls = []
        find = tfpsolve.indeg._find

        def counted(*args):
            calls.append(args)
            return find(*args)

        monkeypatch.setattr(tfpsolve.indeg, "_find", counted)
        for i in range(1, 400, 2):  # k = 2
            for n in (16, 32):
                t = sample(i, n)
                calls.clear()
                find_wwf(t)
                assert calls == [(t,)], (i, n)

    def test_one_find_call_decides(self, monkeypatch):
        # one _find call decides k = 1 and k = 2, and its tree is the forest
        calls = []
        find = tfpsolve.indeg._find

        def counted(*args):
            calls.append(find(*args))
            return calls[-1]

        monkeypatch.setattr(tfpsolve.indeg, "_find", counted)
        yes = 0
        for i in range(40):
            t = sample(i, 32)
            calls.clear()
            w = find_wwf(t)
            assert len(calls) == 1, i
            assert w == (None if calls[0] is None else (calls[0],)), i
            yes += w is not None
        assert 0 < yes < 40

    @pytest.mark.parametrize("n", [32, 128, 1024])
    def test_gadget_no_is_exact(self, n):
        for head in (0, 1):
            t = gadget(n, 2, seed=n, head=head)
            assert t.ell >= t.num_rounds and pick(t) == "indeg"
            assert solve(t, "indeg") is None

    def test_dominating_conquerors_are_an_exact_no(self):
        # an exact NO, the same as the exact solver's
        assert find_wwf(dominating_conquerors(16)) is None
        assert solve_exact(dominating_conquerors(16)) is None

    def test_rejects_wrong_regime(self, t4_no):
        with pytest.raises(ValueError):
            find_wwf(t4_no)  # k * 2**k = 8 >= 4
        with pytest.raises(ValueError):
            find_wwf(gen_random(32, 3, seed=0))  # k = 3

    def test_one_tree_decides_k3_at_n16(self):
        # At n=16 the 8 players outside a tree that holds every conqueror
        # hold none, so such a tree with an allowed winner crowns the
        # favorite.  The converse is the k=3 one-tree lemma, on this size.
        eights = np.concatenate([sets for _, sets in _split_levels(16)[1]])  # all 12870
        verdicts = set()
        for seed in range(100):
            for t in (biased(16, 3, seed), gadget(16, 3, seed), gen_random(16, 3, seed=seed)):
                ins, fav = _in_mask(t.out_masks, t.vstar), 1 << t.vstar
                sets = eights[eights & ins == ins]
                # the favorite inside a tree must be its root; else any non-conqueror
                allowed = np.where(sets & fav, fav, ~ins)
                one_tree = bool((_winners_table(t.out_masks)[sets] & allowed).any())
                assert (solve_exact(t) is not None) == one_tree, seed
                verdicts.add(one_tree)
        assert verdicts == {False, True}


def merge_chain(t: Tournament, forest: list[Lba]) -> Seeding:
    """Reference for ``complete_wwf``: bracket the leftover players in
    ascending blocks, merge the trees pairwise by playing root against root,
    and fold the spanning tree into a seeding."""
    size = 1 << t.k
    covered = set().union(*(tree.vertices for tree in forest))
    rest = sorted(set(t.players) - covered)
    trees = list(forest)
    trees += [bracket_lba(t, rest[lo : lo + size]) for lo in range(0, len(rest), size)]
    while len(trees) > 1:
        trees = [merge_lbas(t, a, b) for a, b in zip(trees[::2], trees[1::2])]
    return lba_to_seeding(trees[0])


class TestCompleteWwf:
    def test_reference_completion(self, t4_yes):
        assert complete_wwf(t4_yes, [(1, 2)]) == Seeding((0, 3, 1, 2))

    @pytest.mark.parametrize("n", [8, 32, 128, 512])
    def test_matches_merge_chain(self, n):
        checked = 0
        for k in (0, 1, 2):
            if k << k >= n:
                continue
            for seed in range(3):
                t, _ = gen_planted_yes(n, k, seed=n + 10 * k + seed)
                w = () if k == 0 else find_wwf(t)
                assert w is not None, (k, seed)
                forest = [bracket_lba(t, order) for order in w]
                assert complete_wwf(t, w) == merge_chain(t, forest), (k, seed)
                checked += 1
        assert checked == (6 if n == 8 else 9)

    def test_rejects_forest_rooted_in_conqueror(self, t4_yes):
        bad = [(2, 1)]  # 2 beats 0
        with pytest.raises(AssertionError):
            complete_wwf(t4_yes, bad)

    @pytest.mark.parametrize(
        ("trees", "message"),
        [
            ([(3, 1)], "a witness tree does not crown its root"),  # 1 beats 3
            ([], "the witness trees miss a player that beats the favorite"),
        ],
    )
    def test_rejects_forest_that_is_no_witness(self, t4_yes, trees, message):
        with pytest.raises(AssertionError, match=f"^{message}$"):
            complete_wwf(t4_yes, trees)

    @pytest.mark.parametrize("bad", [4, -1])
    @pytest.mark.parametrize("where", ["root", "leaf"])
    def test_rejects_unknown_player(self, t4_yes, bad, where):
        # checked before any shift: n as a root used to index past the rows,
        # -1 to shift by a negative count, and n as a leaf to fail the crown check
        trees = [(bad, 2) if where == "root" else (1, bad)]
        with pytest.raises(ValueError, match=f"^witness trees name player {bad}, not one of the 4 players$"):
            complete_wwf(t4_yes, trees)
        assert not is_wwf(t4_yes, trees)

    def test_guard_survives_optimize_flag(self):
        # the forest guards raise explicitly, so `python -O` keeps them
        script = (
            "from tfpsolve import Seeding, complete_wwf, extract_local_lba\n"
            "from tfpsolve import gen_random, parse_tournament\n"
            f"t = parse_tournament({T4_YES_TEXT!r})\n"
            "for trees in [((1, 2), (3, 2)), ((1, 2, 3),), ((2, 1),), ((1, 2), (3, 0))]:\n"
            "    try:\n"
            "        complete_wwf(t, trees)\n"
            "    except AssertionError as exc:\n"
            "        print(exc)\n"
            "t = gen_random(8, 1, seed=0)\n"
            "try:\n"
            "    extract_local_lba(t, Seeding(tuple(range(8))), 6)\n"
            "except AssertionError as exc:\n"
            "    print(exc)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(tfpsolve.__file__).parents[1])}
        run = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout == (
            "witness trees overlap\n"
            "witness trees have a wrong size\n"
            "a merge root fell inside the favorite's in-set\n"
            "the favorite must root exactly one tree\n"
            "carving from a non-nice bracket\n"
        )

    def test_empty_forest_spans_k0_instance(self):
        t = gen_random(8, 0, seed=3)
        s = complete_wwf(t, ())
        full = bracket_lba(t, s.leaf_order)
        assert full.root == 0 and full.vertices == set(range(8)) and is_lba(t, full)
        assert lba_to_seeding(full) == s


class TestSolveIndeg:
    def test_k0_returns_identity(self):
        t = gen_random(8, 0, seed=1)
        assert solve(t, "indeg") == Seeding(tuple(range(8)))

    def test_small_parameter_routes_to_exact(self, t4_no):
        assert solve(t4_no, "indeg") is None

    def test_exact_route_respects_cap(self):
        t = dominating_conquerors(32)
        # k = 2, 2 * 4 = 8 < 32: the forest search, not the capped exact
        # solver, answers NO
        assert solve(t, "indeg") is None

    def test_planted_instances_solved_and_verified(self):
        for seed in range(5):
            t, _ = gen_planted_yes(32, 2, seed=seed)
            s = solve(t, "indeg")
            assert s is not None and champion_of(t, s.leaf_order) == 0

    def test_reference_instances(self, t4_yes, t4_no):
        s = solve(t4_yes, "indeg")
        assert s is not None and champion_of(t4_yes, s.leaf_order) == 0
        assert solve(t4_no, "indeg") is None

    @settings(max_examples=50, deadline=None)
    @given(tournaments(max_rounds=2))
    def test_agrees_with_brute_force(self, t):
        got = solve(t, "indeg")
        expect = brute_force_decide(t)
        assert (got is None) == (expect is None)
        if got is not None:
            assert champion_of(t, got.leaf_order) == t.vstar


EXACT = ("auto", "exact", "outdeg")  # the algos routed as `exact` at n <= 16
PROFILE_EXACT = ("_depth_profile_holds", "solve_exact")
FOREST = ("find_wwf", "complete_wwf")
BRUTE_CAP = "seeding enumeration is capped at 8 players, got n=16"
EXACT_CAP = "exact solver is capped at 16 players, got n=32"
FOREST_K = "the witness-forest search covers k <= 2, got k=3"

# one row per (instance, algo): the label, the solvers called and the answer
ROUTES = [
    *[
        (n, a, "exact" if a == "auto" else a, PROFILE_EXACT, "YES")
        for n in ("n1", "n2-win")
        for a in EXACT
    ],
    *[(n, "brute", "brute", ("brute_force_decide",), "YES") for n in ("n1", "n2-win")],
    *[(n, "indeg", "indeg", (), "YES") for n in ("n1", "n2-win")],  # k = 0
    *[("n2-lose", a, "outdeg" if a == "auto" else a, (), "NO") for a in (*EXACT, "indeg")],
    ("n2-lose", "brute", "brute", ("brute_force_decide",), "NO"),
    ("t4-yes", "auto", "exact", PROFILE_EXACT, "YES"),
    ("t4-yes", "brute", "brute", ("brute_force_decide",), "YES"),
    ("t4-yes", "exact", "exact", PROFILE_EXACT, "YES"),
    ("t4-yes", "outdeg", "outdeg", PROFILE_EXACT, "YES"),
    ("t4-yes", "indeg", "indeg", FOREST, "YES"),
    *[("t4-no", a, "outdeg" if a == "auto" else a, (), "NO") for a in (*EXACT, "indeg")],
    ("t4-no", "brute", "brute", ("brute_force_decide",), "NO"),
    *[(f"n16-k{k}", a, "exact", PROFILE_EXACT, "YES") for k in (1, 2, 5) for a in EXACT[:2]],
    ("n16-k1", "indeg", "indeg", FOREST, "YES"),
    ("n16-k2", "indeg", "indeg", FOREST, "YES"),
    ("n16-k5", "indeg", "indeg", PROFILE_EXACT, "YES"),  # 5 * 2**5 >= 16
    *[(f"n16-k{k}", "brute", "brute", ("brute_force_decide",), BRUTE_CAP) for k in (1, 2, 5)],
    *[(f"n32-k{k}", "exact", "exact", ("solve_exact",), EXACT_CAP) for k in range(5)],
    *[(f"n32-k{k}", a, "indeg", FOREST, "YES") for k in (1, 2) for a in ("auto", "indeg")],
    *[("n32-k0", a, "indeg", (), "YES") for a in ("auto", "indeg")],
    *[("n32-k3", a, "indeg", ("find_wwf",), FOREST_K) for a in ("auto", "indeg")],
    *[("n32-k4", a, "indeg", ("solve_exact",), EXACT_CAP) for a in ("auto", "indeg")],  # 64 >= 32
    *[("n32-degree", a, "outdeg" if a == "auto" else a, (), "NO") for a in (*EXACT[:2], "indeg")],
]


def route_instance(name: str) -> Tournament:
    """The instances of ``test_routing_table``: the smallest brackets, the
    reference pair, and ``gen_random`` files at n = 16 and 32 by k."""
    fixed = {
        "n1": Tournament(n=1, vstar=0, out_masks=(0,)),
        "n2-win": Tournament(n=2, vstar=0, out_masks=(0b10, 0)),
        "n2-lose": Tournament(n=2, vstar=0, out_masks=(0, 0b01)),
        "t4-yes": parse_tournament(T4_YES_TEXT),
        "t4-no": parse_tournament(T4_NO_TEXT),
        "n32-degree": gen_random(32, 28, seed=0),  # ell = 3 < 5 rounds
    }
    if name in fixed:
        return fixed[name]
    n, k = (int(part[1:]) for part in name.split("-"))
    return gen_random(n, k, seed=0)


def test_readme_lists_the_routing_table():
    """The README's routing table has the rows of ``_plan``'s."""

    def table(text: str) -> list[str]:
        lines = [line.strip() for line in text.splitlines()]
        start = lines.index("| `--algo` | when | label | answer |")
        end = start
        while end < len(lines) and lines[end].startswith("|"):
            end += 1
        return lines[start:end]

    rows = table(tfpsolve.indeg._plan.__doc__)
    readme = Path(__file__).parents[1] / "README.md"
    assert len(rows) > 5 and table(readme.read_text()) == rows


class TestSolveGate:
    def test_pick_resolves_auto(self, t4_yes, t4_no):
        assert pick(t4_no) == "outdeg"  # ell = 1 < 2 rounds
        assert pick(t4_yes) == "exact"
        assert pick(gen_random(32, 3, seed=0)) == "indeg"
        assert pick(t4_yes, "brute") == "brute"
        with pytest.raises(ValueError, match="unknown algorithm"):
            pick(t4_yes, "fast")

    def test_gate_names_the_forest_limit(self):
        # k = 3 with 3 * 8 < 32 is past the search and below no exact cap
        with pytest.raises(ValueError, match=r"^the witness-forest search covers k <= 2, got k=3$"):
            solve(gen_random(32, 3, seed=0), "auto")

    @pytest.mark.parametrize(
        "n, k, algo, limit",
        [
            (32, 4, "auto", r"^exact solver is capped at 16 players, got n=32$"),
            (32, 3, "auto", r"^the witness-forest search covers k <= 2, got k=3$"),
            (16, 2, "brute", r"^seeding enumeration is capped at 8 players, got n=16$"),
        ],
        ids=["exact-n32", "forest-k3", "brute-n16"],
    )
    def test_every_limit_fires_before_any_work(self, monkeypatch, n, k, algo, limit):
        def work(*args):
            raise AssertionError("a solver started work past its limit")

        monkeypatch.setattr(tfpsolve.embed, "_winners_table", work)
        monkeypatch.setattr(tfpsolve.indeg, "_find", work)
        monkeypatch.setattr(tfpsolve.oracles, "champion_of", work)
        with pytest.raises(ValueError, match=limit):
            solve(gen_random(n, k, seed=0), algo)

    @pytest.mark.parametrize(
        "instance, algo, label, solvers, answer", ROUTES, ids=[f"{r[0]}-{r[1]}" for r in ROUTES]
    )
    def test_routing_table(self, monkeypatch, instance, algo, label, solvers, answer):
        """Each row of ``_plan``'s table, over (n, k, ell, algo): the label
        ``pick`` gives, the solvers ``solve`` calls in order, and its answer
        or the limit that one of them raised."""
        ran = []

        def counted(name, fn):
            return lambda *args: ran.append(name) or fn(*args)

        for name in ("brute_force_decide", *PROFILE_EXACT, *FOREST):
            monkeypatch.setattr(tfpsolve.indeg, name, counted(name, getattr(tfpsolve.indeg, name)))
        t = route_instance(instance)
        assert pick(t, algo) == label
        try:
            got = "NO" if solve(t, algo) is None else "YES"
        except ValueError as exc:
            got = str(exc)
        assert (tuple(ran), got) == (solvers, answer)

    @pytest.mark.parametrize("algo", ["brute", "exact", "outdeg", "indeg"])
    def test_every_yes_is_simulated(self, t4_yes, monkeypatch, algo):
        import tfpsolve.indeg

        losing = Seeding((0, 2, 1, 3))
        assert champion_of(t4_yes, losing.leaf_order) != 0
        monkeypatch.setattr(tfpsolve.indeg, "solve_exact", lambda t: losing)
        monkeypatch.setattr(tfpsolve.indeg, "complete_wwf", lambda t, trees: losing)
        monkeypatch.setattr(tfpsolve.indeg, "brute_force_decide", lambda t: losing)
        with pytest.raises(AssertionError, match="does not crown the favorite"):
            solve(t4_yes, algo)


def test_solve_keeps_the_seeding_of_its_one_play():
    """``_solve_played`` returns ``pick``'s label and ``solve``'s seeding with
    the rounds that ``bracket_rounds`` plays over it, on the exact, brute and
    forest routes."""
    cases = [t for _, t in profile_corpus(60)]
    cases += [gen_planted_yes(n, k, seed=n + k)[0] for n in (32, 64, 128) for k in (1, 2)]
    yes = 0
    for t in cases:
        for algo in ("auto", "indeg") + (("brute",) if t.n <= 8 else ()):
            label, played = _solve_played(t, algo)
            assert label == pick(t, algo)
            assert (played and played[0]) == solve(t, algo)
            if played is not None:
                seeding, rounds = played
                assert rounds == bracket_rounds(t, seeding.leaf_order)
                assert (rounds[-1][0][0] if rounds else seeding.leaf_order[0]) == t.vstar
                yes += 1
    assert yes > 50


def profile_corpus(count: int):
    """(family, instance) pairs at n in {2, 4, 8, 16}, the families in turn,
    each instance with its players renamed at random so that the favorite
    sits anywhere."""
    rng = random.Random(26)
    families = ("random", "planted", "biased", "gadget", "conqueror")
    for i in range(count):
        n = (2, 4, 8, 16)[i % 4]
        family = families[i // 4 % len(families)]
        if family == "random" or family == "gadget" and n == 2:  # a gadget needs k <= n - 2
            t = gen_random(n, rng.randrange(n), seed=i)
        elif family == "planted":
            t = gen_planted_yes(n, rng.randrange(n - n.bit_length() + 1), seed=i)[0]
        elif family == "biased":
            t = biased(n, rng.randrange(1, n), seed=i)
        elif family == "gadget":
            t = gadget(n, rng.randrange(1, n - 1), seed=i, head=i % 2)
        else:
            t = undefeated_conqueror(n, rng.randrange(1, n), seed=i)
        yield family, renamed(t, rng.sample(range(n), n))


class TestDepthProfile:
    """The certificate ahead of the exact table: a bracket the favorite wins
    puts at least C(m, 0) + ... + C(m, d) players within d arcs of it."""

    def test_every_profile_no_is_an_exact_no(self):
        fired, past_degree, seen = (collections.Counter() for _ in range(3))
        for i, (family, t) in enumerate(profile_corpus(1500)):
            seen[family] += 1
            if not _depth_profile_holds(t):
                assert solve_exact(t) is None, (i, family)
                fired[family] += 1
                past_degree[family] += t.ell >= t.num_rounds
        assert "planted" not in fired
        # nobody reaches a conqueror that beats everyone
        assert fired["conqueror"] == seen["conqueror"]
        assert min(past_degree[f] for f in ("random", "biased", "gadget", "conqueror")) > 0

    @pytest.mark.parametrize("n", [32, 64, 128, 256])
    def test_never_fires_on_planted_yes(self, n):
        rng = random.Random(n)
        for seed in range(25):
            t, _ = gen_planted_yes(n, rng.randrange(n - n.bit_length() + 1), seed=seed)
            assert _depth_profile_holds(t), seed

    @pytest.mark.parametrize("algo", ["auto", "exact", "outdeg", "indeg"])
    def test_conqueror_no_skips_the_table(self, monkeypatch, algo):
        def table(t):
            raise AssertionError("the exact table ran on a NO the profile certifies")

        monkeypatch.setattr(tfpsolve.indeg, "solve_exact", table)
        for seed in range(18):
            t = undefeated_conqueror(16, 3 + seed % 9, seed=seed)  # k*2**k >= 16, k <= 11
            assert t.ell >= t.num_rounds
            assert solve(t, algo) is None, seed

    @pytest.mark.parametrize("seed, certified", [(40, False), (364, False), (3, True)])
    def test_biased_no(self, monkeypatch, seed, certified):
        calls = []
        table = tfpsolve.indeg.solve_exact
        monkeypatch.setattr(tfpsolve.indeg, "solve_exact", lambda t: calls.append(t) or table(t))
        t = biased(16, 5, seed=seed)
        assert t.ell >= t.num_rounds and _depth_profile_holds(t) is not certified
        assert solve(t) is None
        assert calls == ([] if certified else [t])

    def test_brute_runs_unfiltered(self, monkeypatch):
        def profile(t):
            raise AssertionError("the depth profile ran ahead of the brute oracle")

        calls = []
        monkeypatch.setattr(tfpsolve.indeg, "_depth_profile_holds", profile)
        monkeypatch.setattr(
            tfpsolve.indeg, "brute_force_decide", lambda t: calls.append(t) or brute_force_decide(t)
        )
        t = undefeated_conqueror(8, 2, seed=0)
        assert solve(t, "brute") is None and calls == [t]

    def test_past_the_cap_the_table_limit_fires(self, monkeypatch):
        def profile(t):
            raise AssertionError("the depth profile ran past the exact cap")

        monkeypatch.setattr(tfpsolve.indeg, "_depth_profile_holds", profile)
        with pytest.raises(ValueError, match=r"^exact solver is capped at 16 players, got n=32$"):
            solve(undefeated_conqueror(32, 4, seed=0))
