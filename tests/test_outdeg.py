from conftest import tournaments
from hypothesis import given, settings

import tfpsolve.indeg
from tfpsolve import Tournament, brute_force_decide, champion_of, solve


def test_reference_yes(t4_yes):
    s = solve(t4_yes, "outdeg")
    assert s is not None and champion_of(t4_yes, s.leaf_order) == 0


def test_reference_no_short_circuits(t4_no, monkeypatch):
    # ell = 1 < 2 rounds: the degree certificate answers without touching
    # the exact solver
    def exact_forbidden(t):
        raise AssertionError("exact search ran")

    monkeypatch.setattr(tfpsolve.indeg, "solve_exact", exact_forbidden)
    for algo in ("auto", "exact", "outdeg", "indeg"):
        assert solve(t4_no, algo) is None


def test_degree_test_scales_past_exact_cap():
    # favorite beats exactly one player out of 64: immediate NO
    n = 64
    out = [0] * n
    out[0] = 1 << 1
    for v in range(2, n):
        out[v] |= 1
    for u in range(1, n):
        for v in range(u + 1, n):
            out[u] |= 1 << v
    t = Tournament(n=n, vstar=0, out_masks=tuple(out))
    assert t.ell == 1
    for algo in ("auto", "exact", "outdeg", "indeg"):
        assert solve(t, algo) is None


@settings(max_examples=80)
@given(tournaments(max_rounds=2))
def test_agrees_with_brute_force(t):
    s = solve(t, "outdeg")
    expect = brute_force_decide(t)
    assert (s is None) == (expect is None)
    if s is not None:
        assert champion_of(t, s.leaf_order) == t.vstar
