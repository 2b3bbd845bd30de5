"""End-to-end suite: one test per release criterion, one PASS line each.

Every test prints ``criterion <n> (<label>): PASS`` on success so a plain
``pytest -s tests/test_acceptance.py`` reads as a checklist.  Budgets are
wall-clock and asserted, not advisory.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from arborescence import bracket_lba, is_lba, lba_to_seeding
from conftest import tournament_from_bits

import tfpsolve
from tfpsolve import (
    brute_force_decide,
    brute_force_wwf,
    champion_of,
    complete_wwf,
    extract_local_lba,
    format_tournament,
    gen_planted_yes,
    gen_random,
    niceness,
    repair_to_nice,
    simulate,
    solve,
    solve_exact,
)


def _report(num: int, label: str, elapsed: float | None = None, budget: float | None = None) -> None:
    note = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"criterion {num} ({label}): PASS{note}")
    if budget is not None:
        assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s, budget {budget}s"


@pytest.fixture(scope="session")
def n8_pool():
    """1000 seeded n=8 tournaments with their exact witnesses, timed once."""
    start = time.perf_counter()
    pool = []
    for i in range(1000):
        t = gen_random(8, i % 8, seed=20000 + i)
        pool.append((t, solve_exact(t)))
    return pool, time.perf_counter() - start


def test_criterion_1_exhaustive_n4():
    start = time.perf_counter()
    for code in range(64):
        bits = tuple((code >> b) & 1 for b in range(6))
        t = tournament_from_bits(4, 0, bits)
        expected = brute_force_decide(t) is not None
        s = solve_exact(t)
        assert (s is not None) == expected
        if s is not None:
            assert champion_of(t, s.leaf_order) == 0
        for algo in ("outdeg", "indeg"):
            s = solve(t, algo)
            assert (s is not None) == expected
            if s is not None:
                assert champion_of(t, s.leaf_order) == 0
    _report(1, "exhaustive n=4 exactness", time.perf_counter() - start, 5.0)


def test_criterion_2_sampled_n8(n8_pool):
    pool, build = n8_pool
    start = time.perf_counter()
    for t, s in pool:
        assert (brute_force_decide(t) is not None) == (s is not None)
        if s is not None:
            assert champion_of(t, s.leaf_order) == t.vstar
    _report(2, "sampled n=8 exactness", build + time.perf_counter() - start, 60.0)


def test_criterion_3_indeg_agreement_n16():
    start = time.perf_counter()
    for i in range(200):
        t = gen_random(16, 1 + (i % 2), seed=30000 + i)
        expected = solve_exact(t) is not None
        s = solve(t, "indeg")
        assert (s is not None) == expected
        if s is not None:
            assert champion_of(t, s.leaf_order) == t.vstar
    _report(3, "forest-search agreement n=16", time.perf_counter() - start, 300.0)


def test_criterion_4_wwf_equivalence_n16():
    start = time.perf_counter()
    for i in range(100):
        t = gen_random(16, 1 + (i % 2), seed=40000 + i)
        w = brute_force_wwf(t)
        assert (w is not None) == (solve_exact(t) is not None)
        if w is not None:
            s = complete_wwf(t, w)
            full = bracket_lba(t, s.leaf_order)
            assert full.root == t.vstar
            assert full.vertices == frozenset(t.players)
            assert is_lba(t, full)
            assert lba_to_seeding(full) == s
    _report(4, "wwf equivalence n=16", time.perf_counter() - start, 300.0)


def test_criterion_5_nice_repair_n8(n8_pool):
    pool, _ = n8_pool
    checked = 0
    for t, s in pool:
        if s is None:
            continue
        fixed, _rewrites = repair_to_nice(t, s)
        trace = simulate(t, fixed)
        assert trace.champion == t.vstar
        assert niceness(t, trace).all_nice
        cutoff = min(t.k, t.num_rounds)
        survivors = set(t.players)
        for matches in trace.rounds[:cutoff]:
            survivors -= {loser for _, loser in matches}
        assert not survivors & t.in_neighbors
        checked += 1
    assert checked > 100  # the pool must actually exercise the repair path
    _report(5, f"nice repair on {checked} n=8 yes-instances")


def test_criterion_6_local_lba_n16():
    collected = 0
    seed = 60000
    while collected < 100:
        k = 1 + (seed % 3)
        t = gen_random(16, k, seed=seed)
        seed += 1
        s = solve_exact(t)
        if s is None:
            continue
        fixed, _ = repair_to_nice(t, s)
        full = bracket_lba(t, fixed.leaf_order)
        allowed = {t.vstar} | t.out_neighbors
        for b in sorted(t.in_neighbors):
            block = extract_local_lba(t, fixed, b)
            assert len(set(block)) == len(block) == 2**k
            assert b in block
            assert block[0] in allowed
            # the block's bracket is the full bracket's arborescence cut to it
            sub = bracket_lba(t, block)
            assert sub.root == block[0] and is_lba(t, sub)
            assert sub.parent == {v: full.parent[v] for v in block[1:]}
        collected += 1
    _report(6, "local-lba extraction on 100 nice n=16 witnesses")


def test_criterion_8_planted_n64():
    start = time.perf_counter()
    for i in range(20):
        t, _witness = gen_planted_yes(64, 2, seed=80000 + i)
        s = solve(t, "indeg")
        assert s is not None
        assert champion_of(t, s.leaf_order) == t.vstar
    _report(8, "planted n=64 soundness", time.perf_counter() - start, 60.0)


def test_criterion_9_cli_determinism(tmp_path):
    t, _ = gen_planted_yes(32, 2, seed=90000)
    path = tmp_path / "det.tfp"
    path.write_text(format_tournament(t))
    cmd = [
        sys.executable, "-m", "tfpsolve", "solve", str(path),
        "--algo", "indeg", "--seed", "9", "--multiplier", "20",
    ]
    outputs = set()
    for threads in (None, "1", "4"):
        # the child imports the package under test, checkout or installed
        env = {**os.environ, "PYTHONPATH": str(Path(tfpsolve.__file__).parents[1])}
        env.pop("TFP_THREADS", None)
        if threads is not None:
            env["TFP_THREADS"] = threads
        for _ in range(2):
            proc = subprocess.run(cmd, capture_output=True, env=env)
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
    assert len(outputs) == 1
    _report(9, "byte-identical CLI output across runs and thread counts")
