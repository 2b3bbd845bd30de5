"""Timing sweep across solvers and instance sizes.

Generates seeded random (and planted) instances, times each solver through
``tfpsolve.solve``, and prints one row per (n, k, algo).  A cell that the
feasibility gate rejects prints as ``skip`` with the limit that failed.

Usage:
    python3 scripts/bench_solvers.py --reps 5 --seed 0
"""

import argparse
import time

from tfpsolve import IndegConfig, gen_planted_yes, gen_random, solve

SWEEP = [
    (8, 1), (8, 3),
    (16, 1), (16, 2), (16, 5),
    (32, 2), (32, 3),
    (64, 2), (64, 3),
]


def time_one(fn, reps):
    verdicts = []
    start = time.perf_counter()
    for _ in range(reps):
        verdicts.append(fn())
    ms = 1000 * (time.perf_counter() - start) / reps
    return ms, verdicts[-1]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=3, help="timed repetitions per cell")
    ap.add_argument("--seed", type=int, default=0, help="base instance seed")
    ap.add_argument("--multiplier", type=float, default=20.0, help="indeg iteration multiplier")
    args = ap.parse_args()

    print(f"{'n':>4} {'k':>3} {'kind':>8} {'algo':>7} {'verdict':>8} {'ms':>10}")
    for n, k in SWEEP:
        for kind in ("random", "planted"):
            if kind == "planted":
                try:
                    t, _ = gen_planted_yes(n, k, seed=args.seed)
                except ValueError:
                    continue
            else:
                t = gen_random(n, k, seed=args.seed)
            cfg = IndegConfig(rng_seed=args.seed, iteration_multiplier=args.multiplier)
            for name in ("exact", "outdeg", "indeg"):
                try:
                    ms, got = time_one(lambda: solve(t, name, cfg), args.reps)
                except ValueError as exc:  # the feasibility gate
                    print(f"{n:>4} {k:>3} {kind:>8} {name:>7} {'skip':>8} {'-':>10}  ({exc})")
                    continue
                verdict = "YES" if got is not None else "NO"
                print(f"{n:>4} {k:>3} {kind:>8} {name:>7} {verdict:>8} {ms:>10.2f}")


if __name__ == "__main__":
    main()
