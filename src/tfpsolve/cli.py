"""Command-line front end.

Subcommands: ``decide`` (YES/NO), ``solve`` (YES plus a seeding and the match
trace), ``gen`` (write a generated instance, plus a .witness sidecar when
planted), ``verify-seeding`` (replay a seeding), ``check-structure``
(niceness report and repair), ``bench`` (wall-clock table; timings are the
one output that is not reproducible byte-for-byte).  ``decide``, ``solve``
and ``bench`` call ``indeg.solve``; an instance past the limit of the solver
it routes to exits 2 with that one limit.

Exit codes: 0 the favorite can win / the command succeeded, 1 it cannot /
the seeding loses, 2 any error.  Output for a fixed file and algorithm is
byte-identical across runs.  The solvers draw nothing, so the solver
commands' ``--seed`` and ``--multiplier`` are validated for compatibility
and otherwise ignored; ``gen --seed`` still seeds the generators.
TFP_THREADS is accepted and validated for compatibility; this
implementation stays single-threaded.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
import time
from pathlib import Path
from typing import Sequence

from .core import (
    ParseError,
    Seeding,
    Tournament,
    format_tournament,
    format_trace,
    parse_tournament,
    simulate,
)
from .indeg import ALGOS, pick, solve
from .instances import gen_planted_yes, gen_random
from .oracles import niceness, repair_to_nice


def _load(path: str) -> Tournament:
    return parse_tournament(Path(path).read_bytes())


def _check_multiplier(args: argparse.Namespace) -> None:
    """``--multiplier`` is validated for compatibility; no solver reads it."""
    m = args.multiplier
    if not (math.isfinite(m) and m > 0):
        raise ValueError(f"iteration multiplier must be positive and finite, got {m}")


def _integer(token: str) -> int:
    """``int(token)`` for ASCII digits after an optional minus; int() alone
    also reads "+7", "0_7" and non-ASCII digits."""
    if not re.fullmatch("-?[0-9]+", token):
        raise ValueError(token)
    return int(token)


def _read_seeding(args: argparse.Namespace, n: int) -> Seeding:
    text = args.seeding if args.seeding is not None else Path(args.seeding_file).read_text()
    try:
        order = tuple(map(_integer, text.split()))
    except ValueError:
        raise ValueError("seeding must be whitespace-separated integers") from None
    if len(order) != n:
        raise ValueError(f"seeding lists {len(order)} players, tournament has {n}")
    return Seeding(order)


def cmd_decide(args: argparse.Namespace) -> int:
    """``decide`` and ``solve``; ``solve`` adds the seeding and its trace to a YES."""
    t = _load(args.file)
    algo = pick(t, args.algo)
    _check_multiplier(args)
    s = solve(t, algo)
    print("YES" if s is not None else "NO")
    print(f"algo: {algo} (auto)" if args.algo == "auto" else f"algo: {algo}")
    if s is None:
        return 1
    if args.command == "solve":
        print("seeding:", " ".join(map(str, s.leaf_order)))
        print(format_trace(simulate(t, s)))
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    witness = None
    if args.planted:
        t, witness = gen_planted_yes(args.n, args.k, seed=args.seed)
    else:
        t = gen_random(args.n, args.k, seed=args.seed)
    comment = (
        f"generated: n={args.n} k={args.k} seed={args.seed} "
        f"planted={'yes' if args.planted else 'no'}"
    )
    out = Path(args.out)
    out.write_text(format_tournament(t, comments=(comment,)))
    print(f"wrote {out}")
    if witness is not None:
        side = Path(str(out) + ".witness")
        side.write_text(" ".join(map(str, witness.leaf_order)) + "\n")
        print(f"wrote {side}")
    return 0


def cmd_verify_seeding(args: argparse.Namespace) -> int:
    t = _load(args.file)
    s = _read_seeding(args, t.n)
    trace = simulate(t, s)
    print("seeding:", " ".join(map(str, s.leaf_order)))
    print(format_trace(trace))
    ok = trace.champion == t.vstar
    print(f"winning: {'yes' if ok else 'no'}")
    return 0 if ok else 1


def cmd_check_structure(args: argparse.Namespace) -> int:
    t = _load(args.file)
    s = _read_seeding(args, t.n)
    trace = simulate(t, s)
    if trace.champion != t.vstar:
        print("winning: no")
        return 1
    print("winning: yes")
    rep = niceness(t, trace)
    for i, ok in enumerate(rep.per_round):
        print(f"round {i + 1}: {'nice' if ok else 'not-nice'}")
    print(f"nice: {'yes' if rep.all_nice else 'no'}")
    fixed, rewrites = repair_to_nice(t, s)
    print("repaired seeding:", " ".join(map(str, fixed.leaf_order)))
    print(f"repair rounds: {rewrites}")
    fixed_trace = simulate(t, fixed)
    print(f"repaired nice: {'yes' if niceness(t, fixed_trace).all_nice else 'no'}")
    m = min(t.k, t.num_rounds)
    standing = len(fixed_trace.survivors[m] & t.in_neighbors)
    print(f"conquerors after round {m}: {standing}")
    print(f"conqueror-elimination-check: {'pass' if standing == 0 else 'fail'}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    _check_multiplier(args)
    print(f"{'file':<28} {'algo':<7} {'n':>4} {'verdict':<7} {'ms':>9}")
    for path in args.files:
        t = _load(path)
        algo = pick(t, args.algo)
        start = time.perf_counter()
        s = solve(t, algo)
        ms = (time.perf_counter() - start) * 1e3
        verdict = "YES" if s is not None else "NO"
        print(f"{Path(path).name:<28} {algo:<7} {t.n:>4} {verdict:<7} {ms:>9.1f}")
    return 0


def _seed(text: str) -> int:
    """argparse type of every ``--seed``: numpy's generators take no negative seed."""
    if not (text.isascii() and text.isdecimal()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _add_solver_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--algo", choices=ALGOS, default="auto")
    sp.add_argument(
        "--seed", type=_seed, default=0, help="accepted for compatibility; the solvers draw nothing"
    )
    sp.add_argument(
        "--multiplier",
        type=float,
        default=1.0,
        help="accepted for compatibility; must be positive and finite, otherwise ignored",
    )


def _add_seeding_flags(sp: argparse.ArgumentParser) -> None:
    grp = sp.add_mutually_exclusive_group(required=True)
    grp.add_argument("--seeding", help="leaf order as a quoted list of players")
    grp.add_argument("--seeding-file", help="file holding the leaf order (e.g. a .witness)")


@functools.cache  # parse_args leaves the parser as it found it
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tfpsolve",
        description="Decide and construct single-elimination seedings that crown a chosen favorite.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decide", help="print YES/NO for the favorite")
    d.add_argument("file")
    _add_solver_flags(d)
    d.set_defaults(func=cmd_decide)

    s = sub.add_parser("solve", help="decide and print a winning seeding with its trace")
    s.add_argument("file")
    _add_solver_flags(s)
    s.set_defaults(func=cmd_decide)

    g = sub.add_parser("gen", help="generate an instance file")
    g.add_argument("out")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--seed", type=_seed, default=0)
    g.add_argument("--planted", action="store_true", help="guarantee YES and emit a .witness")
    g.set_defaults(func=cmd_gen)

    v = sub.add_parser("verify-seeding", help="replay a seeding and report the champion")
    v.add_argument("file")
    _add_seeding_flags(v)
    v.set_defaults(func=cmd_verify_seeding)

    c = sub.add_parser("check-structure", help="niceness report and repair for a winning seeding")
    c.add_argument("file")
    _add_seeding_flags(c)
    c.set_defaults(func=cmd_check_structure)

    b = sub.add_parser("bench", help="time the chosen algorithm on instance files")
    b.add_argument("files", nargs="+")
    _add_solver_flags(b)
    b.set_defaults(func=cmd_bench)

    return p


def main(argv: Sequence[str] | None = None) -> int:
    threads = os.environ.get("TFP_THREADS")
    if threads is not None:
        try:
            if int(threads) < 1:
                raise ValueError
        except ValueError:
            print("error: TFP_THREADS must be a positive integer", file=sys.stderr)
            return 2
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValueError, OSError, AssertionError, MemoryError) as exc:
        # a bare MemoryError carries no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
