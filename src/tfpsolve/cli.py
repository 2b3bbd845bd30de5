"""Command-line front end.

Subcommands: ``decide`` (YES/NO), ``solve`` (YES plus a seeding and the match
trace), ``gen`` (write a generated instance, plus a .witness sidecar when
planted), ``verify-seeding`` (replay a seeding), ``check-structure``
(niceness report and repair), ``bench`` (wall-clock table; timings are the
one output that is not reproducible byte-for-byte).  ``decide``, ``solve``
and ``bench`` route each file once through ``indeg._solve_played``, which
returns the route's label and the seeding with the rounds of the one play
that verified it: ``solve`` prints those rounds, so a solved seeding is
played once.  ``verify-seeding`` plays its seeding once too, and
``check-structure`` once plus once per repair rewrite.  An instance past
the limit of the solver it routes to exits 2 with that one limit.

Exit codes: 0 the favorite can win / the command succeeded, 1 it cannot /
the seeding loses, 2 any error.  Output for a fixed file and algorithm is
byte-identical across runs.  The solvers draw nothing, so the solver
commands' ``--seed`` and ``--multiplier`` are validated for compatibility
and otherwise ignored; ``gen --seed`` still seeds the generators.
TFP_THREADS is accepted and validated for compatibility (ASCII digits, at
least 1); this implementation stays single-threaded.
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
    _winner,
    bracket_rounds,
    format_trace,
    parse_tournament,
    write_tournament,
)
from .indeg import ALGOS, _solve_played
from .instances import gen_planted_yes, gen_random
from .oracles import _repair_played, niceness


def _load(path: str) -> Tournament:
    return parse_tournament(Path(path).read_bytes())


def _check_multiplier(args: argparse.Namespace) -> None:
    """``--multiplier`` is validated for compatibility; no solver reads it."""
    m = args.multiplier
    if not (math.isfinite(m) and m > 0):
        raise ValueError(f"iteration multiplier must be positive and finite, got {m}")


def _integer(token: str) -> int:
    """``int(token)`` for ASCII digits after an optional minus; int() alone
    also reads "+7", "0_7", " 7" and non-ASCII digits."""
    if not re.fullmatch("-?[0-9]+", token):
        raise ValueError(token)
    return int(token)


# argparse names a type in its message for a value the type refuses
# ("invalid int value: 'x'"), so ``gen --n`` and ``--k`` keep the words of
# ``type=int``
_integer.__name__ = "int"


def _read_seeding(args: argparse.Namespace, n: int) -> Seeding:
    text = args.seeding if args.seeding is not None else Path(args.seeding_file).read_text()
    # the tokens of _integer, split where str.split splits: Unicode \s is
    # exactly str.isspace
    if not re.fullmatch(r"\s*(?:-?[0-9]+(?:\s+|\Z))*", text):
        raise ValueError("seeding must be whitespace-separated integers")
    order = tuple(map(int, text.split()))
    if len(order) != n:
        raise ValueError(f"seeding lists {len(order)} players, tournament has {n}")
    return Seeding(order)


def _leaves(order: tuple[int, ...]) -> str:
    """A leaf order as one line of ids, the form of every ``seeding:`` line
    and of a ``.witness`` file."""
    return " ".join(["%d"] * len(order)) % order


def cmd_decide(args: argparse.Namespace) -> int:
    """``decide`` and ``solve``; ``solve`` adds to a YES the seeding and the
    rounds of the one play that verified it."""
    t = _load(args.file)
    _check_multiplier(args)
    algo, played = _solve_played(t, args.algo)
    print("YES" if played is not None else "NO")
    print(f"algo: {algo} (auto)" if args.algo == "auto" else f"algo: {algo}")
    if played is None:
        return 1
    if args.command == "solve":
        s, rounds = played
        print("seeding:", _leaves(s.leaf_order))
        print(format_trace(rounds, t.vstar))
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
    with out.open("wb") as f:
        write_tournament(t, f, comments=(comment,))
    print(f"wrote {out}")
    if witness is not None:
        side = Path(str(out) + ".witness")
        side.write_text(_leaves(witness.leaf_order) + "\n")
        print(f"wrote {side}")
    return 0


def cmd_verify_seeding(args: argparse.Namespace) -> int:
    t = _load(args.file)
    order = _read_seeding(args, t.n).leaf_order
    rounds = bracket_rounds(t, order)
    champion = _winner(order, rounds)
    print("seeding:", _leaves(order))
    print(format_trace(rounds, champion))
    ok = champion == t.vstar
    print(f"winning: {'yes' if ok else 'no'}")
    return 0 if ok else 1


def cmd_check_structure(args: argparse.Namespace) -> int:
    t = _load(args.file)
    s = _read_seeding(args, t.n)
    rounds = bracket_rounds(t, s.leaf_order)
    if _winner(s.leaf_order, rounds) != t.vstar:
        print("winning: no")
        return 1
    print("winning: yes")
    rep = niceness(t, rounds)
    for i, ok in enumerate(rep.per_round):
        print(f"round {i + 1}: {'nice' if ok else 'not-nice'}")
    print(f"nice: {'yes' if rep.all_nice else 'no'}")
    fixed, rewrites, rounds = _repair_played(t, s, rounds)
    print("repaired seeding:", _leaves(fixed.leaf_order))
    print(f"repair rounds: {rewrites}")
    print(f"repaired nice: {'yes' if niceness(t, rounds).all_nice else 'no'}")
    m = min(t.k, t.num_rounds)
    standing = len(t.in_neighbors.difference(l for matches in rounds[:m] for _, l in matches))
    print(f"conquerors after round {m}: {standing}")
    print(f"conqueror-elimination-check: {'pass' if standing == 0 else 'fail'}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    _check_multiplier(args)
    print(f"{'file':<28} {'algo':<7} {'n':>4} {'verdict':<7} {'ms':>9}")
    for path in args.files:
        t = _load(path)
        start = time.perf_counter()
        algo, played = _solve_played(t, args.algo)
        ms = (time.perf_counter() - start) * 1e3
        verdict = "YES" if played is not None else "NO"
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
    g.add_argument("--n", type=_integer, required=True)
    g.add_argument("--k", type=_integer, required=True)
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
            if _integer(threads) < 1:
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
