"""The four workloads: their ops, inputs and the checks on every answer.

An op is a generator.  It writes its input files, yields each CLI argv it
wants run, receives ``(exit_code, stdout)`` back, and checks the answer
against ``inputs``.  Only the yielded CLI calls are timed; preparing inputs
and checking answers happen between them and are not.

Every solver flag is given explicitly, so a later change to a CLI default
cannot change a workload.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Generator

import numpy as np

from inputs import (
    CheckError,
    champion,
    conqueror_no,
    format_tfp,
    losing_order,
    planted_yes,
    random_instance,
    read_tfp,
    simulate,
)

Op = Generator[list, tuple, None]
OpMaker = Callable[[Path, np.random.Generator], Op]

MULTIPLIER = "20"


class ProgramError(Exception):
    """The program exited 2, its error exit: the op failed."""


def _solver_flags(algo: str, rng: np.random.Generator) -> list[str]:
    seed = int(rng.integers(2**31))
    return ["--algo", algo, "--seed", str(seed), "--multiplier", MULTIPLIER]


def _exit_code(rc: int, want: int, what: str) -> None:
    if rc == 2:
        raise ProgramError(f"{what}: exit code 2")
    if rc != want:
        raise CheckError(f"{what}: exit code {rc}, expected {want}")


def _field(out: str, key: str) -> str:
    for line in out.splitlines():
        if line.startswith(key + ":"):
            return line[len(key) + 1 :].strip()
    raise CheckError(f"no '{key}:' line in output")


def _ints(text: str, what: str) -> list[int]:
    """Whitespace-separated integers; output that does not parse is a wrong answer."""
    try:
        return [int(x) for x in text.split()]
    except ValueError:
        raise CheckError(f"{what} is not a list of integers: {text[:80]!r}") from None


def _expect_no(rc: int, out: str, a: np.ndarray, vstar: int) -> None:
    """A NO must carry a certificate the benchmark can check in its own matrix."""
    _exit_code(rc, 1, "NO instance")
    if out.split("\n", 1)[0] != "NO":
        raise CheckError("NO instance answered without a NO line")
    n = a.shape[0]
    ell = int(a[vstar].sum())
    wins = a.sum(axis=1)
    undefeated = [u for u in np.flatnonzero(wins == n - 1) if u != vstar]
    if ell >= n.bit_length() - 1 and not undefeated:
        raise CheckError("input has no NO certificate; the benchmark's generator is wrong")


def _expect_yes(rc: int, out: str, a: np.ndarray, vstar: int, witness: bool) -> None:
    """A YES line; with ``witness`` (``solve``), the printed seeding must
    crown the favorite, with the printed rounds.  A ``decide`` YES needs no
    more: the generator planted a winning bracket."""
    _exit_code(rc, 0, "YES instance")
    if out.split("\n", 1)[0] != "YES":
        raise CheckError("YES instance answered without a YES line")
    if not witness:
        return
    n = a.shape[0]
    order = _ints(_field(out, "seeding"), "printed seeding")
    if sorted(order) != list(range(n)):
        raise CheckError("printed seeding is not a permutation")
    if champion(a, order) != vstar:
        raise CheckError("printed seeding does not crown the favorite")
    for r, want in enumerate(simulate(a, order), start=1):
        got = re.findall(r"\((\d+),(\d+)\)", _field(out, f"round {r}"))
        if {(int(w), int(l)) for w, l in got} != want or len(got) != len(want):
            raise CheckError(f"printed round {r} differs from the simulation")
    if _ints(_field(out, "champion"), "champion line") != [vstar]:
        raise CheckError("printed champion is not the favorite")


def query(command: str, make: Callable, n: int, ks: tuple[int, ...], algo: str, yes: bool) -> OpMaker:
    """``decide`` or ``solve`` on an instance from ``make(n, k, rng)``, k drawn from ``ks``."""

    def op(work: Path, rng: np.random.Generator) -> Op:
        a, vstar = make(n, int(rng.choice(ks)), rng)
        path = work / "in.tfp"
        path.write_bytes(format_tfp(a, vstar))
        rc, out = yield [command, str(path), *_solver_flags(algo, rng)]
        if yes:
            _expect_yes(rc, out, a, vstar, witness=command == "solve")
        else:
            _expect_no(rc, out, a, vstar)

    return op


def gen_verify(n: int, k: int, losing: bool) -> OpMaker:
    """``gen --planted``, then replay the witness, or a losing seeding the
    benchmark builds from the generated matrix, with ``verify-seeding``."""

    def op(work: Path, rng: np.random.Generator) -> Op:
        path = work / "gen.tfp"
        seeding_file = Path(f"{path}.witness")
        seed = str(int(rng.integers(2**31)))
        rc, out = yield ["gen", str(path), "--n", str(n), "--k", str(k), "--seed", seed, "--planted"]
        _exit_code(rc, 0, "gen")
        a, vstar = read_tfp(path)
        if a.shape[0] != n or int(a[:, vstar].sum()) != k:
            raise CheckError("generated file has the wrong size or in-degree")
        order = _ints(seeding_file.read_text(), "witness file")
        if sorted(order) != list(range(n)) or champion(a, order) != vstar:
            raise CheckError("generated witness does not crown the favorite")
        if losing:
            order = losing_order(a, vstar, rng)
            if champion(a, order) == vstar:
                raise CheckError("the benchmark's losing seeding wins")
            seeding_file = work / "lose.seeding"
            seeding_file.write_text(" ".join(map(str, order)) + "\n")
        champ = champion(a, order)
        rc, out = yield ["verify-seeding", str(path), "--seeding-file", str(seeding_file)]
        _exit_code(rc, 0 if champ == vstar else 1, "verify-seeding")
        if _ints(_field(out, "champion"), "champion line") != [champ]:
            raise CheckError("verify-seeding names another champion")
        if _field(out, "winning") != ("yes" if champ == vstar else "no"):
            raise CheckError("verify-seeding misreports the outcome")

    return op


@dataclass(frozen=True)
class Workload:
    round: tuple[OpMaker, ...]  # one round; runs repeat whole rounds
    warmup: OpMaker  # small op of the same kind, run before timing


_YES16 = query("solve", planted_yes, 16, tuple(range(1, 12)), "auto", yes=True)
_NO16 = query("solve", conqueror_no, 16, tuple(range(1, 12)), "auto", yes=False)
_DEGREE_NO16 = query("solve", random_instance, 16, tuple(range(12, 16)), "auto", yes=False)

WORKLOADS = {
    # Every NO pays the full ceil(20*e^6) = 8069 colorings; the batch DP is
    # nearly all of it and the witness rebuild never runs.  The warm-up is a
    # YES that hits on the first chunk: it builds the same k=2 DP caches
    # without paying the search, so set-up stays set-up.
    "fpt-no": Workload(
        round=(query("decide", conqueror_no, 128, (2,), "indeg", yes=False),),
        warmup=query("decide", planted_yes, 16, (2,), "indeg", yes=True),
    ),
    # The first chunk hits, so the witness rebuild, completion and parse
    # outweigh the batch DP.
    "fpt-yes": Workload(
        round=(query("solve", planted_yes, 512, (2,), "indeg", yes=True),),
        warmup=query("solve", planted_yes, 32, (2,), "indeg", yes=True),
    ),
    # YES and certified NO both build the full exact table (one cluster of op
    # times, which holds the median); the degree NOs are a fast minority.
    "auto-exact": Workload(
        round=(_YES16, _NO16, _YES16, _YES16, _NO16, _YES16, _DEGREE_NO16, _YES16),
        warmup=query("solve", planted_yes, 16, (5,), "auto", yes=True),
    ),
    # The data layer both ways; the solvers stay idle.
    "data-io": Workload(
        round=(gen_verify(2048, 5, losing=False), gen_verify(2048, 5, losing=True)),
        warmup=gen_verify(64, 5, losing=False),
    ),
}
