"""Seeded ``tfpsolve solve`` stdout, replayed byte for byte.

Each golden file holds one block per generated instance: a header line
``@ n=<n> k=<k> seed=<seed> planted=<yes|no> exit=<code>`` and then the stdout
of ``solve`` on the file written by ``gen --n <n> --k <k> --seed <seed>
[--planted]``.  ``golden_indeg.txt`` runs ``solve --algo indeg --multiplier 20
--seed <seed>``; ``golden_exact.txt`` runs ``solve --algo auto``, which takes
the exact route (or the degree NO) at these sizes.  The files are a contract
on the solvers' output: rewrite them with ``python tests/test_golden.py`` only
for an intended change of output, and record that change.
"""

import contextlib
import io
import itertools
import tempfile
from pathlib import Path

import pytest

from tfpsolve.cli import main

GOLDEN = Path(__file__).with_name("golden_indeg.txt")
CASES = list(itertools.product((32, 64), (1, 2), (0, 7), (False, True)))
EXACT_GOLDEN = Path(__file__).with_name("golden_exact.txt")
EXACT_CASES = [
    (16, 5, 0, True),  # the favorite wins the first top-level split
    (16, 10, 2, True),  # first winning top-level split: 110 of 6435
    (16, 11, 12, False),  # first winning top-level split: 648
    (16, 3, 0, False),
    (16, 13, 2, False),  # degree NO
    (16, 3, 161, False),  # NO certified by the favorite's depth profile, not by its degree
    (8, 2, 0, False),
    (8, 4, 0, False),  # NO from the exact table
]


def _header(n, k, seed, planted, code):
    return f"@ n={n} k={k} seed={seed} planted={'yes' if planted else 'no'} exit={code}"


def solve_generated(n, k, seed, planted, algo="indeg"):
    """(exit code, stdout) of ``solve --algo <algo>`` on one generated instance,
    seeded with ``--multiplier 20 --seed <seed>`` for ``indeg``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "g.tfp")
        gen = ["gen", path, "--n", str(n), "--k", str(k), "--seed", str(seed)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(gen + (["--planted"] if planted else [])) == 0
        argv = ["solve", path, "--algo", algo]
        if algo == "indeg":
            argv += ["--multiplier", "20", "--seed", str(seed)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
    return code, out.getvalue()


def _blocks(golden):
    blocks = {}
    header = None
    for line in golden.read_text().splitlines(keepends=True):
        if line.startswith("@ "):
            header = line.rstrip("\n")
            blocks[header] = ""
        else:
            blocks[header] += line
    return blocks


@pytest.mark.parametrize("n,k,seed,planted", CASES)
def test_replays_golden_stdout(n, k, seed, planted):
    code, out = solve_generated(n, k, seed, planted)
    assert _blocks(GOLDEN).get(_header(n, k, seed, planted, code)) == out


@pytest.mark.parametrize("n,k,seed,planted", EXACT_CASES)
def test_replays_exact_golden_stdout(n, k, seed, planted):
    code, out = solve_generated(n, k, seed, planted, "auto")
    assert _blocks(EXACT_GOLDEN).get(_header(n, k, seed, planted, code)) == out


if __name__ == "__main__":
    for golden, cases, algo in ((GOLDEN, CASES, "indeg"), (EXACT_GOLDEN, EXACT_CASES, "auto")):
        parts = []
        for case in cases:
            code, out = solve_generated(*case, algo)
            parts.append(_header(*case, code) + "\n" + out)
        golden.write_text("".join(parts))
