"""Seeded ``tfpsolve solve --algo indeg`` stdout, replayed byte for byte.

``golden_indeg.txt`` holds one block per generated instance: a header line
``@ n=<n> k=<k> seed=<seed> planted=<yes|no> exit=<code>`` and then the stdout
of ``solve --algo indeg --multiplier 20 --seed <seed>`` on the file written by
``gen --n <n> --k <k> --seed <seed> [--planted]``.  The file is a contract on
the solver's output: rewrite it with ``python tests/test_golden.py`` only for
an intended change of output, and record that change.
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


def _header(n, k, seed, planted, code):
    return f"@ n={n} k={k} seed={seed} planted={'yes' if planted else 'no'} exit={code}"


def solve_generated(n, k, seed, planted):
    """(exit code, stdout) of the seeded indeg solve of one generated instance."""
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "g.tfp")
        gen = ["gen", path, "--n", str(n), "--k", str(k), "--seed", str(seed)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(gen + (["--planted"] if planted else [])) == 0
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(
                ["solve", path, "--algo", "indeg", "--multiplier", "20", "--seed", str(seed)]
            )
    return code, out.getvalue()


def _blocks():
    blocks = {}
    header = None
    for line in GOLDEN.read_text().splitlines(keepends=True):
        if line.startswith("@ "):
            header = line.rstrip("\n")
            blocks[header] = ""
        else:
            blocks[header] += line
    return blocks


@pytest.mark.parametrize("n,k,seed,planted", CASES)
def test_replays_golden_stdout(n, k, seed, planted):
    code, out = solve_generated(n, k, seed, planted)
    assert _blocks().get(_header(n, k, seed, planted, code)) == out


if __name__ == "__main__":
    parts = []
    for case in CASES:
        code, out = solve_generated(*case)
        parts.append(_header(*case, code) + "\n" + out)
    GOLDEN.write_text("".join(parts))
