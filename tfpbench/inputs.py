"""The benchmark's own instances and reference computations.

Nothing here imports tfpsolve.  Instances are boolean matrices ``a`` with
``a[u, v]`` true iff player u beats player v; the generators, the TFP v1
writer and reader, and the bracket simulator are written apart from
``tfpsolve.core``/``tfpsolve.instances`` so that a change to the program can
change neither the inputs nor the yardstick its answers are checked against.
"""

from __future__ import annotations

from pathlib import Path
from typing import BinaryIO

import numpy as np


def _random_orientation(n: int, rng: np.random.Generator) -> np.ndarray:
    upper = np.triu(rng.random((n, n)) < 0.5, 1)
    return upper | np.triu(~upper, 1).T


def _relabel(a: np.ndarray, vstar: int, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Shuffle player labels: old player i becomes player perm[i]."""
    perm = rng.permutation(a.shape[0])
    inv = np.argsort(perm)
    return a[np.ix_(inv, inv)], int(perm[vstar])


def _set_arc(a: np.ndarray, w: int, l: int) -> None:
    a[w, l] = True
    a[l, w] = False


def random_instance(n: int, k: int, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Coin flips everywhere, except that exactly k players beat the favorite."""
    a = _random_orientation(n, rng)
    ins = rng.choice(np.arange(1, n), size=k, replace=False)
    for v in range(1, n):
        _set_arc(a, 0, v)
    for c in ins:
        _set_arc(a, int(c), 0)
    return _relabel(a, 0, rng)


def conqueror_no(n: int, k: int, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """NO instance: one of the k players who beat the favorite beats everyone."""
    a, vstar = random_instance(n, k, rng)
    ins = np.flatnonzero(a[:, vstar])
    c = int(rng.choice(ins))
    for v in range(n):
        if v != c:
            _set_arc(a, c, v)
    return a, vstar


def planted_yes(n: int, k: int, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """YES instance: a canonical bracket tree rooted at the favorite is
    planted (parent beats child), the k conquerors are drawn from players the
    tree does not make the favorite beat, and every other pair is a coin flip.
    """
    rounds = n.bit_length() - 1
    if not 0 <= k <= n - 1 - rounds:
        raise ValueError(f"cannot plant a win for k={k} at n={n}")
    a = _random_orientation(n, rng)
    label = np.concatenate(([0], rng.permutation(n - 1) + 1))
    for i in range(1, n):
        _set_arc(a, int(label[i & (i - 1)]), int(label[i]))
    root_kids = {1 << j for j in range(rounds)}
    free = np.array([label[i] for i in range(1, n) if i not in root_kids])
    ins = set(int(c) for c in rng.choice(free, size=k, replace=False))
    for v in range(1, n):
        if v in ins:
            _set_arc(a, v, 0)
        else:
            _set_arc(a, 0, v)
    return _relabel(a, 0, rng)


def format_tfp(a: np.ndarray, vstar: int) -> bytes:
    n = a.shape[0]
    rows = np.full((n, n + 1), ord("\n"), np.uint8)
    rows[:, :n] = np.where(a, ord("1"), ord("0"))
    return f"TFP v1\nn={n} vstar={vstar}\n".encode() + rows.tobytes()


class CheckError(Exception):
    """The program's output contradicts the benchmark's own computation."""


def read_tfp(path: Path) -> tuple[np.ndarray, int]:
    """Parse a TFP v1 file and check that the matrix is a complete orientation.

    The canonical layout (n rows of n cells, each ended by a newline) is
    read into one byte array, which becomes the 0/1 matrix in place, and the
    checks run over blocks of rows.  Reading the data-io workload's n=2048
    files therefore adds little beside the file itself to the process's peak
    memory, which ``peak_rss_mb`` reports.
    """
    with open(path, "rb") as f:
        n, vstar = _read_header(f)
        raw = np.fromfile(f, np.uint8)
    if raw.size == n * (n + 1) and (raw[n :: n + 1] == ord("\n")).all():
        cells = raw.reshape(n, n + 1)[:, :n]
    else:  # comments, blank lines or other whitespace between the rows
        rows = [ln.strip() for ln in raw.tobytes().splitlines()]
        rows = [ln for ln in rows if ln and not ln.startswith(b"#")]
        if len(rows) != n or any(len(r) != n for r in rows):
            raise CheckError("matrix is not n rows of n cells")
        cells = np.frombuffer(bytearray(b"".join(rows)), np.uint8).reshape(n, n)
    for lo in range(0, n, _BLOCK):
        if ((cells[lo : lo + _BLOCK] | 1) != ord("1")).any():
            raise CheckError("matrix cell other than 0/1")
    cells -= ord("0")
    a = cells.view(bool)
    if a.diagonal().any():
        raise CheckError("diagonal cell other than 0")
    for lo in range(0, n, _BLOCK):
        hi = min(n, lo + _BLOCK)
        # Off the diagonal exactly one of a[u, v] and a[v, u] holds.
        both = a[lo:hi] ^ a[:, lo:hi].T
        if both.sum() != (hi - lo) * (n - 1) or both[np.arange(hi - lo), np.arange(lo, hi)].any():
            raise CheckError("matrix is not a complete orientation")
    return a, vstar


_BLOCK = 128


def _read_header(f: BinaryIO) -> tuple[int, int]:
    """``n`` and ``vstar`` from the two header lines; ``f`` is left after them."""
    lines = []
    while len(lines) < 2:
        line = f.readline()
        if not line:
            raise CheckError("truncated header")
        line = line.strip()
        if line and not line.startswith(b"#"):
            lines.append(line)
    if lines[0] != b"TFP v1":
        raise CheckError("missing 'TFP v1' header")
    try:
        fields = dict(kv.split(b"=", 1) for kv in lines[1].split())
        n, vstar = int(fields[b"n"]), int(fields[b"vstar"])
    except (ValueError, KeyError):
        raise CheckError(f"bad header line {lines[1][:80]!r}") from None
    if n < 1 or n & (n - 1) or not 0 <= vstar < n:
        raise CheckError(f"bad header n={n} vstar={vstar}")
    return n, vstar


def simulate(a: np.ndarray, order: list[int]) -> list[set[tuple[int, int]]]:
    """Each round's (winner, loser) matches for the bracket with leaf order ``order``."""
    cur = np.asarray(order)
    rounds = []
    while len(cur) > 1:
        left, right = cur[0::2], cur[1::2]
        left_wins = a[left, right]
        win = np.where(left_wins, left, right)
        lose = np.where(left_wins, right, left)
        rounds.append(set(zip(win.tolist(), lose.tolist())))
        cur = win
    return rounds


def champion(a: np.ndarray, order: list[int]) -> int:
    rounds = simulate(a, order)
    return next(iter(rounds[-1]))[0] if rounds else order[0]


def losing_order(a: np.ndarray, vstar: int, rng: np.random.Generator) -> list[int]:
    """A leaf order that pairs the favorite with one of its conquerors in round 1."""
    n = a.shape[0]
    c = int(rng.choice(np.flatnonzero(a[:, vstar])))
    rest = [int(v) for v in rng.permutation(n) if v not in (vstar, c)]
    return [vstar, c] + rest
