"""Tournament digraphs, bracket seedings, and knockout simulation.

A tournament's canonical form is ``out_masks``: one Python-int bitmask of
beaten players per player, which simulation reads one bit at a time.  The
n-by-n results table around it (parsing, checking, generating and
formatting the TFP v1 text) goes through numpy arrays instead, so each of
those steps is a few whole-array passes over blocks of rows rather than a
Python loop per cell.  ``_packed`` lays the masks out as an
``(n, ceil(n/8))`` uint8 matrix of little-endian bytes; a block of rows or a
byte-aligned strip of columns unpacks from it into bools, and ``_ints``
turns it back into masks.

A table is checked once, on those packed rows (``_check_packed``): the
diagonal bits, then the orientation, read as ``P ^ transpose(P)`` being all
ones off the diagonal.  ``_transpose`` is the 8x8 bit-block transpose of
Hacker's Delight (H. S. Warren, section 7-3) on ``uint64`` words.  The
parser, ``Tournament.from_matrix`` and the generators hold packed rows
already and hand them to ``Tournament._from_rows``, so no table is packed
twice.  Below ``_PACKED_MIN_N`` players, and for a mask that does not fit
in n bits, the plain per-cell check ``_check_cells`` runs instead.  A
tournament keeps the rows it was checked on as a read-only ``_rows``
(packed on first use where the per-cell check ran), and
``format_tournament`` unpacks its text from them a block at a time.

``parse_tournament`` takes the file's text or its bytes.  Bytes in the
canonical layout, the one ``format_tournament`` writes, are read in place
as one uint8 array; any other layout goes through a line-by-line reader,
which also names the first defect's line and column.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Match",
    "ParseError",
    "Tournament",
    "Seeding",
    "KnockoutTrace",
    "parse_tournament",
    "format_tournament",
    "bracket_rounds",
    "champion_of",
    "simulate",
    "format_trace",
]

Match = tuple[int, int]  # (winner, loser)


class ParseError(ValueError):
    """Malformed tournament file; carries 1-based line and column numbers."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


def _is_power_of_two(m: int) -> bool:
    return m > 0 and not m & (m - 1)


def _check_leaf_count(n: int) -> None:
    if not _is_power_of_two(n):
        raise ValueError(f"leaf count {n} is not a power of two")


# Rows per block in the array passes; bounds their temporaries at n=2048.
# A multiple of 8, so each block's column strip starts on a byte.
_BLOCK = 128


def _packed(masks: Sequence[int], n: int) -> np.ndarray:
    """uint8 matrix whose row u is ``masks[u]`` in ``ceil(n/8)`` little-endian bytes.

    A mask that is negative or does not fit in those bytes raises OverflowError.
    """
    width = (n + 7) // 8
    raw = b"".join(m.to_bytes(width, "little") for m in masks)
    return np.frombuffer(raw, np.uint8).reshape(len(masks), width)


def _strip(packed: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Bool columns lo..hi-1 of a packed matrix; ``lo`` must be a multiple of 8."""
    cols = packed[:, lo // 8 : (hi + 7) // 8]
    return np.unpackbits(cols, axis=1, count=hi - lo, bitorder="little").view(bool)


def _ints(packed: np.ndarray) -> tuple[int, ...]:
    """Row bitmasks of a packed matrix, the inverse of ``_packed``.

    Each row is read as one bytes item.  ``tolist`` drops an item's trailing
    zero bytes, which are its high bytes here, so no value changes.
    """
    rows = np.ascontiguousarray(packed).view(f"S{packed.shape[1]}").ravel().tolist()
    return tuple(map(int.from_bytes, rows, itertools.repeat("little")))


def _players(mask: int):
    """The players in a bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# The fewest players the packed check takes.  It needs a multiple of 8, and
# its fixed cost of some 25 numpy calls loses to the per-cell check at n=16
# (54 against 23 us in process) and wins from n=32 (58 against 109 us).
_PACKED_MIN_N = 32

# The delta swaps of an 8x8 bit transpose, cell (r, c) at bit 8r + c.
_SWAPS = tuple(
    (np.uint64(shift), np.uint64(mask))
    for shift, mask in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))
)


def _transpose(packed: np.ndarray) -> np.ndarray:
    """The packed matrix of the transposed table; n must be a multiple of 8.

    Bytes ``packed[8I : 8I + 8, J]`` are the rows of the 8x8 bit block
    (I, J), so each block is one little-endian ``uint64`` with cell (r, c)
    at bit 8r + c.  Three delta swaps transpose every block at once, and
    block (I, J) moves to (J, I).
    """
    n, m = packed.shape
    x = packed.reshape(m, 8, m).transpose(0, 2, 1).copy().view("<u8").reshape(m, m)
    for shift, mask in _SWAPS:
        t = x >> shift
        t ^= x
        t &= mask
        x ^= t
        t <<= shift
        x ^= t
    return x.T.copy().view(np.uint8).reshape(m, m, 8).transpose(0, 2, 1).reshape(n, m)


def _check_packed(packed: np.ndarray) -> None:
    """Raise ValueError for the first defect of a packed table, n a multiple of 8.

    Every row fits in n bits by its width, so the first defect is the first
    row with its diagonal bit set, or else the least pair (u, v), u < v, in
    row-major order that is not oriented exactly once.
    """
    n = len(packed)
    ids = np.arange(n)
    diag = np.uint8(1) << (ids & 7).astype(np.uint8)
    loops = packed[ids, ids >> 3] & diag
    if loops.any():
        raise ValueError(f"player {int(np.argmax(loops))} listed as beating itself")
    # Off the diagonal exactly one of a[u, v] and a[v, u] holds, so P ^ P.T
    # is all ones there; set the diagonal too and look for a zero bit.  The
    # clash matrix is symmetric, so its first cell in row-major order is the
    # least pair (u, v) with u < v.
    either = _transpose(packed)
    either ^= packed
    either[ids, ids >> 3] |= diag
    if not np.all(either == 0xFF):
        u, j = divmod(int(np.argmax(either != 0xFF)), either.shape[1])
        gaps = 0xFF ^ int(either[u, j])
        v = 8 * j + (gaps & -gaps).bit_length() - 1
        raise ValueError(f"pair ({u},{v}) is not oriented exactly once")


def _check_cells(masks: tuple[int, ...], n: int) -> None:
    """The same check as ``_check_packed``, cell by cell on the masks.

    It runs below ``_PACKED_MIN_N`` players and when a mask does not fit in
    n bits, so it checks each row's range first: the first row that is out
    of range or beats itself, in row order, names the defect.
    """
    full = (1 << n) - 1
    for u, row in enumerate(masks):
        if row & ~full:
            raise ValueError(f"row {u} has bits outside the player range")
        if row >> u & 1:
            raise ValueError(f"player {u} listed as beating itself")
    for u, v in itertools.combinations(range(n), 2):
        if not (masks[u] >> v ^ masks[v] >> u) & 1:
            raise ValueError(f"pair ({u},{v}) is not oriented exactly once")


@dataclass(frozen=True)
class Tournament:
    """Complete orientation of all player pairs, with a designated favorite.

    Row ``u`` of ``out_masks`` is a bitmask with bit ``v`` set iff ``u`` beats
    ``v``.  The player count must be a power of two so that a full
    single-elimination bracket exists.
    """

    n: int
    vstar: int
    out_masks: tuple[int, ...]

    def __post_init__(self):
        # plain ints: numpy integers overflow in the bit shifts below
        object.__setattr__(self, "n", operator.index(self.n))
        object.__setattr__(self, "vstar", operator.index(self.vstar))
        object.__setattr__(self, "out_masks", tuple(map(operator.index, self.out_masks)))
        self._check_size()
        try:
            packed = _packed(self.out_masks, self.n) if self.n >= _PACKED_MIN_N else None
        except OverflowError:  # a negative row or one past n bits: _check_cells names it
            packed = None
        if packed is None:
            _check_cells(self.out_masks, self.n)
        else:
            _check_packed(packed)
            object.__setattr__(self, "_rows", packed)

    def _check_size(self) -> None:
        if not _is_power_of_two(self.n):
            raise ValueError(f"player count {self.n} is not a power of two")
        if not 0 <= self.vstar < self.n:
            raise ValueError(f"favorite {self.vstar} out of range for n={self.n}")
        if len(self.out_masks) != self.n:
            raise ValueError("out_masks length differs from player count")

    @classmethod
    def _from_rows(cls, packed: np.ndarray, vstar: int) -> "Tournament":
        """The tournament whose row u is ``packed[u]`` in the layout of ``_packed``.

        It runs the constructor's checks on ``packed`` itself, so the rows
        are not packed again.  Below ``_PACKED_MIN_N`` players, and for rows
        of another width (a non-square matrix), it calls the constructor.
        """
        n = len(packed)
        if n < _PACKED_MIN_N or packed.shape[1] != n // 8:
            masks = _ints(packed)
            return cls(len(masks), vstar, masks)
        t = cls.__new__(cls)
        object.__setattr__(t, "n", n)
        object.__setattr__(t, "vstar", operator.index(vstar))
        object.__setattr__(t, "out_masks", _ints(packed))
        t._check_size()
        _check_packed(packed)
        packed.flags.writeable = False
        object.__setattr__(t, "_rows", packed)
        return t

    @classmethod
    def from_matrix(cls, rows: Sequence[Sequence[int]], vstar: int) -> "Tournament":
        """Tournament whose player u beats v iff ``rows[u][v]`` is truthy."""
        return cls._from_rows(np.packbits(np.asarray(rows, bool), axis=1, bitorder="little"), vstar)

    @cached_property
    def _rows(self) -> np.ndarray:
        """``_packed(out_masks, n)``, read-only: the rows the table was checked on.

        The constructor's packed check and ``_from_rows`` set it to the rows
        they checked; otherwise it is packed on first use.
        """
        return _packed(self.out_masks, self.n)

    def beats(self, u: int, v: int) -> bool:
        # a numpy v would force the Python-int row into a C long
        return bool(self.out_masks[u] >> operator.index(v) & 1)

    @property
    def players(self) -> range:
        return range(self.n)

    @property
    def num_rounds(self) -> int:
        """Number of bracket rounds, log2 of the player count."""
        return self.n.bit_length() - 1

    @cached_property
    def in_neighbors(self) -> frozenset[int]:
        """Players that beat the favorite."""
        return frozenset(_players(self.in_masks[self.vstar]))

    @cached_property
    def out_neighbors(self) -> frozenset[int]:
        """Players the favorite beats."""
        return frozenset(_players(self.out_masks[self.vstar]))

    @cached_property
    def in_masks(self) -> tuple[int, ...]:
        """Row ``v`` is the bitmask of the players that beat ``v``.

        Every pair is oriented exactly once, so those are the players
        other than ``v`` that ``v`` does not beat.
        """
        full = (1 << self.n) - 1
        return tuple(full ^ (row | 1 << v) for v, row in enumerate(self.out_masks))

    @property
    def k(self) -> int:
        """In-degree of the favorite: every pair is oriented exactly once."""
        return self.n - 1 - self.ell

    @property
    def ell(self) -> int:
        """Out-degree of the favorite."""
        return self.out_masks[self.vstar].bit_count()


@dataclass(frozen=True)
class Seeding:
    """Assignment of players to bracket leaves, left to right.

    Leaves 2i and 2i+1 meet in round 1; surviving winners then meet pairwise
    again, so every aligned leaf block of size 2**r produces one round-r match.
    """

    leaf_order: tuple[int, ...]

    def __post_init__(self):
        # plain ints: numpy integers overflow in the bit shifts of ``beats``
        object.__setattr__(self, "leaf_order", tuple(map(operator.index, self.leaf_order)))
        n = len(self.leaf_order)
        _check_leaf_count(n)
        if sorted(self.leaf_order) != list(range(n)):
            raise ValueError("leaf_order is not a permutation of the players")

    @property
    def n(self) -> int:
        return len(self.leaf_order)


@dataclass(frozen=True)
class KnockoutTrace:
    """Full record of one played-out bracket.

    ``survivors[r]`` is the set still alive after round r (``survivors[0]`` is
    everyone), ``losers[r-1]`` the players eliminated in round r, ``rounds[r-1]``
    that round's (winner, loser) matches.
    """

    rounds: tuple[frozenset[Match], ...]
    survivors: tuple[frozenset[int], ...]
    losers: tuple[frozenset[int], ...]
    champion: int


_META_RE = re.compile(r"n=(\d+) vstar=(\d+)")


def parse_tournament(text: str | bytes) -> Tournament:
    """Parse the TFP v1 format from a file's text or its bytes.

    Layout: a literal ``TFP v1`` line, an ``n=<int> vstar=<int>`` line, then n
    rows of n characters where a '1' in row u, column v means u beats v.
    Blank lines and lines starting with '#' are skipped.  The first defect
    in reading order is reported by line and column.

    Bytes must be UTF-8, or ``UnicodeDecodeError`` is raised.  A valid file
    in the canonical layout, the one ``format_tournament`` writes (the
    header, then exactly n rows of n '0'/'1' cells, each ended by a line
    feed, and nothing after them), is read in place from its bytes; an
    ASCII ``str`` is encoded to take the same path.  Any other layout, and
    every file with a defect, goes through the line-by-line reader, so each
    error is the one that reader reports.
    """
    if isinstance(text, str):
        fast = _parse_canonical(text.encode("ascii")) if text.isascii() else None
        return fast or _parse_lines(text)
    return _parse_canonical(text) or _parse_lines(text.decode())


def _parse_canonical(data: bytes) -> Tournament | None:
    """The tournament in ``data`` if it is a valid file in the canonical layout, else None.

    The header ends at the line feed after its second non-comment line.
    The bytes up to there are decoded and filtered exactly as
    ``_parse_lines`` does, and must give just those two lines: a comment
    ``str.splitlines`` breaks at a form feed, or a byte that is not UTF-8,
    sends the file to ``_parse_lines`` instead.  The rows are one
    ``(n, n + 1)`` view of ``data``, checked and packed a block of rows at a
    time, and ``Tournament._from_rows`` checks the packed table.
    """
    pos = found = 0
    while found < 2:
        end = data.find(b"\n", pos)
        if end < 0:
            return None
        line = data[pos:end].strip()
        found += bool(line) and not line.startswith(b"#")
        pos = end + 1
    try:
        lines = _content_lines(data[:pos].decode())
        if len(lines) != 2:
            return None
        n, vstar = _header(lines)
    except ValueError:  # not UTF-8, a malformed header, or a number too long for int()
        return None
    if len(data) - pos != n * (n + 1):
        return None
    body = np.frombuffer(data, np.uint8, offset=pos).reshape(n, n + 1)
    if (body[:, n] != ord("\n")).any():
        return None
    packed = np.empty((n, (n + 7) // 8), np.uint8)
    for lo in range(0, n, _BLOCK):
        cells = body[lo : lo + _BLOCK, :n]
        if ((cells | 1) != ord("1")).any():
            return None
        packed[lo : lo + _BLOCK] = np.packbits(cells & 1, axis=1, bitorder="little")
    try:
        return Tournament._from_rows(packed, vstar)
    except ValueError:
        return None


def _content_lines(text: str) -> list[tuple[int, str]]:
    """(1-based line number, stripped line) of every line not blank or a '#' comment."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            lines.append((lineno, stripped))
    return lines


def _need(lines: list[tuple[int, str]], idx: int, what: str) -> tuple[int, str]:
    if idx >= len(lines):
        last = lines[-1][0] if lines else 1
        raise ParseError(f"unexpected end of input: expected {what}", last, 1)
    return lines[idx]


def _header(lines: list[tuple[int, str]]) -> tuple[int, int]:
    """``n`` and ``vstar`` from the first two content lines."""
    line1, header = _need(lines, 0, "'TFP v1' header")
    if header != "TFP v1":
        raise ParseError("malformed header: expected 'TFP v1'", line1, 1)
    line2, meta = _need(lines, 1, "'n=<int> vstar=<int>'")
    m = _META_RE.fullmatch(meta)
    if m is None:
        raise ParseError("malformed header: expected 'n=<int> vstar=<int>'", line2, 1)
    n, vstar = int(m.group(1)), int(m.group(2))
    if not _is_power_of_two(n):
        raise ParseError(f"n={n} is not a power of two", line2, 1)
    if vstar >= n:
        col = meta.index("vstar=") + len("vstar=") + 1
        raise ParseError(f"vstar={vstar} out of range for n={n}", line2, col)
    return n, vstar


def _parse_lines(text: str) -> Tournament:
    """The line-by-line reader behind ``parse_tournament``, for any layout."""
    lines = _content_lines(text)
    n, vstar = _header(lines)
    body = lines[2 : 2 + n]
    rows = [row for _, row in body]
    packed, first_bad = _row_masks(rows, n)
    if first_bad < len(rows):
        _check_row(first_bad, rows, n, body[first_bad][0])
        raise AssertionError(f"matrix row {first_bad} flagged without a defect")
    if len(rows) < n:
        _need(lines, 2 + len(rows), f"matrix row {len(rows)}")
    if len(lines) > 2 + n:
        raise ParseError("unexpected trailing content", lines[2 + n][0], 1)
    return Tournament._from_rows(packed, vstar)


def _row_masks(rows: list[str], n: int) -> tuple[np.ndarray, int]:
    """The packed rows read, and the index of the first row with a defect.

    A row has a defect when it is not n ASCII cells, when a cell is not
    '0'/'1', when its diagonal cell is '1', or when a cell repeats its
    mirror in an earlier row.  The index is ``len(rows)`` when no row has
    one.  Rows are read a block at a time and the mirror cells are a column
    strip of the rows already packed, so no n-by-n bool matrix is held.
    """
    m = next((i for i, row in enumerate(rows) if len(row) != n or not row.isascii()), len(rows))
    packed = np.zeros((m, (n + 7) // 8), np.uint8)
    for lo in range(0, m, _BLOCK):
        hi = min(m, lo + _BLOCK)
        cells = np.array(rows[lo:hi], dtype=f"S{n}").view(np.uint8).reshape(hi - lo, n)
        a = cells == ord("1")
        packed[lo:hi] = np.packbits(a, axis=1, bitorder="little")
        mirror = _strip(packed[:hi], lo, hi).T  # a[j, i] at [i - lo, j]
        defect = ((cells | 1) != ord("1")).any(axis=1)
        defect |= a[np.arange(hi - lo), np.arange(lo, hi)]
        defect |= np.tril(a[:, :hi] == mirror, lo - 1).any(axis=1)
        if defect.any():
            return packed, lo + int(np.argmax(defect))
    return packed, m


def _check_row(i: int, rows: list[str], n: int, lineno: int) -> None:
    """Raise the ParseError for the first defect of row i, scanning cell by cell."""
    row = rows[i]
    if len(row) != n:
        raise ParseError(
            f"matrix row {i} has {len(row)} cells, expected {n}",
            lineno,
            min(len(row), n) + 1,
        )
    for j, ch in enumerate(row):
        if ch not in "01":
            raise ParseError(f"matrix cell must be '0' or '1', got {ch!r}", lineno, j + 1)
        if j == i and ch == "1":
            raise ParseError(f"diagonal cell ({i},{i}) must be '0'", lineno, j + 1)
        if j < i and ch == rows[j][i]:
            how = "oriented both ways" if ch == "1" else "not oriented"
            raise ParseError(
                f"antisymmetry violation: pair ({j},{i}) is {how}", lineno, j + 1
            )


def format_tournament(t: Tournament, comments: Iterable[str] = ()) -> str:
    """Render a tournament in the TFP v1 format parsed by parse_tournament.

    Each comment becomes one '# ' line, so a comment that ``str.splitlines``
    would split raises ValueError: its second line would be read as content.
    """
    out = []
    for c in comments:
        if "".join(c.splitlines()) != c:
            raise ValueError(f"comment {c!r} holds a line break")
        out.append(f"# {c}\n")
    out.append(f"TFP v1\nn={t.n} vstar={t.vstar}\n")
    for lo in range(0, t.n, _BLOCK):
        rows = _strip(t._rows[lo : lo + _BLOCK], 0, t.n)
        cells = np.full((len(rows), t.n + 1), ord("\n"), np.uint8)
        cells[:, : t.n] = rows.view(np.uint8) + ord("0")
        out.append(cells.tobytes().decode("ascii"))
    return "".join(out)


def bracket_rounds(t: Tournament, order: Sequence[int]) -> list[list[Match]]:
    """Play a bracket over ``order`` and return each round's matches in slot order."""
    out, rounds = t.out_masks, []
    cur = list(map(operator.index, order))  # numpy ids overflow the shifts
    _check_leaf_count(len(cur))
    while len(cur) > 1:
        matches = [(u, v) if out[u] >> v & 1 else (v, u) for u, v in zip(cur[::2], cur[1::2])]
        rounds.append(matches)
        cur = [w for w, _ in matches]
    return rounds


def champion_of(t: Tournament, order: Sequence[int]) -> int:
    """Winner of the bracket over ``order``, without building a trace."""
    out = t.out_masks
    cur = list(map(operator.index, order))  # numpy ids overflow the shifts
    _check_leaf_count(len(cur))
    while len(cur) > 1:
        cur = [u if out[u] >> v & 1 else v for u, v in zip(cur[::2], cur[1::2])]
    return cur[0]


def _round(t: Tournament, blocks: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """One bracket round over equal-size blocks, each led by its winner:
    adjacent blocks meet, and the winner's block goes on the left."""
    out = t.out_masks
    return [a + b if out[a[0]] >> b[0] & 1 else b + a for a, b in zip(blocks[::2], blocks[1::2])]


def _fold(t: Tournament, blocks: list[tuple[int, ...]]) -> tuple[int, ...]:
    """Play a power-of-two count of equal-size blocks, each led by its
    winner, down to one block: the leaf order of the whole bracket, its
    winner first."""
    while len(blocks) > 1:
        blocks = _round(t, blocks)
    return blocks[0]


def simulate(t: Tournament, s: Seeding) -> KnockoutTrace:
    """Play out the bracket given by ``s`` and record every round."""
    if s.n != t.n:
        raise ValueError(f"seeding over {s.n} players does not fit n={t.n}")
    played = bracket_rounds(t, s.leaf_order)
    survivors = [frozenset(s.leaf_order)]
    rounds = []
    losers = []
    for matches in played:
        rounds.append(frozenset(matches))
        losers.append(frozenset(l for _, l in matches))
        survivors.append(frozenset(w for w, _ in matches))
    champ = s.leaf_order[0] if not played else played[-1][0][0]
    return KnockoutTrace(
        rounds=tuple(rounds),
        survivors=tuple(survivors),
        losers=tuple(losers),
        champion=champ,
    )


def format_trace(trace: KnockoutTrace) -> str:
    """Render a trace as ``round r: (w,l) ...`` lines plus the champion."""
    out = []
    for r, matches in enumerate(trace.rounds, start=1):
        pairs = " ".join(f"({w},{l})" for w, l in sorted(matches))
        out.append(f"round {r}: {pairs}")
    out.append(f"champion: {trace.champion}")
    return "\n".join(out)
