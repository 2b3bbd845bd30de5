import gc
import hashlib
import io
import sys
import tracemalloc

import numpy as np
import pytest
from conftest import T4_YES_TEXT, tournaments
from hypothesis import given, settings
from hypothesis import strategies as st
import schedules
from schedules import seeding_from_sequence, validate_match_sequence

from tfpsolve import (
    ParseError,
    Seeding,
    Tournament,
    bracket_rounds,
    brute_force_wwf,
    champion_of,
    complete_wwf,
    extract_local_lba,
    find_wwf,
    format_tournament,
    format_trace,
    gen_planted_yes,
    gen_random,
    is_wwf,
    parse_tournament,
    repair_to_nice,
    solve,
)
from tfpsolve.core import (
    _BLOCK,
    _check_packed,
    _in_mask,
    _packed,
    _parse_canonical,
    _parse_lines,
    _players,
    _transpose,
    write_tournament,
)


class TestTournament:
    def test_basic_accessors(self, t4_yes):
        assert t4_yes.n == 4
        assert t4_yes.vstar == 0
        assert t4_yes.num_rounds == 2
        assert t4_yes.beats(0, 1) and not t4_yes.beats(1, 0)
        assert t4_yes.in_neighbors == frozenset({2})
        assert t4_yes.out_neighbors == frozenset({1, 3})
        assert t4_yes.k == 1 and t4_yes.ell == 2
        assert tuple(_in_mask(t4_yes.out_masks, v) for v in t4_yes.players) == (4, 1, 10, 3)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            Tournament(n=3, vstar=0, out_masks=(6, 0, 2))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Tournament(n=2, vstar=0, out_masks=(1, 0))

    def test_rejects_favorite_out_of_range(self, t4_yes):
        with pytest.raises(ValueError, match=r"^favorite 4 out of range for n=4$"):
            Tournament(n=4, vstar=4, out_masks=t4_yes.out_masks)

    def test_rejects_wrong_row_count(self, t4_yes):
        with pytest.raises(ValueError, match=r"^out_masks length differs from player count$"):
            Tournament(n=4, vstar=0, out_masks=t4_yes.out_masks[:3])

    def test_rejects_unoriented_pair(self):
        with pytest.raises(ValueError):
            Tournament(n=2, vstar=0, out_masks=(0, 0))

    def test_rejects_double_oriented_pair(self):
        with pytest.raises(ValueError):
            Tournament(n=2, vstar=0, out_masks=(2, 1))

    def test_from_matrix(self, t4_yes):
        m = [[0, 1, 0, 1], [0, 0, 1, 1], [1, 0, 0, 0], [0, 0, 1, 0]]
        assert Tournament.from_matrix(m, vstar=0) == t4_yes

    def test_from_matrix_numpy_bool(self, t4_yes):
        m = np.array([[0, 1, 0, 1], [0, 0, 1, 1], [1, 0, 0, 0], [0, 0, 1, 0]], bool)
        got = Tournament.from_matrix(m, vstar=0)
        assert got == t4_yes
        assert all(type(v) is int for v in got.out_masks)
        t = gen_random(128, 3, seed=5)
        a = np.array([[t.beats(u, v) for v in range(128)] for u in range(128)])
        assert Tournament.from_matrix(a, vstar=0) == t

    def test_names_first_bad_pair_in_row_major_order(self):
        # (0,3) and (1,2) are both unoriented; a column-major scan meets (1,2) first
        with pytest.raises(ValueError, match=r"^pair \(0,3\) is not oriented exactly once$"):
            Tournament(n=4, vstar=0, out_masks=(0b0010, 0b1000, 0b1001, 0))
        # (0,3) and (1,2) are both oriented both ways
        with pytest.raises(ValueError, match=r"^pair \(0,3\) is not oriented exactly once$"):
            Tournament(n=4, vstar=0, out_masks=(0b1010, 0b1100, 0b1011, 0b0001))
        # n=4: the cell-by-cell check
        with pytest.raises(ValueError, match=r"^pair \(2,3\) is not oriented exactly once$"):
            Tournament(n=4, vstar=0, out_masks=(0b1110, 0b1100, 0b0000, 0b0000))
        # n=256: the packed check, with the bad pairs in different 8x8 bit blocks;
        # (131,140) is unoriented and (130,250) oriented both ways
        masks = [(1 << 256) - (2 << u) for u in range(256)]  # u beats every v > u
        masks[131] &= ~(1 << 140)
        masks[250] |= 1 << 130
        with pytest.raises(ValueError, match=r"^pair \(130,250\) is not oriented exactly once$"):
            Tournament(n=256, vstar=0, out_masks=tuple(masks))
        masks[250] &= ~(1 << 130)
        with pytest.raises(ValueError, match=r"^pair \(131,140\) is not oriented exactly once$"):
            Tournament(n=256, vstar=0, out_masks=tuple(masks))
        # (131,141) is unoriented too, in the same byte of row 131
        masks[131] &= ~(1 << 141)
        with pytest.raises(ValueError, match=r"^pair \(131,140\) is not oriented exactly once$"):
            Tournament(n=256, vstar=0, out_masks=tuple(masks))

    def test_self_loop_wins_over_bad_pair(self):
        with pytest.raises(ValueError, match=r"^player 2 listed as beating itself$"):
            Tournament(n=4, vstar=0, out_masks=(0, 0, 0b0100, 0))

    @pytest.mark.parametrize("bad", [-1, -5, np.int64(-1), 1 << 4, 1 << 70])
    def test_mask_outside_range_is_value_error(self, bad):
        with pytest.raises(ValueError, match=r"^row 1 has bits outside the player range$"):
            Tournament(n=4, vstar=0, out_masks=(0b1010, bad, 1, 4))

    def test_numpy_integer_masks_at_n128(self):
        # transitive: u beats every v < u, so rows below 64 fit a numpy integer
        masks = tuple((1 << u) - 1 for u in range(128))
        mixed = tuple(
            np.int64(m) if u < 63 else np.uint64(m) if u < 64 else m
            for u, m in enumerate(masks)
        )
        got = Tournament(n=128, vstar=127, out_masks=mixed)
        assert got == Tournament(n=128, vstar=127, out_masks=masks)
        assert all(type(v) is int for v in got.out_masks)
        assert got.k == 0 and got.ell == 127
        with pytest.raises(ValueError, match=r"^row 5 has bits outside the player range$"):
            Tournament(n=128, vstar=0, out_masks=mixed[:5] + (np.int64(-1),) + mixed[6:])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 2**32 - 1), st.data())
    def test_neighbor_sets_match_the_table(self, rounds, seed, data):
        n = 1 << rounds
        upper = np.triu(np.random.default_rng(seed).random((n, n)) < 0.5, 1)
        vstar = data.draw(st.integers(0, n - 1))
        t = Tournament.from_matrix(upper | np.tril(~upper.T, -1), vstar)
        ins = tuple(_in_mask(t.out_masks, v) for v in t.players)
        assert ins == tuple(sum(t.beats(u, v) << u for u in t.players) for v in t.players)
        assert t.in_neighbors == {u for u in t.players if t.beats(u, vstar)}
        assert t.out_neighbors == {u for u in t.players if t.beats(vstar, u)}
        assert t.k == len(t.in_neighbors) and t.ell == len(t.out_neighbors)

    @pytest.mark.parametrize("n", [1, 8, 64, 4096])
    def test_neighbor_sets_match_the_bit_loop(self, n):
        for k in sorted({0, n // 3, n - 1}):
            t = gen_random(n, k, seed=n + k)
            assert t.out_neighbors == frozenset(_players(t.out_masks[t.vstar]))
            assert t.in_neighbors == frozenset(_players(_in_mask(t.out_masks, t.vstar)))
            assert len(t.in_neighbors) == k


def _cell_error(masks: list[int], n: int) -> str | None:
    """The first defect of a results table, checked cell by cell: rows in
    order (the range before the diagonal), then pairs in row-major order."""
    for u, row in enumerate(masks):
        if row < 0 or row >> n:
            return f"row {u} has bits outside the player range"
        if row >> u & 1:
            return f"player {u} listed as beating itself"
    for u in range(n):
        for v in range(u + 1, n):
            if (masks[u] >> v & 1) == (masks[v] >> u & 1):
                return f"pair ({u},{v}) is not oriented exactly once"
    return None


def _random_table(n: int, rng: np.random.Generator) -> np.ndarray:
    upper = np.triu(rng.random((n, n)) < 0.5, 1)
    return upper | np.tril(~upper.T, -1)


def _plain_masks(a: np.ndarray) -> list[int]:
    return [int("".join("1" if x else "0" for x in row[::-1]) or "0", 2) for row in a]


DEFECTS = ("unoriented", "both_ways", "self_loop", "past_n")
DEFECT_CASES = [
    (n, d)
    for n in (1, 2, 4, 8, 16, 64, 256, 1024)
    for d in DEFECTS
    if n > 1 or d in ("self_loop", "past_n")  # one player has no pair
]


def _transpose_one_pass(packed: np.ndarray) -> np.ndarray:
    """``_transpose`` on the whole table at once: the reference for its strips."""
    n, m = packed.shape
    x = packed.reshape(m, 8, m).transpose(0, 2, 1).copy().view("<u8").reshape(m, m)
    for shift, mask in (
        (7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0)
    ):
        t = x >> np.uint64(shift)
        t ^= x
        t &= np.uint64(mask)
        x ^= t
        t <<= np.uint64(shift)
        x ^= t
    return x.T.copy().view(np.uint8).reshape(m, m, 8).transpose(0, 2, 1).reshape(n, m)


def _random_packed(n: int) -> np.ndarray:
    a = np.random.default_rng(n).random((n, n)) < 0.5
    return np.packbits(a, axis=1, bitorder="little")


# Traced bytes allowed beyond the stated arrays: headers and small objects.
_SLACK = 64 << 10


class TestPackedCheck:
    @pytest.mark.parametrize("n", [8, 16, 64, 512, 2048])
    def test_transpose_matches_packbits(self, n):
        a = np.random.default_rng(n).random((n, n)) < 0.5
        got = _transpose(np.packbits(a, axis=1, bitorder="little"))
        assert np.array_equal(got, np.packbits(a.T, axis=1, bitorder="little"))

    @pytest.mark.parametrize("n", [8, 1024, 1064, 2048])  # 1064: a partial last strip
    def test_transpose_matches_the_one_pass_reference(self, n):
        packed = _random_packed(n)
        assert np.array_equal(_transpose(packed), _transpose_one_pass(packed))

    def test_transpose_peak_at_4096(self):
        packed = _random_packed(4096)
        _transpose(packed)  # numpy's one-time allocations
        tracemalloc.start()
        try:
            _transpose(packed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output, and three uint64 strips of 1024 players: the word
        # copy and two swap temporaries; one pass held three whole tables
        assert peak <= packed.nbytes + 3 * 1024 * packed.shape[1] + _SLACK

    @pytest.mark.parametrize("n, defect", DEFECT_CASES)
    def test_one_defect_matches_the_cell_reference(self, n, defect):
        rng = np.random.default_rng([n, DEFECTS.index(defect)])
        for _ in range(3):
            a = _random_table(n, rng)
            u, v = sorted(rng.choice(n, 2, replace=False)) if n > 1 else (0, 0)
            if defect == "unoriented":
                a[u, v] = a[v, u] = False
            elif defect == "both_ways":
                a[u, v] = a[v, u] = True
            elif defect == "self_loop":
                a[v, v] = True
            masks = _plain_masks(a)
            if defect == "past_n":
                masks[v] |= 1 << n + int(rng.integers(0, 9))
            want = _cell_error(masks, n)
            assert want is not None
            with pytest.raises(ValueError) as got:
                Tournament(n, 0, masks)
            assert str(got.value) == want
            if defect != "past_n":
                with pytest.raises(ValueError) as got:
                    Tournament.from_matrix(a, 0)
                assert str(got.value) == want
            if defect != "past_n" and n >= 8:  # directly, also where the constructor checks cells
                with pytest.raises(ValueError) as got:
                    _check_packed(np.packbits(a, axis=1, bitorder="little"))
                assert str(got.value) == want
        # and the table without a defect passes
        assert Tournament.from_matrix(_random_table(n, rng), 0).n == n

    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_rows_fire_in_order_with_range_first_in_a_row(self, n):
        def table(extra: dict[int, int]) -> list[int]:
            masks = [(1 << u) - 1 for u in range(n)]  # u beats every v < u
            for u, bits in extra.items():
                masks[u] |= bits
            return masks

        with pytest.raises(ValueError, match=r"^player 3 listed as beating itself$"):
            Tournament(n, 0, table({3: 1 << 3, 5: 1 << n}))
        with pytest.raises(ValueError, match=r"^row 3 has bits outside the player range$"):
            Tournament(n, 0, table({3: 1 << n, 5: 1 << 5}))
        with pytest.raises(ValueError, match=r"^row 3 has bits outside the player range$"):
            Tournament(n, 0, table({3: 1 << 3 | 1 << n}))


def _crlf_with_comment(t: Tournament) -> str:
    """``t``'s file with CRLF line ends and a comment between rows: not canonical."""
    lines = format_tournament(t).splitlines()
    return "\r\n".join(lines[:3] + ["# between rows"] + lines[3:]) + "\r\n"


def _via_line_reader(t: Tournament) -> Tournament:
    text = _crlf_with_comment(t)
    assert _parse_canonical(text.encode()) is None
    return parse_tournament(text)


def _via_canonical_bytes(t: Tournament) -> Tournament:
    data = format_tournament(t).encode()
    got = _parse_canonical(data)
    assert got is not None
    return got


# Each way a Tournament is made, from a random table of n players (the
# generators take only its n).
ROW_SOURCES = {
    "canonical_parse": _via_canonical_bytes,
    "line_parse": _via_line_reader,
    "from_matrix": lambda t: Tournament.from_matrix(
        [[t.beats(u, v) for v in t.players] for u in t.players], t.vstar
    ),
    "constructor": lambda t: Tournament(t.n, t.vstar, t.out_masks),
    "gen_random": lambda t: gen_random(t.n, 1, seed=t.n),
    "gen_planted_yes": lambda t: gen_planted_yes(t.n, 0, seed=t.n)[0],
}

# sha256 of format_tournament of a 64-player table built by the constructor
# (vstar=5) and of one read by the line-by-line reader (vstar=9)
FORMAT_PINS = {
    "constructor": "fa1d62676efecf7dbdb7edbfea2f397eee7751283573ff8d3920cbbde2eab466",
    "line_parse": "add59563e62d3489d0baaa474725248a26f0a457c515627774188e75ebda0fe8",
}


class TestCheckedRows:
    @pytest.mark.parametrize("n", [4, 16, 64, 256])
    @pytest.mark.parametrize("source", ROW_SOURCES)
    def test_rows_are_the_packed_masks_and_read_only(self, source, n):
        t = ROW_SOURCES[source](_random_tournament(n, np.random.default_rng([n, 7])))
        # the masks are the one stored form: no packed rows are kept
        assert set(vars(t)) <= {"n", "vstar", "out_masks", "in_neighbors", "out_neighbors"}
        assert type(t.out_masks) is tuple and all(type(m) is int for m in t.out_masks)
        with pytest.raises(AttributeError):
            t.out_masks = ()
        # and the rows format_tournament writes pack to them
        rows = format_tournament(t).splitlines()[2:]
        cells = np.array([[c == "1" for c in row] for row in rows])
        assert np.array_equal(np.packbits(cells, axis=1, bitorder="little"), _packed(t.out_masks, n))

    def test_format_of_constructed_table_is_pinned(self):
        masks = _plain_masks(_random_table(64, np.random.default_rng(640)))
        text = format_tournament(Tournament(64, 5, masks))
        assert hashlib.sha256(text.encode()).hexdigest() == FORMAT_PINS["constructor"]

    def test_format_of_line_parsed_table_is_pinned(self):
        a = _random_table(64, np.random.default_rng(641))
        t = _via_line_reader(Tournament.from_matrix(a, 9))
        text = format_tournament(t)
        assert hashlib.sha256(text.encode()).hexdigest() == FORMAT_PINS["line_parse"]


class TestStoredForm:
    def test_parse_and_solve_hold_only_the_masks(self):
        text = format_tournament(gen_planted_yes(4096, 2, seed=3)[0]).encode()
        solve(parse_tournament(text), "indeg")  # numpy's one-time allocations
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            t = parse_tournament(text)
            gc.collect()
            parsed = tracemalloc.get_traced_memory()[0] - base
            assert solve(t, "indeg") is not None
            gc.collect()
            solved = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        # 2.27 MiB of masks; packed rows would add 2 MiB, all in-masks 2.27
        masks = sys.getsizeof(t.out_masks) + sum(map(sys.getsizeof, t.out_masks))
        assert parsed <= masks + _SLACK
        assert solved <= masks + _SLACK

    def test_write_holds_one_block(self, tmp_path):
        t = gen_planted_yes(4096, 2, seed=3)[0]
        path = tmp_path / "t.tfp"

        def peak(write):
            write()  # numpy's one-time allocations
            tracemalloc.start()
            try:
                write()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def stream():
            with path.open("wb") as f:
                write_tournament(t, f)

        # One block of 128 rows at a time: its cells, n + 1 bytes a row, and
        # while they are filled its packed rows (n/8 bytes a row) and their
        # unpacked bits (n bytes a row); 1.06 MiB at n=4096.
        block = _BLOCK * (t.n + 1 + t.n // 8 + t.n)
        assert peak(stream) <= block + _SLACK
        # the text path holds the 16 MiB table as one str and again as bytes
        assert peak(lambda: path.write_text(format_tournament(t))) > 2 * t.n * t.n


_H4 = "TFP v1\nn=4 vstar=0\n"


def _n256_with_last_row(last: str) -> str:
    """Player u beats every v > u; the last row is replaced by ``last``."""
    rows = ["0" * (u + 1) + "1" * (255 - u) for u in range(256)]
    rows[-1] = last
    return "TFP v1\nn=256 vstar=0\n" + "\n".join(rows) + "\n"


# (text, message, line, col) of the first defect, as the row-by-row scan reports it
PARSE_ERRORS = {
    "bad_cell_before_short_row": (
        _H4 + "0101\n0x11\n100\n0010\n", "matrix cell must be '0' or '1', got 'x'", 4, 2
    ),
    "short_row_before_bad_cell": (
        _H4 + "0101\n001\n1x00\n0010\n", "matrix row 1 has 3 cells, expected 4", 4, 4
    ),
    "long_row": (_H4 + "0101\n00110\n1000\n0010\n", "matrix row 1 has 5 cells, expected 4", 4, 5),
    "both_ways_before_bad_char": (
        _H4 + "0101\n0011\n110x\n0010\n",
        "antisymmetry violation: pair (1,2) is oriented both ways",
        5,
        2,
    ),
    "not_oriented_before_bad_char": (
        _H4 + "0101\n0011\n000x\n0010\n",
        "antisymmetry violation: pair (0,2) is not oriented",
        5,
        1,
    ),
    "bad_char_before_clash": (
        _H4 + "0101\n0011\nx000\n0010\n", "matrix cell must be '0' or '1', got 'x'", 5, 1
    ),
    "diagonal_one": (_H4 + "0101\n0111\n1000\n0010\n", "diagonal cell (1,1) must be '0'", 4, 2),
    "non_ascii_cell": (
        _H4 + "0101\n0\u00e911\n1000\n0010\n", "matrix cell must be '0' or '1', got '\u00e9'", 4, 2
    ),
    "non_ascii_after_clash": (
        _H4 + "0101\n0011\n010\u00e9\n0010\n",
        "antisymmetry violation: pair (0,2) is not oriented",
        5,
        1,
    ),
    "space_inside_row": (
        _H4 + "0101\n00 1\n1000\n0010\n", "matrix cell must be '0' or '1', got ' '", 4, 3
    ),
    "tab_inside_row": (
        _H4 + "0101\n0011\n1\t00\n0010\n", "matrix cell must be '0' or '1', got '\\t'", 5, 2
    ),
    "fullwidth_digit": (
        _H4 + "0101\n0011\n1000\n001\uff10\n", "matrix cell must be '0' or '1', got '\uff10'", 6, 4
    ),
    "comments_shift_lines": (
        "# c\n\nTFP v1\n# x\nn=4 vstar=0\n\n0101\n# mid\n0011\n\n1002\n0010\n",
        "matrix cell must be '0' or '1', got '2'",
        11,
        4,
    ),
    "crlf_with_whitespace": (
        "TFP v1\r\n n=4 vstar=0 \r\n  0101 \r\n\t0011\r\n1000  \r\n 0011\r\n",
        "diagonal cell (3,3) must be '0'",
        6,
        4,
    ),
    "truncated_after_good_rows": (
        _H4 + "0101\n0011\n", "unexpected end of input: expected matrix row 2", 4, 1
    ),
    "defect_before_truncation": (_H4 + "0101\n0111\n", "diagonal cell (1,1) must be '0'", 4, 2),
    "trailing_after_rows": (_H4 + "0101\n0011\n1000\n0010\nxyz\n", "unexpected trailing content", 7, 1),
    "n256_last_row_clash": (
        _n256_with_last_row("0" * 254 + "10"),
        "antisymmetry violation: pair (254,255) is oriented both ways",
        258,
        255,
    ),
    "n256_last_row_bad_char": (
        _n256_with_last_row("0" * 255 + "x"), "matrix cell must be '0' or '1', got 'x'", 258, 256
    ),
    # a header n past any array size: the reader used to size its packed
    # rows by n before reading one, and numpy's message came out instead
    "huge_n_no_rows": (
        f"TFP v1\nn={2**66} vstar=0\n", "unexpected end of input: expected matrix row 0", 2, 1
    ),
    "huge_n_short_row": (
        f"TFP v1\nn={2**66} vstar=0\n0\n", f"matrix row 0 has 1 cells, expected {2**66}", 3, 2
    ),
}


class TestParser:
    def test_reference_yes(self, t4_yes):
        assert t4_yes.out_masks == (10, 12, 1, 4)

    def test_reference_no(self, t4_no):
        assert t4_no.out_masks == (2, 0, 3, 7)
        assert t4_no.k == 2 and t4_no.ell == 1

    def test_round_trip(self, t4_yes):
        assert parse_tournament(format_tournament(t4_yes)) == t4_yes

    def test_round_trip_with_comments(self, t4_yes):
        text = format_tournament(t4_yes, comments=("plain comment", ""))
        assert text.startswith("# plain comment\n# \nTFP v1\n")
        assert parse_tournament(text) == t4_yes
        assert parse_tournament(text.encode()) == t4_yes

    # every boundary str.splitlines breaks at
    @pytest.mark.parametrize(
        "sep",
        ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
        ids=["LF", "CR", "CRLF", "VT", "FF", "FS", "GS", "RS", "NEL", "LS", "PS"],
    )
    def test_comment_with_line_break_is_rejected(self, t4_yes, sep):
        # the text after a break would be read as the header
        for comment in (f"x{sep}TFP v1", f"x{sep}"):
            with pytest.raises(ValueError, match="holds a line break"):
                format_tournament(t4_yes, comments=("ok", comment))
            # and the writer checks every comment before its first byte
            f = io.BytesIO()
            with pytest.raises(ValueError, match="holds a line break"):
                write_tournament(t4_yes, f, comments=("ok", comment))
            assert f.getvalue() == b""

    def test_comments_and_blanks_keep_line_numbers(self):
        text = "# a comment\n\nTFP v1\n# another\nn=4 vstar=0\n0101\n0011\n1000\n0010\n"
        assert parse_tournament(text).out_masks == (10, 12, 1, 4)

    def test_bad_header(self):
        with pytest.raises(ParseError) as e:
            parse_tournament("tfp v1\nn=4 vstar=0\n")
        assert e.value.line == 1 and e.value.col == 1
        assert "line 1, col 1" in str(e.value)

    def test_bad_meta(self):
        with pytest.raises(ParseError) as e:
            parse_tournament("TFP v1\nn=4, vstar=0\n0101\n0011\n1000\n0010\n")
        assert e.value.line == 2

    @pytest.mark.parametrize(
        "meta", ["n=\u0664 vstar=0", "n=4 vstar=\u0660"], ids=["n", "vstar"]
    )
    def test_meta_takes_ascii_digits_only(self, meta):
        # \d matched any Unicode digit, so n=<Arabic-Indic 4> read as n=4
        text = f"TFP v1\n{meta}\n0101\n0011\n1000\n0010\n"
        for data in (text, text.encode()):
            with pytest.raises(ParseError, match="^line 2, col 1: malformed header: expected"):
                parse_tournament(data)

    def test_n_not_power_of_two(self):
        with pytest.raises(ParseError, match="power of two"):
            parse_tournament("TFP v1\nn=3 vstar=0\n010\n001\n100\n")

    def test_vstar_out_of_range(self):
        with pytest.raises(ParseError) as e:
            parse_tournament("TFP v1\nn=4 vstar=4\n0101\n0011\n1000\n0010\n")
        assert e.value.line == 2 and e.value.col == 11

    def test_short_row(self):
        with pytest.raises(ParseError) as e:
            parse_tournament("TFP v1\nn=4 vstar=0\n010\n0011\n1000\n0010\n")
        assert e.value.line == 3

    def test_bad_cell(self):
        with pytest.raises(ParseError) as e:
            parse_tournament("TFP v1\nn=4 vstar=0\n0x01\n0011\n1000\n0010\n")
        assert e.value.line == 3 and e.value.col == 2

    def test_diagonal(self):
        with pytest.raises(ParseError, match="diagonal"):
            parse_tournament("TFP v1\nn=4 vstar=0\n1101\n0011\n1000\n0010\n")

    def test_truncated_input(self):
        with pytest.raises(ParseError, match="unexpected end"):
            parse_tournament("TFP v1\nn=4 vstar=0\n0101\n0011\n")

    def test_trailing_content(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_tournament(T4_YES_TEXT + "0101\n")

    def test_glossary_no_instance_rows_are_inconsistent(self):
        # These four rows circulate as a 4-player no-instance but do not form
        # a tournament: (1,3) is unoriented and (2,3) is oriented both ways.
        # The parser must reject them at the first defect of the row scan.
        bad = "TFP v1\nn=4 vstar=0\n0100\n0000\n1101\n1010\n"
        with pytest.raises(ParseError, match=r"pair \(1,3\) is not oriented") as e:
            parse_tournament(bad)
        assert e.value.line == 6 and e.value.col == 2

    def test_both_ways_reported(self):
        bad = "TFP v1\nn=4 vstar=0\n0100\n1011\n1100\n1010\n"
        with pytest.raises(ParseError, match="oriented both ways") as e:
            parse_tournament(bad)
        assert e.value.line == 4

    @given(tournaments())
    def test_format_parse_round_trip(self, t):
        assert parse_tournament(format_tournament(t)) == t

    @pytest.mark.parametrize("case", PARSE_ERRORS)
    def test_first_defect_message_line_col(self, case):
        text, message, line, col = PARSE_ERRORS[case]
        with pytest.raises(ParseError) as e:
            parse_tournament(text)
        assert (e.value.message, e.value.line, e.value.col) == (message, line, col)

    @pytest.mark.parametrize("case", PARSE_ERRORS)
    def test_first_defect_from_bytes(self, case):
        text, message, line, col = PARSE_ERRORS[case]
        with pytest.raises(ParseError) as e:
            parse_tournament(text.encode())
        assert (e.value.message, e.value.line, e.value.col) == (message, line, col)


def _outcome(parse, arg):
    """What ``parse`` makes of ``arg``: a Tournament, or the error's type and text."""
    try:
        return parse(arg)
    except ValueError as e:  # ParseError and UnicodeDecodeError
        return type(e), str(e)


def _assert_same_as_line_loop(data: bytes) -> None:
    """Bytes, and the text when it decodes, parse as the line-by-line reader does."""
    want = _outcome(lambda d: _parse_lines(d.decode()), data)
    assert _outcome(parse_tournament, data) == want
    if not (isinstance(want, tuple) and want[0] is UnicodeDecodeError):
        assert _outcome(parse_tournament, data.decode()) == want


def _random_tournament(n: int, rng: np.random.Generator) -> Tournament:
    upper = np.triu(rng.random((n, n)) < 0.5, 1)
    return Tournament.from_matrix(upper | np.triu(~upper, 1).T, vstar=int(rng.integers(n)))


def _line_starts(data: bytes) -> list[int]:
    return [0] + [i + 1 for i, b in enumerate(data) if b == ord("\n")]


def _insert(data: bytes, at: int, piece: bytes) -> bytes:
    return data[:at] + piece + data[at:]


def _cell(data: bytes, n: int, u: int, v: int) -> int:
    """Offset of cell (u, v) in canonical bytes of an n-player file; v = n is the row's end."""
    return len(data) - (n - u) * (n + 1) + v


def _flip(data: bytes, n: int, *cells: tuple[int, int]) -> bytes:
    out = bytearray(data)
    for u, v in cells:
        out[_cell(data, n, u, v)] ^= 1
    return bytes(out)


def _comment_at(data: bytes, rng, comment: bytes) -> bytes:
    """``data`` with a comment line inserted before one of its lines, often in the header."""
    starts = _line_starts(data)
    pool = starts[:3] if rng.random() < 0.5 else starts
    return _insert(data, int(rng.choice(pool)), comment)


def _flip_mirror_pair(data: bytes, n: int, rng) -> bytes:
    """Turn one pair around: the result is still a tournament, a different one."""
    if n == 1:
        return data
    u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
    return _flip(data, n, (u, v), (v, u))


def _replace(data: bytes, at: int, byte: int) -> bytes:
    return data[:at] + bytes([byte]) + data[at + 1 :]


def _bad_cell(data: bytes, n: int, rng) -> bytes:
    """A cell byte other than '0'/'1' with the same low bit: 'p' for '0', 'q' for '1'."""
    at = _cell(data, n, int(rng.integers(n)), int(rng.integers(n)))
    return _replace(data, at, data[at] + 0x40)


def _row_end_replaced(data: bytes, n: int, rng) -> bytes:
    """One row ended by a space, a carriage return or a form feed instead of '\\n'."""
    at = _cell(data, n, int(rng.integers(n)), n)
    return _replace(data, at, int(rng.choice(list(b" \r\x0c"))))


def _diagonal_one(data: bytes, n: int, rng) -> bytes:
    v = int(rng.integers(n))
    return _flip(data, n, (v, v))


# Each takes canonical bytes of an n-player file and returns a variant.
MUTATIONS = {
    "flip_cell": lambda d, n, rng: _flip(d, n, (int(rng.integers(n)), int(rng.integers(n)))),
    "flip_mirror_pair": _flip_mirror_pair,
    "diagonal_one": _diagonal_one,
    "bad_cell": _bad_cell,
    "row_end_replaced": _row_end_replaced,
    "stray_byte": lambda d, n, rng: _insert(
        d, int(rng.integers(len(d) + 1)), bytes([rng.choice(list(b"x2 \t\r\x00\x0c"))])
    ),
    "crlf": lambda d, n, rng: d.replace(b"\n", b"\r\n"),
    "missing_final_newline": lambda d, n, rng: d[:-1],
    "trailing_row": lambda d, n, rng: d + d[-(n + 1) :],
    "comment_between_rows": lambda d, n, rng: _insert(
        d, int(rng.choice(_line_starts(d)[3:-1] or [len(d)])), b"# mid\n"
    ),
    "form_feed_in_comment": lambda d, n, rng: _comment_at(d, rng, b"# x\x0cgarbage\n"),
    "nel_in_comment": lambda d, n, rng: _comment_at(d, rng, "# x\x85garbage\n".encode()),
    "non_utf8_byte": lambda d, n, rng: _comment_at(d, rng, b"# caf\xe9\n"),
}

# Headers that a scan for b"\n" alone reads otherwise than the line loop:
# the loop fails where such a scan would find a canonical file.
HEADER_PARITY = {
    "non_utf8_comment": b"# caf\xe9\nTFP v1\nn=2 vstar=0\n01\n00\n",
    "form_feed_in_comment": b"TFP v1\n# x\x0cgarbage\nn=2 vstar=0\n01\n00\n",
    # str.splitlines makes "10" the first row, whose diagonal cell is '1'
    "form_feed_in_meta_line": b"TFP v1\nn=2 vstar=0\x0c10\n01\n00\n",
}


class TestCanonicalBytes:
    @pytest.mark.parametrize("n", [1, 2, 4, 64, 256])
    def test_canonical_file_takes_the_fast_path(self, n):
        t = _random_tournament(n, np.random.default_rng(n))
        data = format_tournament(t, comments=("made by a test",)).encode()
        assert _parse_canonical(data) == t
        assert parse_tournament(data) == parse_tournament(data.decode()) == t

    @pytest.mark.parametrize("mutation", MUTATIONS)
    @pytest.mark.parametrize("n", [1, 2, 4, 64, 256])
    def test_mutations_parse_as_the_line_loop(self, n, mutation):
        rng = np.random.default_rng([n, list(MUTATIONS).index(mutation)])
        for _ in range(4):
            t = _random_tournament(n, rng)
            comments = ("a comment",) if rng.random() < 0.5 else ()
            data = format_tournament(t, comments).encode()
            _assert_same_as_line_loop(MUTATIONS[mutation](data, n, rng))

    @pytest.mark.parametrize("case", HEADER_PARITY)
    def test_header_that_splits_differently_falls_back(self, case):
        data = HEADER_PARITY[case]
        assert _parse_canonical(data) is None
        _assert_same_as_line_loop(data)


class TestSeeding:
    def test_validates_permutation(self):
        with pytest.raises(ValueError):
            Seeding((0, 1, 1, 3))
        with pytest.raises(ValueError):
            Seeding((0, 1, 2))
        assert Seeding((3, 0, 2, 1)).n == 4

    def test_accepts_numpy_integers(self):
        # numpy integers used to overflow the bit shift in Tournament.beats
        s = Seeding(tuple(np.arange(64)))
        assert all(type(v) is int for v in s.leaf_order)
        t = gen_random(64, 2, seed=0)
        assert bracket_rounds(t, s.leaf_order) == bracket_rounds(t, range(64))

    def test_tournament_accepts_numpy_integers(self):
        t = gen_random(64, 2, seed=0)
        for got in (
            Tournament(n=64, vstar=np.int64(0), out_masks=t.out_masks),
            Tournament(n=np.int64(64), vstar=0, out_masks=t.out_masks),
        ):
            assert got == t and got.k == 2
            assert all(type(v) is int for v in (got.n, got.vstar, *got.out_masks))

    def test_library_calls_accept_numpy_players(self):
        # a numpy player used to force the Python-int rows into a C long at
        # n >= 64, and numpy masks lacked ``to_bytes``
        t = gen_random(64, 2, seed=0)
        order = np.arange(64)
        assert champion_of(t, order) == champion_of(t, range(64))
        assert bracket_rounds(t, order) == bracket_rounds(t, range(64))
        # the oracles take numpy ids too, and hand back plain ints
        t, s = gen_planted_yes(64, 2, seed=0)
        nice, _ = repair_to_nice(t, s)
        for b in t.in_neighbors:
            block = extract_local_lba(t, nice, np.int64(b))
            assert block == extract_local_lba(t, nice, b)
            assert all(type(v) is int for v in block)
        (tree,) = find_wwf(t)
        assert is_wwf(t, [np.array(tree, np.int64)])
        assert not is_wwf(t, [np.array(tree[:-1] + (64,), np.int64)])
        t = gen_random(16, 2, seed=3)
        forest = brute_force_wwf(t)
        assert all(type(v) is int for tree in forest for v in tree)
        numpy_forest = [np.array(tree, np.int64) for tree in forest]
        assert is_wwf(t, numpy_forest)
        assert complete_wwf(t, numpy_forest) == complete_wwf(t, forest)
        # numpy ids in a witness forest used to be shifted as int64 at n >= 64
        for seed in range(6):
            t, _ = gen_planted_yes(128, 2, seed=seed)
            trees = find_wwf(t)
            got = complete_wwf(t, [np.array(order, np.int64) for order in trees])
            assert got == complete_wwf(t, trees)
        # and a numpy player count lacked ``bit_length``
        t, s = gen_planted_yes(np.int64(64), np.int64(2), seed=0)
        assert (t, s) == gen_planted_yes(64, 2, seed=0)


class TestSimulation:
    def test_trace_identity_order(self, t4_yes):
        rounds = bracket_rounds(t4_yes, (0, 1, 2, 3))
        assert rounds == [[(0, 1), (3, 2)], [(0, 3)]]
        trace = schedules.simulate(t4_yes, Seeding((0, 1, 2, 3)))
        assert trace.rounds == (frozenset({(0, 1), (3, 2)}), frozenset({(0, 3)}))
        assert trace.survivors[0] == frozenset({0, 1, 2, 3})
        assert trace.survivors[1] == frozenset({0, 3})
        assert trace.survivors[2] == frozenset({0})
        assert trace.losers == (frozenset({1, 2}), frozenset({3}))
        assert trace.champion == 0 == champion_of(t4_yes, (0, 1, 2, 3))

    def test_other_bracket_other_champion(self, t4_yes):
        assert champion_of(t4_yes, (0, 2, 1, 3)) == 1

    def test_format_trace(self, t4_yes):
        rounds = bracket_rounds(t4_yes, (0, 1, 2, 3))
        assert format_trace(rounds, 0) == "round 1: (0,1) (3,2)\nround 2: (0,3)\nchampion: 0"

    def test_single_player(self):
        t = Tournament(n=1, vstar=0, out_masks=(0,))
        assert bracket_rounds(t, (0,)) == [] and champion_of(t, (0,)) == 0
        assert format_trace([], 0) == "champion: 0"

    @given(tournaments())
    def test_survivor_counts_halve(self, t):
        rounds = bracket_rounds(t, range(t.n))
        assert isinstance(rounds, list) and all(isinstance(r, list) for r in rounds)
        survivors = set(t.players)
        for r, matches in enumerate(rounds, start=1):
            assert {v for match in matches for v in match} == survivors
            survivors = {w for w, _ in matches}
            assert len(survivors) == t.n >> r
        assert survivors == {champion_of(t, range(t.n))}


class TestMatchSequences:
    def test_simulated_rounds_validate(self, t4_yes):
        assert validate_match_sequence(t4_yes, bracket_rounds(t4_yes, (0, 1, 2, 3)))

    def test_rejects_wrong_round_count(self, t4_yes):
        assert not validate_match_sequence(t4_yes, [[(0, 1), (3, 2)]])

    def test_rejects_nonexistent_arc(self, t4_yes):
        assert not validate_match_sequence(t4_yes, [[(1, 0), (3, 2)], [(1, 3)]])

    def test_rejects_player_reuse_within_round(self, t4_yes):
        assert not validate_match_sequence(t4_yes, [[(0, 1), (0, 2)], [(0, 3)]])

    def test_rejects_eliminated_player(self, t4_yes):
        # player 1 lost round 1 but appears again in round 2
        assert not validate_match_sequence(t4_yes, [[(0, 1), (3, 2)], [(0, 1)]])

    def test_seeding_from_sequence_frozen(self, t4_yes):
        rebuilt = seeding_from_sequence(bracket_rounds(t4_yes, (0, 1, 2, 3)))
        assert rebuilt == Seeding((0, 1, 3, 2))

    def test_seeding_from_sequence_rejects_empty(self):
        with pytest.raises(ValueError):
            seeding_from_sequence([])

    def test_seeding_from_sequence_leaves_no_cyclic_garbage(self):
        # a recursive closure is a reference cycle that holds the schedule
        # until a collection; the reference repair rebuilds once per rewrite
        t = gen_random(64, 3, seed=2)
        rounds = bracket_rounds(t, range(64))
        gc.collect()
        gc.disable()
        try:
            rebuilt = seeding_from_sequence(rounds)
            assert gc.collect() == 0
        finally:
            gc.enable()
        again = bracket_rounds(t, rebuilt.leaf_order)
        assert [set(r) for r in again] == [set(r) for r in rounds]

    @given(tournaments())
    def test_sequence_round_trip_preserves_matches(self, t):
        rounds = bracket_rounds(t, range(t.n))
        rebuilt = seeding_from_sequence(rounds)
        again = bracket_rounds(t, rebuilt.leaf_order)
        assert [set(r) for r in again] == [set(r) for r in rounds]


def test_bracket_rounds_on_subset(t4_yes):
    assert bracket_rounds(t4_yes, [1, 2]) == [[(1, 2)]]
    assert bracket_rounds(t4_yes, [0, 1, 3, 2]) == [[(0, 1), (3, 2)], [(0, 3)]]


@pytest.mark.parametrize("play", [bracket_rounds, champion_of])
@pytest.mark.parametrize("order", [[], [0, 1, 2]])
def test_leaf_count_not_power_of_two(t4_yes, play, order):
    with pytest.raises(ValueError, match=f"leaf count {len(order)} is not a power of two"):
        play(t4_yes, order)


class TestPlayersOutOfRange:
    """Each public bracket helper refuses an id outside 0..n-1 instead of
    reading another player's row through a negative index or a missing bit."""

    @pytest.mark.parametrize("u, v, bad", [(-1, 0, -1), (0, 4, 4), (5, -2, 5)])
    def test_beats(self, t4_yes, u, v, bad):
        with pytest.raises(ValueError, match=f"^the match names player {bad}, not one of the 4 players$"):
            t4_yes.beats(u, v)

    @pytest.mark.parametrize("order, bad", [([-1, 0], -1), ([0, 7], 7), ([0, 1, 2, 4], 4)])
    def test_champion_of(self, t4_yes, order, bad):
        with pytest.raises(ValueError, match=f"^the bracket names player {bad}, not one of the 4 players$"):
            champion_of(t4_yes, order)
        # sub-brackets stay legal
        assert champion_of(t4_yes, [3]) == 3 and champion_of(t4_yes, [1, 2]) == 1

    @pytest.mark.parametrize("order, bad", [([0, 7], 7), ([-4, 1], -4), ([0, 1, 3, 2**70], 2**70)])
    def test_bracket_rounds(self, t4_yes, order, bad):
        with pytest.raises(ValueError, match=f"^the bracket names player {bad}, not one of the 4 players$"):
            bracket_rounds(t4_yes, order)


@pytest.mark.parametrize("rounds", range(7))
def test_render_of_played_rounds_is_format_trace(rounds):
    """``format_trace`` over ``bracket_rounds`` prints what the frozenset
    reference in ``schedules`` prints, for winning and losing orders alike."""
    n = 1 << rounds
    rng = np.random.default_rng(rounds)
    won = set()
    for seed in range(6):
        t, witness = gen_planted_yes(n, seed % (n - n.bit_length() + 1), seed=seed)
        orders = [witness.leaf_order] + [tuple(map(int, rng.permutation(n))) for _ in range(3)]
        for u in gen_random(n, seed % n, seed=seed), t:
            for order in orders:
                want = schedules.format_trace(schedules.simulate(u, Seeding(order)))
                champion = champion_of(u, order)
                assert format_trace(bracket_rounds(u, order), champion) == want
                won.add(champion == u.vstar)
    assert won == ({True} if n == 1 else {True, False})
