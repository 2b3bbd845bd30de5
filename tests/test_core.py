import numpy as np
import pytest
from conftest import T4_YES_TEXT, tournaments
from hypothesis import given

from tfpsolve import (
    KnockoutTrace,
    ParseError,
    Seeding,
    Tournament,
    arbitrary_lba,
    bracket_rounds,
    champion_of,
    format_tournament,
    format_trace,
    gen_random,
    parse_tournament,
    seeding_from_sequence,
    simulate,
    validate_match_sequence,
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
        assert t4_yes.in_masks == (4, 1, 10, 3)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            Tournament(n=3, vstar=0, out_masks=(6, 0, 2))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Tournament(n=2, vstar=0, out_masks=(1, 0))

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
}


class TestParser:
    def test_reference_yes(self, t4_yes):
        assert t4_yes.out_masks == (10, 12, 1, 4)

    def test_reference_no(self, t4_no):
        assert t4_no.out_masks == (2, 0, 3, 7)
        assert t4_no.k == 2 and t4_no.ell == 1

    def test_round_trip(self, t4_yes):
        assert parse_tournament(format_tournament(t4_yes)) == t4_yes

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
        assert simulate(t, s) == simulate(t, Seeding(tuple(range(64))))

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
        tree = arbitrary_lba(t, order)
        assert tree == arbitrary_lba(t, range(64))
        assert all(type(v) is int for v in (tree.root, *tree.parent, *tree.parent.values()))


class TestSimulation:
    def test_trace_identity_order(self, t4_yes):
        trace = simulate(t4_yes, Seeding((0, 1, 2, 3)))
        assert trace.rounds == (frozenset({(0, 1), (3, 2)}), frozenset({(0, 3)}))
        assert trace.survivors[0] == frozenset({0, 1, 2, 3})
        assert trace.survivors[1] == frozenset({0, 3})
        assert trace.survivors[2] == frozenset({0})
        assert trace.losers == (frozenset({1, 2}), frozenset({3}))
        assert trace.champion == 0

    def test_other_bracket_other_champion(self, t4_yes):
        assert champion_of(t4_yes, (0, 2, 1, 3)) == 1

    def test_format_trace(self, t4_yes):
        trace = simulate(t4_yes, Seeding((0, 1, 2, 3)))
        assert format_trace(trace) == "round 1: (0,1) (3,2)\nround 2: (0,3)\nchampion: 0"

    def test_single_player(self):
        t = Tournament(n=1, vstar=0, out_masks=(0,))
        trace = simulate(t, Seeding((0,)))
        assert trace.rounds == () and trace.champion == 0

    @given(tournaments())
    def test_survivor_counts_halve(self, t):
        trace = simulate(t, Seeding(tuple(range(t.n))))
        assert isinstance(trace, KnockoutTrace)
        for r, group in enumerate(trace.survivors):
            assert len(group) == t.n >> r
        assert trace.champion in trace.survivors[-1]


class TestMatchSequences:
    def test_simulated_rounds_validate(self, t4_yes):
        trace = simulate(t4_yes, Seeding((0, 1, 2, 3)))
        assert validate_match_sequence(t4_yes, [list(r) for r in trace.rounds])

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
        trace = simulate(t4_yes, Seeding((0, 1, 2, 3)))
        rebuilt = seeding_from_sequence([list(r) for r in trace.rounds])
        assert rebuilt == Seeding((0, 1, 3, 2))

    def test_seeding_from_sequence_rejects_empty(self):
        with pytest.raises(ValueError):
            seeding_from_sequence([])

    @given(tournaments())
    def test_sequence_round_trip_preserves_matches(self, t):
        trace = simulate(t, Seeding(tuple(range(t.n))))
        rounds = [list(r) for r in trace.rounds]
        rebuilt = seeding_from_sequence(rounds)
        again = simulate(t, rebuilt)
        assert [set(r) for r in again.rounds] == [set(r) for r in rounds]


def test_bracket_rounds_on_subset(t4_yes):
    assert bracket_rounds(t4_yes, [1, 2]) == [[(1, 2)]]
    assert bracket_rounds(t4_yes, [0, 1, 3, 2]) == [[(0, 1), (3, 2)], [(0, 3)]]
