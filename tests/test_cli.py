import collections
import hashlib
import importlib
from pathlib import Path

import pytest
from conftest import T4_NO_TEXT, T4_YES_TEXT
from test_instances import PLANTED_PINS, RANDOM_PINS

import tfpsolve.indeg
from tfpsolve import Tournament, format_tournament, gen_planted_yes, gen_random
from tfpsolve.cli import _build_parser, main


@pytest.fixture
def yes_file(tmp_path):
    p = tmp_path / "yes.tfp"
    p.write_text(T4_YES_TEXT)
    return str(p)


@pytest.fixture
def no_file(tmp_path):
    p = tmp_path / "no.tfp"
    p.write_text(T4_NO_TEXT)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDecide:
    def test_yes(self, capsys, yes_file):
        code, out, _ = run(capsys, "decide", yes_file)
        assert code == 0
        assert out == "YES\nalgo: exact (auto)\n"

    def test_no(self, capsys, no_file):
        code, out, _ = run(capsys, "decide", no_file)
        assert code == 1
        assert out == "NO\nalgo: outdeg (auto)\n"

    def test_explicit_algo_label(self, capsys, yes_file):
        code, out, _ = run(capsys, "decide", yes_file, "--algo", "brute")
        assert code == 0 and out == "YES\nalgo: brute\n"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "decide", str(tmp_path / "nope.tfp"))
        assert code == 2 and err.startswith("error:")

    def test_malformed_file(self, capsys, tmp_path):
        p = tmp_path / "bad.tfp"
        p.write_text("TFP v1\nn=4 vstar=9\n")
        code, _, err = run(capsys, "decide", str(p))
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize(
        "data",
        [
            T4_YES_TEXT.replace("\n", "\r\n").encode(),
            T4_YES_TEXT.replace("0011\n", "0011\n# between rows\n\n").encode(),
        ],
        ids=["crlf", "comments_between_rows"],
    )
    def test_other_layouts_answer(self, capsys, tmp_path, data):
        p = tmp_path / "yes.tfp"
        p.write_bytes(data)
        assert run(capsys, "decide", str(p)) == (0, "YES\nalgo: exact (auto)\n", "")

    @pytest.mark.parametrize(
        "data, err",
        [
            (
                b"# caf\xe9\nTFP v1\nn=2 vstar=0\n01\n00\n",
                "error: 'utf-8' codec can't decode byte 0xe9 in position 5: "
                "invalid continuation byte\n",
            ),
            (
                b"TFP v1\n# x\x0cgarbage\nn=2 vstar=0\n01\n00\n",
                "error: line 3, col 1: malformed header: expected 'n=<int> vstar=<int>'\n",
            ),
            (
                b"TFP v1\nn=73786976294838206464 vstar=0\n",
                "error: line 2, col 1: unexpected end of input: expected matrix row 0\n",
            ),
        ],
        ids=["non_utf8", "form_feed_in_header_comment", "huge_n"],
    )
    def test_header_the_line_loop_rejects(self, capsys, tmp_path, data, err):
        p = tmp_path / "bad.tfp"
        p.write_bytes(data)
        assert run(capsys, "decide", str(p)) == (2, "", err)

    @pytest.mark.parametrize(
        "n, k, algo, limit",
        [
            (32, 3, "auto", "the witness-forest search covers k <= 2, got k=3"),
            (32, 4, "auto", "capped at 16 players, got n=32"),
            (16, 2, "brute", "seeding enumeration is capped at 8 players, got n=16"),
        ],
        ids=["forest-k3", "exact-n32", "brute-n16"],
    )
    def test_out_of_reach_names_one_limit(self, capsys, tmp_path, n, k, algo, limit):
        path = str(tmp_path / "big.tfp")
        run(capsys, "gen", path, "--n", str(n), "--k", str(k), "--seed", "0")
        code, out, err = run(capsys, "decide", path, "--algo", algo)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert limit in err and "iteration" not in err and "override" not in err

    @pytest.mark.parametrize("m", ["-5", "0", "nan", "inf"])
    def test_rejects_multiplier_not_positive_and_finite(self, capsys, tmp_path, m):
        path = str(tmp_path / "p.tfp")
        run(capsys, "gen", path, "--n", "32", "--k", "2", "--seed", "0", "--planted")
        code, out, err = run(capsys, "decide", path, "--algo", "indeg", "--multiplier", m)
        assert code == 2 and out == ""
        assert err == f"error: iteration multiplier must be positive and finite, got {float(m)}\n"

    def test_rejects_negative_seed_on_every_route(self, capsys, tmp_path):
        # n=16 takes the exact route, which never reads the seed; n=64 and
        # gen hand it to numpy.  All three stop while parsing the flags.
        argvs = []
        for n in (16, 64):
            path = str(tmp_path / f"p{n}.tfp")
            run(capsys, "gen", path, "--n", str(n), "--k", "2", "--seed", "1", "--planted")
            argvs.append(["decide", path, "--seed", "-1"])
        argvs.append(["gen", str(tmp_path / "g.tfp"), "--n", "16", "--k", "2", "--seed", "-1"])
        for argv in argvs:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            out = capsys.readouterr()
            assert exc.value.code == 2 and out.out == ""
            assert "argument --seed: expected a non-negative integer, got '-1'" in out.err
        assert not (tmp_path / "g.tfp").exists()

    @pytest.mark.parametrize(
        "seed", ["\u0663", "+3", "3_0"], ids=["arabic_indic_digit", "plus_sign", "underscore"]
    )
    def test_seed_takes_ascii_digits_only(self, capsys, tmp_path, seed):
        path = tmp_path / "g.tfp"
        with pytest.raises(SystemExit) as exc:
            main(["gen", str(path), "--n", "16", "--k", "2", "--seed", seed])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert f"argument --seed: expected a non-negative integer, got {seed!r}" in out.err
        assert not path.exists()


class TestSolve:
    def test_yes_prints_seeding_and_trace(self, capsys, yes_file):
        code, out, _ = run(capsys, "solve", yes_file, "--algo", "exact")
        assert code == 0
        assert out == (
            "YES\nalgo: exact\nseeding: 0 1 3 2\n"
            "round 1: (0,1) (3,2)\nround 2: (0,3)\nchampion: 0\n"
        )

    def test_no(self, capsys, no_file):
        code, out, _ = run(capsys, "solve", no_file, "--algo", "exact")
        assert code == 1 and out == "NO\nalgo: exact\n"

    def test_indeg_seeded(self, capsys, yes_file):
        code, out, _ = run(
            capsys, "solve", yes_file, "--algo", "indeg", "--seed", "5",
            "--multiplier", "20",
        )
        assert code == 0
        assert "seeding: 0 3 1 2" in out


class TestEdgeSizes:
    """Full stdout at n=1, where no match is played, and at n=2."""

    ONE = "TFP v1\nn=1 vstar=0\n0\n"
    TWO = "TFP v1\nn=2 vstar=0\n01\n00\n"
    TWO_LOSES = "TFP v1\nn=2 vstar=1\n01\n00\n"

    @staticmethod
    def write(tmp_path, text):
        p = tmp_path / "in.tfp"
        p.write_text(text)
        return str(p)

    @pytest.mark.parametrize("algo", ["auto", "brute", "exact", "outdeg", "indeg"])
    @pytest.mark.parametrize(
        "text, rounds",
        [(ONE, ""), (TWO, "round 1: (0,1)\n")],
        ids=["n1", "n2"],
    )
    def test_yes(self, capsys, tmp_path, algo, text, rounds):
        path = self.write(tmp_path, text)
        label = "exact (auto)" if algo == "auto" else algo
        seeding = "0" if text == self.ONE else "0 1"
        assert run(capsys, "decide", path, "--algo", algo) == (0, f"YES\nalgo: {label}\n", "")
        assert run(capsys, "solve", path, "--algo", algo) == (
            0, f"YES\nalgo: {label}\nseeding: {seeding}\n{rounds}champion: 0\n", ""
        )

    @pytest.mark.parametrize("command", ["decide", "solve"])
    def test_no(self, capsys, tmp_path, command):
        path = self.write(tmp_path, self.TWO_LOSES)
        assert run(capsys, command, path) == (1, "NO\nalgo: outdeg (auto)\n", "")

    @pytest.mark.parametrize(
        "text, seeding, code, out",
        [
            (ONE, "0", 0, "seeding: 0\nchampion: 0\nwinning: yes\n"),
            (TWO, "1 0", 0, "seeding: 1 0\nround 1: (0,1)\nchampion: 0\nwinning: yes\n"),
            (TWO_LOSES, "0 1", 1, "seeding: 0 1\nround 1: (0,1)\nchampion: 0\nwinning: no\n"),
        ],
        ids=["n1", "n2", "n2_loses"],
    )
    def test_verify_seeding(self, capsys, tmp_path, text, seeding, code, out):
        path = self.write(tmp_path, text)
        assert run(capsys, "verify-seeding", path, "--seeding", seeding) == (code, out, "")


class TestOnePlay:
    """A solved or given seeding is played once, and what is printed comes
    from that play; ``check-structure`` plays each repair rewrite once more."""

    @staticmethod
    def count_plays(monkeypatch):
        """Counts of calls to ``bracket_rounds`` and ``champion_of``, and of
        the full-size brackets among them, made through any module of the
        package."""
        plays = collections.Counter()

        def counted(name, fn):
            def play(t, order):
                plays[name] += 1
                plays["full"] += len(order) == t.n
                return fn(t, order)

            return play

        for mod in ("core", "cli", "indeg", "embed", "oracles", "instances"):
            mod = importlib.import_module(f"tfpsolve.{mod}")
            for name in ("bracket_rounds", "champion_of"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
        return plays

    @pytest.mark.parametrize("command", ["decide", "solve"])
    @pytest.mark.parametrize("n, k, algo", [(4, 1, "exact"), (16, 5, "auto"), (64, 2, "indeg")])
    def test_yes_plays_its_seeding_once(self, capsys, monkeypatch, tmp_path, command, n, k, algo):
        path = tmp_path / "in.tfp"
        path.write_text(format_tournament(gen_planted_yes(n, k, seed=n)[0]))
        plays = self.count_plays(monkeypatch)
        code, out, _ = run(capsys, command, str(path), "--algo", algo)
        assert code == 0 and out.startswith("YES\n")
        assert plays["full"] == 1

    @pytest.mark.parametrize("seeding, code", [("0 1 2 3", 0), ("0 2 1 3", 1)])
    def test_verify_seeding_plays_once(self, capsys, monkeypatch, yes_file, seeding, code):
        plays = self.count_plays(monkeypatch)
        assert run(capsys, "verify-seeding", yes_file, "--seeding", seeding)[0] == code
        assert plays == {"bracket_rounds": 1, "full": 1}

    @pytest.mark.parametrize("seeding, code", [("0 1 2 3", 0), ("0 2 1 3", 1)], ids=["nice", "losing"])
    def test_check_structure_plays_a_nice_or_losing_seeding_once(
        self, capsys, monkeypatch, yes_file, seeding, code
    ):
        plays = self.count_plays(monkeypatch)
        assert run(capsys, "check-structure", yes_file, "--seeding", seeding)[0] == code
        assert plays == {"bracket_rounds": 1, "full": 1}

    def test_check_structure_plays_each_rewrite_once(self, capsys, monkeypatch, tmp_path):
        # the seeding of TestCheckStructure.test_non_nice_seeding_gets_repaired
        p = tmp_path / "r.tfp"
        p.write_text(format_tournament(gen_random(8, 1, seed=0)))
        plays = self.count_plays(monkeypatch)
        code, out, _ = run(capsys, "check-structure", str(p), "--seeding", "0 1 2 3 4 5 6 7")
        assert code == 0 and "repair rounds: 1\n" in out
        assert plays == {"bracket_rounds": 2, "full": 2}


class TestOneRoute:
    """``decide``, ``solve`` and ``bench`` choose each file's route once,
    through ``indeg._plan``, and print the label of that one choice."""

    @pytest.mark.parametrize("command", ["decide", "solve", "bench"])
    def test_each_file_is_routed_once(self, capsys, monkeypatch, yes_file, no_file, command):
        plan, calls = tfpsolve.indeg._plan, []

        def counted(t, algo):
            calls.append(algo)
            return plan(t, algo)

        monkeypatch.setattr(tfpsolve.indeg, "_plan", counted)
        files = [yes_file, no_file] if command == "bench" else [yes_file]
        code, out, _ = run(capsys, command, *files)
        assert code == 0 and out.count("exact") == 1
        assert calls == ["auto"] * len(files)


def test_console_script_is_main():
    """The ``tfpsolve`` script that ``pip install`` writes resolves to ``main``."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"tfpsolve": "tfpsolve.cli:main"}
    module, attr = scripts["tfpsolve"].split(":")
    assert getattr(importlib.import_module(module), attr) is main


class TestBenchmarkArgv:
    """The solver argv of the repository's benchmark:
    ``decide|solve <file> --algo indeg --seed S --multiplier M``."""

    @staticmethod
    def undefeated_conqueror() -> Tournament:
        t = gen_random(128, 2, seed=0)
        c = min(t.in_neighbors)
        masks = [m & ~(1 << c) for m in t.out_masks]
        masks[c] = ((1 << 128) - 1) & ~(1 << c)
        return Tournament(n=128, vstar=t.vstar, out_masks=tuple(masks))

    @pytest.mark.parametrize("command", ["decide", "solve"])
    def test_seed_and_multiplier_parse_and_change_nothing(self, capsys, tmp_path, command):
        cases = [(self.undefeated_conqueror(), 1), (gen_planted_yes(64, 2, seed=0)[0], 0)]
        for i, (t, want) in enumerate(cases):
            path = tmp_path / f"in{i}.tfp"
            path.write_text(format_tournament(t))
            outs = set()
            for seed in ("1", "2"):
                for m in ("20", "3"):
                    code, out, err = run(
                        capsys, command, str(path), "--algo", "indeg", "--seed", seed,
                        "--multiplier", m,
                    )
                    assert (code, err) == (want, "")
                    outs.add(out)
            assert len(outs) == 1
            assert outs.pop().startswith("NO\n" if want else "YES\n")


class TestGen:
    def test_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "g.tfp"
        code, out, _ = run(capsys, "gen", str(out_path), "--n", "8", "--k", "2", "--seed", "3")
        assert code == 0 and out == f"wrote {out_path}\n"
        text = out_path.read_text()
        assert text.startswith("# generated: n=8 k=2 seed=3 planted=no\nTFP v1\n")
        code, out, _ = run(capsys, "decide", str(out_path), "--algo", "exact")
        assert code in (0, 1)

    def test_planted_writes_witness(self, capsys, tmp_path):
        out_path = tmp_path / "p.tfp"
        code, out, _ = run(
            capsys, "gen", str(out_path), "--n", "16", "--k", "2", "--seed", "7",
            "--planted",
        )
        assert code == 0
        assert out == f"wrote {out_path}\nwrote {out_path}.witness\n"
        code, out, _ = run(
            capsys, "verify-seeding", str(out_path),
            "--seeding-file", f"{out_path}.witness",
        )
        assert code == 0 and out.endswith("winning: yes\n")

    # (planted, n, k, seed); the n=2048 seeds are the generators' pinned ones
    @pytest.mark.parametrize(
        "planted, n, k, seed",
        [(False, 8, 2, 3), (False, 64, 2, 5), (False, 2048, 5, 11),
         (True, 8, 2, 3), (True, 64, 2, 5), (True, 2048, 5, 0)],
        ids=["random-8", "random-64", "random-2048", "planted-8", "planted-64", "planted-2048"],
    )
    def test_file_is_the_formatted_table(self, capsys, tmp_path, planted, n, k, seed):
        path = tmp_path / "g.tfp"
        argv = ["gen", str(path), "--n", str(n), "--k", str(k), "--seed", str(seed)]
        assert run(capsys, *argv, *(["--planted"] if planted else []))[0] == 0
        if planted:
            t, s = gen_planted_yes(n, k, seed=seed)
            witness = " ".join(map(str, s.leaf_order)) + "\n"
            assert Path(f"{path}.witness").read_text() == witness
        else:
            t = gen_random(n, k, seed=seed)
        comment = f"generated: n={n} k={k} seed={seed} planted={'yes' if planted else 'no'}"
        data = path.read_bytes()
        assert data == format_tournament(t, comments=(comment,)).encode()
        if n == 2048:
            pin = PLANTED_PINS[n, k, seed][0] if planted else RANDOM_PINS[n, k, seed]
            table = data[data.index(b"\n") + 1 :]
            assert hashlib.sha256(table).hexdigest() == pin

    def test_gen_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.tfp", tmp_path / "b.tfp"
        run(capsys, "gen", str(a), "--n", "32", "--k", "3", "--seed", "11")
        run(capsys, "gen", str(b), "--n", "32", "--k", "3", "--seed", "11")
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "n, k",
        [("1_6", "2"), ("+16", "2"), (" 16", "2"), ("16", "\u0662"), ("1_6", "\u0662"), ("x", "2")],
        ids=["underscore", "plus_sign", "space", "arabic_indic_digit", "both", "letter"],
    )
    def test_sizes_take_ascii_digits_only(self, capsys, tmp_path, n, k):
        # argparse's type=int read all but the letter as 16 and 2; the first
        # bad flag is named, in the words type=int used
        path = tmp_path / "g.tfp"
        with pytest.raises(SystemExit) as exc:
            main(["gen", str(path), "--n", n, "--k", k])
        out = capsys.readouterr()
        flag, value = ("--n", n) if n != "16" else ("--k", k)
        assert exc.value.code == 2 and out.out == ""
        assert out.err.endswith(f"error: argument {flag}: invalid int value: {value!r}\n")
        assert not path.exists()

    @pytest.mark.parametrize(
        "n, k, err",
        [
            ("-4", "2", "player count must be a power of two, got -4"),
            ("16", "-1", "the favorite's loss count must be in 0..15, got -1"),
        ],
        ids=["n", "k"],
    )
    def test_negative_sizes_reach_the_generator(self, capsys, tmp_path, n, k, err):
        path = tmp_path / "g.tfp"
        assert run(capsys, "gen", str(path), "--n", n, "--k", k) == (2, "", f"error: {err}\n")
        assert not path.exists()

    @pytest.mark.parametrize(
        "exc, message",
        [
            (MemoryError("Unable to allocate 8.00 TiB"), "Unable to allocate 8.00 TiB"),
            (MemoryError(), "MemoryError"),
        ],
        ids=["numpy", "bare"],
    )
    def test_out_of_memory_is_one_error_line(self, capsys, tmp_path, monkeypatch, exc, message):
        # exit 1 means "cannot win"; a table too large to hold is an error
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr("tfpsolve.cli.gen_random", fail)
        out_path = tmp_path / "big.tfp"
        code, out, err = run(capsys, "gen", str(out_path), "--n", "1099511627776", "--k", "1")
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not out_path.exists()


class TestVerifySeeding:
    def test_winning(self, capsys, yes_file):
        code, out, _ = run(capsys, "verify-seeding", yes_file, "--seeding", "0 1 2 3")
        assert code == 0
        assert out == (
            "seeding: 0 1 2 3\nround 1: (0,1) (3,2)\nround 2: (0,3)\n"
            "champion: 0\nwinning: yes\n"
        )

    def test_losing(self, capsys, yes_file):
        code, out, _ = run(capsys, "verify-seeding", yes_file, "--seeding", "0 2 1 3")
        assert code == 1 and out.endswith("winning: no\n")

    def test_rejects_non_permutation(self, capsys, yes_file):
        code, _, err = run(capsys, "verify-seeding", yes_file, "--seeding", "0 0 1 2")
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize(
        "seeding, err",
        [
            ("0 1 x 3", "error: seeding must be whitespace-separated integers\n"),
            ("0 1 2 +3", "error: seeding must be whitespace-separated integers\n"),
            ("0 1 2 0_3", "error: seeding must be whitespace-separated integers\n"),
            ("0 1 2 \u0663", "error: seeding must be whitespace-separated integers\n"),
            ("0 1 2-3", "error: seeding must be whitespace-separated integers\n"),
            ("0 1 2 -3", "error: leaf_order is not a permutation of the players\n"),
            ("0 1 2", "error: seeding lists 3 players, tournament has 4\n"),
            ("", "error: seeding lists 0 players, tournament has 4\n"),
        ],
        ids=[
            "not_integers", "plus_sign", "underscore", "arabic_indic_digit", "unsplit_minus",
            "negative", "wrong_length", "empty",
        ],
    )
    def test_rejects_malformed_seeding(self, capsys, yes_file, seeding, err):
        assert run(capsys, "verify-seeding", yes_file, "--seeding", seeding) == (2, "", err)

    def test_any_unicode_space_separates(self, capsys, yes_file):
        # the separators str.split takes: an em space and a file separator
        code, out, _ = run(capsys, "verify-seeding", yes_file, "--seeding", "\n0\u20031\x1c2 3\n")
        assert code == 0 and out.startswith("seeding: 0 1 2 3\n")


class TestCheckStructure:
    def test_nice_seeding(self, capsys, yes_file):
        code, out, _ = run(capsys, "check-structure", yes_file, "--seeding", "0 1 2 3")
        assert code == 0
        assert out == (
            "winning: yes\nround 1: nice\nround 2: nice\nnice: yes\n"
            "repaired seeding: 0 1 2 3\nrepair rounds: 0\nrepaired nice: yes\n"
            "conquerors after round 1: 0\nconqueror-elimination-check: pass\n"
        )

    def test_non_nice_seeding_gets_repaired(self, capsys, tmp_path):
        from tfpsolve import format_tournament, gen_random

        t = gen_random(8, 1, seed=0)
        p = tmp_path / "r.tfp"
        p.write_text(format_tournament(t))
        code, out, _ = run(
            capsys, "check-structure", str(p), "--seeding", "0 1 2 3 4 5 6 7"
        )
        assert code == 0
        assert out == (
            "winning: yes\nround 1: not-nice\nround 2: nice\nround 3: nice\nnice: no\n"
            "repaired seeding: 0 3 4 6 7 5 1 2\nrepair rounds: 1\nrepaired nice: yes\n"
            "conquerors after round 1: 0\nconqueror-elimination-check: pass\n"
        )

    def test_losing_seeding(self, capsys, yes_file):
        code, out, _ = run(capsys, "check-structure", yes_file, "--seeding", "0 2 1 3")
        assert code == 1 and out == "winning: no\n"


class TestBench:
    def test_runs_and_reports(self, capsys, yes_file, no_file):
        code, out, _ = run(capsys, "bench", yes_file, no_file, "--algo", "exact")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3 and lines[0].split() == ["file", "algo", "n", "verdict", "ms"]
        assert "YES" in lines[1] and "NO" in lines[2]


class TestParser:
    def test_built_once(self):
        assert _build_parser() is _build_parser()

    def test_repeat_calls_print_the_same(self, capsys, yes_file):
        first = run(capsys, "solve", yes_file)
        # flags given in between must not stick to the shared parser
        run(capsys, "decide", yes_file, "--algo", "brute", "--seed", "7")
        second = run(capsys, "solve", yes_file)
        assert first == second
        assert first[1].startswith("YES\nalgo: exact (auto)\n")


class TestEnvironment:
    def test_threads_accepted(self, capsys, yes_file, monkeypatch):
        monkeypatch.setenv("TFP_THREADS", "4")
        code, out, _ = run(capsys, "decide", yes_file)
        assert code == 0 and out == "YES\nalgo: exact (auto)\n"

    def test_threads_rejected(self, capsys, yes_file, monkeypatch):
        monkeypatch.setenv("TFP_THREADS", "zero")
        code, _, err = run(capsys, "decide", yes_file)
        assert code == 2 and "TFP_THREADS" in err

    def test_zero_threads_rejected(self, capsys, yes_file, monkeypatch):
        monkeypatch.setenv("TFP_THREADS", "0")
        assert run(capsys, "decide", yes_file) == (
            2, "", "error: TFP_THREADS must be a positive integer\n"
        )

    @pytest.mark.parametrize(
        "value",
        [" 4", "+4", "4_0", "\u0664"],
        ids=["space", "plus_sign", "underscore", "arabic_indic_digit"],
    )
    def test_threads_take_ascii_digits_only(self, capsys, yes_file, monkeypatch, value):
        monkeypatch.setenv("TFP_THREADS", value)  # each is a positive int() value
        assert run(capsys, "decide", yes_file) == (
            2, "", "error: TFP_THREADS must be a positive integer\n"
        )

    def test_output_independent_of_threads(self, capsys, yes_file, monkeypatch):
        outs = set()
        for env in (None, "1", "4"):
            if env is None:
                monkeypatch.delenv("TFP_THREADS", raising=False)
            else:
                monkeypatch.setenv("TFP_THREADS", env)
            _, out, _ = run(
                capsys, "solve", yes_file, "--algo", "indeg", "--seed", "5",
                "--multiplier", "20",
            )
            outs.add(out)
        assert len(outs) == 1
