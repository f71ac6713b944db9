import os
import random
import subprocess
import sys

import pytest

from conftest import random_block_decomposition
from mdmatch.cli import build_parser, main
from mdmatch.core import apply_blocks, Block, IDENTITY, INVERSION, TRANSLOCATION
from mdmatch.ingest import gen_random_text
from mdmatch.oracle import naive_search
from mdmatch.search import Matcher


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BENCH_HEADER = ("m,sigma,count,algorithm,mean_ms,candidates_per_position,"
                "mean_match_count,theoretical_probability")


def untimed(out):
    """bench's CSV rows without the mean_ms column, the one that varies."""
    rows = [line.split(",") for line in out.splitlines()]
    return [row[:4] + row[5:] for row in rows]


class TestSearch:
    def test_basic_listing(self, tmp_path, capsys):
        text = tmp_path / "t.txt"
        text.write_text("abba")
        code, out, _ = run_cli(capsys, "search", "-p", "ab", "--alpha", "1",
                               "--beta", "0", str(text))
        assert code == 0
        assert out == "0\t\t0\n0\t\t2\n"

    def test_no_matches_is_success(self, tmp_path, capsys):
        text = tmp_path / "t.txt"
        text.write_text("zzzz")
        code, out, _ = run_cli(capsys, "search", "-p", "ab", str(text))
        assert code == 0 and out == ""

    def test_missing_file_is_io_error(self, capsys):
        code, _, err = run_cli(capsys, "search", "-p", "ab", "/nonexistent/file")
        assert code == 1
        assert err != ""

    def test_witness_column_replays(self, tmp_path, capsys):
        text = tmp_path / "t.txt"
        text.write_text("cdab")
        code, out, _ = run_cli(capsys, "search", "-p", "abcd", "--witness", str(text))
        assert code == 0
        line = out.strip().split("\t")
        assert line[:3] == ["0", "", "0"]
        kinds = {"I": IDENTITY, "T": TRANSLOCATION, "V": INVERSION}
        blocks = []
        for token in line[3].split(" "):
            head, _, klen = token.partition(":")
            kind, off = head[0], int(head[2:])
            blocks.append(Block(kinds[kind], off, int(klen) if klen else 1))
        assert apply_blocks("ABCD", blocks) == "CDAB"

    def test_fasta_records_and_pattern_file(self, tmp_path, capsys):
        text = tmp_path / "t.fa"
        text.write_text(">r1\nabba\n>r2\nbbbb\n")
        pats = tmp_path / "p.txt"
        pats.write_text("ab\nbb\n")
        code, out, _ = run_cli(capsys, "search", "--pattern-file", str(pats),
                               "--alpha", "1", "--beta", "0", str(text))
        assert code == 0
        rows = [line.split("\t") for line in out.splitlines()]
        assert ["0", "r1", "0"] in rows and ["0", "r1", "2"] in rows
        assert ["1", "r2", "0"] in rows
        # sorted by (pattern_id, record_id, position)
        keys = [(int(r[0]), r[1], int(r[2])) for r in rows]
        assert keys == sorted(keys)

    def test_witness_adds_a_column_to_the_same_rows(self, tmp_path, capsys):
        rng = random.Random(77)
        text = gen_random_text(3000, 4, 5)
        patterns = []
        for m in (8, 100):
            s = rng.randrange(len(text) - m)
            patterns.append(text[s:s + m])
            blocks = random_block_decomposition(rng, m, m // 2, m)
            patterns.append(apply_blocks(text[s:s + m], blocks))
        path, pats = tmp_path / "t.txt", tmp_path / "p.txt"
        path.write_text(text)
        pats.write_text("\n".join(patterns) + "\n")
        code, plain, _ = run_cli(capsys, "search", "--pattern-file", str(pats), str(path))
        assert code == 0
        code, witnessed, _ = run_cli(capsys, "search", "--witness", "--pattern-file",
                                     str(pats), str(path))
        assert code == 0
        rows = [line.split("\t") for line in witnessed.splitlines()]
        assert ["\t".join(r[:3]) + "\n" for r in rows] == plain.splitlines(keepends=True)
        assert {r[0] for r in rows} == {"0", "1", "2", "3"}
        kinds = {"I": IDENTITY, "T": TRANSLOCATION, "V": INVERSION}
        for pid, _rid, pos, witness in rows:
            p, s = patterns[int(pid)], int(pos)
            blocks = []
            for token in witness.split(" "):
                head, _, klen = token.partition(":")
                blocks.append(Block(kinds[head[0]], int(head[2:]), int(klen) if klen else 1))
            assert apply_blocks(p, blocks) == text[s:s + len(p)]

    def test_threads_flag_removed(self, tmp_path, capsys):
        text = tmp_path / "t.txt"
        text.write_text("abba")
        with pytest.raises(SystemExit) as exc:
            main(["search", "-p", "ab", "--threads", "2", str(text)])
        assert exc.value.code == 2

    def test_raw_pattern_with_high_bytes(self, tmp_path, capsys):
        # argv holds bytes >= 0x80 as the file-system decoding gives them.
        text, pats = tmp_path / "t.bin", tmp_path / "p.bin"
        text.write_bytes(b"\x80\x90\x80\x90AB")
        pats.write_bytes(b"\x80\x90\n")
        code, inline, _ = run_cli(capsys, "search", "--raw", "-p", os.fsdecode(b"\x80\x90"),
                                  str(text))
        assert code == 0
        assert [line.split("\t")[2] for line in inline.splitlines()] == ["0", "1", "2"]
        _, from_file, _ = run_cli(capsys, "search", "--raw", "--pattern-file", str(pats),
                                  str(text))
        assert inline == from_file

    @pytest.mark.parametrize("fasta", [b">p\nab\n", b"\n>p\n\x80\x90\n"])
    def test_raw_pattern_file_is_one_pattern_per_line(self, tmp_path, capsys, fasta):
        # FASTA would upper-case "ab" and reject bytes >= 0x80, so under --raw
        # a FASTA pattern file is a usage error and lines are taken verbatim.
        text, pats = tmp_path / "t.bin", tmp_path / "p.txt"
        text.write_bytes(b"abAB\x80\x90")
        argv = ["search", "--raw", "--alpha", "0", "--beta", "0",
                "--pattern-file", str(pats), str(text)]
        pats.write_bytes(fasta)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "one pattern per line, not FASTA" in capsys.readouterr().err
        pats.write_bytes(b"ab\n\x80\x90\n")
        assert run_cli(capsys, *argv)[:2] == (0, "0\t\t0\n1\t\t4\n")

    def test_raw_pattern_file_keeps_whitespace(self, tmp_path, capsys):
        # A raw pattern file's line is the pattern byte for byte, leading
        # and trailing spaces and tabs included, as -p gives it.
        text, pats = tmp_path / "t.bin", tmp_path / "p.txt"
        text.write_bytes(b"xx A\tB yy")
        pats.write_bytes(b" A\tB \n\nA\r\n")
        argv = ["search", "--raw", "--alpha", "0", "--beta", "0", str(text)]
        code, inline, _ = run_cli(capsys, *argv[:-1], "-p", " A\tB ", str(text))
        assert (code, inline) == (0, "0\t\t2\n")
        code, from_file, _ = run_cli(capsys, *argv[:-1], "--pattern-file", str(pats), str(text))
        assert (code, from_file) == (0, inline + "1\t\t3\n")

    def test_exact_windows_witnessed(self, tmp_path, capsys):
        # A periodic text: every fourth window is an exact copy, witnessed by
        # identity alone; the rotations between are decided by the walk.
        data = "ACGT" * 100
        text = tmp_path / "t.txt"
        text.write_text(data)
        code, out, _ = run_cli(capsys, "search", "-p", "ACGT", "--witness", str(text))
        assert code == 0
        rows = [line.split("\t") for line in out.splitlines()]
        assert [int(r[2]) for r in rows] == [o.position for o in naive_search("ACGT", data)]
        kinds = {"I": IDENTITY, "T": TRANSLOCATION, "V": INVERSION}
        for r in rows:
            s = int(r[2])
            assert (r[3] == "I@0 I@1 I@2 I@3") == (s % 4 == 0)
            blocks = []
            for token in r[3].split(" "):
                head, _, klen = token.partition(":")
                blocks.append(Block(kinds[head[0]], int(head[2:]), int(klen) if klen else 1))
            assert apply_blocks("ACGT", blocks) == data[s:s + 4]

    def test_exact_copies_print_per_block_tokens(self, tmp_path, capsys):
        # Many exact copies of two patterns of different lengths among
        # rearranged ones: the all-identity tokens, formatted once per length,
        # print as formatting each block would.
        rng = random.Random(79)
        patterns = ["ACGTTGCA", "ACGTACGTTGCAAC"]
        parts = []
        for _ in range(80):
            p = rng.choice(patterns)
            parts.append(p if rng.random() < 0.6 else apply_blocks(
                p, random_block_decomposition(rng, len(p), len(p) // 2, len(p))))
            parts.append(gen_random_text(rng.randint(1, 6), 4, rng.randrange(1000)))
        data = "".join(parts)
        path, pats = tmp_path / "t.txt", tmp_path / "p.txt"
        path.write_text(data)
        pats.write_text("\n".join(patterns) + "\n")
        code, out, _ = run_cli(capsys, "search", "--witness", "--pattern-file", str(pats),
                               str(path))
        assert code == 0
        want = [f"{pid}\t\t{occ.position}\t" + " ".join(b.token() for b in occ.witness)
                for pid, occs in enumerate(Matcher(data).find_many(patterns, with_witness=True))
                for occ in occs]
        assert out == "".join(line + "\n" for line in want)
        exact = [line for line in want if "T@" not in line and "V@" not in line]
        assert len({line.count("I@") for line in exact}) == 2 and len(exact) > 40

    @pytest.mark.parametrize("flag, value", [("--alpha", "-1"), ("--beta", "-2")])
    def test_negative_bound_is_usage_error(self, tmp_path, capsys, flag, value):
        # Named as bench names it, under the subcommand's usage line,
        # whether or not a record is as long as the pattern.
        text = tmp_path / "t.txt"
        for data in ("abba", "a"):
            text.write_text(data)
            with pytest.raises(SystemExit) as exc:
                main(["search", "-p", "ab", flag, value, str(text)])
            assert exc.value.code == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("usage: mdmatch search")
            assert f"{flag} must be >= 0" in err

    def test_records_that_share_an_id_stay_apart(self, tmp_path, capsys):
        # Each record's matches in file order, not merged by position.
        text = tmp_path / "t.fa"
        text.write_text(">r\nGGGGGAB\n>r\nGGGAB\n")
        code, out, _ = run_cli(capsys, "search", "-p", "AB", "--alpha", "0", "--beta", "0",
                               str(text))
        assert code == 0
        assert out == "0\tr\t5\n0\tr\t3\n"

    def test_case_folded_against_fasta(self, tmp_path, capsys):
        text = tmp_path / "t.fa"
        text.write_text(">r\nACGT\n")
        code, out, _ = run_cli(capsys, "search", "-p", "acgt", str(text))
        assert code == 0
        assert out == "0\tr\t0\n"

    def test_fasta_pattern_file_with_leading_blank_line(self, tmp_path, capsys):
        # Read as FASTA, so its one record is pattern 0, not lines ">p", "acgt".
        text, pats = tmp_path / "t.fa", tmp_path / "p.fa"
        text.write_bytes(b">r\r\nttacgt\r\n")
        pats.write_bytes(b"\n>p\nacgt\n")
        code, out, _ = run_cli(capsys, "search", "--pattern-file", str(pats),
                               "--alpha", "0", "--beta", "0", str(text))
        assert code == 0
        assert out == "0\tr\t2\n"


class TestUsageErrors:
    """Branches that exit 2 under the subcommand's usage line."""

    def check(self, capsys, argv, command, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"usage: mdmatch {command}")
        assert message in err

    def test_empty_inline_pattern(self, tmp_path, capsys):
        text = tmp_path / "t.txt"
        text.write_text("ACGT")
        self.check(capsys, ["search", "-p", "", str(text)], "search", "empty pattern")

    def test_pattern_file_of_blank_lines(self, tmp_path, capsys):
        text, pats = tmp_path / "t.txt", tmp_path / "p.txt"
        text.write_text("ACGT")
        pats.write_text("\n  \n\n")
        self.check(capsys, ["search", "--pattern-file", str(pats), str(text)], "search",
                   "no patterns given")

    def test_gen_zero_length(self, tmp_path, capsys):
        self.check(capsys, ["gen", "-n", "0", "--sigma", "4", "-o", str(tmp_path / "g.txt")],
                   "gen", "n must be >= 1")
        assert not (tmp_path / "g.txt").exists()

    def test_bench_zero_length(self, capsys):
        self.check(capsys, ["bench", "--random", "100", "4", "0", "-m", "0"], "bench",
                   "bad length list: '0'")

    def test_density_one_symbol_alphabet(self, capsys):
        self.check(capsys, ["bench", "--random", "100", "1", "0", "-m", "4"], "bench",
                   "alphabet size must be at least 2")


def test_density_uses_the_first_of_several_records(tmp_path, capsys):
    text = tmp_path / "two.fa"
    text.write_text(">a\nACACACACAC\n>b\nGGTT\n")
    code, out, err = run_cli(capsys, "bench", "--text-file", str(text), "-m", "4",
                             "--count", "3")
    assert code == 0
    assert "note: using first of 2 records" in err
    # sigma 2: the alphabet of record a alone, not of both records.
    assert out.splitlines()[1].split(",")[:3] == ["4", "2", "3"]


class TestDataErrors:
    """A text or FASTA pattern file that read_fasta rejects, or outside --raw
    a pattern holding a byte it rejects, exits 3, with read_fasta's message
    and no output."""

    @staticmethod
    def check(capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        out, err = capsys.readouterr()
        assert out == "" and f"error: {message}" in err

    def test_nul_byte_in_text_names_its_offset(self, tmp_path, capsys):
        text = tmp_path / "t.fa"
        text.write_bytes(b">r\nAC\x00GT\n")
        self.check(capsys, ["search", "-p", "AC", str(text)],
                   "non-printable byte 0x00 at offset 5")

    @pytest.mark.parametrize("data, raw", [(b"", False), (b" \n\t\n", False), (b"", True)])
    def test_empty_text(self, tmp_path, capsys, data, raw):
        text = tmp_path / "t.fa"
        text.write_bytes(data)
        self.check(capsys, ["search", *(["--raw"] if raw else []), "-p", "AC", str(text)],
                   "no sequences")

    def test_high_byte_in_fasta_pattern_file(self, tmp_path, capsys):
        text, pats = tmp_path / "t.fa", tmp_path / "p.fa"
        text.write_bytes(b">r\nACGT\n")
        pats.write_bytes(b">p\nA\xffC\n")
        self.check(capsys, ["search", "--pattern-file", str(pats), str(text)],
                   "non-printable byte 0xff at offset 4")

    def test_bad_byte_in_command_line_patterns(self, tmp_path, capsys):
        # Outside --raw, a pattern holds what a FASTA sequence may; the
        # offset of a pattern file's byte is in the file.
        text, pats = tmp_path / "t.fa", tmp_path / "p.txt"
        text.write_bytes(b">r\nA\x01CACGT\n")
        pats.write_bytes(b"ACGT\nA\x01C\n")
        self.check(capsys, ["search", "-p", "A\x01C", str(text)],
                   "non-printable byte 0x01 at offset 1")
        self.check(capsys, ["search", "--pattern-file", str(pats), str(text)],
                   "non-printable byte 0x01 at offset 6")
        # Verbatim under --raw, where the text holds the byte too.
        code, out, _ = run_cli(capsys, "search", "--raw", "-p", "A\x01C", str(text))
        assert code == 0 and out == "0\t\t3\n"

    def test_density_text_file_with_a_bad_byte(self, tmp_path, capsys):
        text = tmp_path / "t.fa"
        text.write_bytes(b"ACGT" * 50 + b"\x7f" + b"ACGT" * 50)
        self.check(capsys, ["bench", "--text-file", str(text), "-m", "4", "--count", "5"],
                   "non-printable byte 0x7f at offset 200")


class TestDensity:
    """The density experiment: bench's candidates_per_position,
    mean_match_count and theoretical_probability columns."""

    def test_random_text_csv(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--random", "2000", "4", "1",
                               "-m", "4", "--count", "10", "--seed", "3")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == BENCH_HEADER
        fields = row.split(",")
        assert fields[:4] == ["4", "4", "10", "filtered"]
        mean_ms, density, matches, prob = map(float, fields[4:])
        assert mean_ms >= 0
        assert 0 <= density <= 1
        assert matches >= 1  # every extracted pattern occurs at least once
        assert 0 < prob < 1

    def test_deterministic(self, capsys):
        args = ["bench", "--random", "1000", "4", "9", "-m", "6", "--count", "5", "--baseline"]
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert untimed(first) == untimed(second)

    def test_text_file_source(self, tmp_path, capsys):
        text = tmp_path / "t.fa"
        text.write_text(">r\n" + "ACGT" * 200 + "\n")
        code, out, _ = run_cli(capsys, "bench", "--text-file", str(text),
                               "-m", "4", "--count", "5")
        assert code == 0
        assert out.strip().splitlines()[1].split(",")[1] == "4"

    def test_blank_line_before_first_header(self, tmp_path, capsys):
        text = tmp_path / "t.fa"
        text.write_text("\n>r\n" + "ACGT" * 200 + "\n")
        code, out, err = run_cli(capsys, "bench", "--text-file", str(text),
                                 "-m", "4", "--count", "5")
        assert code == 0 and "note:" not in err
        assert out.strip().splitlines()[1].split(",")[:3] == ["4", "4", "5"]

    def test_zero_count_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--random", "100", "4", "0", "-m", "4", "--count", "0"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv, message", [
        (["-m", "-3"], "bad length list: '-3'"),
        (["-m", "4", "--beta", "-1"], "--beta must be >= 0"),
    ])
    def test_bad_parameter_is_named(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--random", "100", "4", "0", *argv])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err

    def test_empirical_tracks_theoretical_on_uniform_text(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--random", "100000", "4", "11",
                               "-m", "5", "--count", "20", "--seed", "2")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        empirical, theoretical = float(row[5]), float(row[7])
        assert empirical == pytest.approx(theoretical, rel=0.25)


class TestBench:
    def test_smoke(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--random", "1500", "8", "2",
                               "-m", "4,8", "--count", "3", "--baseline")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == BENCH_HEADER
        rows = [line.split(",") for line in lines[1:]]
        assert [(r[0], r[3]) for r in rows] == [
            ("4", "filtered"), ("4", "scan_all"),
            ("8", "filtered"), ("8", "scan_all"),
        ]
        for r in rows:
            assert r[1:3] == ["8", "3"]
            assert float(r[4]) >= 0.0
        # The pattern set's columns, the same on the baseline's row.
        assert rows[0][5:] == rows[1][5:] and rows[2][5:] == rows[3][5:]

    def test_runs_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--random", "100", "4", "0", "-m", "4", "--runs", "1"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "unrecognized arguments: --runs" in err

    @pytest.mark.parametrize("argv", [["-m", "8", "--count", "0"], ["-m", "8,100"],
                                      ["-m", "8", "--alpha", "-1"]])
    def test_bad_input_prints_no_partial_csv(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--random", "10", "4", "1", *argv])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_usage_line_names_the_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--random", "100", "4", "1", "-m", "8", "--alpha", "-1"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: mdmatch bench")

    def test_bad_length_list_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--random", "100", "4", "0", "-m", "4,x"])
        assert exc.value.code == 2


class TestGen:
    def test_deterministic_files(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(["gen", "-n", "100", "--sigma", "4", "--seed", "7", "-o", str(out1)]) == 0
        assert main(["gen", "-n", "100", "--sigma", "4", "--seed", "7", "-o", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        assert len(out1.read_bytes()) == 100

    def test_sigma_one_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "-n", "10", "--sigma", "1", "-o", str(tmp_path / "x")])
        assert exc.value.code == 2

    def test_unwritable_path_is_io_error(self, capsys):
        code = main(["gen", "-n", "10", "--sigma", "4", "-o", "/nonexistent/dir/x"])
        capsys.readouterr()
        assert code == 1

    def test_generated_file_searchable(self, tmp_path, capsys):
        path = tmp_path / "gen.txt"
        assert main(["gen", "-n", "500", "--sigma", "4", "--seed", "1", "-o", str(path)]) == 0
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "search", "-p", path.read_text()[:8], str(path))
        assert code == 0
        assert out.startswith("0\t\t0")


class TestEnvSeed:
    def test_env_seed_used_as_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MDMATCH_SEED", "123")
        args = ["bench", "--random", "1000", "4", "4", "-m", "5", "--count", "4"]
        with_env = untimed(run_cli(capsys, *args)[1])
        monkeypatch.setenv("MDMATCH_SEED", "124")
        other_env = untimed(run_cli(capsys, *args)[1])
        monkeypatch.delenv("MDMATCH_SEED")
        explicit = untimed(run_cli(capsys, *args, "--seed", "123")[1])
        assert with_env == explicit
        assert with_env != other_env

    def test_malformed_env_seed_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MDMATCH_SEED", "abc")
        out = str(tmp_path / "g.txt")
        with pytest.raises(SystemExit) as exc:
            main(["gen", "-n", "10", "--sigma", "4", "-o", out])
        assert exc.value.code == 2
        assert "MDMATCH_SEED" in capsys.readouterr().err
        # An explicit flag wins over the environment, malformed or not.
        assert main(["gen", "-n", "10", "--sigma", "4", "--seed", "3", "-o", out]) == 0


def test_parser_built_once():
    assert build_parser() is build_parser()


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "mdmatch", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "{search,bench,gen}" in proc.stdout


class TestClosedStdout:
    """A reader that closes stdout early, as `| head -n 1` does, ends the run
    with exit 1 and nothing on stderr."""

    def test_search_piped_into_head(self, tmp_path):
        # About 0.9 MB of matches, far more than a pipe buffers, so the
        # search is still writing when the reader goes.
        text = tmp_path / "a.txt"
        text.write_bytes(b"A" * 100_000)
        proc = subprocess.Popen(
            [sys.executable, "-m", "mdmatch", "search", "--alpha", "0", "--beta", "0",
             "-p", "AAAA", str(text)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline() == b"0\t\t0\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
        assert err == b""

    def test_bench_into_a_pipe_closed_before_the_first_write(self):
        # bench's few lines sit in stdout's buffer until the final flush.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "mdmatch", "bench", "--random", "20000", "4", "7",
                 "-m", "8,16", "--count", "5"],
                stdout=write_end, stderr=subprocess.PIPE, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == b""

    def test_stdout_closed_at_start_is_not_an_error(self):
        # With fd 1 closed at start sys.stdout is None, and print writes
        # nothing; main's flush must not fail on it.
        proc = subprocess.run(
            [sys.executable, "-m", "mdmatch", "bench", "--random", "2000", "4", "7",
             "-m", "8", "--count", "5"],
            preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE, timeout=60)
        assert proc.returncode == 0
        assert proc.stderr == b""
