import os
import random
import subprocess
import sys

import pytest

from conftest import random_block_decomposition
from mdmatch.cli import main
from mdmatch.core import apply_blocks, Block, IDENTITY, INVERSION, TRANSLOCATION
from mdmatch.ingest import gen_random_text
from mdmatch.oracle import naive_search


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_exact_windows_witnessed(self, tmp_path, capsys):
        # A periodic text: every fourth window is an exact copy, witnessed by
        # identity alone; the rotations between are decided by the DP.
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

    def test_case_folded_against_fasta(self, tmp_path, capsys):
        text = tmp_path / "t.fa"
        text.write_text(">r\nACGT\n")
        code, out, _ = run_cli(capsys, "search", "-p", "acgt", str(text))
        assert code == 0
        assert out == "0\tr\t0\n"


class TestDensity:
    def test_random_text_csv(self, capsys):
        code, out, _ = run_cli(capsys, "density", "--random", "2000", "4", "1",
                               "-m", "4", "--count", "10", "--seed", "3")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == ("m,sigma,count,mean_candidate_density,"
                          "mean_match_count,theoretical_probability")
        fields = row.split(",")
        assert fields[0] == "4" and fields[1] == "4" and fields[2] == "10"
        density, matches, prob = map(float, fields[3:])
        assert 0 <= density <= 1
        assert matches >= 1  # every extracted pattern occurs at least once
        assert 0 < prob < 1

    def test_deterministic(self, capsys):
        args = ["density", "--random", "1000", "4", "9", "-m", "6", "--count", "5"]
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_text_file_source(self, tmp_path, capsys):
        text = tmp_path / "t.fa"
        text.write_text(">r\n" + "ACGT" * 200 + "\n")
        code, out, _ = run_cli(capsys, "density", "--text-file", str(text),
                               "-m", "4", "--count", "5")
        assert code == 0
        assert out.strip().splitlines()[1].split(",")[1] == "4"

    def test_blank_line_before_first_header(self, tmp_path, capsys):
        text = tmp_path / "t.fa"
        text.write_text("\n>r\n" + "ACGT" * 200 + "\n")
        code, out, err = run_cli(capsys, "density", "--text-file", str(text),
                                 "-m", "4", "--count", "5")
        assert code == 0 and "note:" not in err
        assert out.strip().splitlines()[1].split(",")[:3] == ["4", "4", "5"]

    def test_zero_count_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["density", "--random", "100", "4", "0", "-m", "4", "--count", "0"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv, message", [
        (["-m", "-3"], "-m must be >= 1"),
        (["-m", "4", "--beta", "-1"], "--beta must be >= 0"),
    ])
    def test_bad_parameter_is_named(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(["density", "--random", "100", "4", "0", *argv])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err

    def test_empirical_tracks_theoretical_on_uniform_text(self, capsys):
        code, out, _ = run_cli(capsys, "density", "--random", "100000", "4", "11",
                               "-m", "5", "--count", "20", "--seed", "2")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        empirical, theoretical = float(row[3]), float(row[5])
        assert empirical == pytest.approx(theoretical, rel=0.25)


class TestBench:
    def test_smoke(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--random", "1500", "8", "2",
                               "-m", "4,8", "--count", "3", "--runs", "1", "--baseline")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m,algorithm,mean_ms,candidates_per_position"
        rows = [line.split(",") for line in lines[1:]]
        assert [(r[0], r[1]) for r in rows] == [
            ("4", "filtered"), ("4", "scan_all"),
            ("8", "filtered"), ("8", "scan_all"),
        ]
        for r in rows:
            assert float(r[2]) >= 0.0

    def test_zero_runs_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--random", "100", "4", "0", "-m", "4", "--runs", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--runs must be >= 1" in err and "Traceback" not in err

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
        args = ["density", "--random", "1000", "4", "4", "-m", "5", "--count", "4"]
        _, with_env, _ = run_cli(capsys, *args)
        monkeypatch.setenv("MDMATCH_SEED", "124")
        _, other_env, _ = run_cli(capsys, *args)
        monkeypatch.delenv("MDMATCH_SEED")
        _, explicit, _ = run_cli(capsys, *args, "--seed", "123")
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


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "mdmatch", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "search" in proc.stdout and "density" in proc.stdout
