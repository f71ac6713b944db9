import io
from collections import Counter

import numpy as np
import pytest
from scipy import stats as scipy_stats

from conftest import write_fasta
from mdmatch.ingest import (
    SYMBOL_TABLE,
    SequenceRecord,
    extract_patterns,
    gen_random_text,
    read_fasta,
)


class TestReadFasta:
    def test_single_record_concatenation(self):
        recs = read_fasta(b">x\nACGT\nACGT\n")
        assert recs == [SequenceRecord("x", "ACGTACGT")]

    def test_headerless_raw_text_uppercased(self):
        assert read_fasta(b"acgt") == [SequenceRecord("", "ACGT")]

    def test_multiple_records(self):
        recs = read_fasta(b">a\nAC\n>b\nGT\n")
        assert [r.id for r in recs] == ["a", "b"]
        assert [r.data for r in recs] == ["AC", "GT"]

    def test_crlf_and_blank_lines(self):
        recs = read_fasta(b">a desc\r\nAC\r\n\r\nGT\r\n")
        assert recs == [SequenceRecord("a desc", "ACGT")]

    def test_stream_input(self):
        recs = read_fasta(io.BytesIO(b">s\nAA\n"))
        assert recs[0].data == "AA"

    def test_empty_file(self):
        with pytest.raises(ValueError, match="no sequences"):
            read_fasta(b"")
        with pytest.raises(ValueError, match="no sequences"):
            read_fasta(b"", raw=True)

    def test_non_printable_reports_offset(self):
        with pytest.raises(ValueError, match="0x01 at offset 6"):
            read_fasta(b">x\nAC\n\x01T\n")

    def test_raw_mode_verbatim(self):
        recs = read_fasta(b"ab\ncd\n", raw=True)
        assert recs == [SequenceRecord("", "ab\ncd")]

    def test_blank_lines_before_first_header_open_no_record(self):
        assert read_fasta(b"\n>a\nAC\n") == [SequenceRecord("a", "AC")]
        assert read_fasta(b"\r\n \n>a\nAC\n") == [SequenceRecord("a", "AC")]
        # Sequence before the first header still makes the anonymous record.
        assert read_fasta(b"\nac\n>a\nG\n") == [SequenceRecord("", "AC"),
                                                   SequenceRecord("a", "G")]

    def test_header_with_only_blank_lines_is_an_empty_record(self):
        assert read_fasta(b">a\n\n \r\n") == [SequenceRecord("a", "")]

    def test_round_trip_with_writer(self):
        records = [SequenceRecord("first", "ACGT" * 40), SequenceRecord("second", "TTAA")]
        assert read_fasta(write_fasta(records)) == records


class TestGenRandomText:
    def test_deterministic(self):
        a = gen_random_text(1000, 4, 7)
        b = gen_random_text(1000, 4, 7)
        assert a == b
        assert a != gen_random_text(1000, 4, 8)

    def test_single_symbol_text(self):
        t = gen_random_text(1, 2, 0)
        assert t in SYMBOL_TABLE[:2]

    def test_sigma_bounds(self):
        with pytest.raises(ValueError):
            gen_random_text(10, 1, 0)
        with pytest.raises(ValueError):
            gen_random_text(10, 257, 0)
        with pytest.raises(ValueError):
            gen_random_text(0, 4, 0)

    def test_uses_first_sigma_symbols(self):
        t = gen_random_text(5000, 6, 3)
        assert set(t) == set(SYMBOL_TABLE[:6])

    def test_frequencies_concentrate(self):
        n, sigma = 1_000_000, 4
        counts = Counter(gen_random_text(n, sigma, 11))
        std = (n * (1 / sigma) * (1 - 1 / sigma)) ** 0.5
        for c in SYMBOL_TABLE[:sigma]:
            assert abs(counts[c] - n / sigma) <= 3 * std

    def test_chi_square_uniformity(self):
        n = 1_000_000
        for sigma in (4, 8, 16, 32):
            text = gen_random_text(n, sigma, 1000 + sigma)
            counts = [text.count(SYMBOL_TABLE[c]) for c in range(sigma)]
            _, pvalue = scipy_stats.chisquare(counts)
            assert pvalue > 0.001

    def test_wide_alphabet(self):
        t = gen_random_text(200, 100, 1)
        assert set(t) <= set(SYMBOL_TABLE[:100])


class TestExtractPatterns:
    def test_only_window(self):
        assert extract_patterns("abcd", 4, 1, 0) == ["abcd"]

    def test_deterministic(self):
        text = gen_random_text(10_000, 4, 2)
        assert extract_patterns(text, 8, 20, 5) == extract_patterns(text, 8, 20, 5)

    def test_patterns_are_substrings(self):
        text = gen_random_text(50_000, 8, 9)
        for p in extract_patterns(text, 8, 200, 1):
            assert len(p) == 8
            assert p in text

    def test_length_bounds(self):
        with pytest.raises(ValueError):
            extract_patterns("abc", 4, 1, 0)
        with pytest.raises(ValueError):
            extract_patterns("abc", 0, 1, 0)
        with pytest.raises(ValueError):
            extract_patterns("abc", 2, 0, 0)
