import io
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import stats as scipy_stats

from conftest import write_fasta
from mdmatch.ingest import (
    SYMBOL_TABLE,
    MalformedDataError,
    SequenceRecord,
    extract_patterns,
    _needs_translate,
    _split_records,
    check_sequence_bytes,
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

    def test_str_source_is_the_data_not_a_path(self, tmp_path, monkeypatch):
        # A str is the data itself, read as latin-1: the name of a file
        # that exists is parsed as a one-line sequence, never opened.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "w.txt").write_bytes(b">x\nAC\n")
        assert read_fasta("w.txt") == [SequenceRecord("", "W.TXT")]
        assert read_fasta(">x\nac\n") == [SequenceRecord("x", "AC")]
        assert read_fasta("\xe9\xff", raw=True) == [SequenceRecord("", "\xe9\xff")]

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

    def test_every_byte_value_accepted_or_rejected(self):
        for b in range(256):
            data = b">x\nac" + bytes([b]) + b"t\n"
            if b in _BAD_BYTES:
                with pytest.raises(ValueError, match=f"^non-printable byte 0x{b:02x} at offset 5$"):
                    read_fasta(data)
            else:
                assert read_fasta(data)[0].data.startswith("AC")

    def test_blank_lines_before_first_header_open_no_record(self):
        assert read_fasta(b"\n>a\nAC\n") == [SequenceRecord("a", "AC")]
        assert read_fasta(b"\r\n \n>a\nAC\n") == [SequenceRecord("a", "AC")]
        # Sequence before the first header still makes the anonymous record.
        assert read_fasta(b"\nac\n>a\nG\n") == [SequenceRecord("", "AC"),
                                                   SequenceRecord("a", "G")]

    def test_header_with_only_blank_lines_is_an_empty_record(self):
        assert read_fasta(b">a\n\n \r\n") == [SequenceRecord("a", "")]

    @pytest.mark.parametrize("seq, translated, expected", [
        (b"ACGT\nAC{}\n", False, "ACGTAC{}"),
        (b"ACGT\r\nAC\n", True, "ACGTAC"),
        (b"ACgT\nAC\n", True, "ACGTAC"),
        (b"ACGT\nA\x7fC\n", True, "non-printable byte 0x7f at offset 9"),
        (b"AC\tGT\nAC\n", True, "ACGTAC"),
        (b"", False, ""),
    ], ids=["clean", "cr", "lower-case", "del", "tab", "empty"])
    def test_translate_only_when_needed(self, seq, translated, expected):
        # A record whose joined lines hold no byte to change skips the
        # translate; the others take it, with the same records and errors.
        joined = seq.replace(b"\n", b"")
        assert (bool(joined) and _needs_translate(joined)) == translated
        data = b">a\n" + seq + b">b\nT\n"
        if expected.startswith("non-printable"):
            with pytest.raises(MalformedDataError, match=f"^{expected}$"):
                read_fasta(data)
        else:
            assert read_fasta(data) == [SequenceRecord("a", expected), SequenceRecord("b", "T")]

    def test_round_trip_with_writer(self):
        records = [SequenceRecord("first", "ACGT" * 40), SequenceRecord("second", "TTAA")]
        assert read_fasta(write_fasta(records)) == records


# Sequence symbols: mixed case, and never '>', which would start a header.
_SYMBOLS = "ACGTacgtNnXyz*-.~0"
# Symbols that read_fasta keeps as they are: no lower case, no whitespace.
_UPPER_SYMBOLS = "ACGTNXYZ*-.~0{|}[]_"
_IDS = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=12).map(str.strip)
_BLANKS = st.sampled_from([b"", b" ", b"\t", b"  \r", b"\x0b\x0c"])
_BAD_BYTES = [b for b in range(256) if not 0x21 <= b <= 0x7E and b not in b" \t\r\n\x0b\x0c"]


@st.composite
def fasta_files(draw, symbols=_SYMBOLS, blanks=_BLANKS, eols=(b"\n", b"\r\n")):
    """(file bytes, expected records): headed records and an optional
    headerless leading sequence, wrapped at a random width, with LF or CRLF
    endings and blank or space-only lines inserted anywhere."""
    lead = draw(st.text(symbols, max_size=40))
    headed = draw(st.lists(st.tuples(_IDS, st.text(symbols, max_size=150)),
                           min_size=1, max_size=5))
    width = draw(st.integers(1, 70))
    lines = []
    for rid, seq in [(None, lead)] + headed:
        if rid is not None:
            lines.append(b">" + rid.encode("ascii"))
        lines += [seq[i:i + width].encode("ascii") for i in range(0, len(seq), width)]
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), draw(blanks))
    eol = draw(st.sampled_from(eols))
    data = eol.join(lines) + draw(st.sampled_from([b"", eol]))
    expected = [SequenceRecord("", lead.upper())] if lead else []
    expected += [SequenceRecord(rid, seq.upper()) for rid, seq in headed]
    return data, expected


def upper_lf_files():
    """fasta_files whose sequences read_fasta only joins: upper-case
    symbols, LF endings and empty blank lines, so no record is translated
    unless a test inserts a byte into it."""
    return fasta_files(_UPPER_SYMBOLS, st.just(b""), (b"\n",))


class TestMalformedDataError:
    """The data read_fasta rejects raises MalformedDataError, a ValueError;
    a bad argument raises a plain ValueError."""

    @pytest.mark.parametrize("data, raw, message", [
        (b"", False, "no sequences"),
        (b" \n\t\r\n\n", False, "no sequences"),
        (b"", True, "no sequences"),
        (b">a\nAC\n>b\nG\x80T\n", False, "0x80 at offset 10"),
    ])
    def test_read_fasta(self, data, raw, message):
        with pytest.raises(MalformedDataError, match=message) as exc:
            read_fasta(data, raw=raw)
        assert isinstance(exc.value, ValueError)

    @pytest.mark.parametrize("raw", [False, True])
    def test_str_beyond_latin1(self, raw):
        # A str is encoded as latin-1; a character it cannot hold is bad
        # data, named with its offset, like a non-printable byte.
        message = "^non-latin-1 character U\\+20AC at offset 5$"
        with pytest.raises(MalformedDataError, match=message):
            read_fasta(">r\nAC\u20acGT\n", raw=raw)
        with pytest.raises(MalformedDataError, match=message):
            read_fasta(io.StringIO(">r\nAC\u20acGT\n"), raw=raw)
        with pytest.raises(MalformedDataError, match="U\\+10FFFF at offset 0"):
            read_fasta("\U0010ffff", raw=raw)

    def test_check_sequence_bytes(self):
        check_sequence_bytes(b"ac GT\t\n~!")
        with pytest.raises(MalformedDataError, match="0x7f at offset 12"):
            check_sequence_bytes(b"ACG\x7f", 9)

    @pytest.mark.parametrize("call", [
        lambda: gen_random_text(0, 4, 1),
        lambda: gen_random_text(10, 1, 1),
        lambda: gen_random_text(10, 257, 1),
        lambda: extract_patterns("ACGT", 0, 1, 1),
        lambda: extract_patterns("ACGT", 5, 1, 1),
        lambda: extract_patterns("ACGT", 2, 0, 1),
    ])
    def test_usage_errors_are_not_malformed_data(self, call):
        with pytest.raises(ValueError) as exc:
            call()
        assert not isinstance(exc.value, MalformedDataError)


def _check_bad_byte(text, bad, data):
    """bad inserted into text at an offset drawn from data, in any line that
    is not a header, its end included, is reported with that offset."""
    offsets, start = [], 0
    for line in text.split(b"\n"):
        if not line.startswith(b">"):
            offsets += range(start, start + len(line) + 1)
        start += len(line) + 1
    assume(offsets)
    at = data.draw(st.sampled_from(offsets))
    with pytest.raises(ValueError) as exc:
        read_fasta(text[:at] + bytes([bad]) + text[at:])
    assert str(exc.value) == f"non-printable byte 0x{bad:02x} at offset {at}"


class TestReadFastaProperties:
    @settings(max_examples=200, deadline=None)
    @given(fasta_files())
    def test_parses_to_generated_records(self, case):
        data, expected = case
        assert read_fasta(data) == expected

    @settings(max_examples=200, deadline=None)
    @given(fasta_files(), st.sampled_from(_BAD_BYTES), st.data())
    def test_non_printable_byte_reported_with_offset(self, case, bad, data):
        _check_bad_byte(case[0], bad, data)

    @settings(max_examples=200, deadline=None)
    @given(upper_lf_files())
    def test_upper_lf_parses_to_generated_records(self, case):
        data, expected = case
        assert read_fasta(data) == expected

    @settings(max_examples=200, deadline=None)
    @given(upper_lf_files(), st.sampled_from(_BAD_BYTES), st.data())
    def test_upper_lf_non_printable_byte_reported_with_offset(self, case, bad, data):
        _check_bad_byte(case[0], bad, data)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([b">", b"\n", b"\r", b" ", b"a", b"C", b"\x00"]),
                    max_size=40).map(b"".join))
    def test_record_split_is_the_split_on_newline_header(self, data):
        # The reference splits b"\n" + data on b"\n>": chunk 0 is the text
        # before the first header line, every later one a header line, '>'
        # removed, and its sequence lines, which start one byte past the
        # header in b"\n" + data and so at start + len(header) in data.
        want, start = [], 0
        for chunk in (b"\n" + data).split(b"\n>"):
            header, _, seq = chunk.partition(b"\n")
            want.append((header, seq, start + len(header)))
            start += len(chunk) + 2
        assert _split_records(data) == want

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(st.binary(max_size=60), st.sampled_from([b"", b"\n", b"\r\n", b"\n\n"]))
           .map(b"".join).filter(bool))
    def test_raw_returns_latin1_minus_one_trailing_newline(self, data):
        body = data[:-2] if data.endswith(b"\r\n") else data.removesuffix(b"\n")
        assert read_fasta(data, raw=True) == [SequenceRecord("", body.decode("latin-1"))]


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
