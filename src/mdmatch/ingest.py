"""Data acquisition for experiments: FASTA and raw-text readers, seeded
uniform random text generation, and pattern extraction.  The FASTA reader
splits its input into records on header lines, the lines that start with
'>', slices each record's sequence out once and drops its newlines; only a
sequence with another byte to change (whitespace, lower case or a
non-printable byte) then takes one bytes.translate."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Code -> symbol table for generated texts.  The first 64 entries are
# printable ASCII that survives upper-casing on re-read; ACGT come first so
# sigma=4 texts look like DNA.  '>' is excluded so a generated raw text can
# never be mistaken for FASTA.  Codes 64..255 map into Latin Extended-A and
# are meant for in-memory use only.
_PRINTABLE64 = ("ACGT" + "BDEFHIJKLMNOPQRSUVWXYZ" + "0123456789"
                + '!#$%&()*+,-./:;<=?@[]^_{|}~"')
SYMBOL_TABLE = _PRINTABLE64 + "".join(chr(0x100 + k) for k in range(192))

_WHITESPACE = b" \t\r\n\x0b\x0c"
_SEQUENCE_BYTES = bytes(range(0x21, 0x7F)) + _WHITESPACE
# Printable bytes upper-cased, every other byte (after _WHITESPACE) to 0x00.
_UPPER = bytes(b if 0x21 <= b < 0x7F else 0 for b in range(256)).upper()


class MalformedDataError(ValueError):
    """Data with no sequence, or with a byte that a sequence may not hold."""


@dataclass(frozen=True)
class SequenceRecord:
    id: str
    data: str


def _read_bytes(source) -> bytes:
    data = source if isinstance(source, (bytes, str)) else source.read()
    if not isinstance(data, str):
        return data
    try:
        return data.encode("latin-1")
    except UnicodeEncodeError as exc:
        raise MalformedDataError(f"non-latin-1 character U+{ord(data[exc.start]):04X} "
                                 f"at offset {exc.start}") from None


def read_fasta(source, raw: bool = False) -> list[SequenceRecord]:
    """Parse FASTA or headerless text into sequence records.

    Default mode accepts '>'-headed FASTA (one record per header; its
    sequence lines are joined, whitespace dropped and letters upper-cased,
    and any other byte raises MalformedDataError with its offset) and
    treats sequence lines before the first header as a single anonymous
    record; blank lines there open no record.  A sequence of upper-case
    and other printable bytes on LF lines is only joined; any other one
    takes one translate.  raw=True returns the bytes verbatim as one
    record, except for one trailing newline removed.  Empty input, or blank
    input outside raw, raises MalformedDataError too.

    source is bytes, a binary or text file object, or a str.  A str is the
    data itself, encoded as latin-1, not a path: read_fasta("w.txt")
    returns one record whose sequence is "W.TXT".  A str character above
    U+00FF raises MalformedDataError with its offset.  Open a file and pass
    the file object to read it.
    """
    data = _read_bytes(source)
    if raw:
        if not data:
            raise MalformedDataError("no sequences")
        if data.endswith(b"\r\n"):
            data = data[:-2]
        elif data.endswith(b"\n"):
            data = data[:-1]
        return [SequenceRecord("", data.decode("latin-1"))]
    if not data or data.isspace():
        raise MalformedDataError("no sequences")
    records: list[SequenceRecord] = []
    for k, (header, seq, start) in enumerate(_split_records(data)):
        out = seq.replace(b"\n", b"")
        if out and _needs_translate(out):
            out = out.translate(_UPPER, delete=_WHITESPACE)
            if 0 in out:
                check_sequence_bytes(seq, start)
        if k or out:
            records.append(SequenceRecord(header.strip().decode("latin-1"),
                                          out.decode("ascii")))
    return records


def _needs_translate(seq: bytes) -> bool:
    """Whether seq, non-empty, holds a byte that _UPPER or _WHITESPACE
    would change: one outside 0x21-0x7E, or a lower-case letter."""
    codes = np.frombuffer(seq, dtype=np.uint8)
    high = codes.max()
    if codes.min() < 0x21 or high > 0x7E:
        return True
    # uint8 wraps, so only 0x61-0x7A ('a'-'z') land below 26.
    return bool(high >= 0x61 and np.count_nonzero(codes - np.uint8(0x61) < 26))


def check_sequence_bytes(seq: bytes, start: int = 0) -> None:
    """Raise MalformedDataError naming the first byte of seq that a sequence
    may not hold, if any, and its offset, start plus its index in seq."""
    bad = seq.translate(None, delete=_SEQUENCE_BYTES)
    if bad:
        raise MalformedDataError(f"non-printable byte 0x{bad[0]:02x} at offset "
                                 f"{start + seq.index(bad[0])}")


def _split_records(data: bytes) -> list[tuple[bytes, bytes, int]]:
    """(header, sequence lines, their offset in data) per part of
    (b"\n" + data).split(b"\n>"), the headerless text before the first header
    line first.  Header '>'s, at 0 or after a newline, are found by memchr."""
    heads, i = [], data.find(b">")
    while i >= 0:
        if not i or data[i - 1] == 0x0A:
            heads.append(i)
        i = data.find(b"\n", i)  # no later '>' of this line opens a header
        i = data.find(b">", i) if i >= 0 else -1
    out = [(b"", data[:max(heads[0] - 1, 0)] if heads else data, 0)]
    for h, end in zip(heads, [j - 1 for j in heads[1:]] + [len(data)]):
        nl = data.find(b"\n", h, end)
        if nl < 0:
            nl = end
        out.append((data[h + 1:nl], data[nl + 1:end], nl + 1))
    return out


def gen_random_text(n: int, sigma: int, seed: int) -> str:
    """Length-n text of i.i.d. uniform symbols over the first sigma table
    codes; identical output for identical (n, sigma, seed)."""
    if n < 1:
        raise ValueError("text length must be >= 1")
    if sigma < 2:
        raise ValueError("alphabet size must be at least 2")
    if sigma > 256:
        raise ValueError("alphabet size must be at most 256")
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, sigma, size=n, dtype=np.uint8)
    if sigma <= 64:
        table = bytes.maketrans(bytes(range(sigma)), _PRINTABLE64[:sigma].encode("ascii"))
        return codes.tobytes().translate(table).decode("ascii")
    return "".join(map(SYMBOL_TABLE.__getitem__, codes.tolist()))


def extract_patterns(text: str, m: int, count: int, seed: int) -> list[str]:
    """count substrings of length m at uniform random start positions
    (sampled with replacement), deterministic per seed.  Every extracted
    pattern necessarily occurs in the text."""
    n = len(text)
    if m < 1:
        raise ValueError("pattern length must be >= 1")
    if m > n:
        raise ValueError("pattern length exceeds text length")
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, n - m + 1, size=count)
    return [text[s:s + m] for s in starts.tolist()]
