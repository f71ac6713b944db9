"""Data acquisition for experiments: FASTA and raw-text readers, seeded
uniform random text generation, and pattern extraction.  The FASTA reader
splits its input into records on header lines, the lines that start with
'>', and parses each record's sequence with one bytes.translate."""

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


@dataclass(frozen=True)
class SequenceRecord:
    id: str
    data: str


def _read_bytes(source) -> bytes:
    data = source if isinstance(source, (bytes, str)) else source.read()
    return data.encode("latin-1") if isinstance(data, str) else data


def read_fasta(source, raw: bool = False) -> list[SequenceRecord]:
    """Parse FASTA or headerless text into sequence records.

    Default mode accepts '>'-headed FASTA (one record per header; one
    translate joins its sequence lines, drops whitespace, upper-cases and
    marks any other byte, which raises ValueError with its offset) and
    treats sequence lines before the first header as a single anonymous
    record; blank lines there open no record.  raw=True returns the bytes
    verbatim as one record, except for one trailing newline removed.

    source is bytes, a binary or text file object, or a str.  A str is the
    data itself, encoded as latin-1, not a path: read_fasta("w.txt")
    returns one record whose sequence is "W.TXT".  Open a file and pass
    the file object to read it.
    """
    data = _read_bytes(source)
    if raw:
        if not data:
            raise ValueError("no sequences")
        if data.endswith(b"\r\n"):
            data = data[:-2]
        elif data.endswith(b"\n"):
            data = data[:-1]
        return [SequenceRecord("", data.decode("latin-1"))]
    if not data.strip():
        raise ValueError("no sequences")
    records: list[SequenceRecord] = []
    start = 0  # the chunk's offset in b"\n" + data
    for k, chunk in enumerate((b"\n" + data).split(b"\n>")):
        # Chunk 0 is the text before the first header; it is empty or starts
        # with the added b"\n", so its header is empty.  Every later chunk is
        # one header line, '>' removed, and its sequence lines.
        header, _, seq = chunk.partition(b"\n")
        out = seq.translate(_UPPER, delete=_WHITESPACE)
        if 0 in out:
            bad = seq.translate(None, delete=_SEQUENCE_BYTES)
            # seq starts one byte past the header; data lacks the added b"\n"
            offset = start + len(header) + seq.index(bad[0])
            raise ValueError(f"non-printable byte 0x{bad[0]:02x} at offset {offset}")
        if k or out:
            records.append(SequenceRecord(header.strip().decode("latin-1"),
                                          out.decode("ascii")))
        start += len(chunk) + 2
    return records


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
