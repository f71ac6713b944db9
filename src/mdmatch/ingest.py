"""Data acquisition for experiments: FASTA and raw-text readers, seeded
uniform random text generation, and pattern extraction."""

from __future__ import annotations

import io
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
_PRINTABLE_BYTES = bytes(range(0x21, 0x7F))


@dataclass(frozen=True)
class SequenceRecord:
    id: str
    data: str


def _read_bytes(source) -> bytes:
    if isinstance(source, bytes):
        return source
    if isinstance(source, str):
        return source.encode("latin-1")
    data = source.read()
    if isinstance(data, str):
        return data.encode("latin-1")
    return data


def _check_printable(chunk: bytes, base_offset: int) -> None:
    # Fast path: deleting every acceptable byte must leave nothing.
    leftover = chunk.translate(None, delete=_PRINTABLE_BYTES + _WHITESPACE)
    if not leftover:
        return
    for idx, byte in enumerate(chunk):
        if byte not in _PRINTABLE_BYTES and byte not in _WHITESPACE:
            raise ValueError(
                f"non-printable byte 0x{byte:02x} at offset {base_offset + idx}")


def read_fasta(source, raw: bool = False) -> list[SequenceRecord]:
    """Parse FASTA or headerless text into sequence records.

    Default mode accepts '>'-headed FASTA (one record per header, sequence
    lines concatenated, whitespace dropped, symbols upper-cased) and treats
    sequence lines before the first header as a single anonymous record;
    blank lines there open no record.  raw=True returns the bytes verbatim
    as one record, except for one trailing newline removed.
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
    cur_id: str | None = None
    chunks: list[bytes] = []

    def flush():
        if cur_id is not None:
            records.append(SequenceRecord(cur_id, b"".join(chunks).decode("ascii")))

    offset = 0
    for line in io.BytesIO(data).readlines():
        if line.startswith(b">"):
            flush()
            cur_id = line[1:].strip().decode("latin-1")
            chunks = []
        else:
            _check_printable(line, offset)
            cleaned = line.translate(None, delete=_WHITESPACE)
            if cleaned:
                if cur_id is None:
                    cur_id = ""
                chunks.append(cleaned.upper())
        offset += len(line)
    flush()
    if not records:
        raise ValueError("no sequences")
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
