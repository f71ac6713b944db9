"""Seeded workload inputs for the mdmatch benchmark.

A workload is a set of sequence records, written as a 60-column FASTA file,
plus a pattern set, written one pattern per line, and the search parameters
passed to `mdmatch search`.  Every input is derived from the seed alone: the
same seed gives byte-identical files.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mdmatch import (
    SearchParams,
    extract_patterns,
    gen_random_text,
    maximal_params,
    permutation_probability,
)

LINE_WIDTH = 60
# Patterns are picked from a pool this many times larger than the set.
POOL_FACTOR = 8
# Patterns per `mdmatch search` job.  Each job holds patterns of one length,
# so a search that shares work between same-length patterns keeps that
# sharing.
JOB_CHUNK = 10


@dataclass(frozen=True)
class Workload:
    """One benchmark input family.

    A workload has either one random text of text_len symbols or `records`
    records whose lengths are drawn uniformly from record_len.  alpha/beta of
    None mean the definitional maxima, which is also the CLI default.
    """

    name: str
    why: str
    sigma: int
    patterns: tuple[tuple[int, int], ...]   # (pattern length, how many)
    text_len: int = 0
    records: int = 0
    record_len: tuple[int, int] = (0, 0)
    alpha: int | None = None
    beta: int | None = None
    witness: bool = True

    def params(self, m: int) -> SearchParams:
        if self.alpha is None:
            return maximal_params(m)
        return SearchParams(self.alpha, self.beta)

    def cli_args(self) -> list[str]:
        """Flags of the `mdmatch search` job."""
        args = ["--witness"] if self.witness else []
        if self.alpha is not None:
            args += ["--alpha", str(self.alpha), "--beta", str(self.beta)]
        return args


WORKLOADS = {w.name: w for w in (
    # Runs by hand only; README.md says why BENCHMARK.json leaves it out.
    Workload(
        name="dna-dense",
        why="sigma=4 random text: candidates are dense, so the banded verifier "
            "(both row engines) and the witness re-run take nearly all the time",
        sigma=4, text_len=15_000, patterns=((8, 80), (64, 16), (512, 6))),
    Workload(
        name="wide-alphabet",
        why="sigma=64 random text: about one candidate per pattern, so the "
            "O(n*sigma) counting filter is nearly all of find and the verifier only "
            "confirms each pattern's own occurrence",
        sigma=64, text_len=50_000, patterns=((8, 47), (64, 47), (512, 8)), witness=False),
    Workload(
        name="fasta-records",
        why="hundreds of short FASTA records: per-call overhead of find, "
            "read_fasta and the narrow-band Python verifier engine dominate",
        sigma=4, records=200, record_len=(200, 600), patterns=((16, 51), (32, 51)),
        alpha=2, beta=4),
    Workload(
        name="sigma16-long",
        why="sigma=16 random text of 150k symbols: the counting filter's per-symbol "
            "passes over long arrays are nearly all of find, at a quarter of "
            "wide-alphabet's sigma, so a sigma-free filter gains less here",
        sigma=16, text_len=150_000, patterns=((8, 40), (64, 40), (256, 22))),
)}


@dataclass(frozen=True)
class Inputs:
    """Generated records (id, symbols) and patterns; pattern id = list index."""

    records: tuple[tuple[str, str], ...]
    patterns: tuple[str, ...]

    def digest(self) -> str:
        h = hashlib.sha256()
        for rid, data in self.records:
            h.update(f">{rid}\n{data}\n".encode("ascii"))
        h.update(b"#patterns\n")
        for pattern in self.patterns:
            h.update(pattern.encode("ascii") + b"\n")
        return h.hexdigest()


def _stratified(pool: list[str], count: int, sigma: int) -> list[str]:
    """count patterns at evenly spaced quantiles of their permutation
    probability, the share of random windows the counting filter passes.

    On a sigma=4 text that probability sets a pattern's verify cost and
    varies by orders of magnitude between patterns, so an unstratified draw
    of a few dozen patterns lets the seed, not the program, move the totals.
    """
    keyed = sorted(pool, key=lambda p: (permutation_probability(Counter(p), len(p), sigma), p))
    step = len(keyed) / count
    return [keyed[int((i + 0.5) * step)] for i in range(count)]


def _draw_from_records(records, m: int, count: int, rng) -> list[str]:
    eligible = [data for _rid, data in records if len(data) >= m]
    picks = rng.integers(0, len(eligible), size=count).tolist()
    out = []
    for k in picks:
        data = eligible[k]
        start = int(rng.integers(0, len(data) - m + 1))
        out.append(data[start:start + m])
    return out


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Records and patterns of one workload, determined by the seed."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if workload.records:
        lo, hi = workload.record_len
        lens = np.random.default_rng([seed, 1]).integers(lo, hi + 1, size=workload.records)
        whole = gen_random_text(int(lens.sum()), workload.sigma, seed)
        bounds = np.concatenate(([0], np.cumsum(lens))).tolist()
        width = len(str(workload.records))
        records = tuple((f"r{i:0{width}d}", whole[a:b])
                        for i, (a, b) in enumerate(zip(bounds, bounds[1:])))
    else:
        records = (("text", gen_random_text(workload.text_len, workload.sigma, seed)),)
    patterns: list[str] = []
    for m, count in workload.patterns:
        if workload.records:
            pool = _draw_from_records(records, m, POOL_FACTOR * count,
                                      np.random.default_rng([seed, 2, m]))
        else:
            pool = extract_patterns(records[0][1], m, POOL_FACTOR * count, seed * 1_000 + m)
        patterns += _stratified(pool, count, workload.sigma)
    order = np.random.default_rng([seed, 3]).permutation(len(patterns)).tolist()
    return Inputs(records, tuple(patterns[i] for i in order))


def job_parts(inputs: Inputs) -> list[list[int]]:
    """Pattern ids split into jobs of at most JOB_CHUNK patterns of one length."""
    by_length: dict[int, list[int]] = {}
    for pid, pattern in enumerate(inputs.patterns):
        by_length.setdefault(len(pattern), []).append(pid)
    return [ids[i:i + JOB_CHUNK] for _m, ids in sorted(by_length.items())
            for i in range(0, len(ids), JOB_CHUNK)]


def write_inputs(inputs: Inputs, directory: Path) -> tuple[Path, list[Path]]:
    """Write the FASTA text file and one pattern file per job_parts entry."""
    directory.mkdir(parents=True, exist_ok=True)
    text_path = directory / "text.fa"
    with open(text_path, "w", encoding="ascii", newline="\n") as fh:
        for rid, data in inputs.records:
            fh.write(f">{rid}\n")
            for i in range(0, len(data), LINE_WIDTH):
                fh.write(data[i:i + LINE_WIDTH] + "\n")
    pattern_paths = []
    for k, ids in enumerate(job_parts(inputs)):
        path = directory / f"patterns-{k}.txt"
        path.write_text("".join(inputs.patterns[pid] + "\n" for pid in ids), encoding="ascii")
        pattern_paths.append(path)
    return text_path, pattern_paths
