"""Approximate string matching under translocations of equal-length adjacent
factors and inversions of factors, with a counting filter (permutation test)
and a verifier that walks each candidate's chain of cuts.  Symbols are coded
by their Unicode code points (core.code_points) from text to verifier: one
byte per symbol when every code point is below 256, else four.

Matcher (search.py) is the one search path: find, iter_find, stats and
find_many all run its one step per pattern length, a single pattern being
a group of one.  The step's filter is search.scan_group, one fingerprint
pass over the text for the patterns of one length, and its verifier,
verify.verify_windows, decides all their candidates together.  The slow
references it is tested against, rolling_deltas included, are in oracle.py."""

from .core import (
    Block,
    IDENTITY,
    INVERSION,
    Occurrence,
    SearchParams,
    TRANSLOCATION,
    apply_blocks,
    code_points,
    maximal_params,
    normalize_params,
)
from .ingest import SequenceRecord, extract_patterns, gen_random_text, read_fasta
from .oracle import (
    md_distance,
    naive_search,
    oracle_match,
    permutation_probability,
    rolling_deltas,
)
from .search import Matcher, SearchStats, filtered_search
from .verify import verify, verify_with_witness

__version__ = "0.1.0"

__all__ = [
    "Block",
    "IDENTITY",
    "INVERSION",
    "Matcher",
    "Occurrence",
    "SearchParams",
    "SearchStats",
    "SequenceRecord",
    "TRANSLOCATION",
    "apply_blocks",
    "code_points",
    "extract_patterns",
    "filtered_search",
    "gen_random_text",
    "maximal_params",
    "md_distance",
    "naive_search",
    "normalize_params",
    "oracle_match",
    "permutation_probability",
    "read_fasta",
    "rolling_deltas",
    "verify",
    "verify_with_witness",
]
