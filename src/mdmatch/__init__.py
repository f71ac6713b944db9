"""Approximate string matching under translocations of equal-length adjacent
factors and inversions of factors, with a counting filter (permutation test)
and a banded dynamic-programming verifier.  Symbols are coded by their
Unicode code points (core.code_points) from text to verifier.

Matcher (search.py) is the one search path: its filter is
search.scan_candidates and its verifier is verify.verify_windows.  The
slow references it is tested against, the paper's rolling filter
(rolling_deltas) included, live in oracle.py."""

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
from .verify import VerifierWorkspace, verify, verify_with_witness

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
    "VerifierWorkspace",
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
