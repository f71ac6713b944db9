"""Approximate string matching under translocations of equal-length adjacent
factors and inversions of factors, with a counting filter (permutation test)
and a banded dynamic-programming verifier.  Symbols are coded by their
Unicode code points (core.code_points) from text to verifier."""

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
from .counting import CountState, advance, init_counts, rolling_deltas, scan_candidates
from .ingest import SequenceRecord, extract_patterns, gen_random_text, read_fasta
from .oracle import md_distance, naive_search, oracle_match, permutation_probability
from .search import (
    Matcher,
    SearchStats,
    filtered_search,
    iter_filtered_search,
    scan_all_search,
    search_stats,
)
from .verify import VerifierWorkspace, verify, verify_with_witness

__version__ = "0.1.0"

__all__ = [
    "Block",
    "CountState",
    "IDENTITY",
    "INVERSION",
    "Matcher",
    "Occurrence",
    "SearchParams",
    "SearchStats",
    "SequenceRecord",
    "TRANSLOCATION",
    "VerifierWorkspace",
    "advance",
    "apply_blocks",
    "code_points",
    "extract_patterns",
    "filtered_search",
    "gen_random_text",
    "init_counts",
    "iter_filtered_search",
    "maximal_params",
    "md_distance",
    "naive_search",
    "normalize_params",
    "oracle_match",
    "permutation_probability",
    "read_fasta",
    "rolling_deltas",
    "scan_all_search",
    "scan_candidates",
    "search_stats",
    "verify",
    "verify_with_witness",
]
