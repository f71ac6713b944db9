"""Command-line interface.

Subcommands: search (match listing as TSV), bench (the experiment as CSV:
per pattern length, mean search time, candidate density, mean match count
and the theoretical density), gen (random text files).  Exit codes: 0
success, 1 I/O error, 2 usage error, 3 malformed data.  main maps OSError,
ValueError and ingest's MalformedDataError to 1, 2 and 3, and exits 1 and
quietly when the reader closes stdout (`| head`).  MDMATCH_SEED supplies a
default seed; explicit flags win, and a malformed value is a usage error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from collections import Counter

from .core import SearchParams, normalize_params
from .ingest import (MalformedDataError, check_sequence_bytes, extract_patterns,
                     gen_random_text, read_fasta)
from .oracle import permutation_probability
from .search import Matcher

USAGE_ERROR = 2
IO_ERROR = 1


def _env_seed(parser) -> int:
    value = os.environ.get("MDMATCH_SEED", "")
    try:
        return int(value) if value else 0
    except ValueError:
        parser.error(f"MDMATCH_SEED must be an integer, got {value!r}")


def _params_for(m: int, alpha: int | None, beta: int | None) -> SearchParams:
    # Definitional maxima unless overridden.
    params = SearchParams(alpha if alpha is not None else m // 2,
                          beta if beta is not None else m)
    return normalize_params(params, m)


def _load_patterns(args, parser) -> list[str]:
    if args.pattern is not None:
        # argv arrives decoded with the file-system encoding; a --raw text is
        # decoded as latin-1, so the pattern's bytes must be too.
        data = os.fsencode(args.pattern)
        if args.raw:
            return [data.decode("latin-1")]
        # Patterns outside --raw hold what a FASTA sequence may, as a text.
        check_sequence_bytes(data)
        return [args.pattern]
    with open(args.pattern_file, "rb") as fh:
        data = fh.read()
    if data.lstrip().startswith(b">"):
        if args.raw:
            # FASTA upper-cases and rejects bytes >= 0x80; raw patterns are verbatim.
            parser.error("--raw takes a pattern file of one pattern per line, not FASTA")
        return [rec.data for rec in read_fasta(data)]
    if args.raw:
        # Each line verbatim, spaces and tabs included, as -p takes it.
        return [line.decode("latin-1") for line in data.splitlines() if line]
    check_sequence_bytes(data)
    return [line.strip().decode("latin-1")
            for line in data.splitlines() if line.strip()]


def _experiment_text(args, parser) -> tuple[str, int]:
    """Text plus its alphabet size, from a file or a generated random text."""
    if args.random is not None:
        n, sigma, seed = args.random
        try:
            return gen_random_text(n, sigma, seed), sigma
        except ValueError as exc:
            parser.error(str(exc))
    with open(args.text_file, "rb") as fh:
        records = read_fasta(fh)
    if len(records) > 1:
        print(f"note: using first of {len(records)} records", file=sys.stderr)
    text = records[0].data
    return text, len(set(text))


def cmd_search(args, parser) -> int:
    patterns = _load_patterns(args, parser)
    if not patterns:
        parser.error("no patterns given")
    if not args.raw:
        # read_fasta upper-cases sequence data; fold patterns the same way
        patterns = [p.upper() for p in patterns]
    with open(args.text_file, "rb") as fh:
        records = read_fasta(fh, raw=args.raw)
    if not all(patterns):
        parser.error("empty pattern")
    _check_bounds(parser, args)
    # find_many clamps one set of bounds to each length, and skips a pattern
    # longer than the record; the longest pattern's maxima do for every one.
    params = _params_for(max(map(len, patterns)), args.alpha, args.beta)
    lines = []
    identity = {}  # pattern length -> the witness tokens of an exact copy
    for rec in records:
        found = Matcher(rec.data).find_many(patterns, params, with_witness=args.witness)
        for pid, occs in enumerate(found):
            for occ in occs:
                fields = [str(pid), rec.id, str(occ.position)]
                if args.witness:
                    m = len(patterns[pid])
                    if len(occ.witness) < m:
                        fields.append(" ".join(b.token() for b in occ.witness))
                    else:  # m one-symbol blocks: all identity, the same for every copy
                        if m not in identity:
                            identity[m] = " ".join(b.token() for b in occ.witness)
                        fields.append(identity[m])
                lines.append((pid, rec.id, "\t".join(fields)))
    # Stable: records that share an id keep file order, each one's
    # positions already ascending.
    lines.sort(key=lambda item: item[:2])
    for line in lines:
        print(line[2])
    return 0


def _check_lengths(parser, args, lengths: list[int], text: str) -> None:
    # Checked before any output, so a failed run prints no partial CSV.
    if args.count < 1:
        parser.error("--count must be >= 1")
    if max(lengths) > len(text):
        parser.error("pattern length exceeds text length")


def _check_bounds(parser, args) -> None:
    for flag, value in (("--alpha", args.alpha), ("--beta", args.beta)):
        if value is not None and value < 0:
            parser.error(f"{flag} must be >= 0")


def _mean_ms(fn, patterns, params):
    """Mean wall time of fn(pattern, params) in ms, and its results."""
    elapsed = 0.0
    results = []
    for pattern in patterns:
        t0 = time.perf_counter()
        results.append(fn(pattern, params))
        elapsed += time.perf_counter() - t0
    return 1000.0 * elapsed / len(patterns), results


def cmd_bench(args, parser) -> int:
    text, sigma = _experiment_text(args, parser)
    _check_lengths(parser, args, args.lengths, text)
    _check_bounds(parser, args)
    matcher = Matcher(text)
    print("m,sigma,count,algorithm,mean_ms,candidates_per_position,"
          "mean_match_count,theoretical_probability")
    for m in args.lengths:
        params = _params_for(m, args.alpha, args.beta)
        patterns = extract_patterns(text, m, args.count, args.seed)
        count = len(patterns)
        # One untimed call builds the text's fingerprint prefix, so the
        # first length timed is not charged for it.
        matcher.stats(patterns[0], params)
        # Matcher.stats does find's filter and verify work and also counts
        # the candidates, so one timed pass gives the time and the counts.
        mean_ms, stats = _mean_ms(matcher.stats, patterns, params)
        # The pattern set's means, untimed; the same on the baseline's row.
        sums = (sum(st.candidate_density for st in stats), sum(st.matches for st in stats),
                sum(permutation_probability(Counter(p), m, sigma) for p in patterns))
        columns = ",".join(f"{total / count:.8g}" for total in sums)
        print(f"{m},{sigma},{count},filtered,{mean_ms:.3f},{columns}")
        if args.baseline:
            mean_ms, _ = _mean_ms(matcher.scan_all, patterns, params)
            print(f"{m},{sigma},{count},scan_all,{mean_ms:.3f},{columns}")
    return 0


def cmd_gen(args, parser) -> int:
    if args.sigma < 2 or args.sigma > 64:
        parser.error("sigma must be between 2 and 64 for generated files")
    if args.n < 1:
        parser.error("n must be >= 1")
    text = gen_random_text(args.n, args.sigma, args.seed)
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(text)
    return 0


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad length list: {text!r}")
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(f"bad length list: {text!r}")
    return values


def _add_experiment_source(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--text-file", metavar="FILE", help="FASTA or raw text file")
    group.add_argument("--random", nargs=3, type=int, metavar=("N", "SIGMA", "SEED"),
                       help="generate a uniform random text instead of reading a file")


def _add_params(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alpha", type=int, default=None,
                     help="max half-length of a translocated factor pair "
                          "(default: floor(m/2))")
    sub.add_argument("--beta", type=int, default=None,
                     help="max length of an inverted factor (default: m)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdmatch",
        description="Find pattern occurrences up to factor translocations and inversions.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_search = subs.add_parser("search", help="list matches as TSV")
    pg = p_search.add_mutually_exclusive_group(required=True)
    pg.add_argument("-p", "--pattern", help="pattern given inline")
    pg.add_argument("--pattern-file", metavar="FILE",
                    help="patterns from a file (FASTA or one per line)")
    _add_params(p_search)
    p_search.add_argument("--witness", action="store_true",
                          help="append the block decomposition of each match")
    p_search.add_argument("--raw", action="store_true",
                          help="treat the text file and a pattern file as verbatim bytes: "
                               "no FASTA, no upper-casing, one pattern per line")
    p_search.add_argument("text_file", metavar="TEXT", help="text file to search")
    p_search.set_defaults(func=cmd_search, parser=p_search)

    p_bench = subs.add_parser("bench", help="timing and candidate-density experiment (CSV)")
    _add_experiment_source(p_bench)
    p_bench.add_argument("-m", "--lengths", type=_int_list, required=True,
                         help="comma-separated pattern lengths, e.g. 8,16,32")
    p_bench.add_argument("--count", type=int, default=200,
                         help="number of extracted patterns per length (default 200)")
    _add_params(p_bench)
    p_bench.add_argument("--baseline", action="store_true",
                         help="also time the verify-everywhere baseline")
    p_bench.add_argument("--seed", type=int, default=None,
                         help="pattern-extraction seed (default MDMATCH_SEED or 0)")
    p_bench.set_defaults(func=cmd_bench, parser=p_bench)

    p_gen = subs.add_parser("gen", help="write a seeded uniform random text file")
    p_gen.add_argument("-n", type=int, required=True, help="text length in symbols")
    p_gen.add_argument("--sigma", type=int, required=True, help="alphabet size (2..64)")
    p_gen.add_argument("--seed", type=int, default=None,
                       help="generator seed (default MDMATCH_SEED or 0)")
    p_gen.add_argument("-o", "--out", required=True, help="output path")
    p_gen.set_defaults(func=cmd_gen, parser=p_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Errors found after parsing print the subcommand's usage line.
    parser = args.parser
    if "seed" in args and args.seed is None:
        args.seed = _env_seed(parser)
    try:
        code = args.func(args, parser)
        print(end="", flush=True)  # a closed pipe raises here; a None stdout passes
        return code
    except BrokenPipeError:
        # The reader has gone; send the interpreter's final flush to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return IO_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return IO_ERROR
    except MalformedDataError as exc:
        parser.exit(3, f"error: {exc}\n")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
