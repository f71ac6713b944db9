"""mdmatch benchmark: seeded search workloads, checked against the oracle.

    python3 perfbench/run.py --workload dna-dense --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  The run generates its inputs from the seed, derives the expected
results through perfbench/expected.py (cached per workload and seed under
perfbench/.work/), and measures a closed loop in one process: one client,
each call made after the previous one returned, no threads.

The run repeats rounds for --seconds (at least MIN_ROUNDS).  A round sets
up SETUP_REPS times, runs every `mdmatch search` job once (workloads.py
splits the patterns into jobs of one length each) and queries every
pattern once.  --trace 0 prints the end-to-end metrics:
  setup_s          median time to read_fasta the text file and build one
                   Matcher per record;
  patterns_per_s   patterns / wall time of one round of the in-process
                   `mdmatch search --pattern-file ... [--witness]` jobs,
                   the median over the rounds;
  query_ms_p50/p90 quantiles over the patterns of the latency of
                   Matcher.find(pattern, params) on built Matchers (one
                   pattern across every record), each pattern's latency
                   the median of its rounds;
  peak_rss_mb      peak resident set of this process.
On a shared machine the speed other tenants leave drifts over seconds to
minutes; the median over a whole run follows that drift less than the
fastest repetition, which rests on a few lucky moments.

--trace 1 runs each job untraced and traced and prints per-layer metrics
derived from spans around the program's public functions (tracing.py).

Every set-up, job, query and round of jobs is one operation; it fails when
it raises or its result differs from the expected one.  The last stdout
line is one JSON object {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

MIN_ROUNDS = 3             # fewest rounds of a run, however short --seconds is
SETUP_REPS = 20            # set-ups per round
EXPECTED_TIMEOUT_S = 150


def _import_program():
    """Import mdmatch from ./src of this checkout, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "mdmatch" / "__init__.py").is_file():
        raise SystemExit(f"error: no mdmatch sources under {src}")
    sys.path.insert(0, str(src))
    import mdmatch
    if Path(mdmatch.__file__).resolve().parent != (src / "mdmatch").resolve():
        raise SystemExit(f"error: imported mdmatch from {mdmatch.__file__}, not {src}")
    return mdmatch


def environment() -> dict:
    """Versions, CPU and commit that a result was measured with."""
    import numpy
    import mdmatch
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "mdmatch": mdmatch.__version__, "nproc": os.cpu_count(),
            "cpu": cpu, "commit": commit}


def load_expected(workload, seed: int, inputs) -> dict:
    """Expected results for (workload, seed), derived once and cached."""
    path = WORK / "expected" / f"{workload.name}-{seed}.json"
    digest = inputs.digest()
    if not (path.is_file() and json.loads(path.read_text()).get("inputs_sha256") == digest):
        path.parent.mkdir(parents=True, exist_ok=True)
        subprocess.run([sys.executable, str(HERE / "expected.py"), "--workload",
                        workload.name, "--seed", str(seed), "--out", str(path)],
                       check=True, timeout=EXPECTED_TIMEOUT_S)
    expected = json.loads(path.read_text())
    if expected.get("inputs_sha256") != digest:
        raise RuntimeError(f"expected results in {path} do not match the generated inputs")
    return expected


def _parse_witness(tokens: str):
    """Blocks of a witness column: I@offset, T@offset:k, V@offset:k."""
    from mdmatch import IDENTITY, INVERSION, TRANSLOCATION, Block
    kinds = {"I": IDENTITY, "T": TRANSLOCATION, "V": INVERSION}
    blocks = []
    for tok in tokens.split(" "):
        kind, _, rest = tok.partition("@")
        offset, _, length = rest.partition(":")
        blocks.append(Block(kinds[kind], int(offset), int(length or 1)))
    return blocks


class Bench:
    """Runs and checks the operations of one workload; counts failures."""

    def __init__(self, workload, inputs, expected: dict, text_path: Path, pattern_paths):
        from workloads import job_parts
        self.inputs = inputs
        self.expected = expected
        self.text_path = text_path
        self.parts = [(ids, ["search", "--pattern-file", str(path),
                             *workload.cli_args(), str(text_path)])
                      for ids, path in zip(job_parts(inputs), pattern_paths)]
        self.params = [workload.params(len(p)) for p in inputs.patterns]
        self.records = dict(inputs.records)
        self.witness = workload.witness
        self.attempted = 0
        self.failed = 0
        self.check_s = 0.0
        self.output_lines = 0
        self.output_bytes = 0

    def _fail(self, what: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED: {what}", file=sys.stderr)

    def setup(self) -> tuple[float, list]:
        """read_fasta the text file and build one Matcher per record."""
        from mdmatch import Matcher, read_fasta
        from expected import records_digest
        self.attempted += 1
        try:
            t0 = perf_counter()
            with open(self.text_path, "rb") as fh:
                records = read_fasta(fh)
            matchers = [(rec.id, Matcher(rec.data)) for rec in records]
            elapsed = perf_counter() - t0
        except Exception:
            self._fail("setup raised\n" + traceback.format_exc())
            return math.nan, []
        got = records_digest((rec.id, rec.data) for rec in records)
        if got != self.expected["records_sha256"]:
            self._fail("read_fasta did not return the generated records")
        return elapsed, matchers

    def job(self, part: int, round_lines: list, tracer=None) -> float:
        """One in-process `mdmatch search --pattern-file` job; its wall time.

        Its matches are added to round_lines as (pattern id, record, position).
        With a tracer, the call to cli.main is recorded as the root span.
        """
        from mdmatch import cli
        ids, argv = self.parts[part]
        self.attempted += 1
        out = io.StringIO()
        try:
            t0 = perf_counter()
            with contextlib.redirect_stdout(out):
                idx = tracer.begin("cli.main") if tracer else -1
                try:
                    rc = cli.main(argv)
                finally:
                    if tracer:
                        tracer.end(idx)
            elapsed = perf_counter() - t0
        except Exception:
            self._fail("job raised\n" + traceback.format_exc())
            return math.nan
        t0 = perf_counter()
        error = f"exit code {rc}" if rc != 0 else self._check_tsv(out.getvalue(), ids, round_lines)
        self.check_s += perf_counter() - t0
        if error:
            self._fail(f"job {part}: {error}")
        return elapsed

    def _check_tsv(self, text: str, ids: list[int], round_lines: list) -> str | None:
        """Sorted lines, per-pattern positions as expected, witnesses replay."""
        from mdmatch import apply_blocks
        from expected import positions_digest
        lines = text.splitlines()
        self.output_lines += len(lines)
        self.output_bytes += len(text.encode("ascii"))
        hits: list[list] = [[] for _ in ids]
        last = None
        for line in lines:
            fields = line.split("\t")
            try:
                key = (int(fields[0]), fields[1], int(fields[2]))
                pid = ids[key[0]]
            except (ValueError, IndexError):
                return f"malformed line {line!r}"
            if len(fields) != (4 if self.witness else 3):
                return f"malformed line {line!r}"
            if last is not None and key <= last:
                return f"line {line!r} out of order"
            last = key
            local, rid, pos = key
            if self.witness:
                pattern = self.inputs.patterns[pid]
                try:
                    window = apply_blocks(pattern, _parse_witness(fields[3]))
                except (KeyError, ValueError, IndexError) as exc:
                    return f"witness {fields[3]!r} does not replay: {exc}"
                if window != self.records.get(rid, "")[pos:pos + len(pattern)]:
                    return f"witness of pattern {pid} at {rid}:{pos} does not reproduce its window"
            hits[local].append((rid, pos))
            round_lines.append((pid, rid, pos))
        for local, pid in enumerate(ids):
            if positions_digest(hits[local]) != self.expected["patterns"][pid]:
                return f"positions of pattern {pid} differ from the expected results"
        return None

    def check_round(self, round_lines: list) -> None:
        """Check the matches of a round's jobs against the expected TSV digest."""
        from expected import tsv_digest
        self.attempted += 1
        lines = sorted(round_lines)
        if tsv_digest(f"{pid}\t{rid}\t{pos}" for pid, rid, pos in lines) != \
                self.expected["tsv_sha256"]:
            self._fail(f"jobs printed {len(lines)} matches, "
                       f"{self.expected['tsv_lines']} expected, or other ones")

    def query(self, matchers: list, pid: int) -> float:
        """Matcher.find of one pattern on every record; its latency."""
        from expected import positions_digest
        self.attempted += 1
        pattern, params = self.inputs.patterns[pid], self.params[pid]
        try:
            t0 = perf_counter()
            found = [(rid, m.find(pattern, params)) for rid, m in matchers]
            elapsed = perf_counter() - t0
        except Exception:
            self._fail(f"query {pid} raised\n" + traceback.format_exc())
            return math.nan
        t0 = perf_counter()
        got = positions_digest((rid, occ.position) for rid, occs in found for occ in occs)
        self.check_s += perf_counter() - t0
        if got != self.expected["patterns"][pid]:
            self._fail(f"query {pid}: positions differ from the expected results")
        return elapsed

    def result(self, metrics: dict) -> dict:
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _rounds(seconds: float, start: float, body) -> int:
    """Run body() MIN_ROUNDS times, then again while another round still fits."""
    rounds = 0
    while True:
        t0 = perf_counter()
        body()
        rounds += 1
        if rounds >= MIN_ROUNDS and perf_counter() - start + (perf_counter() - t0) > seconds:
            return rounds


def measure(bench: Bench, seconds: float) -> dict:
    """End-to-end metrics, tracing off.

    Each round sets up SETUP_REPS times, runs every job once and queries
    every pattern once; each metric is a median over the rounds after the
    first, which warms caches and lazy imports and is checked but not timed.
    """
    start = perf_counter()
    setups: list[float] = []
    n_patterns = len(bench.inputs.patterns)
    job_sets: list[float] = []
    calls: list[list[float]] = [[] for _ in range(n_patterns)]

    def one_round():
        for _ in range(SETUP_REPS):
            elapsed, matchers = bench.setup()
            setups.append(elapsed)
        lines: list = []
        job_sets.append(sum(bench.job(part, lines) for part in range(len(bench.parts))))
        bench.check_round(lines)
        for pid in range(n_patterns):
            calls[pid].append(bench.query(matchers, pid))

    rounds = _rounds(seconds, start, one_round)
    del setups[:SETUP_REPS], job_sets[0]
    for c in calls:
        del c[0]

    def median(values):
        finite = [v for v in values if math.isfinite(v)]
        return statistics.median(finite) if finite else math.nan

    lat = [median(c) for c in calls]
    lat = [v for v in lat if math.isfinite(v)] or [math.nan]
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
    print(f"{len(setups)} set-ups; {rounds - 1} rounds of {len(bench.parts)} jobs and "
          f"{n_patterns} queries after a warm-up round; query_ms over {len(lat)} patterns "
          f"x {rounds - 1} calls; "
          f"failed {bench.failed}/{bench.attempted}", file=sys.stderr)
    return {
        "setup_s": _metric(median(setups), "s"),
        "patterns_per_s": _metric(n_patterns / median(job_sets), "1/s"),
        "query_ms_p50": _metric(1e3 * statistics.median(lat), "ms"),
        "query_ms_p90": _metric(1e3 * p90, "ms"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _add(total: dict, layers: dict) -> None:
    for name, agg in layers.items():
        for key, value in agg.items():
            total.setdefault(name, {}).setdefault(key, 0.0)
            total[name][key] += value


def measure_traced(bench: Bench, seconds: float, spans_path: Path) -> dict:
    """Per-layer metrics from traced jobs, each run next to its untraced twin."""
    from tracing import Tracer, hooks_installed, summarize
    start = perf_counter()
    n_parts = len(bench.parts)
    plain, traced = [math.inf] * n_parts, [math.inf] * n_parts
    total: dict = {}
    last_spans: list = []

    def one_round():
        last_spans.clear()
        bench.output_lines = bench.output_bytes = 0
        plain_lines, traced_lines = [], []
        for part in range(n_parts):
            plain[part] = min(plain[part], bench.job(part, plain_lines))
            tracer = Tracer()
            with hooks_installed(tracer):
                traced[part] = min(traced[part], bench.job(part, traced_lines, tracer))
            _add(total, summarize(tracer.spans))
            last_spans.extend(tracer.spans)
        bench.check_round(plain_lines)
        bench.check_round(traced_lines)

    rounds = _rounds(seconds, start, one_round)
    spans_path.write_text(json.dumps(
        {"fields": ["name", "start", "end", "parent", "counts"], "spans": last_spans}))
    print(f"{rounds} rounds of {n_parts} untraced and {n_parts} traced jobs; spans of the "
          f"last round written to {spans_path}; failed {bench.failed}/{bench.attempted}",
          file=sys.stderr)

    def per_job(name, key="s"):
        """Per traced run of the whole job set."""
        return total.get(name, {}).get(key, 0.0) / rounds

    def ratio(a, b):
        return a / b if b else 0.0

    find_s = per_job("search.find")
    verify_s = per_job("search.find", "self_s")
    cands = per_job("find.scan", "candidates")
    matches = per_job("search.find", "matches")
    scan_s = per_job("counting.scan")
    positions = per_job("counting.scan", "positions")
    return {
        "verify.s": _metric(verify_s, "s"),
        "verify.us_per_candidate": _metric(1e6 * ratio(verify_s, cands), "us"),
        "verify.candidates": _metric(cands, "count"),
        "verify.matches": _metric(matches, "count"),
        "verify.match_yield": _metric(ratio(matches, cands), "frac"),
        "verify.share_of_find": _metric(ratio(verify_s, find_s), "frac"),
        "verify.witness_s": _metric(per_job("verify.witness"), "s"),
        "verify.witness_calls": _metric(per_job("verify.witness", "calls"), "count"),
        "counting.scan_s": _metric(scan_s, "s"),
        "counting.scan_calls": _metric(per_job("counting.scan", "calls"), "count"),
        "counting.positions": _metric(positions, "count"),
        "counting.candidates": _metric(per_job("counting.scan", "candidates"), "count"),
        "counting.candidate_density": _metric(
            ratio(per_job("counting.scan", "candidates"), positions), "frac"),
        "counting.ns_per_position": _metric(1e9 * ratio(scan_s, positions), "ns"),
        "counting.share_of_find": _metric(ratio(per_job("find.scan"), find_s), "frac"),
        "search.find_s": _metric(find_s, "s"),
        "search.find_calls": _metric(per_job("search.find", "calls"), "count"),
        "search.matcher_init_s": _metric(per_job("search.matcher_init"), "s"),
        "search.matcher_init_calls": _metric(per_job("search.matcher_init", "calls"), "count"),
        "core.encode_s": _metric(per_job("core.encode"), "s"),
        "core.encode_calls": _metric(per_job("core.encode", "calls"), "count"),
        "core.encode_symbols": _metric(per_job("core.encode", "symbols"), "count"),
        "ingest.read_fasta_s": _metric(per_job("ingest.read_fasta"), "s"),
        "ingest.bytes": _metric(per_job("ingest.read_fasta", "bytes"), "bytes"),
        "cli.self_s": _metric(per_job("cli.main", "self_s"), "s"),
        "cli.output_lines": _metric(bench.output_lines / 2, "count"),
        "cli.output_bytes": _metric(bench.output_bytes / 2, "bytes"),
        "bench.trace_overhead_frac": _metric(sum(traced) / sum(plain) - 1, "frac"),
        "bench.check_s": _metric(bench.check_s / (2 * rounds), "s"),
    }


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Generate, check and measure one workload; the result object."""
    from workloads import make_inputs, write_inputs
    inputs = make_inputs(workload, seed)
    workdir = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    try:
        text_path, pattern_paths = write_inputs(inputs, workdir)
        expected = load_expected(workload, seed, inputs)
        bench = Bench(workload, inputs, expected, text_path, pattern_paths)
        if trace:
            metrics = measure_traced(bench, seconds, WORK / f"spans-{workload.name}.json")
        else:
            metrics = measure(bench, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return bench.result(metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mdmatch benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    _import_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    print("env " + json.dumps(environment()))
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
