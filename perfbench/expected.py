"""Expected search results for one workload and seed, from the reference side.

Candidate windows come from `rolling_deltas` (the paper's constant-time
rolling histogram update) and each candidate is decided by `oracle_match`,
the brute-force recursion.  Neither shares code with `Matcher.find`,
`scan_candidates` or the banded verifier, which the benchmark checks
against these results.

Usage (writes a JSON file; run.py calls it when its cache has no entry):

    python3 perfbench/expected.py --workload dna-dense --seed 1 --out expected.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def positions_digest(pairs) -> str:
    """Digest of one pattern's (record id, position) results in search order."""
    h = hashlib.sha256()
    for rid, pos in pairs:
        h.update(f"{rid}\t{pos}\n".encode("ascii"))
    return h.hexdigest()


def tsv_digest(lines) -> str:
    """Digest of `mdmatch search` output lines cut to pattern id, record id, position."""
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("ascii") + b"\n")
    return h.hexdigest()


def records_digest(records) -> str:
    h = hashlib.sha256()
    for rid, data in records:
        h.update(f">{rid}\n{data}\n".encode("ascii"))
    return h.hexdigest()


def derive(workload, inputs) -> dict:
    """Expected per-pattern position digests and the expected TSV digest."""
    from mdmatch import oracle_match, rolling_deltas

    symbols = sorted(set().union(*(set(d) for _r, d in inputs.records), *inputs.patterns))
    code = {c: i for i, c in enumerate(symbols)}
    texts = [(rid, data, [code[c] for c in data]) for rid, data in inputs.records]
    per_pattern = []
    tsv = []
    for pid, pattern in enumerate(inputs.patterns):
        m = len(pattern)
        params = workload.params(m)
        p_codes = [code[c] for c in pattern]
        hits = []
        for rid, data, t_codes in texts:
            for s, delta in rolling_deltas(p_codes, t_codes, len(symbols)):
                if delta == 0 and oracle_match(pattern, data[s:s + m], params):
                    hits.append((rid, s))
        per_pattern.append(positions_digest(hits))
        tsv += [(pid, rid, s) for rid, s in hits]
    tsv.sort()
    return {
        "workload": workload.name,
        "inputs_sha256": inputs.digest(),
        "records_sha256": records_digest(inputs.records),
        "patterns": per_pattern,
        "tsv_sha256": tsv_digest(f"{pid}\t{rid}\t{s}" for pid, rid, s in tsv),
        "tsv_lines": len(tsv),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, make_inputs

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    workload = WORKLOADS[args.workload]
    result = derive(workload, make_inputs(workload, args.seed))
    result["seed"] = args.seed
    out = Path(args.out)
    tmp = out.with_suffix(".tmp")
    tmp.write_text(json.dumps(result))
    tmp.replace(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
