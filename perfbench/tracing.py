"""Span recorder for the traced benchmark run.

Spans are recorded from outside the program: each hook replaces one public
function or method where its caller looks it up, opens a span, calls the
original and closes the span.  Nothing inside `mdmatch` is modified and no
private attribute is read.  Spans stay in memory ([name, start, end, parent,
counts]) until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._open[-1] if self._open else -1, None])
        self._open.append(idx)
        return idx

    def end(self, idx: int, counts: dict | None = None) -> None:
        self.spans[idx][2] = perf_counter()
        self.spans[idx][4] = counts
        self._open.pop()


def _source_bytes(args, _result):
    source = args[0]
    return {"bytes": source.tell() if hasattr(source, "tell") else len(source)}


# (owner, attribute, span name, counts from (args, result)).  The owner is
# where the caller looks the function up: cli imports read_fasta and
# verify_with_witness into its namespace, Matcher.find calls scan_candidates
# through mdmatch.search.
HOOKS = (
    ("mdmatch.cli", "read_fasta", "ingest.read_fasta", _source_bytes),
    ("mdmatch.search:Matcher", "__init__", "search.matcher_init", None),
    ("mdmatch.core:Alphabet", "encode_sequence", "core.encode",
     lambda args, _r: {"symbols": len(args[1])}),
    ("mdmatch.search", "scan_candidates", "counting.scan",
     lambda args, r: {"positions": max(0, len(args[1]) - len(args[0]) + 1),
                      "candidates": len(r)}),
    ("mdmatch.search:Matcher", "find", "search.find", lambda _a, r: {"matches": len(r)}),
    ("mdmatch.cli", "verify_with_witness", "verify.witness", None),
)


def _owner(path: str):
    """The module or class named by "module[:Class]", or None if it is gone."""
    module, _, attr = path.partition(":")
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(obj, attr, None) if attr else obj


def _wrapper(tracer: Tracer, original, name: str, count):
    @functools.wraps(original)
    def traced(*args, **kwargs):
        idx = tracer.begin(name)
        counts = None
        try:
            result = original(*args, **kwargs)
            if count is not None:
                counts = count(args, result)
            return result
        finally:
            tracer.end(idx, counts)
    return traced


@contextmanager
def hooks_installed(tracer: Tracer):
    """Install every hook for the duration of the block.

    A hook whose target no longer exists is skipped with a note on stderr;
    its layer then reads zero instead of breaking the run.
    """
    undo = []
    try:
        for path, attr, name, count in HOOKS:
            owner = _owner(path)
            original = getattr(owner, attr, None)
            if original is None:
                print(f"trace: {path}.{attr} not found, {name} not traced", file=sys.stderr)
                continue
            undo.append((owner, attr, vars(owner).get(attr)))
            setattr(owner, attr, _wrapper(tracer, original, name, count))
        yield tracer
    finally:
        for owner, attr, previous in reversed(undo):
            if previous is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)


def summarize(spans: list[list]) -> dict:
    """Per span name: calls, inclusive time, self time and summed counts.

    Self time is a span's duration minus the durations of its child spans;
    spans nest strictly because the benchmark is single-threaded.
    Also returns, under "find.scan", the scan spans whose parent is a find.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _c in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, parent, counts) in enumerate(spans):
        keys = [name]
        if name == "counting.scan" and parent >= 0 and spans[parent][0] == "search.find":
            keys.append("find.scan")
        for key in keys:
            agg = out[key]
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child[i]
            for k, v in (counts or {}).items():
                agg[k] += v
    return out
