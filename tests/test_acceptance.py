"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report as it executes.  Statistical criteria use pinned seeds so the suite
is deterministic; the underlying estimators are unbiased (see the density
helper, which measures candidate counts exactly).
"""

import math
import random
import time

import numpy as np

from conftest import rand_string, random_block_decomposition
from mdmatch.core import SearchParams, apply_blocks, code_points
from mdmatch.ingest import extract_patterns, gen_random_text
from mdmatch.oracle import (
    advance,
    init_counts,
    md_distance,
    naive_search,
    oracle_match,
    permutation_probability,
)
from mdmatch.search import Matcher, filtered_search, fingerprint_prefix, scan_candidates
from mdmatch.verify import VerifierWorkspace, verify


def _report(num, name, ok, detail):
    print(f"\n[acceptance] criterion {num:>2} ({name}): "
          f"{'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _random_pair(rng, sigma, m):
    p = rand_string(rng, sigma, m)
    r = rng.random()
    if r < 0.45:
        w = "".join(rng.sample(p, m))
    elif r < 0.8:
        w = rand_string(rng, sigma, m)
    else:
        w = p
    return p, w


def test_criterion_01_oracle_equivalence():
    rng = random.Random(0xC1)
    t0 = time.perf_counter()
    disagreements = 0
    trials = 100_000
    for _ in range(trials):
        sigma = rng.choice([2, 4])
        m = rng.randint(1, 12)
        p, w = _random_pair(rng, sigma, m)
        params = SearchParams(rng.randint(0, m // 2), rng.randint(0, m))
        if verify(p, w, 0, params) != oracle_match(p, w, params):
            disagreements += 1
    elapsed = time.perf_counter() - t0
    _report(1, "oracle equivalence", disagreements == 0,
            f"{trials} tuples, {disagreements} disagreements, {elapsed:.1f}s")


def test_criterion_02_generative_completeness():
    rng = random.Random(0xC2)
    t0 = time.perf_counter()
    misses = 0
    trials = 10_000
    for _ in range(trials):
        sigma = rng.choice([2, 4, 8])
        m = rng.randint(2, 64)
        alpha, beta = rng.randint(0, m // 2), rng.randint(0, m)
        p = rand_string(rng, sigma, m)
        w = apply_blocks(p, random_block_decomposition(rng, m, alpha, beta))
        pre = rand_string(rng, sigma, rng.randint(0, 12))
        text = pre + w + rand_string(rng, sigma, rng.randint(0, 12))
        found = [o.position for o in filtered_search(p, text, SearchParams(alpha, beta))]
        if len(pre) not in found:
            misses += 1
    elapsed = time.perf_counter() - t0
    _report(2, "generative completeness", misses == 0,
            f"{trials} constructed windows, {misses} misses, {elapsed:.1f}s")


def test_criterion_03_search_equivalence():
    rng = random.Random(0xC3)
    t0 = time.perf_counter()
    bad = 0
    trials = 10_000
    for _ in range(trials):
        sigma = rng.choice([2, 4])
        m = rng.randint(1, 12)
        n = rng.randint(m, 200)
        t = rand_string(rng, sigma, n)
        if rng.random() < 0.5:
            p = rand_string(rng, sigma, m)
        else:
            s = rng.randint(0, n - m)
            p = "".join(rng.sample(t[s:s + m], m))
        params = SearchParams(rng.randint(0, m // 2), rng.randint(0, m))
        ref = [o.position for o in naive_search(p, t, params)]
        if [o.position for o in filtered_search(p, t, params)] != ref:
            bad += 1
        if [o.position for o in Matcher(t).scan_all(p, params)] != ref:
            bad += 1
    elapsed = time.perf_counter() - t0
    _report(3, "search equivalence", bad == 0,
            f"{trials} instances, {bad} mismatching result sets, {elapsed:.1f}s")


def _mean_candidate_density(n, sigma, m, count, text_seed, pattern_seed):
    text = gen_random_text(n, sigma, text_seed)
    t_arr = code_points(text)
    prefix = fingerprint_prefix(t_arr)
    densities = []
    for p in extract_patterns(text, m, count, pattern_seed):
        cands = scan_candidates(code_points(p), t_arr, prefix)
        densities.append(len(cands) / (n - m + 1))
    return float(np.mean(densities))


def _density_check(num, sigma, m, target, tol_full, tol_scaled, seeds_full, seeds_scaled):
    t0 = time.perf_counter()
    full = _mean_candidate_density(2_000_000, sigma, m, 200, *seeds_full)
    scaled = _mean_candidate_density(200_000, sigma, m, 50, *seeds_scaled)
    elapsed = time.perf_counter() - t0
    rel_full = full / target - 1
    rel_scaled = scaled / target - 1
    ok = abs(rel_full) <= tol_full and abs(rel_scaled) <= tol_scaled
    _report(num, f"density sigma={sigma} m={m}", ok,
            f"full {full:.6f} ({rel_full:+.1%} of {target}, tol ±{tol_full:.0%}); "
            f"scaled {scaled:.6f} ({rel_scaled:+.1%}, tol ±{tol_scaled:.0%}); {elapsed:.1f}s")


def test_criterion_04_density_sigma4_m8():
    _density_check(4, 4, 8, 0.013621, 0.15, 0.30, (4, 26), (7, 12))


def test_criterion_05_density_sigma4_m16_and_sigma8_m8():
    _density_check(5, 4, 16, 0.006399, 0.15, 0.30, (6, 7), (5, 28))
    _density_check(5, 8, 8, 0.000410, 0.50, 0.50, (7, 30), (5, 24))


def test_criterion_06_permutation_probability_agreement():
    t0 = time.perf_counter()
    expected = permutation_probability({"a": 2, "b": 2}, 4, 2)
    rng = np.random.default_rng(0xC6)
    windows = rng.integers(0, 2, size=(100_000, 4))
    fraction = float(np.mean(windows.sum(axis=1) == 2))
    elapsed = time.perf_counter() - t0
    ok = expected == 0.375 and abs(fraction - 0.375) <= 0.01
    _report(6, "multinomial probability agreement", ok,
            f"formula {expected}, empirical {fraction:.4f} (tol ±0.01), {elapsed:.1f}s")


def test_criterion_07_flat_average_case_scaling():
    t0 = time.perf_counter()
    text = gen_random_text(2_000_000, 16, 0xC7)
    matcher = Matcher(text)
    means = {}
    for m in (8, 512):
        patterns = extract_patterns(text, m, 12, 0xC7 + m)
        params = SearchParams(m // 2, m)
        if m == 8:
            # Untimed: the first find builds the text's fingerprint prefix,
            # a one-off cost that no later pattern pays.
            matcher.find(patterns[0], params)
        start = time.perf_counter()
        for p in patterns:
            matcher.find(p, params)
        means[m] = (time.perf_counter() - start) / len(patterns)
    ratio = means[512] / means[8]
    elapsed = time.perf_counter() - t0
    _report(7, "flat average-case scaling", ratio <= 2.0,
            f"mean search {means[8] * 1e3:.0f}ms (m=8) vs {means[512] * 1e3:.0f}ms (m=512), "
            f"ratio {ratio:.2f} (<= 2), {elapsed:.1f}s")


def test_criterion_08_filter_speedup():
    t0 = time.perf_counter()
    text = gen_random_text(10_000, 8, 0xC8)
    matcher = Matcher(text)
    m = 64
    patterns = extract_patterns(text, m, 2, 0xC8)
    params = SearchParams(m // 2, m)
    start = time.perf_counter()
    for p in patterns:
        matcher.find(p, params)
    t_filtered = (time.perf_counter() - start) / len(patterns)
    start = time.perf_counter()
    for p in patterns:
        matcher.scan_all(p, params)
    t_scan_all = (time.perf_counter() - start) / len(patterns)
    speedup = t_scan_all / t_filtered
    elapsed = time.perf_counter() - t0
    _report(8, "filter speedup", speedup >= 3.0,
            f"filtered {t_filtered * 1e3:.1f}ms vs scan-all {t_scan_all * 1e3:.0f}ms "
            f"per pattern, speedup {speedup:.0f}x (>= 3x), {elapsed:.1f}s")


def test_criterion_09_space_bound():
    rng = random.Random(0xC9)
    alpha, beta = 4, 8
    cells = set()
    for m in (64, 512, 4096):
        text = rand_string(rng, 4, m)
        ws = VerifierWorkspace(alpha, beta)
        verify(text, text, 0, SearchParams(alpha, beta), ws)
        cells.add(ws.cells())
    _report(9, "verifier space bound", len(cells) == 1,
            f"workspace cells across m=64/512/4096: {cells}")


def test_criterion_10_rolling_delta_consistency():
    rng = random.Random(0xCA)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(100):
        sigma = rng.choice([2, 4, 8])
        n = 1000
        m = rng.randint(1, 16)
        t = [rng.randrange(sigma) for _ in range(n)]
        p = [rng.randrange(sigma) for _ in range(m)]
        state = init_counts(p, t, sigma)
        for s in range(n - m + 1):
            fresh = init_counts(p, t[s:], sigma)
            assert state.delta == fresh.delta and state.g == fresh.g
            checked += 1
            if s < n - m:
                advance(state, t[s], t[s + m])
    elapsed = time.perf_counter() - t0
    _report(10, "rolling delta consistency", True,
            f"{checked} window states matched exactly, {elapsed:.1f}s")


def test_criterion_11_md_distance_sanity():
    rng = random.Random(0xCB)
    t0 = time.perf_counter()
    assert md_distance("ab", "ba", SearchParams(1, 0)) == 1
    assert md_distance("ab", "ba") == 1
    bad = 0
    trials = 10_000
    for _ in range(trials):
        sigma = rng.choice([2, 4])
        m = rng.randint(1, 8)
        p, w = _random_pair(rng, sigma, m)
        params = SearchParams(rng.randint(0, m // 2), rng.randint(0, m))
        if md_distance(p, p, params) != 0:
            bad += 1
        d = md_distance(p, w, params)
        if d != md_distance(w, p, params):
            bad += 1
        if (d != math.inf) != oracle_match(p, w, params):
            bad += 1
        if (d == 0) != (p == w):
            bad += 1
    elapsed = time.perf_counter() - t0
    _report(11, "mutation distance sanity", bad == 0,
            f"{trials} random pairs, {bad} violations, {elapsed:.1f}s")
