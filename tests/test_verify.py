import importlib
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    enum_match,
    high_weights,
    rand_string,
    random_block_decomposition,
    witness_reference,
)
from mdmatch import core
from mdmatch.core import (
    Block,
    IDENTITY,
    INVERSION,
    TRANSLOCATION,
    SearchParams,
    apply_blocks,
    code_points,
)
from mdmatch.ingest import gen_random_text
from mdmatch.oracle import oracle_match
from mdmatch.search import Matcher, scan_candidates
from mdmatch.verify import verify, verify_with_witness

# The module itself: the package exports a function of the same name.
verify_module = importlib.import_module("mdmatch.verify")


class TestVerifyExamples:
    def test_swap_halves(self):
        assert verify("ab", "ba", 0, SearchParams(1, 0))

    def test_whole_inversion(self):
        assert verify("abc", "cba", 0, SearchParams(0, 3))

    def test_long_translocation(self):
        assert verify("abcd", "cdab", 0, SearchParams(2, 0))

    def test_length_one_inversion_is_identity_only(self):
        assert not verify("ab", "ba", 0, SearchParams(0, 1))

    def test_identity_then_swap(self):
        assert verify("aab", "aba", 0, SearchParams(1, 0))

    def test_two_adjacent_swaps(self):
        assert verify("abcd", "badc", 0, SearchParams(1, 0))

    def test_position_out_of_bounds(self):
        with pytest.raises(ValueError, match="out of bounds"):
            verify("ab", "abc", 2, SearchParams(1, 0))
        with pytest.raises(ValueError, match="out of bounds"):
            verify("ab", "abc", -1, SearchParams(1, 0))

    def test_nonzero_position(self):
        assert verify("abcd", "xxcdabyy", 2, SearchParams(2, 0))
        assert not verify("abcd", "xxcdabyy", 1, SearchParams(2, 0))


class TestVerifyProperties:
    def test_agrees_with_oracle_small(self):
        rng = random.Random(31337)
        for _ in range(4000):
            sigma = rng.choice([2, 4])
            m = rng.randint(1, 12)
            p = rand_string(rng, sigma, m)
            r = rng.random()
            if r < 0.45:
                w = "".join(rng.sample(p, m))
            elif r < 0.8:
                w = rand_string(rng, sigma, m)
            else:
                w = p
            params = SearchParams(rng.randint(0, m // 2), rng.randint(0, m))
            got = verify(p, w, 0, params)
            assert got == oracle_match(p, w, params)
            assert got == enum_match(p, w, params.alpha, params.beta)

    def test_engines_agree_on_wider_bands(self):
        rng = random.Random(77)
        for _ in range(300):
            sigma = rng.choice([2, 4])
            m = rng.randint(8, 40)
            p = rand_string(rng, sigma, m)
            blocks = random_block_decomposition(rng, m, m // 2, m)
            w = apply_blocks(p, blocks) if rng.random() < 0.6 else rand_string(rng, sigma, m)
            alpha, beta = rng.randint(0, m // 2), rng.randint(0, m)
            got = verify(p, w, 0, SearchParams(alpha, beta))
            assert got == oracle_match(p, w, SearchParams(alpha, beta))
            assert got == enum_match(p, w, alpha, beta)

    def test_generative_completeness(self):
        rng = random.Random(4001)
        for _ in range(800):
            sigma = rng.choice([2, 4, 8])
            m = rng.randint(2, 32)
            alpha, beta = rng.randint(0, m // 2), rng.randint(0, m)
            p = rand_string(rng, sigma, m)
            w = apply_blocks(p, random_block_decomposition(rng, m, alpha, beta))
            assert verify(p, w, 0, SearchParams(alpha, beta))

    def test_symmetry(self):
        # Every block operation is an involution, so matching is symmetric.
        rng = random.Random(90210)
        for _ in range(1500):
            sigma = rng.choice([2, 3])
            m = rng.randint(1, 9)
            p = rand_string(rng, sigma, m)
            w = "".join(rng.sample(p, m))
            params = SearchParams(rng.randint(0, m // 2), rng.randint(0, m))
            forward = verify(p, w, 0, params)
            backward = verify(w, p, 0, params)
            assert forward == backward
            assert forward == oracle_match(p, w, params)

    def test_exact_match_degeneracy(self):
        rng = random.Random(8)
        for _ in range(500):
            m = rng.randint(1, 10)
            p = rand_string(rng, 2, m)
            w = rand_string(rng, 2, m)
            for beta in (0, 1):
                assert verify(p, w, 0, SearchParams(0, beta)) == (p == w)

    def test_code_lists_agree_with_strings(self):
        rng = random.Random(9)
        assert verify([0, 1], [1, 0], 0)
        for _ in range(300):
            m = rng.randint(1, 8)
            p = rand_string(rng, 3, m)
            t = rand_string(rng, 3, m + rng.randint(0, 4))
            s = rng.randint(0, len(t) - m)
            params = SearchParams(rng.randint(0, m // 2), rng.randint(0, m))
            p_list, t_list = [ord(c) for c in p], [ord(c) for c in t]
            assert verify(p_list, t_list, s, params) == verify(p, t, s, params)
            assert (verify_with_witness(p_list, t_list, s, params)
                    == verify_with_witness(p, t, s, params))

    def test_workspace_size_independent_of_input_length(self, monkeypatch):
        state = verify_module._state
        built = []

        def measured(*args):
            arrays = state(*args)
            built.append(sum(a.size for a in arrays))
            return arrays

        monkeypatch.setattr(verify_module, "_state", measured)
        rng = random.Random(5)
        sizes = set()
        for m in (64, 512, 4096):
            # A translocation of the last two symbols: the walk crosses all
            # m rows, one cut per row.
            p = rand_string(rng, 4, m - 2) + "ab"
            built.clear()
            assert verify(p, p[:-2] + "ba", 0, SearchParams(4, 8))
            assert built
            sizes.add(sum(built))
        assert len(sizes) == 1


class TestInput:
    """verify and verify_with_witness check and code their input themselves,
    and of the text only the window."""

    @pytest.mark.parametrize("fn", [verify, verify_with_witness])
    def test_empty_pattern(self, fn):
        with pytest.raises(ValueError, match="empty pattern"):
            fn("", "abc", 0)

    @pytest.mark.parametrize("fn", [verify, verify_with_witness])
    @pytest.mark.parametrize("pattern, text, name", [
        (list("AC"), list("AC"), "pattern"),  # an exact copy, which skips the walk
        (list("AC"), list("CA"), "pattern"),
        ("AC", list("CA"), "text"),
    ])
    def test_items_that_are_not_integers(self, fn, pattern, text, name):
        with pytest.raises(ValueError, match=f"^{name} must be a str or a sequence of integers"):
            fn(pattern, text, 0)

    @pytest.mark.parametrize("fn", [verify, verify_with_witness])
    @pytest.mark.parametrize("s", [1.0, "1", None])
    def test_position_that_is_not_an_integer(self, fn, s):
        with pytest.raises(ValueError, match=f"^s must be an integer, not {type(s).__name__}$"):
            fn("ab", "xab", s)
        assert fn("ab", "xab", np.int64(1))

    @pytest.mark.parametrize("fn", [verify, verify_with_witness])
    def test_memory_does_not_grow_with_the_text(self, fn):
        text = gen_random_text(1_000_000, 4, 3)
        s, m = 700_001, 32
        window = text[s:s + m]
        # The window with its halves swapped, so the call walks its cuts.
        p = window[m // 2:] + window[:m // 2]
        assert fn(p, text, s)  # a first call, so one-time caches are built
        tracemalloc.start()
        try:
            assert fn(p, text, s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    @pytest.mark.parametrize("fn", [verify, verify_with_witness])
    def test_exact_copy_builds_no_prefix(self, fn, monkeypatch):
        # An exact copy matches by one compare, so its call builds neither
        # the window's fingerprint prefix nor the pattern's sums; a
        # rearranged window builds each once.
        built = []
        for name in ("fingerprint_prefix", "fingerprint_weights"):
            def counted(codes, name=name, original=getattr(verify_module, name)):
                built.append(name)
                return original(codes)
            monkeypatch.setattr(verify_module, name, counted)
        assert fn("abcab", "xxabcabxx", 2)
        assert fn([5, 300, 5], [5, 300, 5], 0)
        assert built == []
        assert fn("abcab", "xxbacabxx", 2)
        assert sorted(built) == ["fingerprint_prefix", "fingerprint_weights"]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 10), st.integers(0, 30), st.integers(0, 30),
           st.booleans())
    def test_window_of_a_longer_text(self, seed, m, before, after, planted):
        # A rearranged copy of p, or a random window, at s = before.
        rng = random.Random(seed)
        p = rand_string(rng, 3, m)
        w = (apply_blocks(p, random_block_decomposition(rng, m, m // 2, m)) if planted
             else rand_string(rng, 3, m))
        t = rand_string(rng, 3, before) + w + rand_string(rng, 3, after)
        alpha, beta = rng.randint(0, m // 2), rng.randint(0, m)
        params = SearchParams(alpha, beta)
        want = witness_reference(p, w, alpha, beta)
        assert (want is not None) == oracle_match(p, w, params)
        for pattern, text in ((p, t), ([ord(c) for c in p], [ord(c) for c in t])):
            assert verify(pattern, text, before, params) == (want is not None)
            assert verify_with_witness(pattern, text, before, params) == want


class TestWitness:
    def test_swap_witness(self):
        blocks = verify_with_witness("ab", "ba", 0, SearchParams(1, 0))
        assert blocks == (Block(TRANSLOCATION, 0, 1),)

    def test_identity_preferred(self):
        blocks = verify_with_witness("abc", "abc", 0)
        assert blocks == tuple(Block(IDENTITY, i) for i in range(3))

    def test_identity_then_swap(self):
        blocks = verify_with_witness("aab", "aba", 0, SearchParams(1, 0))
        assert blocks == (Block(IDENTITY, 0), Block(TRANSLOCATION, 1, 1))

    # Each window has several valid decompositions; these pin the tie-break
    # (identity, then the shortest translocation, then the shortest inversion).
    @pytest.mark.parametrize("p, w, params, tokens", [
        ("ab", "ba", SearchParams(1, 2), "T@0:1"),
        ("aabb", "bbaa", SearchParams(2, 4), "T@0:2"),
        ("abab", "baba", SearchParams(2, 4), "T@0:1 T@2:1"),
        ("abcd", "dcba", SearchParams(2, 4), "V@0:4"),
    ])
    def test_tie_break(self, p, w, params, tokens):
        blocks = verify_with_witness(p, w, 0, params)
        assert " ".join(b.token() for b in blocks) == tokens

    def test_none_when_no_match(self):
        assert verify_with_witness("ab", "ba", 0, SearchParams(0, 1)) is None

    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from(["ab", "abc"]),
           st.integers(1, 16), st.sampled_from(["blocks", "shuffled", "random"]))
    def test_witness_is_the_reference(self, rng, letters, m, kind):
        p = "".join(rng.choice(letters) for _ in range(m))
        alpha, beta = rng.randint(0, m // 2), rng.randint(0, m)
        if kind == "blocks":
            w = apply_blocks(p, random_block_decomposition(rng, m, alpha, beta))
        elif kind == "shuffled":
            w = "".join(rng.sample(p, m))
        else:
            w = "".join(rng.choice(letters) for _ in range(m))
        params = SearchParams(alpha, beta)
        assert verify_with_witness(p, w, 0, params) == witness_reference(p, w, alpha, beta)
        text = "".join(rng.choice(letters) for _ in range(rng.randint(0, m))) + w + p
        for occ in Matcher(text).find(p, params, with_witness=True):
            window = text[occ.position:occ.position + m]
            assert occ.witness == witness_reference(p, window, alpha, beta)

    def test_long_windows_past_the_cut_limit(self):
        # A few blocks in a long window leave most prefixes balanced, so the
        # window has many cuts, more than 64: the decider walks a long chain
        # rank by rank and the witness walks it back.
        rng = random.Random(1011)
        past = 0
        for _ in range(40):
            m = rng.randint(100, 300)
            alpha, beta = rng.randint(1, 16), rng.randint(2, 16)
            p = rand_string(rng, 4, m)
            blocks, pos = [], 0
            while pos < m:
                r = rng.random()
                if r < 0.03 and pos + 2 * alpha <= m:
                    blocks.append(Block(TRANSLOCATION, pos, rng.randint(1, alpha)))
                elif r < 0.06 and pos + beta <= m:
                    blocks.append(Block(INVERSION, pos, rng.randint(2, beta)))
                else:
                    blocks.append(Block(IDENTITY, pos))
                pos += blocks[-1].span
            w = apply_blocks(p, blocks)
            past += sum(sorted(p[:j]) == sorted(w[:j]) for j in range(1, m + 1)) > 64
            want = witness_reference(p, w, alpha, beta)
            assert want is not None
            assert verify_with_witness(p, w, 0, SearchParams(alpha, beta)) == want
            text = rand_string(rng, 4, 50) + w + p
            occs = Matcher(text).find(p, SearchParams(alpha, beta), with_witness=True)
            assert occs[0].position == 50 and occs[0].witness == want
        assert past >= 30

    @pytest.mark.parametrize("m", [8, 30, 64])
    def test_periodic_text(self, m):
        # At even m every window of "AC" * k matches: one phase is a copy,
        # the other a chain of swaps or reversals.
        text = "AC" * 60
        for p in (text[:m], text[1:m + 1]):
            for alpha, beta in ((m // 2, m), (2, 4), (0, 2)):
                occs = Matcher(text).find(p, SearchParams(alpha, beta), with_witness=True)
                assert [o.position for o in occs] == list(range(len(text) - m + 1))
                for occ in occs:
                    window = text[occ.position:occ.position + m]
                    assert occ.witness == witness_reference(p, window, alpha, beta)

    def test_witness_replays_to_window(self):
        rng = random.Random(616)
        positives = 0
        for _ in range(2000):
            sigma = rng.choice([2, 3])
            m = rng.randint(1, 10)
            p = rand_string(rng, sigma, m)
            w = "".join(rng.sample(p, m))
            params = SearchParams(rng.randint(0, m // 2), rng.randint(0, m))
            blocks = verify_with_witness(p, w, 0, params)
            assert (blocks is not None) == verify(p, w, 0, params)
            if blocks is not None:
                positives += 1
                assert apply_blocks(p, blocks) == w
                for b in blocks:
                    if b.kind == TRANSLOCATION:
                        assert 1 <= b.length <= params.alpha
                    elif b.kind != IDENTITY:
                        assert 2 <= b.length <= params.beta
        assert positives > 100  # the sample actually exercised the positive path


def cut_test(p: str, windows: list[str], alpha: int, beta: int) -> list[bool]:
    """The decider, verify._decide, on windows given as strings: True where
    a window's chain of cuts reaches m."""
    # Each window followed by the pattern, the one row of the group; the
    # windows laid end to end are the text whose prefix gives their cuts.
    p_arr = code_points(p)
    table = np.stack([np.concatenate((code_points(w), p_arr)) for w in windows])
    rows = np.zeros(len(windows), dtype=np.intp)
    starts = np.arange(len(windows)) * len(p)
    prefix = core.fingerprint_prefix(table[:, :len(p)].ravel())
    sums = np.cumsum(core.fingerprint_weights(p_arr[None]), axis=1, dtype=np.uint32)
    return verify_module._decide(table, rows, sums, starts, prefix, alpha, beta,
                                 False)[0].tolist()


class TestCutTest:
    """The decider walks each window's chain of cuts; windows equal to the
    pattern go through it too here, not only through the exact compare."""

    def test_decides_like_enumeration(self):
        # The chain reaching m is the match condition itself.
        rng = random.Random(2718)
        positives = 0
        for _ in range(1500):
            sigma = rng.choice([2, 3, 4, 8])
            m = rng.randint(1, 40)
            alpha, beta = rng.randint(0, m // 2), rng.randint(0, m)
            p = rand_string(rng, sigma, m)
            r = rng.random()
            if r < 0.4:
                w = apply_blocks(p, random_block_decomposition(rng, m, m // 2, m))
            elif r < 0.8:
                w = "".join(rng.sample(p, m))
            else:
                w = rand_string(rng, sigma, m)
            want = enum_match(p, w, alpha, beta)
            positives += want
            assert cut_test(p, [w], alpha, beta) == [want]
        assert positives > 200

    def test_colliding_weights_keep_every_match(self, monkeypatch):
        # Equal weights make every prefix a cut: the walk loses strength,
        # never a match.
        monkeypatch.setattr(core, "symbol_weights",
                            lambda codes: np.zeros(np.shape(codes), dtype=np.uint64))
        rng = random.Random(11)
        for _ in range(400):
            m = rng.randint(1, 24)
            alpha, beta = rng.randint(0, m // 2), rng.randint(0, m)
            p = rand_string(rng, 3, m)
            w = (apply_blocks(p, random_block_decomposition(rng, m, alpha, beta))
                 if rng.random() < 0.5 else rand_string(rng, 3, m))
            want = enum_match(p, w, alpha, beta)
            assert cut_test(p, [w], alpha, beta) == [want]
            assert verify(p, w, 0, SearchParams(alpha, beta)) == want
            assert (verify_with_witness(p, w, 0, SearchParams(alpha, beta))
                    == witness_reference(p, w, alpha, beta))

    def test_shifted_copy_of_a_long_pattern(self):
        # The window one to the right of the pattern's own occurrence is a
        # permutation of it when the symbol leaving equals the one entering;
        # it is a rotation, which no block chain gives.
        rng = random.Random(64)
        m = 128
        text = rand_string(rng, 8, 3 * m)
        text = text[:m] + text[0] + text[m + 1:]
        p, w = text[:m], text[1:m + 1]
        assert sorted(p) == sorted(w) and p != w
        params = SearchParams(m // 2, m)
        assert cut_test(p, [p, w], m // 2, m) == [True, False]
        assert not verify(p, text, 1, params)


def zero_weights(codes):
    """Weights that make every row a cut."""
    return np.zeros(np.shape(codes), dtype=np.uint64)


class TestManyCuts:
    """Windows with many cuts: binary and periodic ones, and every row a cut
    under zero weights, so the walk steps through long runs of ranks."""

    @settings(max_examples=80, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 64),
           st.sampled_from(["binary", "periodic"]), st.booleans())
    def test_witness_is_the_reference(self, rng, m, kind, zero):
        alpha, beta = rng.randint(0, m // 2), rng.randint(0, m)
        if kind == "binary":
            p = "".join(rng.choice("ab") for _ in range(m))
        else:
            p = ("AC" * m)[rng.randint(0, 1):][:m]
        r = rng.random()
        if r < 0.5:
            w = apply_blocks(p, random_block_decomposition(rng, m, alpha, beta))
        elif kind == "periodic" and r < 0.75:
            w = ("AC" * m)[rng.randint(0, 1):][:m]
        else:
            w = "".join(rng.sample(p, m))
        params = SearchParams(alpha, beta)
        text = w + p
        with pytest.MonkeyPatch.context() as patch:
            if zero:
                patch.setattr(core, "symbol_weights", zero_weights)
            assert verify_with_witness(p, w, 0, params) == witness_reference(p, w, alpha, beta)
            found = {occ.position: occ.witness
                     for occ in Matcher(text).find(p, params, with_witness=True)}
        for s in range(len(text) - m + 1):
            assert found.get(s) == witness_reference(p, text[s:s + m], alpha, beta)

    @settings(max_examples=80, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 48),
           st.sampled_from(["random", "binary", "periodic"]), st.integers(0, 2),
           st.integers(0, 2))
    def test_every_row_a_cut_keeps_the_witness(self, rng, m, kind, a, b):
        # Weights equal in their low 32 bits (conftest.high_weights): in the
        # shared 32-bit prefix every row of every window is a cut, so the
        # exact block compares alone decide, with bounds 0, random or maximal.
        alpha = (0, rng.randint(0, m // 2), m // 2)[a]
        beta = (0, rng.randint(0, m), m)[b]
        if kind == "periodic":
            p = ("AC" * m)[rng.randint(0, 1):][:m]
        else:
            p = rand_string(rng, 2 if kind == "binary" else 6, m)
        r = rng.random()
        if r < 0.5:
            w = apply_blocks(p, random_block_decomposition(rng, m, m // 2, m))
        elif kind == "periodic" and r < 0.75:
            w = ("AC" * m)[rng.randint(0, 1):][:m]
        else:
            w = "".join(rng.sample(p, m))
        params = SearchParams(alpha, beta)
        text = w + p + w[::-1]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "symbol_weights", high_weights)
            assert (np.diff(core.fingerprint_prefix(code_points(text))) == 1).all()
            assert verify_with_witness(p, w, 0, params) == witness_reference(p, w, alpha, beta)
            found = {occ.position: occ.witness
                     for occ in Matcher(text).find(p, params, with_witness=True)}
        for s in range(len(text) - m + 1):
            assert found.get(s) == witness_reference(p, text[s:s + m], alpha, beta)

    def test_one_chunk_mixes_a_periodic_window_with_random_ones(self):
        # The periodic windows have a cut every other row and the random
        # candidates a few, so within the one chunk ranks go idle at
        # different times.
        rng = random.Random(0x5EED)
        m = 32
        p = "AC" * (m // 2)
        text = ("".join(rng.choice("AC") for _ in range(300)) + "AC" * 40
                + "".join(rng.choice("AC") for _ in range(300)))
        cands = scan_candidates(code_points(p), code_points(text)).tolist()
        assert len(cands) * m <= verify_module.CHUNK
        periodic = [s for s in cands if text[s:s + m] in (p, p[::-1])]
        assert len(periodic) > 40 and len(cands) - len(periodic) > 40
        for alpha, beta in ((m // 2, m), (2, 4), (3, 7), (0, 2)):
            occs = Matcher(text).find(p, SearchParams(alpha, beta), with_witness=True)
            found = {occ.position: occ.witness for occ in occs}
            for s in cands:
                assert found.get(s) == witness_reference(p, text[s:s + m], alpha, beta)
            assert set(found) <= set(cands) and set(periodic) <= set(found)
