import numpy as np
import pytest

from mdmatch.core import (
    Block,
    IDENTITY,
    INVERSION,
    TRANSLOCATION,
    SearchParams,
    apply_blocks,
    code_points,
    maximal_params,
    normalize_params,
)
from mdmatch.search import Matcher
from mdmatch.verify import verify


class TestCodePoints:
    def test_equal_symbols_equal_codes(self):
        codes = code_points("mississippi").tolist()
        assert codes == [ord(c) for c in "mississippi"]
        assert codes[1] == codes[4] == codes[7] == codes[10]

    def test_round_trip(self):
        text = "hello world ACGT\xff"
        assert "".join(map(chr, code_points(text).tolist())) == text

    def test_empty_input(self):
        # The empty text is a byte text: one byte per symbol, like any
        # text whose code points are all below 256.
        codes = code_points("")
        assert codes.size == 0 and codes.dtype == np.uint8

    @pytest.mark.parametrize("text", ["ACGT\xff", "\x00~\x7f\x80", "a" * 1000 + "\xe9"])
    def test_byte_text_is_uint8(self, text):
        codes = code_points(text)
        assert codes.dtype == np.uint8
        assert codes.tolist() == [ord(c) for c in text]

    def test_one_wide_symbol_makes_int32(self):
        codes = code_points("ACGT\u0100")
        assert codes.dtype == np.int32
        assert codes.tolist() == [65, 67, 71, 84, 256]

    def test_wide_symbols(self):
        text = "αβγ\U0001F600\U0010FFFF\ud800"
        assert code_points(text).tolist() == [ord(c) for c in text]
        assert code_points(text).dtype == np.int32


class TestParams:
    def test_clamped_to_bounds(self):
        assert normalize_params(SearchParams(100, 100), 8) == SearchParams(4, 8)

    def test_within_bounds_unchanged(self):
        p = SearchParams(2, 3)
        assert normalize_params(p, 8) is p

    def test_zero_params_kept(self):
        assert normalize_params(SearchParams(0, 0), 8) == SearchParams(0, 0)

    def test_idempotent(self):
        for alpha in range(8):
            for beta in range(10):
                for m in (1, 2, 5, 9):
                    once = normalize_params(SearchParams(alpha, beta), m)
                    assert normalize_params(once, m) == once

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SearchParams(-1, 0)
        with pytest.raises(ValueError):
            SearchParams(0, -2)

    def test_non_integer_rejected(self):
        # A bound operator.index rejects raises a ValueError naming it, on
        # construction, not deep in a search or a verify call.
        for alpha, beta, name in ((1.5, 2, "alpha"), (1, 2.0, "beta"), ("1", 2, "alpha"),
                                  (1, None, "beta"), (np.float64(1), 2, "alpha")):
            with pytest.raises(ValueError, match=f"^{name} must be an integer"):
                SearchParams(alpha, beta)
        # Python and numpy integers are bounds.
        assert normalize_params(SearchParams(np.int64(9), np.uint8(3)), 8) == SearchParams(4, 3)
        params = SearchParams(np.int32(2), np.int64(0))
        assert verify("abba", "baab", 0, params)
        assert Matcher("abab" * 4).find("abba", params) == \
            Matcher("abab" * 4).find("abba", SearchParams(2, 0))

    def test_maximal(self):
        assert maximal_params(9) == SearchParams(4, 9)
        with pytest.raises(ValueError):
            maximal_params(0)

    def test_normalize_rejects_empty_pattern(self):
        with pytest.raises(ValueError, match="empty pattern"):
            normalize_params(SearchParams(0, 0), 0)


class TestBlocks:
    def test_spans(self):
        assert Block(IDENTITY, 0).span == 1
        assert Block(TRANSLOCATION, 0, 3).span == 6
        assert Block(INVERSION, 0, 3).span == 3

    def test_tokens(self):
        assert Block(IDENTITY, 5).token() == "I@5"
        assert Block(TRANSLOCATION, 0, 2).token() == "T@0:2"
        assert Block(INVERSION, 4, 3).token() == "V@4:3"

    def test_replay_identity(self):
        blocks = [Block(IDENTITY, i) for i in range(3)]
        assert apply_blocks("abc", blocks) == "abc"

    def test_replay_translocation(self):
        assert apply_blocks("abcd", [Block(TRANSLOCATION, 0, 2)]) == "cdab"

    def test_replay_inversion(self):
        assert apply_blocks("abc", [Block(INVERSION, 0, 3)]) == "cba"

    def test_replay_mixed(self):
        blocks = [Block(IDENTITY, 0), Block(TRANSLOCATION, 1, 1), Block(INVERSION, 3, 2)]
        assert apply_blocks("abcde", blocks) == "acbed"

    def test_gap_rejected(self):
        with pytest.raises(ValueError, match="contiguous"):
            apply_blocks("abc", [Block(IDENTITY, 1)])

    def test_short_cover_rejected(self):
        with pytest.raises(ValueError, match="cover"):
            apply_blocks("abc", [Block(IDENTITY, 0)])

    @pytest.mark.parametrize("block, message", [
        (Block(TRANSLOCATION, 0, 0), "translocation length must be >= 1"),
        (Block(INVERSION, 0, 0), "inversion length must be >= 1"),
        (Block("swap", 0, 1), "unknown block kind 'swap'"),
    ])
    def test_bad_block_rejected(self, block, message):
        with pytest.raises(ValueError, match=message):
            apply_blocks("abc", [block])
