import numpy as np
import pytest
from hypothesis import HealthCheck, find, given, settings, strategies as st

from textjscc import budget as budget_module
from textjscc.budget import encode_batch_with_budget, encode_with_budget
from textjscc.errors import DomainError
from textjscc.fixed5 import fixed5_decode, fixed5_encode
from textjscc.lzss import lz_compress
from textjscc.metrics import wer


class TestEncodeWithBudget:
    def test_fits_unchanged(self):
        words = "the cat sat on mat".split()  # 18 chars -> 90 bits
        be = encode_with_budget(words, fixed5_encode, budget=100)
        assert be.fits and be.words_dropped == 0
        assert fixed5_decode(be.bits) == "the cat sat on mat"

    def test_budget_zero(self):
        words = ["abc", "de"]
        be = encode_with_budget(words, fixed5_encode, budget=0)
        assert be.fits  # the empty encoding is 0 bits
        assert be.words_dropped == 2
        assert be.bits.size == 0

    def test_drops_exactly_enough(self):
        words = ["aa", "bb", "cc"]  # full: 8 chars = 40 bits
        be = encode_with_budget(words, fixed5_encode, budget=25)
        assert be.words_dropped == 1  # "aa bb" = 5 chars = 25 bits
        assert fixed5_decode(be.bits) == "aa bb"

    def test_monotone_in_budget(self):
        words = "one two three four five six seven eight".split()
        previous = None
        for budget in range(0, 300, 10):
            be = encode_with_budget(words, fixed5_encode, budget)
            if previous is not None:
                assert be.words_dropped <= previous
            previous = be.words_dropped

    def test_negative_budget_rejected(self):
        with pytest.raises(DomainError):
            encode_with_budget(["a"], fixed5_encode, -1)

    def test_truncation_wer_law(self):
        """Under a lossless channel, WER is exactly words_dropped / m."""
        words = "the cat sat on the mat today".split()
        for budget in range(0, 200, 15):
            be = encode_with_budget(words, fixed5_encode, budget)
            hyp = fixed5_decode(be.bits).split()
            assert wer(words, hyp) == be.words_dropped / len(words)


class TestEncodeBatchWithBudget:
    def test_all_fit(self):
        batch = [["aa", "bb"], ["cc"]]
        bbe = encode_batch_with_budget(batch, budget=200)
        assert bbe.fits
        assert bbe.words_dropped == [0, 0]

    def test_longest_sentence_truncated_first(self):
        batch = [["a"] * 6, ["b"] * 2]
        big = encode_batch_with_budget(batch, budget=10**6)
        tight = encode_batch_with_budget(batch, budget=big.bits.size // 2 - 2)
        assert tight.words_dropped[0] > 0
        assert tight.words_dropped[1] <= tight.words_dropped[0]

    def test_budget_zero_drops_everything(self):
        # even empty sentences carry the newline separator, so 0 cannot fit
        batch = [["aa", "bb"], ["cc", "dd", "ee"]]
        bbe = encode_batch_with_budget(batch, budget=0)
        assert bbe.words_dropped == [2, 3]
        assert not bbe.fits
        assert bbe.bits.size == 0

    def test_budget_zero_single_empty_fits(self):
        # one empty sentence joins to the empty string: 0 bits
        bbe = encode_batch_with_budget([["aa"]], budget=0)
        assert bbe.words_dropped == [1]
        assert not bbe.fits or bbe.bits.size == 0

    def test_amortized_comparison(self):
        # total bits must fit budget * batch_size, not each sentence alone
        batch = [["hello", "world"]] * 4
        solo = encode_batch_with_budget(batch[:1], budget=10**6).bits.size
        bbe = encode_batch_with_budget(batch, budget=solo)
        assert bbe.fits and bbe.words_dropped == [0, 0, 0, 0]


def reference_batch_budget(batch, budget):
    """The search as it was before the bit limit: a full parse per attempt.
    Returns (bits, kept, words_dropped, fits, size of every attempt)."""
    kept = [list(words) for words in batch]
    n = len(kept)
    sizes = []
    while True:
        bits = lz_compress([" ".join(w) for w in kept])
        sizes.append(bits.size)
        if bits.size <= budget * n:
            dropped = [len(orig) - len(now) for orig, now in zip(batch, kept)]
            return bits, kept, dropped, True, sizes
        lengths = [len(w) for w in kept]
        longest = max(lengths)
        if longest == 0:
            dropped = [len(orig) for orig in batch]
            return np.zeros(0, dtype=np.uint8), kept, dropped, False, sizes
        kept[lengths.index(longest)].pop()


# words that share substrings, so matches form, break and re-form as words drop
WORDS = st.one_of(st.sampled_from(["the", "cat", "sat", "hat", "at", "a", "then",
                                    "that", "theta", "on", "mat"]),
                  st.text(alphabet="aeht", min_size=1, max_size=6))
BATCHES = st.lists(st.lists(WORDS, max_size=10), min_size=1, max_size=8)


@st.composite
def batch_and_budget(draw):
    batch = draw(BATCHES)
    full = lz_compress([" ".join(w) for w in batch]).size
    return batch, draw(st.integers(0, full // len(batch) + 10))


def non_monotone(case) -> bool:
    """Some dropped word made the LZSS stream longer."""
    sizes = reference_batch_budget(*case)[4]
    return any(b > a for a, b in zip(sizes, sizes[1:]))


class TestBatchBudgetMatchesFullParses:
    @settings(max_examples=300, deadline=None)
    @given(batch_and_budget())
    def test_equals_reference(self, case):
        batch, budget = case
        bits, kept, dropped, fits, _ = reference_batch_budget(batch, budget)
        got = encode_batch_with_budget(batch, budget)
        assert np.array_equal(got.bits, bits)
        assert got.bits.dtype == bits.dtype
        assert got.kept == kept
        assert got.words_dropped == dropped
        assert got.fits == fits

    def test_strategy_reaches_non_monotone_drops(self):
        batch, budget = find(batch_and_budget(), non_monotone,
                             settings=settings(max_examples=2000, database=None,
                                               suppress_health_check=list(HealthCheck)))
        got = encode_batch_with_budget(batch, budget)
        bits, kept, dropped, fits, _ = reference_batch_budget(batch, budget)
        assert np.array_equal(got.bits, bits) and got.kept == kept
        assert got.words_dropped == dropped and got.fits == fits


@st.composite
def words_and_budget(draw):
    words = draw(st.lists(WORDS, max_size=10))
    return words, draw(st.integers(0, lz_compress([" ".join(words)]).size + 10))


class TestOneTruncationRule:
    @settings(max_examples=300, deadline=None)
    @given(words_and_budget())
    def test_one_sentence_equals_a_batch_of_one(self, case):
        words, budget = case
        one = encode_with_budget(words, lambda text: lz_compress([text]), budget)
        batch = encode_batch_with_budget([words], budget)
        assert np.array_equal(one.bits, batch.bits) and one.bits.dtype == batch.bits.dtype
        assert one.words_dropped == batch.words_dropped[0]
        assert one.fits == batch.fits

    def test_encoders_are_looked_up_at_call_time(self, monkeypatch):
        """A wrapper installed after import sees every attempt, as the
        benchmark's tracer needs."""
        limits = []
        real = budget_module.lz_compress
        monkeypatch.setattr(budget_module, "lz_compress",
                            lambda texts, limit=None: limits.append(limit) or real(texts, limit))
        bbe = encode_batch_with_budget([["aa", "bb"], ["cc"]], 8)
        assert limits == [16] * (sum(bbe.words_dropped) + 1)
