import itertools

import pytest
from hypothesis import given, strategies as st

from textjscc.errors import DomainError
from textjscc.metrics import levenshtein, wer


def naive_levenshtein(a, b):
    """Exponential recursive definition, the independent oracle."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    cost = 0 if a[0] == b[0] else 1
    return min(
        naive_levenshtein(a[1:], b) + 1,
        naive_levenshtein(a, b[1:]) + 1,
        naive_levenshtein(a[1:], b[1:]) + cost,
    )


class TestLevenshtein:
    def test_identical(self):
        assert levenshtein([1, 2, 3], [1, 2, 3]) == 0

    def test_substitution(self):
        assert levenshtein(["a", "b", "c"], ["a", "x", "c"]) == 1

    def test_deletion(self):
        assert levenshtein(["a", "b", "c", "d"], ["b", "c", "d"]) == 1

    def test_exhaustive_against_naive(self):
        """All pairs of length <= 4 over a 3-token alphabet."""
        seqs = [seq for n in range(5) for seq in itertools.product(range(3), repeat=n)]
        assert len(seqs) == 121
        for a in seqs:
            for b in seqs:
                assert levenshtein(a, b) == naive_levenshtein(a, b), (a, b)

    @given(st.lists(st.integers(0, 4), max_size=6), st.lists(st.integers(0, 4), max_size=6),
           st.lists(st.integers(0, 4), max_size=6))
    def test_metric_properties(self, a, b, c):
        assert levenshtein(a, b) == levenshtein(b, a)
        assert (levenshtein(a, b) == 0) == (a == b)
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


class TestWer:
    def test_arithmetic(self):
        assert wer(list(range(8)), list(range(6)) + [99, 98]) == 0.25

    def test_identical_is_zero(self):
        assert wer(["x", "y"], ["x", "y"]) == 0.0

    def test_empty_hypothesis_is_one(self):
        assert wer([1, 2, 3, 4, 5], []) == 1.0

    def test_empty_reference_raises(self):
        with pytest.raises(DomainError):
            wer([], [1])

    def test_can_exceed_one(self):
        assert wer([1], [2, 3, 4]) > 1.0
