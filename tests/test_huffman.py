import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from textjscc.corpus import char_frequencies
from textjscc.errors import CorruptStream, DegenerateAlphabet, DomainError
from textjscc.huffman import (
    CATCH_ALL,
    build_huffman,
    codebook_for_pipeline,
    entropy_bits,
    huffman_decode,
    huffman_encode,
)


def optimal_expected_length(freqs: dict) -> float:
    """Exhaustive search over all merge hierarchies (== all full binary code
    trees), the independent optimality oracle for small alphabets."""
    total = sum(freqs.values())

    def best(items):
        # items: list of (weight, accumulated depth-weighted cost)
        if len(items) == 1:
            return items[0][1]
        out = float("inf")
        for i, j in itertools.combinations(range(len(items)), 2):
            wi, ci = items[i]
            wj, cj = items[j]
            rest = [items[k] for k in range(len(items)) if k not in (i, j)]
            # merging adds one level above both subtrees: cost grows by wi+wj
            out = min(out, best(rest + [(wi + wj, ci + cj + wi + wj)]))
        return out

    return best([(w, 0.0) for w in freqs.values()]) / total


class TestBuildHuffman:
    def test_skewed_three_symbols(self):
        book = build_huffman({"a": 2, "b": 1, "c": 1})
        assert book.lengths == {"a": 1, "b": 2, "c": 2}

    def test_uniform_four_symbols(self):
        book = build_huffman({"a": 1, "b": 1, "c": 1, "d": 1})
        assert set(book.lengths.values()) == {2}

    def test_single_symbol_degenerate(self):
        with pytest.raises(DegenerateAlphabet):
            build_huffman({"a": 5})

    def test_optimal_on_small_alphabets(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            n = rng.integers(2, 6)
            freqs = {chr(ord("a") + i): int(rng.integers(1, 50)) for i in range(n)}
            book = build_huffman(freqs)
            assert book.expected_length(freqs) == pytest.approx(
                optimal_expected_length(freqs))

    def test_kraft_equality(self):
        book = build_huffman({"a": 7, "b": 3, "c": 2, "d": 1, "e": 1})
        assert book.kraft_sum() == pytest.approx(1.0)

    def test_entropy_sandwich(self):
        freqs = {"a": 50, "b": 20, "c": 15, "d": 10, "e": 5}
        book = build_huffman(freqs)
        h = entropy_bits(freqs)
        assert h <= book.expected_length(freqs) < h + 1

    def test_deterministic_under_ties(self):
        freqs = {"x": 3, "y": 3, "z": 3, "w": 3}
        first = build_huffman(freqs).lengths
        for _ in range(5):
            assert build_huffman(freqs).lengths == first


class TestEncodeDecode:
    @pytest.fixture
    def book(self):
        return build_huffman({"a": 2, "b": 1, "c": 1})

    def test_empty(self, book):
        bits = huffman_encode("", book)
        assert bits.size == 0
        assert huffman_decode(bits, book) == ""

    def test_aab_is_four_bits(self, book):
        assert huffman_encode("aab", book).size == 4

    def test_round_trip(self, book):
        text = "abacabac"
        assert huffman_decode(huffman_encode(text, book), book) == text

    def test_unknown_maps_to_catch_all(self):
        book = build_huffman({"a": 3, CATCH_ALL: 1})
        bits = huffman_encode("aZ9", book)
        assert huffman_decode(bits, book) == "a##"

    def test_unknown_without_catch_all_raises(self, book):
        with pytest.raises(DomainError):
            huffman_encode("z", book)

    def test_dangling_bits_corrupt(self, book):
        bits = huffman_encode("aab", book)
        with pytest.raises(CorruptStream):
            huffman_decode(bits[:-1], book)

    def test_bit_flip_is_lossy_or_corrupt(self, book):
        bits = huffman_encode("abcabc", book)
        flipped = bits.copy()
        flipped[0] ^= 1
        try:
            assert huffman_decode(flipped, book) != "abcabc"
        except CorruptStream:
            pass

    @given(st.text(alphabet="abcde ", max_size=60))
    def test_round_trip_property(self, text):
        book = build_huffman({"a": 9, "b": 5, "c": 3, "d": 2, "e": 1, " ": 4})
        assert huffman_decode(huffman_encode(text, book), book) == text


class TestPipelineCodebook:
    def test_catch_all_injected(self):
        freqs = char_frequencies(["the cat sat"])
        book = codebook_for_pipeline(freqs)
        assert CATCH_ALL in book.lengths
        assert huffman_decode(huffman_encode("the!", book), book) == "the#"

    def test_dominates_fixed5_on_training_corpus(self):
        from textjscc.fixed5 import fixed5_encode

        lines = ["the cat sat on the mat .", "a dog ran across the street .",
                 "the bird sang in the garden all day ."]
        book = codebook_for_pipeline(char_frequencies(lines))
        for line in lines:
            assert huffman_encode(line, book).size <= fixed5_encode(line).size
