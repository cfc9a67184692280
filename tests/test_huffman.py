import itertools
import string
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from textjscc import fixed5, huffman
from textjscc.corpus import char_frequencies
from textjscc.errors import CorruptStream, DegenerateAlphabet, DomainError, FramingError
from textjscc.fixed5 import ALPHABET, fixed5_decode, fixed5_encode
from textjscc.huffman import (
    CATCH_ALL,
    HuffmanCodebook,
    build_huffman,
    codebook_for_pipeline,
    entropy_bits,
    huffman_decode,
    huffman_encode,
)
from toy_corpus import make_eval_corpus, make_toy_corpus


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
        assert sum(2.0 ** -n for n in book.lengths.values()) == pytest.approx(1.0)

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


# Frozen copies of the per-character codecs as they were before Huffman and
# fixed5 shared one table-driven code: the references for identical output.

def reference_codes(lengths):
    codes = {}
    code = 0
    prev_len = 0
    for sym in sorted(lengths, key=lambda s: (lengths[s], s)):
        length = lengths[sym]
        code <<= length - prev_len
        codes[sym] = (code, length)
        code += 1
        prev_len = length
    return codes


def reference_huffman_encode(text, lengths):
    codes = reference_codes(lengths)
    bits = []
    for ch in text.lower():
        if ch not in codes:
            ch = CATCH_ALL
            if ch not in codes:
                raise DomainError("character outside codebook and no catch-all present")
        code, length = codes[ch]
        bits.extend((code >> (length - 1 - k)) & 1 for k in range(length))
    return np.array(bits, dtype=np.uint8)


def reference_huffman_decode(bits, lengths):
    decode = {(n, c): s for s, (c, n) in reference_codes(lengths).items()}
    max_length = max(lengths.values())
    out = []
    code = 0
    length = 0
    for bit in np.asarray(bits, dtype=np.uint8).tolist():
        code = (code << 1) | bit
        length += 1
        sym = decode.get((length, code))
        if sym is not None:
            out.append(sym)
            code = 0
            length = 0
        elif length > max_length:
            raise CorruptStream("bit pattern matches no codeword")
    if length != 0:
        raise CorruptStream(f"{length} dangling bits at end of stream")
    return "".join(out)


def reference_fixed5_encode(text):
    index = {ch: i for i, ch in enumerate(ALPHABET)}
    mapped = "".join(ch if ch in index else CATCH_ALL for ch in text.lower())
    bits = np.zeros(5 * len(mapped), dtype=np.uint8)
    for i, ch in enumerate(mapped):
        code = index[ch]
        for k in range(5):
            bits[5 * i + k] = (code >> (4 - k)) & 1
    return bits


def reference_fixed5_decode(bits):
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size % 5 != 0:
        raise FramingError(f"{bits.size} bits is not a multiple of 5")
    out = []
    for i in range(0, bits.size, 5):
        code = 0
        for k in range(5):
            code = (code << 1) | int(bits[i + k])
        out.append(ALPHABET[code])
    return "".join(out)


# The old rule lowercased the whole text, which can change its length ("İ"
# becomes two characters); the references agree wherever it cannot.
ONE_CHAR_LOWER = st.characters(min_codepoint=128).filter(
    lambda c: len(c.lower()) == 1)
MIXED_TEXT = st.text(alphabet=st.one_of(
    st.sampled_from(string.ascii_letters + string.digits + string.punctuation + " "),
    ONE_CHAR_LOWER), max_size=60)
TOY_SENTENCES = make_toy_corpus(64) + make_eval_corpus()
# lowercase non-ASCII symbols in the codebook, so that some upper-case input
# maps to them and the rest to the catch-all
BOOK = codebook_for_pipeline(char_frequencies(TOY_SENTENCES + ["éàßøλж 0123 ,.?!"]))


class TestSharedCharCode:
    def _assert_same(self, text):
        bits = huffman_encode(text, BOOK)
        assert np.array_equal(bits, reference_huffman_encode(text, BOOK.lengths))
        assert huffman_decode(bits, BOOK) == reference_huffman_decode(bits, BOOK.lengths)
        bits = fixed5_encode(text)
        assert np.array_equal(bits, reference_fixed5_encode(text))
        assert fixed5_decode(bits) == reference_fixed5_decode(bits)

    @given(MIXED_TEXT)
    def test_matches_frozen_reference(self, text):
        self._assert_same(text)

    def test_matches_frozen_reference_on_toy_corpus(self):
        for sentence in TOY_SENTENCES:
            self._assert_same(sentence)
            self._assert_same(sentence.upper())

    @given(st.lists(st.integers(0, 1), max_size=80))
    def test_decode_matches_frozen_reference_on_any_bits(self, raw):
        bits = np.array(raw, dtype=np.uint8)
        sparse = HuffmanCodebook({"a": 1, "b": 3})  # no codeword starts 11
        pairs = [(lambda b, book=book: huffman_decode(b, book),
                  lambda b, book=book: reference_huffman_decode(b, book.lengths))
                 for book in (BOOK, sparse)]
        for ours, ref in pairs + [(fixed5_decode, reference_fixed5_decode)]:
            try:
                expected = ref(bits)
            except (CorruptStream, FramingError) as exc:
                with pytest.raises(type(exc)) as got:
                    ours(bits)
                assert str(got.value) == str(exc)
            else:
                assert ours(bits) == expected

    def test_codecs_never_call_each_other(self, monkeypatch):
        """Each public codec function is one entry point: patched wherever a
        textjscc module holds it, a call of one counts no call of another."""
        calls = []
        for module, name in ((huffman, "huffman_encode"), (huffman, "huffman_decode"),
                             (fixed5, "fixed5_encode"), (fixed5, "fixed5_decode")):
            original = getattr(module, name)

            def counting(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)
            for mod in [m for n, m in sys.modules.items() if n.startswith("textjscc")]:
                if getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, counting)
        huffman.huffman_decode(huffman.huffman_encode("the cat", BOOK), BOOK)
        assert calls == ["huffman_encode", "huffman_decode"]
        calls.clear()
        fixed5.fixed5_decode(fixed5.fixed5_encode("the cat"))
        assert calls == ["fixed5_encode", "fixed5_decode"]
