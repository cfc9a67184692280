import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from textjscc.errors import CorruptStream, DomainError
from textjscc.fixed5 import fixed5_encode
from textjscc.lzss import (
    MAX_MATCH,
    MIN_MATCH,
    WINDOW,
    compress_bytes,
    decompress_bytes,
    lz_compress,
    lz_decompress,
)
from toy_corpus import make_toy_corpus


def reference_compress(data: bytes) -> np.ndarray:
    """The per-bit compressor that table-driven emission replaced."""
    n = len(data)
    bits = []
    head = {}
    prev = [-1] * n

    def emit_int(value, width):
        bits.extend((value >> (width - 1 - k)) & 1 for k in range(width))

    i = 0
    while i < n:
        best_len = 0
        best_off = 0
        if i + MIN_MATCH <= n:
            j = head.get(data[i : i + MIN_MATCH], -1)
            max_len = min(MAX_MATCH, n - i)
            while j >= 0 and i - j <= WINDOW:
                length = 0
                while length < max_len and data[j + length] == data[i + length]:
                    length += 1
                if length > best_len:
                    best_len = length
                    best_off = i - j
                    if length == MAX_MATCH:
                        break
                j = prev[j]
        if best_len >= MIN_MATCH:
            bits.append(1)
            emit_int(best_off - 1, 12)
            emit_int(best_len - MIN_MATCH, 4)
            end = i + best_len
        else:
            bits.append(0)
            emit_int(data[i], 8)
            end = i + 1
        for p in range(i, min(end, n - MIN_MATCH + 1)):
            key = data[p : p + MIN_MATCH]
            prev[p] = head.get(key, -1)
            head[key] = p
        i = end
    return np.array(bits, dtype=np.uint8)


def matches(bits) -> list:
    """(offset, length) of every match token in a stream."""
    seq = [int(b) for b in bits]
    out, pos = [], 0
    while pos < len(seq):
        if seq[pos]:
            field = int("".join(map(str, seq[pos + 1 : pos + 17])), 2)
            out.append(((field >> 4) + 1, (field & 0xF) + MIN_MATCH))
            pos += 17
        else:
            pos += 9
    return out


# chunks of at least MAX_MATCH bytes repeated past >= 256 bytes of filler:
# long offsets and 18-byte matches
repetitive = st.builds(
    lambda chunk, filler, reps, tail: (chunk + filler) * reps + tail,
    st.binary(min_size=MAX_MATCH, max_size=40),
    st.binary(min_size=256, max_size=800),
    st.integers(2, 6),
    st.binary(max_size=1000),
)


class TestCompressBytes:
    def test_empty(self):
        assert compress_bytes(b"").size == 0
        assert decompress_bytes(np.zeros(0, dtype=np.uint8)) == b""

    def test_literal_format(self):
        # single byte: flag 0 + 8 bits
        bits = compress_bytes(b"A")
        assert bits.tolist() == [0, 0, 1, 0, 0, 0, 0, 0, 1]

    def test_repetition_uses_matches(self):
        text = "abababababababab"
        bits = compress_bytes(text.encode())
        assert bits.size < fixed5_encode(text).size == 80

    def test_round_trip_random(self):
        rng = np.random.default_rng(0)
        data = bytes(rng.integers(32, 127, size=500).tolist())
        assert decompress_bytes(compress_bytes(data)) == data

    def test_round_trip_repetitive(self):
        data = b"the cat sat on the mat. " * 40
        bits = compress_bytes(data)
        assert decompress_bytes(bits) == data
        assert bits.size < 8 * len(data)

    def test_truncated_stream_corrupt(self):
        bits = compress_bytes(b"hello hello hello")
        with pytest.raises(CorruptStream):
            decompress_bytes(bits[:-3])

    def test_bad_offset_corrupt(self):
        # match token referencing before the start of output
        bits = np.zeros(17, dtype=np.uint8)
        bits[0] = 1  # flag: match, offset field 0 -> offset 1, but output empty
        with pytest.raises(CorruptStream):
            decompress_bytes(bits)

    @settings(max_examples=40)
    @given(st.binary(max_size=300))
    def test_round_trip_property(self, data):
        assert decompress_bytes(compress_bytes(data)) == data


class TestReferenceBitExact:
    """compress_bytes emits the per-bit reference's stream bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.binary(max_size=5000), repetitive))
    def test_binaries(self, data):
        assert np.array_equal(compress_bytes(data), reference_compress(data))

    def test_long_offsets_and_full_matches(self):
        rng = np.random.default_rng(4)
        filler = bytes(rng.integers(0, 256, size=700).tolist())
        data = (b"a twenty byte phrase" + filler) * 4
        bits = compress_bytes(data)
        assert np.array_equal(bits, reference_compress(data))
        found = matches(bits)
        assert max(off for off, _ in found) >= 256
        assert (len(filler) + 20, MAX_MATCH) in found

    def test_sentence_batch(self):
        data = "\n".join(make_toy_corpus(32)).encode("utf-8")
        assert np.array_equal(compress_bytes(data), reference_compress(data))


# text over two or three letters and a space: matches of every length, many
# ties between equally long matches, and matches at the window's far edge
small_alphabet_text = st.builds(
    lambda alphabet, n, seed: "".join(
        np.random.default_rng(seed).choice(list(alphabet), n)).encode(),
    st.sampled_from(["ab ", "abc "]),
    st.one_of(st.integers(0, 6000), st.integers(WINDOW + 1, 6000)),
    st.integers(0, 2**32 - 1),
)


class TestMatchFinder:
    """Each token is the longest match within WINDOW bytes, the nearest
    start on a tie, exactly as the hash-chain reference picks it."""

    PHRASE = b"a twenty byte phrase"  # no 3-byte substring occurs twice

    def phrase_at_distance(self, distance):
        """The phrase, filler that shares no byte with it, and the phrase
        again, starting `distance` bytes after the first copy."""
        rng = np.random.default_rng(7)
        filler = bytes(rng.integers(128, 256, size=distance - len(self.PHRASE)).tolist())
        return self.PHRASE + filler + self.PHRASE

    def test_match_at_window_distance(self):
        data = self.phrase_at_distance(WINDOW)
        bits = compress_bytes(data)
        assert np.array_equal(bits, reference_compress(data))
        assert [m for m in matches(bits) if m[0] == WINDOW] == [(WINDOW, MAX_MATCH)]
        # the match, then the phrase's last two bytes as literals
        tail = reference_compress(self.PHRASE[MAX_MATCH:])
        assert np.array_equal(bits[-(17 + tail.size):-tail.size],
                              [1] + [1] * 12 + [1, 1, 1, 1])
        assert np.array_equal(bits[-tail.size:], tail)

    def test_no_match_past_window(self):
        data = self.phrase_at_distance(WINDOW + 1)
        bits = compress_bytes(data)
        assert np.array_equal(bits, reference_compress(data))
        literals = reference_compress(self.PHRASE)
        assert not matches(literals)
        assert np.array_equal(bits[-literals.size:], literals)

    @settings(max_examples=40, deadline=None)
    @given(small_alphabet_text)
    def test_small_alphabet_text(self, data):
        assert np.array_equal(compress_bytes(data), reference_compress(data))


class TestBatchApi:
    def test_empty_batch_rejected(self):
        with pytest.raises(DomainError):
            lz_compress([])

    def test_round_trip_batch(self):
        texts = ["the cat sat", "a dog ran", "the cat sat again"]
        assert lz_decompress(lz_compress(texts)) == texts

    def test_non_utf8_output_is_corrupt_stream(self):
        # one literal 0xFF: a valid token stream, but not UTF-8 text
        with pytest.raises(CorruptStream, match="not UTF-8"):
            lz_decompress(np.array([0, 1, 1, 1, 1, 1, 1, 1, 1], dtype=np.uint8))

    def test_single_empty_sentence(self):
        assert lz_decompress(lz_compress([""])) == [""]

    def test_batch_amortization_beats_solo(self):
        sentence = "the parliament discussed the budget proposal"
        batch = [sentence] * 32
        assert lz_compress(batch).size / len(batch) < lz_compress([sentence]).size

    def test_shared_window_across_sentences(self):
        texts = ["the quick brown fox", "the quick brown fox"]
        two = lz_compress(texts).size
        one = lz_compress(texts[:1]).size
        assert two < 2 * one


class TestBitLimit:
    """lz_compress(texts, limit) is None exactly when the full stream is
    longer than limit; otherwise it is the full stream."""

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.text(alphabet="abc é", max_size=40), min_size=1, max_size=4),
           st.data())
    def test_limit_matches_full_parse(self, texts, data):
        full = lz_compress(texts)
        limit = data.draw(st.integers(0, full.size + 20))
        got = lz_compress(texts, limit)
        if full.size > limit:
            assert got is None
        else:
            assert np.array_equal(got, full)

    def test_exact_size_fits_and_one_bit_less_does_not(self):
        texts = ["the cat sat on the mat", "the cat sat"]
        full = lz_compress(texts)
        assert np.array_equal(lz_compress(texts, full.size), full)
        assert lz_compress(texts, full.size - 1) is None

    def test_empty_input_fits_limit_zero(self):
        assert compress_bytes(b"", 0).size == 0

    def test_negative_limit_rejected(self):
        with pytest.raises(DomainError):
            compress_bytes(b"abc", -1)
