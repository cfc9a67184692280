import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from textjscc.errors import CorruptStream, DomainError
from textjscc.fixed5 import fixed5_encode
from textjscc.lzss import (
    compress_bytes,
    decompress_bytes,
    lz_compress,
    lz_decompress,
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


class TestBatchApi:
    def test_empty_batch_rejected(self):
        with pytest.raises(DomainError):
            lz_compress([])

    def test_round_trip_batch(self):
        texts = ["the cat sat", "a dog ran", "the cat sat again"]
        assert lz_decompress(lz_compress(texts)) == texts

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
