import pytest
from hypothesis import example, given, strategies as st

from textjscc.errors import FramingError
from textjscc.fixed5 import ALPHABET, fixed5_decode, fixed5_encode


class TestAlphabet:
    def test_exactly_32_symbols(self):
        assert len(ALPHABET) == 32
        assert len(set(ALPHABET)) == 32

    def test_pinned_codes(self):
        assert ALPHABET[0] == "a"
        assert ALPHABET[25] == "z"
        assert ALPHABET[26] == " "
        assert ALPHABET[27] == "."
        assert ALPHABET[28] == ","
        assert ALPHABET[29] == "'"
        assert ALPHABET[30] == "?"
        assert ALPHABET[31] == "#"


class TestEncodeDecode:
    def test_two_chars_ten_bits(self):
        assert fixed5_encode("ab").size == 10

    def test_catch_all(self):
        bits = fixed5_encode("A9")
        assert bits.size == 10
        assert fixed5_decode(bits) == "a#"

    def test_framing_error(self):
        import numpy as np
        with pytest.raises(FramingError):
            fixed5_decode(np.zeros(7, dtype=np.uint8))

    def test_round_trip_on_alphabet(self):
        text = "hello world. it's fine, no?"
        assert fixed5_decode(fixed5_encode(text)) == text

    def test_corrupted_symbol_keeps_framing(self):
        bits = fixed5_encode("abc")
        bad = bits.copy()
        bad[0] ^= 1  # damage the first symbol only
        decoded = fixed5_decode(bad)
        assert len(decoded) == 3
        assert decoded[1:] == "bc"

    @given(st.text(alphabet=ALPHABET, max_size=40))
    def test_round_trip_property(self, text):
        assert fixed5_decode(fixed5_encode(text)) == text

    @given(st.text(max_size=40))
    @example("İ")  # lowercases to two characters, still one symbol
    def test_always_five_bits_per_char(self, text):
        assert fixed5_encode(text).size == 5 * len(text)

    def test_mixed_case_round_trip(self):
        assert fixed5_decode(fixed5_encode("MiXeD 42!")) == "mixed ###"
        assert fixed5_decode(fixed5_encode("mixed ###")) == "mixed ###"
