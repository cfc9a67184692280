import numpy as np
import pytest

from textjscc.channel import ERASED, erase, erase_bitstream, stream
from textjscc.errors import DomainError


def erase_at(codeword, positions):
    """Deterministically zero exactly the given positions."""
    cw = np.asarray(codeword).copy().astype(np.int8)
    for p in positions:
        if not 0 <= p < cw.shape[0]:
            raise IndexError(f"erase position {p} outside [0, {cw.shape[0]})")
        cw[p] = 0
    return cw


def random_codeword(rng, n):
    return rng.choice([-1, 1], size=n).astype(np.int8)


class TestErase:
    def test_p_zero_is_identity(self):
        rng = np.random.default_rng(0)
        cw = random_codeword(rng, 64)
        out = erase(cw, 0.0, rng)
        assert np.array_equal(out, cw)

    def test_p_one_all_zero(self):
        rng = np.random.default_rng(0)
        cw = random_codeword(rng, 64)
        out = erase(cw, 1.0, rng)
        assert np.all(out == 0)

    def test_statistics_at_005(self):
        n = 10**6
        rng = np.random.default_rng(42)
        cw = np.ones(n, dtype=np.int8)
        out = erase(cw, 0.05, rng)
        frac = float((out == 0).mean())
        sigma = np.sqrt(0.05 * 0.95 / n)
        assert abs(frac - 0.05) <= 3 * sigma

    def test_survivors_bit_exact(self):
        rng = np.random.default_rng(1)
        cw = random_codeword(rng, 1000)
        out = erase(cw, 0.3, rng)
        kept = out != 0
        assert np.array_equal(out[kept], cw[kept])
        assert set(np.unique(out)) <= {-1, 0, 1}

    def test_adjacent_independence(self):
        n = 10**6
        rng = np.random.default_rng(7)
        out = erase(np.ones(n, dtype=np.int8), 0.5, rng)
        e = (out == 0).astype(np.float64)
        corr = np.corrcoef(e[:-1], e[1:])[0, 1]
        assert abs(corr) <= 3.0 / np.sqrt(n - 1)

    def test_reproducible_given_seed(self):
        cw = random_codeword(np.random.default_rng(2), 256)
        a = erase(cw, 0.2, stream(11, 5))
        b = erase(cw, 0.2, stream(11, 5))
        assert np.array_equal(a, b)
        c = erase(cw, 0.2, stream(11, 6))
        assert not np.array_equal(a, c)

    def test_length_preserved(self):
        rng = np.random.default_rng(3)
        for n in (1, 7, 100):
            cw = random_codeword(rng, n)
            assert erase(cw, 0.5, rng).shape == (n,)

    def test_invalid_probability(self):
        with pytest.raises(DomainError):
            erase(np.ones(4, dtype=np.int8), 1.5, np.random.default_rng(0))


class TestEraseAt:
    def test_empty_set_identity(self):
        cw = np.array([1, -1, 1], dtype=np.int8)
        assert np.array_equal(erase_at(cw, []), cw)

    def test_all_positions(self):
        cw = np.array([1, -1, 1], dtype=np.int8)
        assert np.all(erase_at(cw, [0, 1, 2]) == 0)

    def test_single_position(self):
        out = erase_at(np.array([1, 1], dtype=np.int8), [0])
        assert out.tolist() == [0, 1]

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            erase_at(np.array([1, 1], dtype=np.int8), [2])

    def test_input_not_mutated(self):
        cw = np.array([1, 1], dtype=np.int8)
        erase_at(cw, [0])
        assert cw.tolist() == [1, 1]


class TestEraseBitstream:
    def test_p_zero_identity(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=50).astype(np.uint8)
        out = erase_bitstream(bits, 0.0, rng)
        assert np.array_equal(out, bits)

    def test_half_rate_statistics(self):
        rng = np.random.default_rng(5)
        n = 10**5
        out = erase_bitstream(np.zeros(n, dtype=np.uint8), 0.5, rng)
        frac = float((out == ERASED).mean())
        assert abs(frac - 0.5) <= 3 * np.sqrt(0.25 / n)

    def test_empty_stream(self):
        rng = np.random.default_rng(0)
        out = erase_bitstream(np.zeros(0, dtype=np.uint8), 0.5, rng)
        assert out.size == 0

    def test_invalid_probability(self):
        with pytest.raises(DomainError):
            erase_bitstream(np.zeros(4, dtype=np.uint8), 1.5, np.random.default_rng(0))


class TestStream:
    @pytest.mark.parametrize("seed", [0, 11, 1234])
    def test_matches_each_derivation_it_replaced(self, seed):
        """Sweep transmissions, training epochs and `transmit` draw the
        streams they drew when each derived its own."""
        def sweep_cell(seed, *key):
            return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))

        def by_index(seed, index):  # a training epoch's, and `transmit`'s (index 0)
            return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))

        for key in [(0, 1, 2, 3), (2, 0, 1, 31), (1, 3, 0, 0)]:
            assert np.array_equal(stream(seed, *key).random(16),
                                  sweep_cell(seed, *key).random(16))
        for index in (0, 1, 7, 500):
            assert np.array_equal(stream(seed, index).random(16),
                                  by_index(seed, index).random(16))
