import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from textjscc import fec
from textjscc.errors import DecodeFailure, DomainError, ShapeError
from textjscc.fec import (
    GF_EXP,
    GF_LOG,
    FecPlan,
    RsCode,
    gf_mul,
    plan_budget,
    rs_decode_erasures,
    rs_code,
    rs_encode,
    transmit_baseline,
)


def slow_gf_mul(a: int, b: int) -> int:
    """Carry-less multiply + polynomial reduction, independent of the tables."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11D
        b >>= 1
    return r


def reference_plan_budget(total_bits: int, p_d: float):
    """The linear-search concrete planner the closed form replaced: the
    largest k whose greedy block split fits, trying k = total // 8 down."""
    q = 1.0 - (1.0 - p_d) ** 8
    cap = total_bits // 8
    for k in range(cap, 0, -1):
        blocks = reference_split_blocks(k, q)
        if blocks is not None and 8 * sum(n for n, _ in blocks) <= total_bits:
            parity = total_bits - 8 * k
            return FecPlan(total_bits, p_d, parity, "concrete", blocks)
    raise DomainError(f"budget of {total_bits} bits cannot host any RS block at p_d={p_d}")


def reference_split_blocks(k_total: int, q: float):
    blocks = []
    remaining = k_total
    while remaining > 0:
        nb, kb = reference_block(min(remaining, 255), q)
        if nb is None:
            return None
        blocks.append((nb, kb))
        remaining -= kb
    return blocks


@functools.lru_cache(maxsize=None)
def reference_block(kb: int, q: float):
    """The linear search's next block for kb data symbols: the shortest valid
    n, else the largest smaller kb that has one.  Cached, since at p_d >= 0.2
    each call scans ~255^2 candidates and a 12800-bit plan calls it ~10^5
    times; (None, None) when no block is valid."""
    for cand in range(kb + 1, 256):
        if cand - kb >= math.ceil(1.1 * q * cand - 1e-9):
            return cand, kb
    for smaller in range(kb - 1, 0, -1):
        for cand in range(smaller + 1, 256):
            if cand - smaller >= math.ceil(1.1 * q * cand - 1e-9):
                return cand, smaller
    return None, None


EXP_LIST, LOG_LIST = GF_EXP.tolist(), GF_LOG.tolist()


def list_gf_mul(a: int, b: int) -> int:
    """The scalar multiply on Python lists that the reference decoder was
    written with; a numpy scalar lookup per product is several times slower."""
    return 0 if a == 0 or b == 0 else EXP_LIST[LOG_LIST[a] + LOG_LIST[b]]


def reference_decode_erasures(received, erasures, code):
    """The list-based Gauss-Jordan erasure decoder the numpy one replaced."""
    positions = sorted(set(erasures))
    t = len(positions)
    if t > code.n - code.k:
        raise DecodeFailure(f"{t} erasures exceed capability {code.n - code.k}")
    if t == 0:
        return list(received[: code.k])

    def poly_eval(poly, x):
        y = 0
        for c in poly:
            y = list_gf_mul(y, x) ^ c
        return y

    def power(a, n):
        return EXP_LIST[(LOG_LIST[a] * n) % 255]

    cw = [0 if i in set(positions) else received[i] for i in range(code.n)]
    synd = [poly_eval(cw, EXP_LIST[i]) for i in range(t)]
    betas = [power(EXP_LIST[1], code.n - 1 - p) for p in positions]
    mat = [[power(b, i) for b in betas] + [synd[i]] for i in range(t)]
    for col in range(t):
        pivot = next(r for r in range(col, t) if mat[r][col])
        mat[col], mat[pivot] = mat[pivot], mat[col]
        inv = EXP_LIST[255 - LOG_LIST[mat[col][col]]]
        mat[col] = [list_gf_mul(v, inv) for v in mat[col]]
        for r in range(t):
            if r != col and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [v ^ list_gf_mul(factor, w) for v, w in zip(mat[r], mat[col])]
    for p, row in zip(positions, mat):
        cw[p] = row[-1]
    return cw[: code.k]


def slow_generator(n: int, k: int) -> tuple:
    """g(x) = prod_{i<n-k} (x - alpha^i), highest degree first, built with
    the carry-less multiply alone (alpha = 2)."""
    return _slow_generator_of_degree(n - k)[0]


@functools.lru_cache(maxsize=None)
def _slow_generator_of_degree(m: int) -> tuple:
    """(g, alpha^m) for the degree-m generator g, each from the one of
    degree m - 1, so every degree up to 254 costs one factor."""
    if m == 0:
        return (1,), 1
    gen, root = _slow_generator_of_degree(m - 1)
    # multiply by (x - root); subtraction is xor in GF(2^8)
    gen = tuple(a ^ slow_gf_mul(b, root) for a, b in zip(gen + (0,), (0,) + gen))
    return gen, slow_gf_mul(root, 2)


def reference_shortest_block_lengths(q: float) -> list:
    """The resumed linear scan the array form of fec._shortest_block_lengths
    replaced: n(kb) for kb = 1, 2, ... until no n <= 255 is valid."""
    lengths = []
    n = 2
    for kb in range(1, 255):
        # n(kb) > n(kb - 1), so the search resumes where the last one ended
        n = max(n, kb + 1)
        while n <= 255 and n - kb < math.ceil(1.1 * q * n - 1e-9):
            n += 1
        if n > 255:
            break
        lengths.append(n)
    return lengths


def slow_poly_remainder(dividend: list, divisor: list) -> list:
    """Polynomial long division over GF(256), highest degree first."""
    out = list(dividend)
    for i in range(len(dividend) - len(divisor) + 1):
        coef = out[i]
        if coef:
            for j in range(1, len(divisor)):
                out[i + j] ^= slow_gf_mul(divisor[j], coef)
    return out[-(len(divisor) - 1):]


# every block shape the concrete planner gives for one sentence (200, 400
# bits) and for a batch of 8 or 32 sentences (3200, 12800 bits)
PLAN_SHAPES = sorted({block for bits in (200, 400, 3200, 12800)
                      for p_d in (0.01, 0.05, 0.1, 0.2)
                      for block in plan_budget(bits, p_d, "concrete").blocks})


class TestGfTables:
    def test_exp_log_inverse(self):
        for x in range(1, 256):
            assert GF_EXP[GF_LOG[x]] == x

    def test_multiplication_matches_carryless(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            a, b = int(rng.integers(0, 256)), int(rng.integers(0, 256))
            assert gf_mul(a, b) == slow_gf_mul(a, b)

    def test_multiplication_matches_carryless_on_all_pairs(self):
        for a in range(256):
            for b in range(256):
                assert gf_mul(a, b) == slow_gf_mul(a, b), (a, b)

    def test_vector_multiply_matches_scalar_on_all_pairs(self):
        a, b = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
        expected = [[gf_mul(x, y) for y in range(256)] for x in range(256)]
        assert gf_mul(a, b).tolist() == expected
        assert gf_mul(a.astype(np.uint8), b.astype(np.uint8)).tolist() == expected

    def test_field_axioms_spot(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a, b, c = (int(v) for v in rng.integers(0, 256, size=3))
            assert gf_mul(a, gf_mul(b, c)) == gf_mul(gf_mul(a, b), c)
            assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)


class TestRsEncode:
    def test_zero_data_zero_codeword(self):
        code = RsCode(8, 4)
        assert rs_encode([0, 0, 0, 0], code) == [0] * 8

    def test_systematic(self):
        code = RsCode(8, 4)
        data = [1, 2, 3, 4]
        assert rs_encode(data, code)[:4] == data

    def test_parity_matches_long_division_oracle(self):
        code = RsCode(8, 4)
        rng = np.random.default_rng(2)
        for _ in range(50):
            data = [int(v) for v in rng.integers(0, 256, size=4)]
            cw = rs_encode(data, code)
            parity = slow_poly_remainder(data + [0, 0, 0, 0], slow_generator(8, 4))
            assert cw[4:] == parity

    def test_codeword_has_generator_roots(self):
        """Independent parity-check: c(alpha^i) = 0 for i < n-k, via the
        carry-less arithmetic."""
        code = RsCode(12, 8)
        rng = np.random.default_rng(3)
        data = [int(v) for v in rng.integers(0, 256, size=8)]
        cw = rs_encode(data, code)
        for i in range(4):
            x = GF_EXP[i]
            acc = 0
            for c in cw:
                acc = slow_gf_mul(acc, x) ^ c
            assert acc == 0

    def test_linearity(self):
        code = RsCode(10, 6)
        rng = np.random.default_rng(4)
        a = [int(v) for v in rng.integers(0, 256, size=6)]
        b = [int(v) for v in rng.integers(0, 256, size=6)]
        ab = [x ^ y for x, y in zip(a, b)]
        enc_ab = rs_encode(ab, code)
        xor = [x ^ y for x, y in zip(rs_encode(a, code), rs_encode(b, code))]
        assert enc_ab == xor

    def test_wrong_length(self):
        with pytest.raises(ShapeError):
            rs_encode([1, 2], RsCode(8, 4))

    @pytest.mark.parametrize("n,k", PLAN_SHAPES)
    def test_parity_rows_are_remainders_of_powers(self, n, k):
        """Row i of the parity matrix is x^(n-1-i) mod the generator."""
        code = rs_code(n, k)
        assert code.parity.shape == (k, n - k)
        for i in range(k):
            power = [1] + [0] * (n - 1 - i)
            assert code.parity[i].tolist() == slow_poly_remainder(power, slow_generator(n, k)), i

    @pytest.mark.parametrize("n,k", PLAN_SHAPES)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_long_division_on_plan_shapes(self, n, k, data):
        code = rs_code(n, k)
        word = data.draw(st.lists(st.integers(0, 255), min_size=k, max_size=k))
        cw = rs_encode(word, code)
        assert cw[:k] == word
        assert cw[k:] == slow_poly_remainder(word + [0] * (n - k), slow_generator(n, k))
        assert all(type(v) is int for v in cw)

    def test_generator_of_every_degree(self):
        """The one root product is g(x) for every n - k a code can have, read
        off as parity row k - 1 (x^(n-k) mod g, g's tail) of an (n, 1) code."""
        for m in range(1, 255):
            gen = list(slow_generator(m + 1, 1))
            assert fec._root_product(np.arange(m)).tolist() == gen, m
            assert RsCode(m + 1, 1).parity[0].tolist() == gen[1:], m

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            RsCode(8, 8)
        with pytest.raises(DomainError):
            RsCode(300, 4)


class TestRsDecodeErasures:
    def test_no_erasures(self):
        code = RsCode(8, 4)
        cw = rs_encode([9, 8, 7, 6], code)
        assert rs_decode_erasures(cw, [], code) == [9, 8, 7, 6]

    def test_all_maximal_patterns(self):
        """Every C(8,4)=70 pattern of 4 erasures decodes exactly."""
        code = RsCode(8, 4)
        data = [17, 42, 99, 250]
        cw = rs_encode(data, code)
        patterns = list(itertools.combinations(range(8), 4))
        assert len(patterns) == 70
        for pattern in patterns:
            received = [0 if i in pattern else cw[i] for i in range(8)]
            assert rs_decode_erasures(received, pattern, code) == data

    def test_beyond_capability(self):
        code = RsCode(8, 4)
        cw = rs_encode([1, 2, 3, 4], code)
        with pytest.raises(DecodeFailure):
            rs_decode_erasures(cw, [0, 1, 2, 3, 4], code)

    def test_position_outside_codeword_is_domain_error(self):
        code = rs_code(8, 4)
        cw = rs_encode([1, 2, 3, 4], code)
        for bad in (9, 8, -1):
            with pytest.raises(DomainError, match=f"erasure position {bad} outside"):
                rs_decode_erasures(cw, [0, bad], code)

    def test_random_large_code(self):
        code = RsCode(64, 48)
        rng = np.random.default_rng(5)
        for _ in range(100):
            data = [int(v) for v in rng.integers(0, 256, size=48)]
            cw = rs_encode(data, code)
            k = int(rng.integers(0, 17))
            pattern = rng.choice(64, size=k, replace=False).tolist()
            received = [0 if i in set(pattern) else cw[i] for i in range(64)]
            assert rs_decode_erasures(received, pattern, code) == data


class TestDecodeOracle:
    """The numpy decoder recovers what the list-based decoder did, for every
    erasure count up to capability, ignoring whatever the erased slots hold.
    Every block shape the planner gives decodes back to its data: with no
    erasure, one, a full n - k, and Hypothesis-drawn patterns, given as lists
    with repeats or as numpy arrays."""

    @pytest.mark.parametrize("n,k", [(255, 160), (64, 48), (50, 31)])
    def test_matches_reference(self, n, k):
        code = rs_code(n, k)
        rng = np.random.default_rng(n * 1000 + k)
        for t in range(n - k + 1):
            data = rng.integers(0, 256, size=k).tolist()
            cw = rs_encode(data, code)
            pattern = rng.choice(n, size=t, replace=False).tolist()
            received = list(cw)
            for p in pattern:
                received[p] = int(rng.integers(0, 256))
            got = rs_decode_erasures(received, pattern, code)
            assert got == reference_decode_erasures(received, pattern, code) == data, t

    @pytest.mark.parametrize("n,k", [(255, 160), (64, 48), (50, 31)])
    def test_one_past_capability_fails(self, n, k):
        code = rs_code(n, k)
        cw = rs_encode([7] * k, code)
        pattern = list(range(n - k + 1))
        with pytest.raises(DecodeFailure, match=f"^{n - k + 1} erasures exceed capability {n - k}$"):
            rs_decode_erasures(cw, pattern, code)

    @staticmethod
    def _decode(code, data, pattern, erasures, rng):
        received = rs_encode(data, code)
        for p in pattern:
            received[p] = int(rng.integers(0, 256))
        got = rs_decode_erasures(received, erasures, code)
        assert all(type(v) is int for v in got)
        return got

    @pytest.mark.parametrize("n,k", PLAN_SHAPES)
    def test_plan_shapes_at_fixed_counts(self, n, k):
        code = rs_code(n, k)
        rng = np.random.default_rng(n * 1000 + k)
        data = rng.integers(0, 256, size=k).tolist()
        full = [0, n - 1] + rng.choice(np.arange(1, n - 1), size=n - k - 2, replace=False).tolist()
        cases = [([], []), ([0], [0]), ([n - 1], np.array([n - 1])),
                 (full, np.array(full)), (full, full[::-1] + full[:3] + [n - 1])]
        for pattern, erasures in cases:
            assert self._decode(code, data, pattern, erasures, rng) == data, len(pattern)

    @pytest.mark.parametrize("n,k", PLAN_SHAPES)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_plan_shapes_on_drawn_patterns(self, n, k, data):
        code = rs_code(n, k)
        t = data.draw(st.integers(0, n - k), label="t")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        word = rng.integers(0, 256, size=k).tolist()
        pattern = rng.choice(n, size=t, replace=False)
        erasures = np.concatenate([pattern, rng.choice(pattern, size=min(t, 3))])
        if data.draw(st.booleans(), label="as list"):
            erasures = erasures.tolist()
        assert self._decode(code, word, pattern.tolist(), erasures, rng) == word

    @pytest.mark.parametrize("n,k", PLAN_SHAPES)
    def test_plan_shapes_one_past_capability_fail(self, n, k):
        code = rs_code(n, k)
        pattern = list(range(n - k, -1, -1))
        for erasures in (pattern, np.array(pattern), pattern + pattern[:2]):
            with pytest.raises(DecodeFailure,
                               match=f"^{n - k + 1} erasures exceed capability {n - k}$"):
                rs_decode_erasures(rs_encode([7] * k, code), erasures, code)


class TestPlannerOracle:
    """The closed-form planner returns the linear search's plans and errors."""

    BITS = list(range(8, 1200, 7)) + [3200, 4000, 6400, 12800]
    P_D = (0.0, 0.001, 0.01, 0.03, 0.05, 0.1, 0.2, 0.3)

    @staticmethod
    def _outcome(plan_fn, bits, p_d):
        try:
            plan = plan_fn(bits, p_d)
        except DomainError as exc:
            return str(exc)
        return plan.parity_bits, plan.blocks

    @pytest.mark.parametrize("p_d", P_D)
    def test_matches_linear_search(self, p_d):
        for bits in self.BITS:
            got = self._outcome(lambda b, p: plan_budget(b, p, "concrete"), bits, p_d)
            assert got == self._outcome(reference_plan_budget, bits, p_d), bits

    def test_benchmark_frame(self):
        plan = plan_budget(12800, 0.05, "concrete")
        assert plan.blocks == [(255, 160)] * 6 + [(70, 44)]
        assert plan.parity_bits == 4768


class TestBlockLengthTable:
    """The array form of the table of shortest block lengths equals the
    linear scan it replaced, up to p_d = 0.999: above p_d of about 0.26,
    1.1 * q exceeds 1 and the table is empty."""

    def test_matches_linear_scan(self):
        for p_d in np.arange(4000) / 4000:
            q = 1.0 - (1.0 - p_d) ** 8
            got = fec._shortest_block_lengths(q)
            assert got == reference_shortest_block_lengths(q), p_d
            assert all(type(v) is int for v in got)

    def test_margins_that_round_to_an_integer(self):
        """q = j / 1100 makes 1.1 * q * n a whole number in exact arithmetic,
        and the float product often lands just above it."""
        for q in np.arange(1001) / 1100:
            assert fec._shortest_block_lengths(q) == reference_shortest_block_lengths(q), q

    def test_empty_above_the_margin(self):
        for p_d in (0.27, 0.5, 0.999):
            assert fec._shortest_block_lengths(1.0 - (1.0 - p_d) ** 8) == []
        assert fec._shortest_block_lengths(0.0) == list(range(2, 256))


class TestPlanBudget:
    def test_reference_arithmetic(self):
        plan = plan_budget(400, 0.05, "idealized")
        assert plan.parity_bits == 20
        assert plan.source_bits == 380

    def test_p_zero(self):
        plan = plan_budget(128, 0.0, "idealized")
        assert plan.parity_bits == 0
        assert plan.source_bits == 128

    def test_half(self):
        plan = plan_budget(10, 0.5, "idealized")
        assert plan.parity_bits == 5
        assert plan.source_bits == 5

    def test_p_one_rejected(self):
        with pytest.raises(DomainError):
            plan_budget(100, 1.0)

    def test_concrete_blocks_within_budget(self):
        plan = plan_budget(400, 0.05, "concrete")
        assert plan.blocks
        total_symbols = sum(n for n, _ in plan.blocks)
        assert 8 * total_symbols <= 400
        q = 1 - 0.95 ** 8
        for n, k in plan.blocks:
            assert n - k >= np.ceil(1.1 * q * n) - 1e-9

    def test_concrete_multi_block(self):
        plan = plan_budget(4000, 0.05, "concrete")
        ks = sum(k for _, k in plan.blocks)
        assert ks > 255 / 2  # splits rather than giving up
        assert all(n <= 255 for n, _ in plan.blocks)


class TestTransmitBaseline:
    def test_idealized_identity(self):
        plan = plan_budget(100, 0.3, "idealized")
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=plan.source_bits).astype(np.uint8)
        out = transmit_baseline(bits, plan, rng)
        assert np.array_equal(out, bits)

    def test_concrete_lossless_channel(self):
        """Blocks sized for p_d = 0.05, sent over a channel that erases nothing."""
        plan = dataclasses.replace(plan_budget(200, 0.05, "concrete"), p_d=0.0)
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, size=plan.source_bits).astype(np.uint8)
        out = transmit_baseline(bits, plan, rng)
        assert np.array_equal(out, bits)

    def test_concrete_with_noise_round_trips_mostly(self):
        plan = plan_budget(400, 0.02, "concrete")
        rng = np.random.default_rng(2)
        ok = 0
        for _ in range(30):
            bits = rng.integers(0, 2, size=plan.source_bits).astype(np.uint8)
            try:
                out = transmit_baseline(bits, plan, rng)
                assert np.array_equal(out, bits)  # decoded means exact
                ok += 1
            except DecodeFailure:
                pass
        assert ok >= 25  # parity margin makes failures rare

    def test_over_budget_rejected(self):
        plan = plan_budget(100, 0.0, "idealized")
        with pytest.raises(DomainError):
            transmit_baseline(np.zeros(101, dtype=np.uint8), plan, np.random.default_rng(0))


class TestRsCodeMemo:
    def test_lookups_share_one_generator(self):
        a, b = rs_code(255, 150), rs_code(255, 150)
        assert a is b
        assert a.parity is b.parity
        assert np.array_equal(a.parity, RsCode(255, 150).parity)

    def test_transmissions_match_fresh_codes(self, monkeypatch):
        """Memoized codes transmit exactly what a code built per call did."""
        plan = plan_budget(3200, 0.05, "concrete")

        def outcomes():
            rng = np.random.default_rng(11)
            got = []
            for _ in range(8):
                bits = rng.integers(0, 2, size=plan.source_bits).astype(np.uint8)
                try:
                    got.append(transmit_baseline(bits, plan, rng).tolist())
                except DecodeFailure as exc:
                    got.append(str(exc))
            return got

        memoized = outcomes()
        monkeypatch.setattr(fec, "rs_code", RsCode)
        assert memoized == outcomes()


class TestDeterministicErasureFixture:
    def test_symbol_erasure_recovery(self):
        """Force exactly 4 known symbol erasures through the bit channel path."""
        code = RsCode(12, 8)
        rng = np.random.default_rng(7)
        data = [int(v) for v in rng.integers(0, 256, size=8)]
        cw = rs_encode(data, code)
        for pattern in itertools.combinations(range(12), 4):
            received = [0 if i in pattern else cw[i] for i in range(12)]
            assert rs_decode_erasures(received, list(pattern), code) == data
