"""Reed-Solomon erasure coding over GF(256), plus idealized parity accounting.

Idealized mode reserves ceil(l * p_d) parity bits out of the budget and then
assumes the channel code compensates perfectly, which favors the separate
source/channel baselines.  Concrete mode actually codes byte symbols and can
fail when erasures exceed n - k.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .channel import ERASED, ChannelConfig, erase_bitstream
from .errors import DecodeFailure, DomainError, ShapeError

PRIMITIVE_POLY = 0x11D
FIELD = 256

# exp table doubled so products of two logs index without a mod 255.
GF_EXP = [0] * 512
GF_LOG = [0] * 256
_x = 1
for _i in range(255):
    GF_EXP[_i] = _x
    GF_LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= PRIMITIVE_POLY
for _i in range(255, 512):
    GF_EXP[_i] = GF_EXP[_i - 255]


def gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return GF_EXP[GF_LOG[a] + GF_LOG[b]]


def gf_inv(a: int) -> int:
    if a == 0:
        raise DomainError("0 has no inverse in GF(256)")
    return GF_EXP[255 - GF_LOG[a]]


def gf_pow(a: int, n: int) -> int:
    if a == 0:
        return 0 if n else 1
    return GF_EXP[(GF_LOG[a] * n) % 255]


def gf_poly_eval(poly: Sequence[int], x: int) -> int:
    """Horner evaluation; poly[0] is the highest-degree coefficient."""
    y = 0
    for c in poly:
        y = gf_mul(y, x) ^ c
    return y


class RsCode:
    """Systematic (n, k) Reed-Solomon code; corrects any <= n-k erasures."""

    def __init__(self, n: int, k: int):
        if not 1 <= k < n <= 255:
            raise DomainError(f"invalid RS parameters n={n}, k={k}")
        self.n = n
        self.k = k
        gen = [1]
        for i in range(n - k):
            # multiply gen by (x - alpha^i); subtraction is xor in GF(2^8)
            root = GF_EXP[i]
            nxt = [0] * (len(gen) + 1)
            for j, c in enumerate(gen):
                nxt[j] ^= c
                nxt[j + 1] ^= gf_mul(c, root)
            gen = nxt
        self.generator = gen


@functools.lru_cache(maxsize=256)
def rs_code(n: int, k: int) -> RsCode:
    """The (n, k) code, built once: its generator takes milliseconds in pure
    Python, and a concrete frame reuses a few (n, k) shapes for every block."""
    return RsCode(n, k)


def rs_encode(data: Sequence[int], code: RsCode) -> list[int]:
    """data followed by the remainder of data(x) * x^(n-k) mod generator."""
    if len(data) != code.k:
        raise ShapeError(f"expected {code.k} data symbols, got {len(data)}")
    npar = code.n - code.k
    rem = list(data) + [0] * npar
    for i in range(code.k):
        coef = rem[i]
        if coef:
            for j in range(1, len(code.generator)):
                rem[i + j] ^= gf_mul(code.generator[j], coef)
    return list(data) + rem[code.k:]


def rs_decode_erasures(received: Sequence[int], erasures: Sequence[int], code: RsCode) -> list[int]:
    """Recover the k data symbols given the erasure positions.

    Solves the syndrome system for the erased values by Gaussian elimination
    over GF(256); raises DecodeFailure when #erasures > n - k.
    """
    if len(received) != code.n:
        raise ShapeError(f"expected {code.n} received symbols, got {len(received)}")
    positions = sorted(set(erasures))
    for p in positions:
        if not 0 <= p < code.n:
            raise IndexError(f"erasure position {p} outside codeword")
    t = len(positions)
    if t > code.n - code.k:
        raise DecodeFailure(f"{t} erasures exceed capability {code.n - code.k}")
    if t == 0:
        return list(received[: code.k])

    cw = [0 if i in set(positions) else received[i] for i in range(code.n)]
    # Syndromes of the zero-filled word: S_i = sum over erased positions of
    # c_p * beta_p^i with beta_p = alpha^(n-1-p).
    synd = [gf_poly_eval(cw, GF_EXP[i]) for i in range(t)]
    betas = [gf_pow(GF_EXP[1], code.n - 1 - p) for p in positions]
    mat = [[gf_pow(b, i) for b in betas] + [synd[i]] for i in range(t)]

    # Gaussian elimination with pivoting (matrix is Vandermonde, so full rank).
    for col in range(t):
        pivot = next((r for r in range(col, t) if mat[r][col]), None)
        if pivot is None:
            raise DecodeFailure("singular erasure system")
        mat[col], mat[pivot] = mat[pivot], mat[col]
        inv = gf_inv(mat[col][col])
        mat[col] = [gf_mul(v, inv) for v in mat[col]]
        for r in range(t):
            if r != col and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [v ^ gf_mul(factor, w) for v, w in zip(mat[r], mat[col])]
    for p, row in zip(positions, mat):
        cw[p] = row[-1]
    return cw[: code.k]


@dataclass
class FecPlan:
    """Split of the total bit budget into source bits and parity."""

    total_bits: int
    p_d: float
    parity_bits: int
    mode: str
    blocks: list[tuple[int, int]] = field(default_factory=list)

    @property
    def source_bits(self) -> int:
        return self.total_bits - self.parity_bits


def plan_budget(total_bits: int, p_d: float, mode: str = "idealized") -> FecPlan:
    """Reserve parity for the expected number of erasures.

    idealized: parity = ceil(total * p_d) bits and downstream transmission is
    assumed perfectly corrected.  concrete: byte-symbol RS blocks sized with a
    10% margin over the expected symbol erasures.
    """
    if not 0.0 <= p_d < 1.0:
        raise DomainError(f"erasure probability {p_d} outside [0, 1)")
    if mode not in ("idealized", "concrete"):
        raise DomainError(f"unknown FEC mode {mode!r}")
    if mode == "idealized":
        # epsilon guards float products like 400 * 0.05 = 20.000000000000004
        parity = math.ceil(total_bits * p_d - 1e-9)
        return FecPlan(total_bits, p_d, parity, mode)

    # A byte symbol is erased iff any of its 8 bits is erased.
    q = 1.0 - (1.0 - p_d) ** 8
    cap = total_bits // 8
    for k in range(cap, 0, -1):
        blocks = _split_blocks(k, q)
        if blocks is not None and 8 * sum(n for n, _ in blocks) <= total_bits:
            parity = total_bits - 8 * k
            return FecPlan(total_bits, p_d, parity, mode, blocks)
    raise DomainError(f"budget of {total_bits} bits cannot host any RS block at p_d={p_d}")


def _split_blocks(k_total: int, q: float) -> list[tuple[int, int]] | None:
    """Partition k data symbols into (n, k) blocks with n <= 255 and
    n - k >= ceil(1.1 * q * n)."""
    blocks = []
    remaining = k_total
    while remaining > 0:
        kb = min(remaining, 255)
        nb = None
        for cand in range(kb + 1, 256):
            if cand - kb >= math.ceil(1.1 * q * cand - 1e-9):
                nb = cand
                break
        if nb is None:
            kb_fit = None
            for smaller in range(kb - 1, 0, -1):
                for cand in range(smaller + 1, 256):
                    if cand - smaller >= math.ceil(1.1 * q * cand - 1e-9):
                        kb_fit = (cand, smaller)
                        break
                if kb_fit:
                    break
            if kb_fit is None:
                return None
            nb, kb = kb_fit
        blocks.append((nb, kb))
        remaining -= kb
    return blocks


def transmit_baseline(
    sentence_bits: np.ndarray,
    plan: FecPlan,
    cfg: ChannelConfig | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Carry source bits across the channel under the plan's FEC mode.

    Idealized mode returns the input unchanged (perfect compensation).
    Concrete mode RS-encodes byte symbols, erases bits, marks a symbol erased
    iff any of its bits was erased, then erasure-decodes; DecodeFailure
    propagates to the caller, which scores the sentence as fully errored.
    """
    sentence_bits = np.asarray(sentence_bits, dtype=np.uint8)
    if sentence_bits.size > plan.source_bits:
        raise DomainError(
            f"{sentence_bits.size} source bits exceed plan budget {plan.source_bits}"
        )
    if plan.mode == "idealized":
        return sentence_bits.copy()

    if cfg is None:
        cfg = ChannelConfig(p_d=plan.p_d, seed=0)
    if rng is None:
        rng = np.random.default_rng(cfg.seed)

    k_total = sum(k for _, k in plan.blocks)
    padded = np.zeros(8 * k_total, dtype=np.uint8)
    padded[: sentence_bits.size] = sentence_bits
    data_symbols = np.packbits(padded).tolist()

    recovered: list[int] = []
    offset = 0
    for n, k in plan.blocks:
        block = data_symbols[offset : offset + k]
        offset += k
        code = rs_code(n, k)
        codeword = rs_encode(block, code)
        tx_bits = np.unpackbits(np.array(codeword, dtype=np.uint8))
        rx = erase_bitstream(tx_bits, cfg, rng).reshape(n, 8)
        erased = (rx == ERASED).any(axis=1)
        # the decoder ignores the values it is told are erased
        symbols = np.packbits(rx.astype(np.uint8), axis=1)[:, 0]
        recovered.extend(rs_decode_erasures(symbols.tolist(), np.flatnonzero(erased).tolist(),
                                            code))
    out_bits = np.unpackbits(np.array(recovered, dtype=np.uint8))
    return out_bits[: sentence_bits.size]
