"""Bit-erasure channel: each position is independently zeroed with probability p_d.

Survivors keep magnitude 1 (no dropout-style 1/(1-p) rescaling); the receiver
sees symbols in {-1, 0, +1} with 0 marking an erasure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Erasure mark for {0,1} bit streams, where 0 is a legal payload value.
ERASED = -1


@dataclass
class ChannelConfig:
    p_d: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p_d <= 1.0:
            raise DomainError(f"erasure probability {self.p_d} outside [0, 1]")

    def stream(self, index: int) -> np.random.Generator:
        """Independent, reproducible RNG stream for transmission `index`."""
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(index,)))


def erase(codeword: np.ndarray, cfg: ChannelConfig, rng: np.random.Generator) -> np.ndarray:
    """Erase each {-1,+1} entry to 0 independently with probability p_d.

    Works elementwise on any shape, so a whole (bits, batch) matrix can be
    transmitted in one call.
    """
    cw = np.asarray(codeword)
    mask = rng.random(cw.shape) >= cfg.p_d
    return (cw * mask).astype(np.int8)


def erase_bitstream(bits: np.ndarray, cfg: ChannelConfig, rng: np.random.Generator) -> np.ndarray:
    """Same channel over a {0,1} alphabet; erased positions become ERASED (-1)."""
    b = np.asarray(bits, dtype=np.int8)
    out = b.copy()
    out[rng.random(b.shape) < cfg.p_d] = ERASED
    return out
