"""Bit-erasure channel: each position is independently zeroed with probability p_d.

The channel is fully described by p_d.  Every system crosses it at the p_d
it was planned for: a baseline's FecPlan carries the p_d that sized its
parity and is erased at that same p_d.  Survivors keep magnitude 1 (no
dropout-style 1/(1-p) rescaling); the receiver sees symbols in {-1, 0, +1}
with 0 marking an erasure.  Sweeps, training epochs and `transmit` draw
from `stream`, keyed by the run seed and the draw's place in the run.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

# Erasure mark for {0,1} bit streams, where 0 is a legal payload value.
ERASED = -1


def stream(seed: int, *key: int) -> np.random.Generator:
    """Independent, reproducible RNG stream for `key` under `seed`."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _check(p_d: float) -> None:
    if not 0.0 <= p_d <= 1.0:
        raise DomainError(f"erasure probability {p_d} outside [0, 1]")


def erase(codeword: np.ndarray, p_d: float, rng: np.random.Generator) -> np.ndarray:
    """Erase each {-1,+1} entry to 0 independently with probability p_d.

    Works elementwise on any shape, so a whole (bits, batch) matrix can be
    transmitted in one call.
    """
    _check(p_d)
    cw = np.asarray(codeword)
    mask = rng.random(cw.shape) >= p_d
    return (cw * mask).astype(np.int8)


def erase_bitstream(bits: np.ndarray, p_d: float, rng: np.random.Generator) -> np.ndarray:
    """Same channel over a {0,1} alphabet; erased positions become ERASED (-1)."""
    _check(p_d)
    b = np.asarray(bits, dtype=np.int8)
    out = b.copy()
    out[rng.random(b.shape) < p_d] = ERASED
    return out
