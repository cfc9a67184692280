"""Bit-budget truncation: drop trailing words until the encoding fits.

Each dropped word is a guaranteed word error, so under a lossless channel the
resulting WER is exactly words_dropped / m.  The batched search gives LZSS
the bit limit it must meet, and an attempt over that limit stops parsing at
its first token past it (see `lzss`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError
from .lzss import lz_compress


@dataclass
class BudgetedEncoding:
    bits: np.ndarray
    words_dropped: int
    fits: bool


@dataclass
class BatchBudgetedEncoding:
    """Joint encoding of a batch under a shared per-sentence budget."""

    bits: np.ndarray
    kept: list[list[str]]
    words_dropped: list[int]
    fits: bool


def encode_with_budget(
    words: Sequence[str],
    encode_fn: Callable[[str], np.ndarray],
    budget: int,
) -> BudgetedEncoding:
    """Re-encode without the last word until the bit count is within budget."""
    if budget < 0:
        raise DomainError("budget must be nonnegative")
    kept = list(words)
    while True:
        bits = encode_fn(" ".join(kept))
        if bits.size <= budget:
            return BudgetedEncoding(bits, len(words) - len(kept), True)
        if not kept:
            return BudgetedEncoding(np.zeros(0, dtype=np.uint8), len(words), False)
        kept.pop()


def encode_batch_with_budget(
    batch: Sequence[Sequence[str]],
    budget: int,
) -> BatchBudgetedEncoding:
    """Truncate a jointly compressed batch until the amortized cost fits.

    The budget is per sentence; the batch fits when total bits <= budget * B.
    Words are dropped one at a time from the currently longest sentence
    (ties: lowest index), so all members degrade together.  Each attempt
    parses the whole batch with the bit limit budget * B, so one that fails
    stops at its first token past the limit, and the one that fits returns
    its own stream; the attempts and the output are those of full parses.
    """
    if budget < 0:
        raise DomainError("budget must be nonnegative")
    kept = [list(words) for words in batch]
    n = len(kept)
    while True:
        bits = lz_compress([" ".join(w) for w in kept], budget * n)
        if bits is not None:
            dropped = [len(orig) - len(now) for orig, now in zip(batch, kept)]
            return BatchBudgetedEncoding(bits, kept, dropped, True)
        lengths = [len(w) for w in kept]
        longest = max(lengths)
        if longest == 0:
            dropped = [len(orig) for orig in batch]
            return BatchBudgetedEncoding(np.zeros(0, dtype=np.uint8), kept, dropped, False)
        kept[lengths.index(longest)].pop()
