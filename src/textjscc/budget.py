"""Bit-budget truncation: drop trailing words until the encoding fits.

Each dropped word is a guaranteed word error, so under a lossless channel the
resulting WER is exactly words_dropped / m.  One loop, _drop_until_fits,
holds that rule for one sentence and for a jointly compressed batch.  The
budget is the per-sentence source limit of the caller's plan: in a sweep
that of sweeps.plan_group, so a group never outgrows the plan of its frame.
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


def encode_with_budget(words: Sequence[str], encode_fn: Callable[[str], np.ndarray],
                       budget: int) -> BudgetedEncoding:
    """Re-encode without the last word until the bit count is within budget."""

    def encode(texts: list[str], limit: int) -> np.ndarray | None:
        bits = encode_fn(texts[0])
        return bits if bits.size <= limit else None

    bbe = _drop_until_fits([words], encode, budget)
    return BudgetedEncoding(bbe.bits, bbe.words_dropped[0], bbe.fits)


def encode_batch_with_budget(batch: Sequence[Sequence[str]],
                             budget: int) -> BatchBudgetedEncoding:
    """Truncate a jointly compressed batch until the amortized cost fits.

    The budget is per sentence; the batch fits when total bits <= budget * B.
    Each attempt parses the batch with the bit limit budget * B, so one that
    fails stops at its first token past the limit (see `lzss`); the attempts
    and the output are those of full parses.
    """
    return _drop_until_fits(batch, lz_compress, budget)


def _drop_until_fits(batch: Sequence[Sequence[str]],
                     encode: Callable[[list[str], int], np.ndarray | None],
                     budget: int) -> BatchBudgetedEncoding:
    """The one truncation rule: drop the last word of the longest member
    (ties: lowest index) until encode(texts, budget * B) returns bits rather
    than None, so all members degrade together.  When even the empty members
    do not fit, no bits are returned and fits is False."""
    if budget < 0:
        raise DomainError("budget must be nonnegative")
    kept = [list(words) for words in batch]
    while (bits := encode([" ".join(w) for w in kept], budget * len(kept))) is None and any(kept):
        max(kept, key=len).pop()  # the first of the longest members
    dropped = [len(orig) - len(now) for orig, now in zip(batch, kept)]
    fits = bits is not None
    return BatchBudgetedEncoding(bits if fits else np.zeros(0, dtype=np.uint8), kept, dropped, fits)
