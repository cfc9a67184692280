"""Character Huffman coding with canonical code assignment.

The codebook is built from training-corpus character frequencies and is
shared transmitter/receiver state; its bits are not charged to any sentence.
Characters missing from the codebook are mapped to the catch-all '#' before
encoding.
"""

from __future__ import annotations

import heapq
import math
from typing import Mapping

import numpy as np

from .corpus import CharFrequencyTable
from .errors import CorruptStream, DegenerateAlphabet, DomainError

CATCH_ALL = "#"


class HuffmanCodebook:
    """Canonical prefix code: symbols carry code lengths, codes are implied."""

    def __init__(self, lengths: Mapping[str, int]):
        self.lengths = dict(lengths)
        self.codes: dict[str, tuple[int, int]] = {}
        self._decode: dict[tuple[int, int], str] = {}
        code = 0
        prev_len = 0
        for sym in sorted(self.lengths, key=lambda s: (self.lengths[s], s)):
            length = self.lengths[sym]
            code <<= length - prev_len
            self.codes[sym] = (code, length)
            self._decode[(length, code)] = sym
            code += 1
            prev_len = length
        self.max_length = max(self.lengths.values())

    def kraft_sum(self) -> float:
        return sum(2.0 ** -n for n in self.lengths.values())

    def expected_length(self, freqs: Mapping[str, int]) -> float:
        """Mean code length in bits/char under the given frequencies."""
        total = sum(freqs.values())
        return sum(n * self.lengths[s] for s, n in freqs.items()) / total


def build_huffman(freqs: CharFrequencyTable | Mapping[str, int]) -> HuffmanCodebook:
    """Optimal prefix code lengths via Huffman's algorithm, canonicalized.

    Queue ties break on (count, creation order); leaves are created in sorted
    symbol order, so the result is deterministic across runs.
    """
    counts = freqs.counts if isinstance(freqs, CharFrequencyTable) else dict(freqs)
    counts = {s: n for s, n in counts.items() if n > 0}
    if len(counts) < 2:
        raise DegenerateAlphabet(f"need >= 2 symbols, got {len(counts)}")

    # Heap entries: (count, creation_index, {symbol: depth}).
    heap = []
    for i, sym in enumerate(sorted(counts)):
        heap.append((counts[sym], i, {sym: 0}))
    heapq.heapify(heap)
    next_idx = len(heap)
    while len(heap) > 1:
        c1, _, t1 = heapq.heappop(heap)
        c2, _, t2 = heapq.heappop(heap)
        merged = {s: d + 1 for s, d in t1.items()}
        merged.update({s: d + 1 for s, d in t2.items()})
        heapq.heappush(heap, (c1 + c2, next_idx, merged))
        next_idx += 1
    return HuffmanCodebook(heap[0][2])


def huffman_encode(text: str, book: HuffmanCodebook) -> np.ndarray:
    """Encode lowercased text; unknown characters map to the catch-all first."""
    bits: list[int] = []
    for ch in text.lower():
        if ch not in book.codes:
            ch = CATCH_ALL
            if ch not in book.codes:
                raise DomainError("character outside codebook and no catch-all present")
        code, length = book.codes[ch]
        bits.extend((code >> (length - 1 - k)) & 1 for k in range(length))
    return np.array(bits, dtype=np.uint8)


def huffman_decode(bits: np.ndarray, book: HuffmanCodebook) -> str:
    out = []
    code = 0
    length = 0
    for bit in np.asarray(bits, dtype=np.uint8).tolist():
        code = (code << 1) | bit
        length += 1
        sym = book._decode.get((length, code))
        if sym is not None:
            out.append(sym)
            code = 0
            length = 0
        elif length > book.max_length:
            raise CorruptStream("bit pattern matches no codeword")
    if length != 0:
        raise CorruptStream(f"{length} dangling bits at end of stream")
    return "".join(out)


def entropy_bits(freqs: CharFrequencyTable | Mapping[str, int]) -> float:
    """Shannon entropy of the character distribution in bits/char."""
    counts = freqs.counts if isinstance(freqs, CharFrequencyTable) else freqs
    total = sum(counts.values())
    return -sum((n / total) * math.log2(n / total) for n in counts.values() if n > 0)


def codebook_for_pipeline(freqs: CharFrequencyTable) -> HuffmanCodebook:
    """Training-corpus codebook with the catch-all guaranteed encodable."""
    counts = dict(freqs.counts)
    counts.setdefault(CATCH_ALL, 1)
    return build_huffman(counts)
