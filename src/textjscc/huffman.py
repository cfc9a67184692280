"""Character codes: one table-driven encoder and decoder (`CharCode`) for
canonical Huffman and the fixed 5-bit code.  Each input character becomes
exactly one symbol: itself if the code has it, else its lowercase, else the
catch-all '#'.  The Huffman codebook is built from training-corpus character
frequencies and is shared transmitter/receiver state; its bits are not
charged to any sentence.
"""

from __future__ import annotations

import heapq
import math
from typing import Mapping

import numpy as np

from .corpus import CharFrequencyTable
from .errors import CorruptStream, DegenerateAlphabet, DomainError

CATCH_ALL = "#"


class CharCode:
    """Prefix code given as symbol -> (code, length), emitted MSB first."""

    def __init__(self, codes: Mapping[str, tuple[int, int]]):
        # codewords as one 0/1 byte per bit, and keyed for decoding by the
        # (length, code) pair packed as 1 << length | code
        self._bits = {sym: bytes((code >> (length - 1 - k)) & 1 for k in range(length))
                      for sym, (code, length) in codes.items()}
        self._decode = {1 << length | code: sym for sym, (code, length) in codes.items()}
        self._overrun = 2 << max(length for _, length in codes.values())

    def _fallback(self, ch: str) -> bytes:
        bits = self._bits.get(ch.lower(), self._bits.get(CATCH_ALL))
        if bits is None:
            raise DomainError("character outside codebook and no catch-all present")
        return bits

    def encode(self, text: str) -> np.ndarray:
        """One symbol per character, as a 0/1 uint8 array."""
        table = self._bits
        joined = b"".join([table[ch] if ch in table else self._fallback(ch) for ch in text])
        return np.frombuffer(joined, dtype=np.uint8)

    def decode(self, bits: np.ndarray) -> str:
        """One symbol per codeword; CorruptStream on any bits left over."""
        out = []
        node = 1
        for bit in np.asarray(bits, dtype=np.uint8).tolist():
            node = node << 1 | bit
            sym = self._decode.get(node)
            if sym is not None:
                out.append(sym)
                node = 1
            elif node >= self._overrun:
                raise CorruptStream("bit pattern matches no codeword")
        if node != 1:
            raise CorruptStream(f"{node.bit_length() - 1} dangling bits at end of stream")
        return "".join(out)


class HuffmanCodebook(CharCode):
    """Canonical prefix code: symbols carry code lengths, codes are implied."""

    def __init__(self, lengths: Mapping[str, int]):
        self.lengths = dict(lengths)
        codes = {}
        code = 0
        prev_len = 0
        for sym in sorted(self.lengths, key=lambda s: (self.lengths[s], s)):
            length = self.lengths[sym]
            code <<= length - prev_len
            codes[sym] = (code, length)
            code += 1
            prev_len = length
        super().__init__(codes)

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
    return book.encode(text)


def huffman_decode(bits: np.ndarray, book: HuffmanCodebook) -> str:
    return book.decode(bits)


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
