"""LZSS universal compressor, the gzip stand-in for the batched baseline.

Token bit format (fully pinned so streams are golden-testable):
  literal: flag 0, then the 8-bit byte;
  match:   flag 1, then 12-bit (offset - 1), then 4-bit (length - 3).
Window 4096, match lengths 3..18.  Greedy parse: each token is the longest
match that starts within the 4096 bytes before it (the nearest start on a
tie), else a literal.  Each match is found by searching the window itself, so
the parse keeps no state between tokens.  Sentences in a batch are joined
with newlines before parsing, which is what amortizes the cost across the
batch.

Early exit: given a bit `limit`, the parse stops at the first token whose
emission takes the stream past `limit` bits and returns None.  Tokens are
only ever appended, so the stream's size is then already over the limit; a
stream that ends within the limit is returned whole, bit for bit the one an
unlimited parse gives.
"""

from __future__ import annotations

import sys

import numpy as np

from .errors import CorruptStream, DomainError

WINDOW = 4096
MIN_MATCH = 3
MAX_MATCH = 18

_FLAG_BITS = 1
_LITERAL_BITS = 8
_OFFSET_BITS = 12
_LENGTH_BITS = 4

# Bits of every byte and nibble, most significant first, one 0/1 byte per
# bit; a 12-bit offset is emitted as its high nibble then its low byte.
_BYTE_BITS = [bytes((v >> (7 - k)) & 1 for k in range(8)) for v in range(256)]
_NIBBLE_BITS = [bytes((v >> (3 - k)) & 1 for k in range(4)) for v in range(16)]


def compress_bytes(data: bytes, limit: int | None = None) -> np.ndarray | None:
    """Greedy LZSS parse of a byte string into the token bit stream, or None
    as soon as the stream exceeds `limit` bits."""
    if limit is not None and limit < 0:
        raise DomainError("bit limit must be nonnegative")
    n = len(data)
    cap = sys.maxsize if limit is None else limit
    bits = bytearray()
    i = 0
    while i < n:
        start = max(0, i - WINDOW)
        max_len = min(MAX_MATCH, n - i)
        j = -1
        length = MIN_MATCH - 1
        while length < max_len:
            # a match starts before i and may run on past it
            found = data.rfind(data[i : i + length + 1], start, i + length)
            if found < 0:
                break
            j, length = found, length + 1
            while length < max_len and data[j + length] == data[i + length]:
                length += 1
        if j >= 0:
            off = i - j - 1
            bits.append(1)
            bits += _NIBBLE_BITS[off >> 8]
            bits += _BYTE_BITS[off & 0xFF]
            bits += _NIBBLE_BITS[length - MIN_MATCH]
            i += length
        else:
            bits.append(0)
            bits += _BYTE_BITS[data[i]]
            i += 1
        if len(bits) > cap:
            return None
    return np.frombuffer(bits, dtype=np.uint8)


def decompress_bytes(bits: np.ndarray) -> bytes:
    """Exact inverse of compress_bytes; the bit vector must end on a token boundary."""
    seq = np.asarray(bits, dtype=np.uint8).tolist()
    n = len(seq)
    out = bytearray()
    pos = 0

    def take(width: int) -> int:
        nonlocal pos
        if pos + width > n:
            raise CorruptStream("token truncated at end of stream")
        value = 0
        for k in range(width):
            value = (value << 1) | seq[pos + k]
        pos += width
        return value

    while pos < n:
        if take(_FLAG_BITS):
            offset = take(_OFFSET_BITS) + 1
            length = take(_LENGTH_BITS) + MIN_MATCH
            if offset > len(out):
                raise CorruptStream("match references before start of output")
            for _ in range(length):
                out.append(out[-offset])
        else:
            out.append(take(_LITERAL_BITS))
    return bytes(out)


def lz_compress(texts: list[str], limit: int | None = None) -> np.ndarray | None:
    """Jointly compress a batch of sentences (newline-joined); None once the
    stream exceeds `limit` bits."""
    if len(texts) < 1:
        raise DomainError("batch must hold at least one sentence")
    return compress_bytes("\n".join(texts).encode("utf-8"), limit)


def lz_decompress(bits: np.ndarray) -> list[str]:
    try:
        text = decompress_bytes(bits).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptStream(f"decoded bytes are not UTF-8: {exc.reason}") from exc
    return text.split("\n")

