"""Reference measures that only the tests compute: Euclidean distances for
checking MDS, and Shannon entropy and mean code length for checking Huffman
codes."""

import math

import numpy as np

from textjscc.corpus import CharFrequencyTable


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix of a (n, d) point set."""
    pts = np.asarray(points, dtype=np.float64)
    delta = pts[:, None, :] - pts[None, :, :]
    return np.sqrt((delta ** 2).sum(axis=2))


def entropy_bits(freqs) -> float:
    """Shannon entropy of the character distribution in bits/char."""
    counts = freqs.counts if isinstance(freqs, CharFrequencyTable) else freqs
    total = sum(counts.values())
    return -sum((n / total) * math.log2(n / total) for n in counts.values() if n > 0)


def expected_length(book, freqs) -> float:
    """Mean code length of a Huffman codebook in bits/char under the given
    frequencies."""
    total = sum(freqs.values())
    return sum(n * book.lengths[s] for s, n in freqs.items()) / total
