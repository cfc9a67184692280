"""Seeded synthetic corpus for the benchmark.

Words are spelled in lowercase letters only, which the fixed-5 alphabet,
the Huffman codebook and LZSS all carry exactly, so every baseline
round-trips.  Word frequencies follow a Zipf law over `vocab_size - 4` types
(the four specials take the rest of the vocabulary), and frequent words are
short, as in natural text.  The program under test sees only the generated
text lines.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))
ZIPF_EXPONENT = 1.0


@dataclass
class SyntheticCorpus:
    """Word types in rank order and a sampler of sentences over them."""

    types: list[str]
    rng: np.random.Generator

    @classmethod
    def generate(cls, n_types: int, seed: int) -> "SyntheticCorpus":
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0x5EED,)))
        seen: set[str] = set()
        types: list[str] = []
        for rank in range(n_types):
            length = 2 + int(math.log2(rank + 2)) // 2 + int(rng.integers(0, 3))
            while True:
                word = "".join(rng.choice(LETTERS, length))
                if word not in seen:
                    break
                length += 1  # short spellings run out for high ranks
            seen.add(word)
            types.append(word)
        return cls(types, rng)

    def _weights(self) -> np.ndarray:
        w = 1.0 / np.arange(1, len(self.types) + 1) ** ZIPF_EXPONENT
        return w / w.sum()

    def sentences(self, lengths) -> list[str]:
        """One sentence per requested length, words drawn Zipf-distributed."""
        lengths = [int(n) for n in lengths]
        draws = self.rng.choice(len(self.types), size=sum(lengths), p=self._weights())
        out, pos = [], 0
        for n in lengths:
            out.append(" ".join(self.types[i] for i in draws[pos:pos + n]))
            pos += n
        return out

    def vocabulary_text(self) -> str:
        """One line naming every type once, so the vocabulary built from the
        training text holds all of them even where sampling missed a rare one."""
        return " ".join(self.types)


def stratified_lengths(n: int, lo: int, hi: int, block: int,
                       rng: np.random.Generator) -> list[int]:
    """n lengths spanning lo..hi in which every run of `block` consecutive
    sentences holds the same multiset, shuffled: batches of that size then
    cost alike, and a sample's time says more about the code than the draw."""
    pattern = np.rint(np.linspace(lo, hi, block)).astype(int)
    out: list[int] = []
    while len(out) < n:
        out.extend(int(x) for x in rng.permutation(pattern))
    return out[:n]


def length_histogram(texts) -> dict[int, int]:
    return dict(sorted(Counter(len(t.split()) for t in texts).items()))
