"""Word error rate: token-level Levenshtein distance normalized by reference length."""

from __future__ import annotations

from typing import Sequence

from .errors import DomainError


def levenshtein(a: Sequence, b: Sequence) -> int:
    """Minimum number of insert/delete/substitute token edits turning a into b."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ta in enumerate(a, start=1):
        cur = [i]
        for j, tb in enumerate(b, start=1):
            cost = 0 if ta == tb else 1
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost))
        prev = cur
    return prev[-1]


def wer(reference: Sequence, hypothesis: Sequence) -> float:
    """levenshtein(ref, hyp) / len(ref); an empty hypothesis scores exactly 1.0."""
    if len(reference) == 0:
        raise DomainError("WER reference must be nonempty")
    return levenshtein(reference, hypothesis) / len(reference)

