"""Corpus ingestion: vocabulary, sentence filtering, length batching, char stats.

Tokenization is lowercase + whitespace split; the corpus is expected to carry
punctuation as separate tokens (Europarl style).  Corpus files are UTF-8 text,
one sentence per line.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import DomainError, EmptyCorpus, IoError
from .fileio import read_text, write_lines

PAD, UNK, SOS, EOS = "<pad>", "<unk>", "<sos>", "<eos>"
SPECIALS = (PAD, UNK, SOS, EOS)
PAD_ID, UNK_ID, SOS_ID, EOS_ID = 0, 1, 2, 3


class Vocabulary:
    """Bidirectional token <-> id map with the four specials pinned to ids 0-3."""

    def __init__(self, words: Sequence[str]):
        """Build from the non-special word list; specials are prepended."""
        self.id_to_token: list[str] = list(SPECIALS) + list(words)
        self.token_to_id: dict[str, int] = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise DomainError("duplicate tokens in vocabulary")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def id_of(self, token: str) -> int:
        """Id for token, UNK_ID for out-of-vocabulary tokens."""
        return self.token_to_id.get(token, UNK_ID)

    def token_of(self, idx: int) -> str:
        return self.id_to_token[idx]

    def save(self, path: str) -> None:
        """One token per line; the line number is the id."""
        write_lines(path, self.id_to_token)

    @classmethod
    def load(cls, path: str) -> "Vocabulary":
        tokens = read_text(path, "vocabulary file").splitlines()
        if tuple(tokens[:4]) != SPECIALS:
            raise DomainError(f"vocabulary file {path} lacks the special token header")
        for n, token in enumerate(tokens[4:], start=5):
            if token.split() != [token]:
                raise IoError(f"vocabulary file {path} line {n}: {token!r} is not a token")
        return cls(tokens[4:])


@dataclass
class TokenizedSentence:
    """Token ids (no SOS/EOS) plus the original text."""

    ids: list[int]
    raw: str

    def __len__(self) -> int:
        return len(self.ids)

    def words(self) -> list[str]:
        """Normalized surface words (lowercased whitespace split of raw)."""
        return self.raw.lower().split()


@dataclass
class CharFrequencyTable:
    """Character counts over the lowercased training stream."""

    counts: dict[str, int]
    total: int = field(init=False)

    def __post_init__(self):
        self.counts = {c: n for c, n in self.counts.items() if n > 0}
        self.total = sum(self.counts.values())

    def save(self, path: str) -> None:
        """character<TAB>count lines, descending count then character."""
        rows = sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))
        write_lines(path, (f"{ch}\t{n}" for ch, n in rows))

    @classmethod
    def load(cls, path: str) -> "CharFrequencyTable":
        counts: dict[str, int] = {}
        for line in filter(None, read_text(path, "frequency table").splitlines()):
            ch, _, n = line.rpartition("\t")
            if len(ch) != 1 or not n.isdecimal():
                raise IoError(f"frequency table {path}: malformed line {line!r}")
            counts[ch] = int(n)
        return cls(counts)


@dataclass
class BatchPlan:
    """Groups of sentence indices; within a batch all lengths are equal."""

    batches: list[list[int]]
    batch_size: int


def build_vocabulary(corpus: Iterable[str], max_size: int) -> Vocabulary:
    """Keep the (max_size - 4) most frequent tokens; ties broken lexicographically."""
    if max_size < 5:
        raise DomainError(f"max_size must be >= 5, got {max_size}")
    freq: Counter[str] = Counter()
    for line in corpus:
        freq.update(line.lower().split())
    if not freq:
        raise EmptyCorpus("no tokens in corpus")
    ranked = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))
    return Vocabulary([tok for tok, _ in ranked[: max_size - 4]])


def tokenize(text: str, vocab: Vocabulary) -> TokenizedSentence:
    """Lowercase + whitespace split; out-of-vocabulary tokens map to UNK."""
    return TokenizedSentence([vocab.id_of(t) for t in text.lower().split()], text)


def detokenize(ids: Sequence[int], vocab: Vocabulary) -> str:
    return " ".join(vocab.token_of(i) for i in ids)


def filter_sentences(
    texts: Iterable[str],
    vocab: Vocabulary,
    min_len: int = 4,
    max_len: int = 30,
    max_unk_frac: float = 0.2,
) -> list[TokenizedSentence]:
    """Tokenize and keep sentences with min_len <= m <= max_len and
    (#UNK)/m strictly below max_unk_frac."""
    if not 0.0 <= max_unk_frac <= 1.0:
        raise DomainError("max_unk_frac must lie in [0, 1]")
    kept = []
    for text in texts:
        sent = tokenize(text, vocab)
        m = len(sent)
        if not min_len <= m <= max_len:
            continue
        if sent.ids.count(UNK_ID) / m >= max_unk_frac:
            continue
        kept.append(sent)
    return kept


def batch_by_length(sentences: Sequence[TokenizedSentence], batch_size: int) -> BatchPlan:
    """Group sentences by exact token length, then chunk each group."""
    if batch_size < 1:
        raise DomainError("batch_size must be >= 1")
    groups: dict[int, list[int]] = {}
    for idx, sent in enumerate(sentences):
        groups.setdefault(len(sent), []).append(idx)
    batches = []
    for length in sorted(groups):
        members = groups[length]
        for i in range(0, len(members), batch_size):
            batches.append(members[i : i + batch_size])
    return BatchPlan(batches, batch_size)


def char_frequencies(corpus: Iterable[str]) -> CharFrequencyTable:
    """Counts over the lowercased character stream; newlines excluded."""
    counts: Counter[str] = Counter()
    for line in corpus:
        counts.update(line.lower())
    table = CharFrequencyTable(dict(counts))
    if table.total == 0:
        raise EmptyCorpus("no characters in corpus")
    return table


def read_lines(path: str) -> list[str]:
    """Read a one-sentence-per-line UTF-8 corpus file."""
    return [line for line in read_text(path, "corpus file").splitlines() if line.strip()]
