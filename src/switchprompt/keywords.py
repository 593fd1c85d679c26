"""Contrastive term-frequency keyword mining and keyword vectorization.

A word scores alpha * tf_general(word) + tf_domain(word) with alpha < 0, so
words that are frequent in the domain corpus but rare in the general corpus
rank highest. The top-n domain words become the keyword set; each keyword is
turned into a vector through the backbone's input embedding table (or a full
CLS pass, behind a flag).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .data import read_text
from .tokenizer import Tokenizer, tokenize


@dataclass
class CorpusStats:
    counts: dict[str, int]
    total_tokens: int
    source: str = "domain"  # "general" | "domain"

    def tf(self, word: str) -> float:
        """Normalized term frequency; 0 for words absent from the corpus."""
        return self.counts.get(word, 0) / self.total_tokens


@dataclass
class KeywordSet:
    """Words with scores, ordered by rank 1..n (scores non-increasing)."""

    words: list[str]
    scores: list[float]
    alpha: float
    n: int = field(init=False)

    def __post_init__(self):
        self.n = len(self.words)

    def ranked(self) -> list[tuple[str, float, int]]:
        return [(w, s, i + 1) for i, (w, s) in enumerate(zip(self.words, self.scores))]


def compute_stats(documents: Iterable[str], source: str = "domain") -> CorpusStats:
    counts: Counter[str] = Counter()
    for doc in documents:
        counts.update(tokenize(doc))
    total = sum(counts.values())
    if total == 0:
        raise ValueError(f"empty corpus: no tokens found in the {source} documents")
    return CorpusStats(dict(counts), total, source)


def score_word(word: str, general: CorpusStats, domain: CorpusStats, alpha: float) -> float:
    if alpha >= 0:
        raise ValueError(f"alpha must be negative, got {alpha}")
    return alpha * general.tf(word) + domain.tf(word)


def select_keywords(
    general: CorpusStats, domain: CorpusStats, alpha: float = -1.0, n: int = 10
) -> KeywordSet:
    """Top-n domain-corpus words by contrastive score, ties broken by word."""
    if alpha >= 0:
        raise ValueError(f"alpha must be negative, got {alpha}")
    if n < 0:
        raise ValueError(f"keyword count n must be >= 0, got {n}")
    vocab = list(domain.counts)
    if n > len(vocab):
        raise ValueError(f"requested {n} keywords but the domain corpus has only {len(vocab)} words")
    scored = sorted(
        ((score_word(w, general, domain, alpha), w) for w in vocab),
        key=lambda sw: (-sw[0], sw[1]),
    )[:n]
    return KeywordSet(words=[w for _, w in scored], scores=[s for s, _ in scored], alpha=alpha)


def vectorize_keywords(
    keywords: KeywordSet,
    tokenizer: Tokenizer,
    encoder,
    method: str = "embedding",
) -> Tensor:
    """One vector per keyword, rows in rank order, gradient-free.

    ``embedding``: mean of the backbone's input embedding rows of the
    keyword's tokens (unknown words fall back to the UNK embedding).
    ``cls``: CLS vector of a plain encoder pass over the keyword text.
    """
    if method not in ("embedding", "cls"):
        raise ValueError(f"unknown vectorization method {method!r}")
    rows = []
    with ag.no_grad():
        for word in keywords.words:
            if method == "embedding":
                vec = encoder.weights["token_emb"].data[tokenizer.token_ids(word)].mean(axis=0)
            else:
                vec = encoder.encode_plain(tokenizer.encode(word))[0].data[0]
            rows.append(vec)
    return Tensor(np.stack(rows, axis=0))


def write_keywords(path: str | Path, keywords: KeywordSet) -> None:
    """One `word<TAB>score<TAB>rank` line per keyword, sorted by rank."""
    lines = [f"{w}\t{s!r}\t{r}" for w, s, r in keywords.ranked()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_keywords(path: str | Path, alpha: float = -1.0) -> KeywordSet:
    """Read a keyword file; words that tokenize alike (`Alpha`, `alpha`) may not repeat."""
    words, scores = [], []
    first_line: dict[tuple[str, ...], int] = {}
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected word<TAB>score<TAB>rank, got {line!r}")
        tokens = tuple(tokenize(parts[0]))
        if not tokens:
            raise ValueError(f"{path}:{lineno}: empty keyword in {line!r}")
        if tokens in first_line:
            raise ValueError(f"{path}:{lineno}: keyword {parts[0]!r} repeats line {first_line[tokens]}")
        first_line[tokens] = lineno
        try:
            scores.append(float(parts[1]))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: score {parts[1]!r} is not a number") from None
        words.append(parts[0])
    return KeywordSet(words=words, scores=scores, alpha=alpha)
