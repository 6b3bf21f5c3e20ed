"""Text data: corpora, vocabulary, and the BDGS text generator.

Text is the data source "on which the maximum amount of analytics and
queries are performed in search engines" (Section 4.1).  The suite's
text workloads (Sort, Grep, WordCount, Index, Naive Bayes) consume
:class:`TextCorpus` objects: token-id arrays with document boundaries,
plus a deterministic synthetic vocabulary that maps ids to word strings
on demand (so multi-megabyte corpora never materialize strings unless a
workload needs them).

The BDGS text generator follows the paper's recipe: *estimate* a model
(Zipf word distribution + log-normal document lengths) from a seed
corpus, then *generate* synthetic corpora of any requested volume from
the fitted model, preserving the seed's characteristics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.datagen.models import ZipfModel, fit_zipf
from repro.keyed import GUIDE_CHUNK

#: Consonant-vowel syllables used to synthesize word strings.
_SYLLABLES = [c + v for c in "bcdfghjklmnprstvz" for v in "aeiou"]
_BASE = len(_SYLLABLES)


class Vocabulary:
    """Deterministic id -> word mapping; id 0 is the most frequent word."""

    def __init__(self, size: int):
        if size <= 0:
            raise ValueError("vocabulary must be non-empty")
        self.size = size

    def word(self, word_id: int) -> str:
        """The word string for an id; stable across runs."""
        if not 0 <= word_id < self.size:
            raise IndexError(f"word id {word_id} outside vocabulary of {self.size}")
        n = word_id + 1
        syllables = []
        while n > 0:
            n, digit = divmod(n, _BASE)
            syllables.append(_SYLLABLES[digit])
        return "".join(syllables)

    def word_lengths(self) -> np.ndarray:
        """Byte length of every word, vectorized (each syllable is 2 bytes)."""
        ids = np.arange(1, self.size + 1, dtype=np.float64)
        digits = np.floor(np.log(ids) / np.log(_BASE)).astype(np.int64) + 1
        return 2 * digits

    def words(self, ids: np.ndarray) -> list:
        """Word strings for an id array, vectorized.

        Builds all words digit-plane by digit-plane (at most
        ``log_BASE(size)`` planes) instead of one Python divmod loop per
        id; output is identical to calling :meth:`word` per id.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            return []
        if ids.min() < 0 or ids.max() >= self.size:
            raise IndexError(
                f"word id outside vocabulary of {self.size}")
        syllables = np.asarray(_SYLLABLES)
        n = ids.ravel() + 1
        max_digits = 1
        top = int(n.max())
        while top >= _BASE:
            top //= _BASE
            max_digits += 1
        out = np.zeros(n.shape, dtype=f"<U{2 * max_digits}")
        active = n > 0
        while active.any():
            quotient, digit = np.divmod(n[active], _BASE)
            # Words that already emitted all their digits append "".
            plane = np.zeros(n.shape, dtype="<U2")
            plane[active] = syllables[digit]
            out = np.char.add(out, plane)
            n[active] = quotient
            active = n > 0
        return out.tolist()


@dataclass
class TextCorpus:
    """A tokenized corpus: flat token ids plus document offsets."""

    tokens: np.ndarray          # int64 word ids, all documents concatenated
    doc_offsets: np.ndarray     # int64, len num_docs+1, offsets into tokens
    vocab_size: int

    def __post_init__(self) -> None:
        if self.doc_offsets[0] != 0 or self.doc_offsets[-1] != len(self.tokens):
            raise ValueError("doc_offsets must span the token array")

    @property
    def num_docs(self) -> int:
        return len(self.doc_offsets) - 1

    @property
    def num_tokens(self) -> int:
        return len(self.tokens)

    @property
    def vocabulary(self) -> Vocabulary:
        return Vocabulary(self.vocab_size)

    def doc(self, index: int) -> np.ndarray:
        return self.tokens[self.doc_offsets[index]:self.doc_offsets[index + 1]]

    def doc_lengths(self) -> np.ndarray:
        return np.diff(self.doc_offsets)

    def word_frequencies(self) -> np.ndarray:
        return np.bincount(self.tokens, minlength=self.vocab_size)

    @cached_property
    def nbytes(self) -> int:
        """Serialized size: each token's word plus one separator byte.
        A pass over every token, so taken once per corpus, and one chunk
        of word lengths at a time (integer sums do not depend on order)."""
        lengths = self.vocabulary.word_lengths()
        total = self.num_tokens
        for start in range(0, self.num_tokens, GUIDE_CHUNK):
            total += int(lengths[self.tokens[start:start + GUIDE_CHUNK]].sum())
        return total

    def to_arrays(self) -> "tuple[dict, dict]":
        """Array codec: JSON-scalar metadata plus named arrays (see
        :mod:`repro.core.store`)."""
        return ({"vocab_size": int(self.vocab_size)},
                {"tokens": self.tokens, "doc_offsets": self.doc_offsets})

    @classmethod
    def from_arrays(cls, meta: dict, arrays: dict) -> "TextCorpus":
        """Rebuild from codec output; arrays may be read-only memmaps."""
        return cls(tokens=arrays["tokens"], doc_offsets=arrays["doc_offsets"],
                   vocab_size=int(meta["vocab_size"]))

    @staticmethod
    def from_docs(docs: list, vocab_size: int) -> "TextCorpus":
        lengths = [len(d) for d in docs]
        offsets = np.zeros(len(docs) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        tokens = (
            np.concatenate([np.asarray(d, dtype=np.int64) for d in docs])
            if docs else np.empty(0, dtype=np.int64)
        )
        return TextCorpus(tokens=tokens, doc_offsets=offsets, vocab_size=vocab_size)


@dataclass(frozen=True)
class TextModel:
    """The fitted BDGS text model: word distribution + document lengths."""

    zipf: ZipfModel
    log_len_mean: float
    log_len_sigma: float

    @classmethod
    def estimate(cls, corpus: TextCorpus) -> "TextModel":
        """Fit the model to a seed corpus (the BDGS 'estimate' step)."""
        if corpus.num_docs == 0:
            raise ValueError("cannot estimate a model from an empty corpus")
        zipf = fit_zipf(corpus.word_frequencies())
        lengths = corpus.doc_lengths().astype(np.float64)
        lengths = np.maximum(lengths, 1.0)
        log_lengths = np.log(lengths)
        sigma = float(log_lengths.std()) if corpus.num_docs > 1 else 0.0
        return cls(
            zipf=ZipfModel(alpha=zipf.alpha, vocab_size=corpus.vocab_size),
            log_len_mean=float(log_lengths.mean()),
            log_len_sigma=sigma,
        )

    @property
    def mean_doc_length(self) -> float:
        return float(np.exp(self.log_len_mean + self.log_len_sigma ** 2 / 2))

    def generate(self, num_docs: int, rng: np.random.Generator) -> TextCorpus:
        """Generate a synthetic corpus of ``num_docs`` documents."""
        if num_docs < 0:
            raise ValueError("num_docs must be non-negative")
        lengths = np.maximum(
            1, rng.lognormal(self.log_len_mean, self.log_len_sigma, num_docs).astype(np.int64)
        ) if num_docs else np.empty(0, dtype=np.int64)
        offsets = np.zeros(num_docs + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        tokens = self.zipf.sample(int(offsets[-1]), rng)
        return TextCorpus(tokens=tokens, doc_offsets=offsets, vocab_size=self.zipf.vocab_size)

    def generate_bytes(self, target_bytes: int, rng: np.random.Generator) -> TextCorpus:
        """Generate approximately ``target_bytes`` of text (the BDGS
        user-facing knob: 'users can specify their preferred data size')."""
        if target_bytes <= 0:
            raise ValueError("target_bytes must be positive")
        # Average serialized token size under the fitted word distribution.
        vocab = Vocabulary(self.zipf.vocab_size)
        avg_word = float((vocab.word_lengths() * self.zipf.probabilities()).sum()) + 1.0
        tokens_needed = max(1.0, target_bytes / avg_word)
        num_docs = max(1, int(round(tokens_needed / max(1.0, self.mean_doc_length))))
        return self.generate(num_docs, rng)
