"""Token vocabularies and the CSR feature matrix of count / TF-IDF vectors."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import FeaturizeError

VECTORIZER_MODES = ("count", "tfidf")


@dataclass(eq=False)
class LabeledMatrix:
    """Sparse feature rows in CSR form, with optional binary labels.

    Row i holds the columns `indices[indptr[i]:indptr[i+1]]` (strictly
    increasing) with the non-zero values `data[...]` at the same positions.
    `labels` is None for rows that are only scored.
    """

    indptr: np.ndarray   # int64, n_rows + 1
    indices: np.ndarray  # int64
    data: np.ndarray     # float64
    n_features: int
    labels: np.ndarray | None = None  # int64, 0 or 1
    row_ids: np.ndarray = field(init=False, repr=False)  # row of every entry

    def __post_init__(self):
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.data = np.asarray(self.data, dtype=np.float64)
        sizes = np.diff(self.indptr)
        if self.indptr[:1].tolist() != [0] or np.any(sizes < 0) or not (
            self.indptr[-1] == self.indices.size == self.data.size
        ):
            raise FeaturizeError("indptr, indices and data do not describe a CSR matrix")
        self.row_ids = np.repeat(np.arange(len(self), dtype=np.int64), sizes)
        if np.any((self.indices < 0) | (self.indices >= self.n_features)):
            raise FeaturizeError(f"feature index out of range (n_features={self.n_features})")
        if np.any(np.diff(self.row_ids * self.n_features + self.indices) <= 0) or np.any(
            self.data == 0
        ):
            raise FeaturizeError("rows need strictly increasing columns and non-zero values")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (len(self),) or np.any(self.labels & ~1):
                raise FeaturizeError("labels must be 0 or 1, one per row")

    def __len__(self) -> int:
        return self.indptr.size - 1

    def row_sums(self, entry_values: np.ndarray) -> np.ndarray:
        """Per-row sums of one value per stored entry, added in entry order.

        A row's sum depends only on its own entries, so it is the same alone
        as inside any batch.
        """
        return np.bincount(self.row_ids, weights=entry_values, minlength=len(self))

    def dot_weights(self, weights: np.ndarray, bias: float) -> np.ndarray:
        return self.row_sums(self.data * weights[self.indices]) + bias


@dataclass(frozen=True, eq=False)
class Vocabulary:
    """Token -> dense feature index, with document frequencies from fit time."""

    tokens: tuple[str, ...]          # ordered by feature index
    index_of: dict[str, int]
    doc_freq: np.ndarray             # int64, aligned with tokens
    n_docs: int

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class VectorizerConfig:
    mode: str = "count"
    max_features: int | None = None

    def __post_init__(self):
        if self.mode not in VECTORIZER_MODES:
            raise FeaturizeError(f"unknown vectorizer mode {self.mode!r}")
        if self.max_features is not None and self.max_features < 1:
            raise FeaturizeError("max_features must be >= 1 when set")


def fit_vocabulary(corpus: Sequence[Sequence[str]], cfg: VectorizerConfig) -> Vocabulary:
    """Build the vocabulary over a tokenized corpus.

    With max_features set, the tokens with the highest total term count are
    kept (ties to the lexicographically smaller token). Feature indices follow
    ascending lexicographic order of the kept tokens.
    """
    if not corpus:
        raise FeaturizeError("cannot fit a vocabulary on an empty corpus")
    totals: Counter = Counter()
    df: Counter = Counter()
    for doc in corpus:
        if doc:
            totals.update(doc)
            df.update(set(doc))
    if not totals:
        raise FeaturizeError("all documents are empty")

    if cfg.max_features is not None and len(totals) > cfg.max_features:
        kept = sorted(totals, key=lambda t: (-totals[t], t))[: cfg.max_features]
    else:
        kept = list(totals)
    tokens = tuple(sorted(kept))
    index_of = {tok: i for i, tok in enumerate(tokens)}
    doc_freq = np.array([df[tok] for tok in tokens], dtype=np.int64)
    return Vocabulary(tokens, index_of, doc_freq, len(corpus))


def transform(
    docs: Sequence[Sequence[str]],
    vocab: Vocabulary,
    cfg: VectorizerConfig,
    labels: Sequence[int] | None = None,
) -> LabeledMatrix:
    """One CSR row per document; out-of-vocabulary tokens are dropped.

    "count" rows hold raw term counts. "tfidf" rows hold smoothed TF-IDF,
    tf * (ln((1+N)/(1+df)) + 1), L2-normalized per row.
    """
    index_of = vocab.index_of
    v = len(vocab)
    ids = np.array([index_of.get(tok, -1) for doc in docs for tok in doc], dtype=np.int64)
    lengths = np.array([len(doc) for doc in docs], dtype=np.int64)
    rows = np.repeat(np.arange(len(docs), dtype=np.int64), lengths)
    keep = ids >= 0
    keys, counts = np.unique(rows[keep] * v + ids[keep], return_counts=True)
    row_ids, indices = np.divmod(keys, v)
    data = counts.astype(np.float64)
    if cfg.mode == "tfidf" and data.size:
        idf = np.log((1.0 + vocab.n_docs) / (1.0 + vocab.doc_freq[indices])) + 1.0
        data *= idf
        norms = np.sqrt(np.bincount(row_ids, weights=data * data, minlength=len(docs)))
        data /= norms[row_ids]
    indptr = np.zeros(len(docs) + 1, dtype=np.int64)
    np.cumsum(np.bincount(row_ids, minlength=len(docs)), out=indptr[1:])
    return LabeledMatrix(indptr, indices, data, v, labels)
