"""Token vocabularies, the CSR feature matrix of count / TF-IDF vectors, and
the one check of training labels.

Both work on integer token ids: `encode`, the one place token strings become
ids, turns token lists into `TokenIds`, one flat entry per token occurrence,
and `fit_vocabulary` and `transform` read those ids. The ablation encodes
the tokens of every name of its dataset in one `encode` call, and filters
the ids per component mask instead of re-tokenizing. Every model kind
reads its documents through a fitted vocabulary: `columns` gives each entry's
vocabulary index, with `len(vocab)` for an unseen token; `transform` counts
those indices into a `CsrMatrix`, and the LSTM reads them as they are.

Labels travel beside the data, never inside it: every model kind fits on
(x, labels), where x is a `CsrMatrix` or a `TokenIds`, and checks its labels
with `check_labels`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import chain, count, islice
from typing import Iterable, Sequence

import numpy as np

from .errors import FeaturizeError, TrainingError

VECTORIZER_MODES = ("count", "tfidf")


@dataclass(eq=False)
class CsrMatrix:
    """Sparse feature rows in CSR form.

    Row i holds the columns `indices[indptr[i]:indptr[i+1]]` (strictly
    increasing, each below `n_features`) with the non-zero values `data[...]`
    at the same positions. The matrix is not checked: its only builders,
    `transform` and `classical`'s row deduplication, produce that invariant
    by construction, and the test suite checks it on every matrix it builds.
    """

    indptr: np.ndarray   # int64, n_rows + 1, starting at 0
    indices: np.ndarray  # int64
    data: np.ndarray     # float64
    n_features: int
    row_ids: np.ndarray = field(init=False, repr=False)  # row of every entry

    def __post_init__(self):
        self.row_ids = np.repeat(np.arange(len(self), dtype=np.int64), np.diff(self.indptr))

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


@dataclass(frozen=True, eq=False)
class TokenIds:
    """Tokenized documents as flat integer arrays, one entry per token
    occurrence: entry k is token `tokens[ids[k]]` of document `rows[k]`.

    `tokens` is the sorted token universe (Python string order, so code-point
    order), so comparing ids compares tokens. `rows` does not decrease, and a
    document's entries keep its token order. A document may have no entries.
    Documents read through a vocabulary (`classical.model_input` of a kind
    that reads tokens) have the vocabulary's tokens as their universe and
    index the vocabulary; there, id `len(tokens)` stands for a token outside
    it.
    """

    rows: np.ndarray           # int64
    ids: np.ndarray            # int64
    tokens: tuple[str, ...]
    n_docs: int

    def __len__(self) -> int:
        return self.n_docs

    def docs(self, which: Sequence[int] | None = None) -> list[list[str]]:
        """The token lists of documents `which` (all by default), rebuilt from the ids."""
        bounds = np.searchsorted(self.rows, np.arange(self.n_docs + 1)).tolist()
        ids = self.ids.tolist()
        tokens = self.tokens
        which = range(self.n_docs) if which is None else which
        return [[tokens[i] for i in ids[bounds[r]:bounds[r + 1]]] for r in which]


def entry_positions(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The int64 positions of the entries of the runs [starts[k], starts[k]
    + sizes[k]), run after run: the gather of some rows of a flat array of
    rows (a CSR matrix's entries, a `TokenIds`'s tokens)."""
    pos = np.repeat(starts - (np.cumsum(sizes, dtype=np.int64) - sizes), sizes)
    pos += np.arange(pos.size, dtype=np.int64)
    return pos


# Documents per step of `encode`; only one step's token lists are held at once.
ENCODE_CHUNK = 1024


def encode(docs: Iterable[Sequence[str]]) -> TokenIds:
    """Token sequences as `TokenIds` over the sorted set of their tokens.

    `docs` may be any iterable, a generator included, and is read once,
    `ENCODE_CHUNK` documents at a time. Each chunk is flattened with
    `chain.from_iterable`, the set of its new tokens gets the next ids, and
    its ids are read through C-level `map`s, with no Python loop per token;
    the ids are renumbered over the sorted token universe at the end.
    """
    docs = iter(docs)
    index: dict[str, int] = {}   # token -> id, numbered chunk by chunk as tokens first occur
    ids, lengths = array("q"), array("q")
    while chunk := list(islice(docs, ENCODE_CHUNK)):
        index.update(zip(set(chain.from_iterable(chunk)).difference(index), count(len(index))))
        ids.extend(map(index.__getitem__, chain.from_iterable(chunk)))
        lengths.extend(map(len, chunk))
    tokens = tuple(sorted(index))
    # The ids of the sorted tokens, inverted: id -> position in sorted order.
    rank = np.fromiter(map(index.__getitem__, tokens), dtype=np.int64, count=len(tokens)).argsort()
    lengths = np.frombuffer(lengths, dtype=np.int64)
    rows = np.arange(lengths.size, dtype=np.int64).repeat(lengths)
    return TokenIds(rows, rank[np.frombuffer(ids, dtype=np.int64)], tokens, lengths.size)


def fit_vocabulary(docs: TokenIds, cfg: VectorizerConfig) -> Vocabulary:
    """Build the vocabulary over encoded documents.

    It holds every token that occurs or, with max_features set, the
    max_features tokens of highest total count (ties to the smaller token).
    Feature indices follow ascending token order. A token's document frequency
    counts the documents it occurs in, and `n_docs` counts every document,
    empty ones too.
    """
    if not docs.n_docs:
        raise FeaturizeError("cannot fit a vocabulary on an empty corpus")
    if not docs.ids.size:
        raise FeaturizeError("all documents are empty")
    u = len(docs.tokens)
    totals = np.bincount(docs.ids, minlength=u)
    # Distinct (row, id) pairs by sorting: np.unique without counts takes a
    # hash path that is many times slower on these keys.
    pairs = np.sort(docs.rows * u + docs.ids)
    doc_freq = np.bincount(pairs[np.diff(pairs, prepend=-1) != 0] % u, minlength=u)
    kept = np.flatnonzero(totals)
    if cfg.max_features is not None and kept.size > cfg.max_features:
        kept = np.sort(kept[np.lexsort((kept, -totals[kept]))[: cfg.max_features]])
    tokens = tuple(docs.tokens[i] for i in kept.tolist())
    index_of = {tok: i for i, tok in enumerate(tokens)}
    return Vocabulary(tokens, index_of, doc_freq[kept], docs.n_docs)


def columns(docs: TokenIds, vocab: Vocabulary) -> np.ndarray:
    """The vocabulary index of every entry of `docs`; `len(vocab)` for a
    token outside the vocabulary."""
    v = len(vocab)
    return np.array([vocab.index_of.get(tok, v) for tok in docs.tokens], dtype=np.int64)[docs.ids]


def transform(docs: TokenIds, vocab: Vocabulary, cfg: VectorizerConfig) -> CsrMatrix:
    """One CSR row per document; tokens outside the vocabulary are dropped.

    "count" rows hold raw term counts. "tfidf" rows hold smoothed TF-IDF,
    tf * (ln((1+N)/(1+df)) + 1), L2-normalized per row.
    """
    v = len(vocab)
    ids = columns(docs, vocab)
    rows = docs.rows
    keep = ids < v
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
    return CsrMatrix(indptr, indices, data, v)


def check_labels(n_rows: int, labels) -> np.ndarray:
    """The labels of `n_rows` training rows as int64, one per row, each 0 or
    1, with both present; anything else raises `TrainingError`."""
    if not n_rows:
        raise TrainingError("empty training set")
    y = np.asarray(labels)
    if y.shape != (n_rows,):
        raise TrainingError(f"expected {n_rows} labels, one per row, got shape {y.shape}")
    if not np.isin(y, (0, 1)).all():
        raise TrainingError("labels must be 0 or 1")
    y = y.astype(np.int64)
    ones = int(y.sum())
    if ones == 0 or ones == n_rows:
        raise TrainingError("training set contains a single class")
    return y
