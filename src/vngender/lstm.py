"""Single-layer LSTM sequence classifier trained by backpropagation through time.

Token embeddings come from a pretrained ``.vec`` text file or a seeded random
table; they stay frozen during training. The final hidden state feeds a
sigmoid readout for the binary gender probability.

Layout: `LstmParams` stacks the four gates in i, f, o, c order, so one
(4H, D) input matrix, one (4H, H) recurrent matrix and one (4H,) bias give
every gate's pre-activation in one product per step.

Every entry point reads documents as `featurize.TokenIds`. `_sequences`
keeps each document's last `max_seq_len` tokens and left-pads them into the
rows of one integer id matrix, so that every sequence of a batch ends at the
last step. Ids number a call's kept tokens in order of first sight, whatever
the order of the `TokenIds` universe, and the embedding rows of those tokens
are gathered once per call: once for a whole fit in `train_lstm`, once for a
whole batch in `predict_lstm`.

One kernel serves training and scoring. A batch runs longest first: at each
step the rows that hold a token are a prefix of the batch, and the rows after
it are still in the zero initial state. The distinct tokens of a batch are
projected through the input matrix once, a step multiplies the recurrent
matrix only against rows that carry a state, and the backward pass returns
the input gradient of the distinct tokens through one one-hot product.
`predict_lstm` runs its forward passes on at most `SCORE_CHUNK` names each,
so its working memory grows with the batch only by the id matrix and the
embedding rows, and a single name is a batch of one.

Out-of-vocabulary tokens get seeded random vectors, a pure function of the
table's seed and the token. They are drawn when a matrix is gathered, once
per distinct token, and never cached, so a table holds only what it was
built with, however many unseen tokens it is asked about.

`LstmModel` is the `lstm` kind of the model registry in `classical`: it has a
`kind`, a `train_meta` (the per-epoch losses) and stored fields like every
classical model, and `score(docs)` gives P(label 1) for every document of a
`TokenIds`, where the classical kinds score the rows of a feature matrix.
`fit_lstm(docs, labels, ...)` is its fit function.
"""

from __future__ import annotations

import hashlib
import io
import math
import warnings
from dataclasses import dataclass, field
from typing import ClassVar, Collection, Sequence

import numpy as np

from .errors import (
    DivergenceError,
    EmbeddingError,
    EmptySequenceError,
    TrainingError,
)
from .featurize import TokenIds, check_labels

OOV_HALF_RANGE = 0.05
INIT_HALF_RANGE = 0.1
# Names per forward pass of `predict_lstm`; bounds the memory one call uses.
SCORE_CHUNK = 256


def _oov_vector(token: str, seed: int, dim: int) -> np.ndarray:
    # Derived per (seed, token), so lookups are order-independent and a
    # reloaded table reproduces the exact same draws.
    digest = hashlib.sha256(f"{seed}\x00{token}".encode("utf-8")).digest()
    rng = np.random.default_rng(int.from_bytes(digest, "big"))
    return rng.uniform(-OOV_HALF_RANGE, OOV_HALF_RANGE, dim)


@dataclass
class EmbeddingTable:
    """Token -> vector lookup; unknown tokens get seeded-random draws."""

    dim: int
    vectors: dict[str, np.ndarray]
    oov_seed: int = 0
    source: dict = field(default_factory=dict)

    def lookup(self, token: str) -> np.ndarray:
        vec = self.vectors.get(token)
        return vec if vec is not None else _oov_vector(token, self.oov_seed, self.dim)

    def matrix(self, tokens: Collection[str]) -> np.ndarray:
        """The vectors of distinct `tokens` as the rows of one (n, dim) matrix."""
        out = np.empty((len(tokens), self.dim), dtype=np.float64)
        for row, tok in zip(out, tokens):
            row[:] = self.lookup(tok)
        return out


def random_embeddings(dim: int, seed: int = 0) -> EmbeddingTable:
    """A table with no fixed vectors: every token is a seeded OOV draw."""
    return EmbeddingTable(
        dim, {}, oov_seed=seed, source={"kind": "random", "dim": dim, "seed": seed}
    )


def _read_vec_file(path, missing: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError as exc:
        raise EmbeddingError(f"{missing}: {path}") from exc


def _parse_vec_file(path, raw: bytes, expected_dim: int, oov_seed: int) -> EmbeddingTable:
    """Parse a text vector file: header "<count> <dim>", then token + floats."""
    fh = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")
    header = fh.readline().split()
    if len(header) != 2:
        raise EmbeddingError(f"{path}: malformed header line")
    try:
        count, dim = int(header[0]), int(header[1])
    except ValueError as exc:
        raise EmbeddingError(f"{path}: malformed header line") from exc
    if dim != expected_dim:
        raise EmbeddingError(
            f"{path}: header dimension {dim} does not match expected {expected_dim}"
        )
    vectors: dict[str, np.ndarray] = {}
    for lineno, line in enumerate(fh, start=2):
        parts = line.rstrip("\n").split(" ")
        if len(parts) == 1 and parts[0] == "":
            continue
        token, comps = parts[0], parts[1:]
        if len(comps) != dim:
            raise EmbeddingError(
                f"{path}:{lineno}: expected {dim} components, got {len(comps)}"
            )
        try:
            vec = np.array([float(c) for c in comps], dtype=np.float64)
        except ValueError as exc:
            raise EmbeddingError(f"{path}:{lineno}: non-numeric component") from exc
        if token in vectors:
            warnings.warn(f"{path}:{lineno}: duplicate token {token!r}, keeping first")
            continue
        vectors[token] = vec
    if count != len(vectors):
        warnings.warn(f"{path}: header count {count} != {len(vectors)} vectors read")
    source = {"kind": "vec_file", "path": str(path), "sha256": hashlib.sha256(raw).hexdigest(),
              "dim": dim, "oov_seed": oov_seed}
    return EmbeddingTable(dim, vectors, oov_seed=oov_seed, source=source)


def load_embeddings(path, expected_dim: int, oov_seed: int = 0) -> EmbeddingTable:
    """The table of a text vector file: header "<count> <dim>", then one
    token and its `dim` floats per line."""
    return _parse_vec_file(path, _read_vec_file(path, "embedding file not found"),
                           expected_dim, oov_seed)


def resolve_embeddings(source: dict) -> EmbeddingTable:
    """The table an `EmbeddingTable.source` describes; a referenced vector
    file must still hold the content it was trained with."""
    if source.get("kind") == "random":
        return random_embeddings(source["dim"], source["seed"])
    if source.get("kind") == "vec_file":
        path = source["path"]
        raw = _read_vec_file(path, "referenced embedding file missing")
        if hashlib.sha256(raw).hexdigest() != source["sha256"]:
            raise EmbeddingError(f"embedding file content changed: {path}")
        return _parse_vec_file(path, raw, source["dim"], source.get("oov_seed", 0))
    raise EmbeddingError(f"unknown embedding source {source.get('kind')!r}")


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

@dataclass
class LstmParams:
    """Rows k*H:(k+1)*H of `w`, `u` and `b` belong to gate k of i, f, o, c."""

    w: np.ndarray       # (4H, D) input weights
    u: np.ndarray       # (4H, H) recurrent weights
    b: np.ndarray       # (4H,)
    out_w: np.ndarray   # (H,)
    out_b: np.ndarray   # shape ()

    @property
    def hidden(self) -> int:
        return self.u.shape[1]

    @property
    def dim(self) -> int:
        return self.w.shape[1]

    def tensors(self) -> dict[str, np.ndarray]:
        return {"w": self.w, "u": self.u, "b": self.b, "out_w": self.out_w, "out_b": self.out_b}

    def copy(self) -> "LstmParams":
        return LstmParams(**{name: arr.copy() for name, arr in self.tensors().items()})


def init_lstm_params(dim: int, hidden: int, seed: int = 0) -> LstmParams:
    """Seeded uniform [-0.1, 0.1] init; forget-gate bias starts at 1.0."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return rng.uniform(-INIT_HALF_RANGE, INIT_HALF_RANGE, shape)

    params = LstmParams(
        w=draw(4 * hidden, dim), u=draw(4 * hidden, hidden), b=draw(4 * hidden),
        out_w=draw(hidden), out_b=np.array(float(draw()), dtype=np.float64),
    )
    params.b[hidden:2 * hidden] = 1.0
    return params


@dataclass
class LstmTrainConfig:
    batch_size: int = 32
    epochs: int = 2
    learning_rate: float = 1.0
    max_seq_len: int = 8
    hidden: int = 128
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise TrainingError("batch_size must be >= 1")
        if self.epochs < 1:
            raise TrainingError("epochs must be >= 1")
        if self.max_seq_len < 1:
            raise TrainingError("max_seq_len must be >= 1")
        if self.hidden < 1:
            raise TrainingError("hidden must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise TrainingError(f"learning_rate must be finite and > 0, got {self.learning_rate}")


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function, without overflow for large |z|: 1 / (1 + e^-z)
    for z >= 0 and e^z / (1 + e^z) below."""
    z = np.asarray(z, dtype=np.float64)
    return np.exp(np.minimum(z, 0.0)) / (1.0 + np.exp(-np.abs(z)))


def _sequences(docs: TokenIds, max_len: int | None, empty_error: type, message: str):
    """(ids, lengths, tokens) for the LSTM: each document's last `max_len`
    entries (all of them without a limit) left-padded into the rows of an
    (n, T) id matrix, each row's length, and the kept tokens in id order.
    Ids number the kept tokens in order of first sight, so a fit does not
    depend on how the universe of `docs` is ordered. A document with no
    entries raises `empty_error(message.format(index))`."""
    lengths = np.bincount(docs.rows, minlength=docs.n_docs)
    if not lengths.all():
        raise empty_error(message.format(int(lengths.argmin())))
    width = int(lengths.max(initial=0))
    if max_len:
        width = min(width, max_len)
    to_end = np.repeat(np.cumsum(lengths), lengths) - np.arange(docs.ids.size)  # 1 = last
    kept = to_end <= width
    uniq, first, inverse = np.unique(docs.ids[kept], return_index=True, return_inverse=True)
    by_sight = np.argsort(first)
    ids = np.zeros((docs.n_docs, width), dtype=np.int64)
    ids[docs.rows[kept], width - to_end[kept]] = np.argsort(by_sight)[inverse]
    tokens = [docs.tokens[i] for i in uniq[by_sight].tolist()]
    return ids, np.minimum(lengths, width), tokens


def _schedule(ids: np.ndarray, lengths: np.ndarray):
    """(order, uniq, steps) for one left-padded group run longest first:
    `order` lists the group's rows in run order, `uniq` its distinct token
    ids, and steps[t] gives, for each of the first len(steps[t]) rows, the
    position in `uniq` of its token at step t."""
    width = ids.shape[1]
    order = np.argsort(-lengths, kind="stable")
    active = (lengths[:, None] >= width - np.arange(width)).sum(axis=0)
    run = ids[order]
    tokens = np.concatenate([run[:n, t] for t, n in enumerate(active)])
    uniq, inverse = np.unique(tokens, return_inverse=True)
    return order, uniq, np.split(inverse, np.cumsum(active)[:-1])


def _forward(params: LstmParams, x_proj: np.ndarray, steps, caches: list | None = None):
    """Final hidden state of every row; x_proj holds the input projections
    (no bias) of the distinct tokens. With `caches`, each step appends what
    the backward pass needs."""
    hid = params.hidden
    h = c = np.zeros((0, hid))
    for pos in steps:
        m = len(h)                      # rows with a state; the rest start at zero
        z = x_proj[pos]
        if m:
            z[:m] += h @ params.u.T
        z += params.b
        z[:, :3 * hid] = sigmoid(z[:, :3 * hid])
        np.tanh(z[:, 3 * hid:], out=z[:, 3 * hid:])
        gi, gf, go, gc = (z[:, k * hid:(k + 1) * hid] for k in range(4))
        c_new = gi * gc
        if m:
            c_new[:m] += gf[:m] * c
        tc = np.tanh(c_new)
        if caches is not None:
            caches.append((h, c, z, tc))
        h, c = go * tc, c_new
    return h


def _loss_and_grads(ids: np.ndarray, lengths: np.ndarray, y: np.ndarray,
                    table: np.ndarray, params: LstmParams):
    """Mean BCE over a group of token-id rows and its gradient for every
    tensor of `params`; `table` holds the embedding row of each id."""
    order, uniq, steps = _schedule(ids, lengths)
    x = table[uniq]
    caches: list = []
    h_last = _forward(params, x @ params.w.T, steps, caches)
    logits = h_last @ params.out_w + params.out_b
    y = y[order]
    total = len(y)
    # BCE from logits: softplus(s) - y*s. A diverged fit overflows here;
    # the caller's finite-loss check reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        loss = float((np.logaddexp(0.0, logits) - y * logits).sum()) / total
    dlogits = (sigmoid(logits) - y) / total

    hid = params.hidden
    dz_all = np.empty((sum(map(len, steps)), 4 * hid))
    grad_u = np.zeros_like(params.u)
    dh = np.outer(dlogits, params.out_w)
    dc = np.zeros_like(dh)
    end = len(dz_all)
    for h_prev, c_prev, gates, tc in reversed(caches):
        n, m = len(gates), len(h_prev)
        dz = dz_all[end - n:end]
        end -= n
        gi, gf, go, gc = (gates[:, k * hid:(k + 1) * hid] for k in range(4))
        dc = dc + dh * go * (1.0 - tc * tc)
        dz[:, :hid] = dc * gc * gi * (1.0 - gi)
        dz[m:, hid:2 * hid] = 0.0
        dz[:m, hid:2 * hid] = dc[:m] * c_prev * gf[:m] * (1.0 - gf[:m])
        dz[:, 2 * hid:3 * hid] = dh * tc * go * (1.0 - go)
        dz[:, 3 * hid:] = dc * gi * (1.0 - gc * gc)
        if m:
            grad_u += dz[:m].T @ h_prev
            dh = dz[:m] @ params.u
            dc = dc[:m] * gf[:m]
    positions = np.concatenate(steps)
    one_hot = (positions == np.arange(len(uniq))[:, None]).astype(np.float64)
    grads = {"w": (one_hot @ dz_all).T @ x, "u": grad_u, "b": dz_all.sum(axis=0),
             "out_w": h_last.T @ dlogits, "out_b": dlogits.sum()}
    return loss, grads


def batch_gradients(docs: TokenIds, labels, emb: EmbeddingTable, params: LstmParams):
    """Mean BCE loss of the documents (not truncated) and its gradient for
    every tensor of `params`, by name."""
    if not len(docs):
        raise TrainingError("empty batch")
    ids, lengths, tokens = _sequences(docs, None, EmptySequenceError, "sequence {} is empty")
    return _loss_and_grads(ids, lengths, np.asarray(labels, dtype=np.float64),
                           emb.matrix(tokens), params)


@dataclass
class LstmTrainResult:
    params: LstmParams
    epoch_losses: list[float]


def train_lstm(
    docs: TokenIds,
    labels: Sequence[int],
    emb: EmbeddingTable,
    cfg: LstmTrainConfig,
    init: LstmParams | None = None,
) -> LstmTrainResult:
    """Mini-batch SGD with BPTT; embeddings stay frozen.

    Batch order reshuffles every epoch from cfg.seed; parameter init uses a
    seed derived from the same value, so training is a pure function of
    (data order, config, initial params).
    """
    y = check_labels(len(docs), labels).astype(np.float64)
    ids, lengths, tokens = _sequences(docs, cfg.max_seq_len, TrainingError, "sequence {} is empty")

    init_seed, shuffle_seed = np.random.SeedSequence(cfg.seed).spawn(2)
    params = init.copy() if init is not None else init_lstm_params(
        emb.dim, cfg.hidden, init_seed
    )
    table = emb.matrix(tokens)
    shuffle_rng = np.random.default_rng(shuffle_seed)
    n = len(docs)
    epoch_losses: list[float] = []
    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(n)
        loss_sum = 0.0
        for batch_no, start in enumerate(range(0, n, cfg.batch_size), start=1):
            rows = order[start:start + cfg.batch_size]
            lens = lengths[rows]
            group = ids[rows, ids.shape[1] - int(lens.max()):]
            loss, grads = _loss_and_grads(group, lens, y[rows], table, params)
            if not np.isfinite(loss):
                raise DivergenceError(
                    f"LSTM training diverged at epoch {epoch}, batch {batch_no}"
                )
            for name, arr in params.tensors().items():
                arr -= cfg.learning_rate * grads[name]
            loss_sum += loss * len(rows)
        epoch_losses.append(loss_sum / n)
    return LstmTrainResult(params, epoch_losses)


def predict_lstm(
    docs: TokenIds,
    emb: EmbeddingTable,
    params: LstmParams,
    max_seq_len: int | None = None,
) -> np.ndarray:
    """P(label 1) for every document, each cut to its last `max_seq_len`
    tokens. The embedding rows of the call's distinct tokens are gathered
    once; the forward passes take at most `SCORE_CHUNK` names each."""
    ids, lengths, tokens = _sequences(
        docs, max_seq_len, EmptySequenceError,
        "cannot run the LSTM on an empty token sequence (name {})")
    table = emb.matrix(tokens)
    scores = np.empty(len(lengths), dtype=np.float64)
    for start in range(0, len(lengths), SCORE_CHUNK):
        lens = lengths[start:start + SCORE_CHUNK]
        group = ids[start:start + SCORE_CHUNK, ids.shape[1] - int(lens.max()):]
        order, uniq, steps = _schedule(group, lens)
        logits = _forward(params, table[uniq] @ params.w.T, steps) @ params.out_w + params.out_b
        scores[start + order] = sigmoid(logits)
    return scores


@dataclass
class LstmModel:
    """A trained LSTM with the embedding table it reads, which is stored as
    its `embedding_source` and resolved when the model is built."""

    kind: ClassVar[str] = "lstm"
    params: LstmParams
    cfg: LstmTrainConfig
    embedding_source: dict
    train_meta: dict
    embeddings: EmbeddingTable | None = field(
        default=None, repr=False, metadata={"stored": False}
    )

    def __post_init__(self):
        if self.embeddings is None:
            self.embeddings = resolve_embeddings(self.embedding_source)

    def score(self, docs: TokenIds) -> np.ndarray:
        """P(label 1) for every document, each truncated to `cfg.max_seq_len`."""
        return predict_lstm(docs, self.embeddings, self.params, self.cfg.max_seq_len)


def fit_lstm(
    docs: TokenIds,
    labels: Sequence[int],
    seed: int = 0,
    embedding_dim: int = 300,
    embedding_path=None,
    **options,
) -> LstmModel:
    """Train on encoded documents; `options` are `LstmTrainConfig` fields.

    Embeddings come from the vector file at `embedding_path`, or are seeded
    random draws; `seed` also seeds out-of-vocabulary vectors, parameter
    init and batch order.
    """
    if embedding_dim < 1:
        raise TrainingError("embedding_dim must be >= 1")
    if embedding_path is None:
        emb = random_embeddings(embedding_dim, seed)
    else:
        emb = load_embeddings(embedding_path, embedding_dim, oov_seed=seed)
    cfg = LstmTrainConfig(seed=seed, **options)
    result = train_lstm(docs, labels, emb, cfg)
    return LstmModel(result.params, cfg, emb.source, {"epoch_losses": result.epoch_losses}, emb)
