"""Single-layer LSTM sequence classifier trained by backpropagation through time.

The LSTM reads its documents through a `featurize.Vocabulary`, like every
other kind: a document is a `featurize.TokenIds` whose ids index the
vocabulary, id V (the vocabulary's size) standing for every unseen token.
Each id picks a row of one frozen (V + 1, D) embedding table, built by
`embedding_table` from the model's own fields: one seeded uniform draw,
overwritten by the pretrained vectors of the vocabulary tokens that a
``.vec`` text file holds. Those vectors are read once, at fit time, by a
streaming parse (`load_embeddings`) that keeps only the vocabulary's rows, and
they are stored with the model, so a bundle needs nothing outside it. The
final hidden state feeds a sigmoid readout for the binary gender probability.

Layout: `LstmParams` stacks the four gates in i, f, o, c order, so one
(4H, D) input matrix, one (4H, H) recurrent matrix and one (4H,) bias give
every gate's pre-activation in one product per step.

`_sequences` keeps each document's last `max_seq_len` ids and left-pads
them into the rows of one integer id matrix, so that every sequence of a
batch ends at the last step.

One kernel serves training and scoring. A batch runs longest first: at each
step the rows that hold a token are a prefix of the batch, and the rows after
it are still in the zero initial state. The distinct tokens of a batch are
projected through the input matrix once, a step multiplies the recurrent
matrix only against rows that carry a state, and the backward pass returns
the input gradient of the distinct tokens through one one-hot product.
`predict_lstm` runs its forward passes on at most `SCORE_CHUNK` names each,
so its working memory grows with the batch only by the id matrix, and a
single name is a batch of one.

The kernel computes in the dtype of the table it is given: every temporary,
the labels and the results follow it, so float64 inputs run in float64 and
float32 inputs in float32. `fit_lstm` fits in float32 and stores float64:
fastText stores its vectors as float32, and the fit's time is in BLAS
products, which float32 runs about twice as fast. A model's parameters and
table are float64, and its scores are float64.

`LstmModel` is the `lstm` kind of the model registry in `classical`: it has a
`kind`, a `train_meta` (the per-epoch losses), `n_features` (the vocabulary
size) and stored fields like every classical model, and `score(docs)` gives
P(label 1) for every document of a `TokenIds` over its vocabulary, where the
classical kinds score the rows of a feature matrix. `fit_lstm(docs, labels,
...)` is its fit function.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import ClassVar, Sequence

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


def _text_lines(fh, path):
    """The lines of a binary file, decoded as UTF-8 one at a time and split
    as text mode splits them, at "\n", "\r\n" or a lone "\r", with the line
    end dropped. Undecodable bytes are reported by their offset in the file."""
    offset = 0
    for raw in fh:
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise EmbeddingError(
                f"{path}: not UTF-8 text (byte {offset + exc.start}: {exc.reason})") from exc
        offset += len(raw)
        yield from text.replace("\r\n", "\n").replace("\r", "\n").removesuffix("\n").split("\n")


def load_embeddings(path, tokens: Sequence[str], expected_dim: int):
    """(rows, values) from a text vector file, a header "<count> <dim>" then
    one token and its `dim` floats per line: the index in `tokens` of each
    of them the file holds a vector for, and those vectors as the rows of a
    (K, dim) matrix. Lines of other tokens are skipped unparsed; a token
    given twice keeps its first vector. Every component of a kept vector
    must be finite in float32, the dtype `fit_lstm` fits in. The file is
    read one line at a time, so it is never held whole."""
    index_of = {tok: i for i, tok in enumerate(tokens)}
    found: dict[int, list[float]] = {}
    try:
        fh = open(path, "rb")
    except FileNotFoundError as exc:
        raise EmbeddingError(f"embedding file not found: {path}") from exc
    with fh:
        lines = _text_lines(fh, path)
        try:
            count, dim = map(int, next(lines, "").split())
        except ValueError as exc:
            raise EmbeddingError(f"{path}:1: malformed header line") from exc
        if dim != expected_dim:
            raise EmbeddingError(
                f"{path}:1: header dimension {dim} does not match expected {expected_dim}"
            )
        n_lines = 0
        for lineno, line in enumerate(lines, start=2):
            token, sep, rest = line.partition(" ")
            if not (token or sep):
                continue
            n_lines += 1
            row = index_of.get(token)
            if row is None:
                continue
            comps = rest.split(" ") if sep else []
            if len(comps) != dim:
                raise EmbeddingError(
                    f"{path}:{lineno}: expected {dim} components, got {len(comps)}"
                )
            try:
                vec = [float(c) for c in comps]
            except ValueError as exc:
                raise EmbeddingError(f"{path}:{lineno}: non-numeric component") from exc
            with np.errstate(over="ignore"):
                if not np.isfinite(np.array(vec, dtype=np.float32)).all():
                    raise EmbeddingError(f"{path}:{lineno}: non-finite component")
            if row in found:
                warnings.warn(f"{path}:{lineno}: duplicate token {token!r}, keeping first")
                continue
            found[row] = vec
    if count != n_lines:
        warnings.warn(f"{path}: header count {count} != {n_lines} vectors in the file")
    return (np.array(list(found), dtype=np.int64),
            np.array(list(found.values()), dtype=np.float64).reshape(-1, dim))


def embedding_table(n_tokens: int, dim: int, seed: int, vec_rows: np.ndarray,
                    vec_values: np.ndarray) -> np.ndarray:
    """The (n_tokens + 1, dim) embedding table: one uniform +-OOV_HALF_RANGE
    draw from the third child of `SeedSequence(seed)` (the first two seed
    parameter init and batch order), with row vec_rows[k] set to
    vec_values[k]. Row n_tokens serves every unseen token."""
    if vec_values.shape != (vec_rows.size, dim) or vec_rows.ndim != 1:
        raise EmbeddingError(
            f"{vec_values.shape} stored vectors for {vec_rows.shape} rows of width {dim}")
    if vec_rows.size and not 0 <= vec_rows.min() <= vec_rows.max() < n_tokens:
        raise EmbeddingError(f"a stored vector row is outside the {n_tokens}-token vocabulary")
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[2])
    table = rng.uniform(-OOV_HALF_RANGE, OOV_HALF_RANGE, (n_tokens + 1, dim))
    table[vec_rows] = vec_values
    return table


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

    def astype(self, dtype) -> "LstmParams":
        """A copy with every tensor in `dtype`."""
        return LstmParams(**{name: arr.astype(dtype) for name, arr in self.tensors().items()})


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
    for z >= 0 and e^z / (1 + e^z) below. In float32 for float32 input,
    in float64 for any other."""
    z = np.asarray(z)
    if z.dtype != np.float32:
        z = z.astype(np.float64, copy=False)
    return np.exp(np.minimum(z, 0.0)) / (1.0 + np.exp(-np.abs(z)))


def _sequences(docs: TokenIds, max_len: int | None, empty_error: type, message: str):
    """(ids, lengths) for the LSTM: each document's last `max_len` ids (all
    of them without a limit) left-padded into the rows of an (n, T) id
    matrix, and each row's length. A document with no entries raises
    `empty_error(message.format(index))`."""
    lengths = np.bincount(docs.rows, minlength=docs.n_docs)
    if not lengths.all():
        raise empty_error(message.format(int(lengths.argmin())))
    width = int(lengths.max(initial=0))
    if max_len:
        width = min(width, max_len)
    to_end = np.repeat(np.cumsum(lengths), lengths) - np.arange(docs.ids.size)  # 1 = last
    kept = to_end <= width
    ids = np.zeros((docs.n_docs, width), dtype=np.int64)
    ids[docs.rows[kept], width - to_end[kept]] = docs.ids[kept]
    return ids, np.minimum(lengths, width)


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
    h = c = np.zeros((0, hid), dtype=x_proj.dtype)
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
    tensor of `params`; `table` holds the embedding row of each id, and the
    results are in its dtype, which `y` and `params` share."""
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
        loss = (np.logaddexp(0.0, logits) - y * logits).sum() / total
    dlogits = (sigmoid(logits) - y) / total

    hid = params.hidden
    dz_all = np.empty((sum(map(len, steps)), 4 * hid), dtype=x.dtype)
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
    one_hot = (positions == np.arange(len(uniq))[:, None]).astype(x.dtype)
    grads = {"w": (one_hot @ dz_all).T @ x, "u": grad_u, "b": dz_all.sum(axis=0),
             "out_w": h_last.T @ dlogits, "out_b": dlogits.sum()}
    return loss, grads


def batch_gradients(docs: TokenIds, labels, table: np.ndarray, params: LstmParams):
    """Mean BCE loss of the documents (not truncated) and its gradient for
    every tensor of `params`, by name, in the dtype of `table`, which holds
    the embedding row of each id."""
    if not len(docs):
        raise TrainingError("empty batch")
    ids, lengths = _sequences(docs, None, EmptySequenceError, "sequence {} is empty")
    return _loss_and_grads(ids, lengths, np.asarray(labels, dtype=table.dtype), table, params)


@dataclass
class LstmTrainResult:
    params: LstmParams
    epoch_losses: list[float]


def train_lstm(
    docs: TokenIds,
    labels: Sequence[int],
    table: np.ndarray,
    cfg: LstmTrainConfig,
    init: LstmParams | None = None,
) -> LstmTrainResult:
    """Mini-batch SGD with BPTT; the embedding `table`, one row per id,
    stays frozen. The fit runs in the table's dtype: the labels and a copy
    of the parameters (`init`, or a seeded draw) are cast to it. Batch
    losses are summed into the epoch losses as Python floats.

    Batch order reshuffles every epoch from cfg.seed; parameter init uses a
    seed derived from the same value, so training is a pure function of
    (data order, table, config, initial params). A batch loss, epoch loss
    sum or updated tensor that is not finite raises `DivergenceError`.
    """
    y = check_labels(len(docs), labels).astype(table.dtype)
    ids, lengths = _sequences(docs, cfg.max_seq_len, TrainingError, "sequence {} is empty")

    init_seed, shuffle_seed = np.random.SeedSequence(cfg.seed).spawn(2)
    if init is None:
        init = init_lstm_params(table.shape[1], cfg.hidden, init_seed)
    params = init.astype(table.dtype)
    shuffle_rng = np.random.default_rng(shuffle_seed)
    n = len(docs)
    epoch_losses: list[float] = []
    # A diverging fit overflows; the checks below report it as an error,
    # not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            order = shuffle_rng.permutation(n)
            loss_sum = 0.0
            for batch_no, start in enumerate(range(0, n, cfg.batch_size), start=1):
                rows = order[start:start + cfg.batch_size]
                lens = lengths[rows]
                group = ids[rows, ids.shape[1] - int(lens.max()):]
                loss, grads = _loss_and_grads(group, lens, y[rows], table, params)
                for name, arr in params.tensors().items():
                    arr -= cfg.learning_rate * grads[name]
                loss_sum += float(loss) * len(rows)
                if not (math.isfinite(loss_sum)
                        and all(np.isfinite(arr).all() for arr in params.tensors().values())):
                    raise DivergenceError(
                        f"LSTM training diverged at epoch {epoch}, batch {batch_no}"
                    )
            epoch_losses.append(loss_sum / n)
    return LstmTrainResult(params, epoch_losses)


def predict_lstm(
    docs: TokenIds,
    table: np.ndarray,
    params: LstmParams,
    max_seq_len: int | None = None,
) -> np.ndarray:
    """P(label 1) for every document, each cut to its last `max_seq_len`
    ids; `table` holds the embedding row of each id. The forward passes
    take at most `SCORE_CHUNK` names each."""
    ids, lengths = _sequences(
        docs, max_seq_len, EmptySequenceError,
        "cannot run the LSTM on an empty token sequence (name {})")
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
    """A trained LSTM over a vocabulary of `n_features` tokens. It stores
    the pretrained vectors it was given (`vec_values[k]` for vocabulary index
    `vec_rows[k]`) and rebuilds its `embedding` table from them and
    `cfg.seed` with `embedding_table`. Its parameters and table are float64,
    and so are its scores, whatever dtype it was fitted in."""

    kind: ClassVar[str] = "lstm"
    params: LstmParams
    cfg: LstmTrainConfig
    n_features: int
    vec_rows: np.ndarray     # int64, (K,)
    vec_values: np.ndarray   # (K, D)
    train_meta: dict
    embedding: np.ndarray | None = field(default=None, repr=False, metadata={"stored": False})

    def __post_init__(self):
        if self.embedding is None:
            self.embedding = embedding_table(self.n_features, self.params.dim, self.cfg.seed,
                                             self.vec_rows, self.vec_values)

    def score(self, docs: TokenIds) -> np.ndarray:
        """P(label 1) for every document, each truncated to `cfg.max_seq_len`."""
        return predict_lstm(docs, self.embedding, self.params, self.cfg.max_seq_len)


def fit_lstm(
    docs: TokenIds,
    labels: Sequence[int],
    seed: int = 0,
    embedding_dim: int = 300,
    embedding_path=None,
    **options,
) -> LstmModel:
    """Train on documents over a vocabulary, its tokens `docs.tokens`;
    `options` are `LstmTrainConfig` fields.

    The embedding table holds the vectors that the file at `embedding_path`
    has for vocabulary tokens, and seeded draws for the other rows; `seed`
    also seeds parameter init and batch order.

    The fit runs in float32, and the model stores its parameters as float64,
    which holds every float32 value exactly. fastText stores its vectors as
    float32, and the fit's time is in BLAS products, which float32 runs
    about twice as fast. Only the float32 table is alive during the fit; the
    model rebuilds its float64 table for scoring.
    """
    if embedding_dim < 1:
        raise TrainingError("embedding_dim must be >= 1")
    cfg = LstmTrainConfig(seed=seed, **options)
    if embedding_path is None:
        vec_rows, vec_values = np.zeros(0, dtype=np.int64), np.zeros((0, embedding_dim))
    else:
        vec_rows, vec_values = load_embeddings(embedding_path, docs.tokens, embedding_dim)
    table = embedding_table(len(docs.tokens), embedding_dim, seed, vec_rows,
                            vec_values).astype(np.float32)
    result = train_lstm(docs, labels, table, cfg)
    del table
    return LstmModel(result.params.astype(np.float64), cfg, len(docs.tokens), vec_rows,
                     vec_values, {"epoch_losses": result.epoch_losses})
