"""Single-layer LSTM sequence classifier trained by backpropagation through time.

Token embeddings come from a pretrained ``.vec`` text file or a seeded random
table; they stay frozen during training. The final hidden state feeds a
sigmoid readout for the binary gender probability.

`LstmModel` is the `lstm` kind of the model registry in `classical`: it has a
`kind`, a `train_meta` (the per-epoch losses) and stored fields like every
classical model, and `score(docs)` gives P(label 1) for a batch of token
lists, where the classical kinds score the rows of a feature matrix.
`fit_lstm` is its fit function.
"""

from __future__ import annotations

import hashlib
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

OOV_HALF_RANGE = 0.05
INIT_HALF_RANGE = 0.1


def _oov_vector(token: str, seed: int, dim: int) -> np.ndarray:
    # Derived per (seed, token), so lookups are order-independent and a
    # reloaded table reproduces the exact same draws.
    digest = hashlib.sha256(f"{seed}\x00{token}".encode("utf-8")).digest()
    rng = np.random.default_rng(int.from_bytes(digest, "big"))
    return rng.uniform(-OOV_HALF_RANGE, OOV_HALF_RANGE, dim)


@dataclass(frozen=True)
class Prediction:
    label: int
    score: float


@dataclass
class EmbeddingTable:
    """Token -> vector lookup; unknown tokens get cached seeded-random draws."""

    dim: int
    vectors: dict[str, np.ndarray]
    oov_seed: int = 0
    source: dict = field(default_factory=dict)
    _oov_cache: dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    def lookup(self, token: str) -> np.ndarray:
        vec = self.vectors.get(token)
        if vec is not None:
            return vec
        vec = self._oov_cache.get(token)
        if vec is None:
            vec = _oov_vector(token, self.oov_seed, self.dim)
            self._oov_cache[token] = vec
        return vec


def random_embeddings(dim: int, seed: int = 0) -> EmbeddingTable:
    """A table with no fixed vectors: every token is a seeded OOV draw."""
    return EmbeddingTable(
        dim, {}, oov_seed=seed, source={"kind": "random", "dim": dim, "seed": seed}
    )


def load_embeddings(path, expected_dim: int, oov_seed: int = 0) -> EmbeddingTable:
    """Parse a text vector file: header "<count> <dim>", then token + floats."""
    try:
        fh = open(path, encoding="utf-8")
    except FileNotFoundError as exc:
        raise EmbeddingError(f"embedding file not found: {path}") from exc
    with fh:
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
    sha = hashlib.sha256(open(path, "rb").read()).hexdigest()
    source = {"kind": "vec_file", "path": str(path), "sha256": sha,
              "dim": dim, "oov_seed": oov_seed}
    return EmbeddingTable(dim, vectors, oov_seed=oov_seed, source=source)


def resolve_embeddings(source: dict) -> EmbeddingTable:
    """The table an `EmbeddingTable.source` describes; a referenced vector
    file must still hold the content it was trained with."""
    if source.get("kind") == "random":
        return random_embeddings(source["dim"], source["seed"])
    if source.get("kind") == "vec_file":
        path = source["path"]
        try:
            actual = hashlib.sha256(open(path, "rb").read()).hexdigest()
        except FileNotFoundError as exc:
            raise EmbeddingError(f"referenced embedding file missing: {path}") from exc
        if actual != source["sha256"]:
            raise EmbeddingError(f"embedding file content changed: {path}")
        return load_embeddings(path, source["dim"], oov_seed=source.get("oov_seed", 0))
    raise EmbeddingError(f"unknown embedding source {source.get('kind')!r}")


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

@dataclass
class LstmParams:
    w_i: np.ndarray; w_f: np.ndarray; w_o: np.ndarray; w_c: np.ndarray  # (H, D)
    u_i: np.ndarray; u_f: np.ndarray; u_o: np.ndarray; u_c: np.ndarray  # (H, H)
    b_i: np.ndarray; b_f: np.ndarray; b_o: np.ndarray; b_c: np.ndarray  # (H,)
    out_w: np.ndarray   # (H,)
    out_b: np.ndarray   # shape ()

    @property
    def hidden(self) -> int:
        return self.w_i.shape[0]

    @property
    def dim(self) -> int:
        return self.w_i.shape[1]

    def tensors(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in _TENSOR_NAMES}

    def copy(self) -> "LstmParams":
        return LstmParams(**{name: arr.copy() for name, arr in self.tensors().items()})


_TENSOR_NAMES = (
    "w_i", "w_f", "w_o", "w_c",
    "u_i", "u_f", "u_o", "u_c",
    "b_i", "b_f", "b_o", "b_c",
    "out_w", "out_b",
)


def init_lstm_params(dim: int, hidden: int, seed: int = 0) -> LstmParams:
    """Seeded uniform [-0.1, 0.1] init; forget-gate bias starts at 1.0."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return rng.uniform(-INIT_HALF_RANGE, INIT_HALF_RANGE, shape)

    params = LstmParams(
        w_i=draw(hidden, dim), w_f=draw(hidden, dim),
        w_o=draw(hidden, dim), w_c=draw(hidden, dim),
        u_i=draw(hidden, hidden), u_f=draw(hidden, hidden),
        u_o=draw(hidden, hidden), u_c=draw(hidden, hidden),
        b_i=draw(hidden), b_f=draw(hidden), b_o=draw(hidden), b_c=draw(hidden),
        out_w=draw(hidden), out_b=np.array(float(draw()), dtype=np.float64),
    )
    params.b_f[:] = 1.0
    return params


def zero_lstm_params(dim: int, hidden: int) -> LstmParams:
    z = lambda *shape: np.zeros(shape, dtype=np.float64)
    return LstmParams(
        w_i=z(hidden, dim), w_f=z(hidden, dim), w_o=z(hidden, dim), w_c=z(hidden, dim),
        u_i=z(hidden, hidden), u_f=z(hidden, hidden),
        u_o=z(hidden, hidden), u_c=z(hidden, hidden),
        b_i=z(hidden), b_f=z(hidden), b_o=z(hidden), b_c=z(hidden),
        out_w=z(hidden), out_b=np.zeros((), dtype=np.float64),
    )


@dataclass
class LstmTrainConfig:
    batch_size: int = 32
    epochs: int = 2
    learning_rate: float = 0.05
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


def truncate_tokens(tokens: Sequence[str], max_len: int) -> list[str]:
    """Keep the trailing tokens so the given name always survives truncation."""
    toks = list(tokens)
    return toks[-max_len:] if len(toks) > max_len else toks


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function, without overflow for large |z|."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _forward_group(x_steps: list[np.ndarray], p: LstmParams):
    """Run a group of same-length sequences; x_steps[t] has shape (D, B)."""
    hdim, batch = p.hidden, x_steps[0].shape[1]
    h = np.zeros((hdim, batch))
    c = np.zeros((hdim, batch))
    caches = []
    for x in x_steps:
        gi = sigmoid(p.w_i @ x + p.u_i @ h + p.b_i[:, None])
        gf = sigmoid(p.w_f @ x + p.u_f @ h + p.b_f[:, None])
        go = sigmoid(p.w_o @ x + p.u_o @ h + p.b_o[:, None])
        gc = np.tanh(p.w_c @ x + p.u_c @ h + p.b_c[:, None])
        c_new = gf * c + gi * gc
        tc = np.tanh(c_new)
        h_new = go * tc
        caches.append((x, h, c, gi, gf, go, gc, tc))
        h, c = h_new, c_new
    logits = p.out_w @ h + p.out_b
    return logits, h, caches


def _backward_group(p: LstmParams, caches, h_last: np.ndarray, dlogits: np.ndarray, grads):
    grads["out_w"] += h_last @ dlogits
    grads["out_b"] += dlogits.sum()
    dh = np.outer(p.out_w, dlogits)
    dc = np.zeros_like(dh)
    for x, h_prev, c_prev, gi, gf, go, gc, tc in reversed(caches):
        do = dh * tc
        dc = dc + dh * go * (1.0 - tc * tc)
        di = dc * gc
        dg = dc * gi
        df = dc * c_prev
        dc_prev = dc * gf
        dz_i = di * gi * (1.0 - gi)
        dz_f = df * gf * (1.0 - gf)
        dz_o = do * go * (1.0 - go)
        dz_c = dg * (1.0 - gc * gc)
        grads["w_i"] += dz_i @ x.T
        grads["w_f"] += dz_f @ x.T
        grads["w_o"] += dz_o @ x.T
        grads["w_c"] += dz_c @ x.T
        grads["u_i"] += dz_i @ h_prev.T
        grads["u_f"] += dz_f @ h_prev.T
        grads["u_o"] += dz_o @ h_prev.T
        grads["u_c"] += dz_c @ h_prev.T
        grads["b_i"] += dz_i.sum(axis=1)
        grads["b_f"] += dz_f.sum(axis=1)
        grads["b_o"] += dz_o.sum(axis=1)
        grads["b_c"] += dz_c.sum(axis=1)
        dh = p.u_i.T @ dz_i + p.u_f.T @ dz_f + p.u_o.T @ dz_o + p.u_c.T @ dz_c
        dc = dc_prev


def _group_by_length(sequences: Sequence[Sequence[str]]):
    groups: dict[int, list[int]] = {}
    for i, seq in enumerate(sequences):
        groups.setdefault(len(seq), []).append(i)
    return groups


def _embed_group(sequences, members, emb: EmbeddingTable) -> list[np.ndarray]:
    length = len(sequences[members[0]])
    return [
        np.stack([emb.lookup(sequences[i][t]) for i in members], axis=1)
        for t in range(length)
    ]


def lstm_forward(tokens: Sequence[str], emb: EmbeddingTable, params: LstmParams) -> float:
    """Probability of label 1 from the final hidden state."""
    if not tokens:
        raise EmptySequenceError("cannot run the LSTM on an empty token sequence")
    x_steps = [emb.lookup(tok).reshape(-1, 1) for tok in tokens]
    logits, _, _ = _forward_group(x_steps, params)
    return float(sigmoid(logits)[0])


def batch_loss(sequences, labels, emb: EmbeddingTable, params: LstmParams) -> float:
    """Mean binary cross-entropy over the batch (no truncation applied)."""
    loss, _ = batch_gradients(sequences, labels, emb, params, compute_grads=False)
    return loss


def batch_gradients(sequences, labels, emb, params, compute_grads: bool = True):
    """Mean BCE loss and its gradients w.r.t. every parameter tensor."""
    if not sequences:
        raise TrainingError("empty batch")
    for i, seq in enumerate(sequences):
        if not seq:
            raise EmptySequenceError(f"sequence {i} is empty")
    total = len(sequences)
    y = np.asarray(labels, dtype=np.float64)
    grads = (
        {name: np.zeros_like(arr) for name, arr in params.tensors().items()}
        if compute_grads else None
    )
    loss_sum = 0.0
    for members in _group_by_length(sequences).values():
        x_steps = _embed_group(sequences, members, emb)
        logits, h_last, caches = _forward_group(x_steps, params)
        y_grp = y[members]
        # BCE from logits: softplus(s) - y*s
        loss_sum += float((np.logaddexp(0.0, logits) - y_grp * logits).sum())
        if compute_grads:
            dlogits = (sigmoid(logits) - y_grp) / total
            _backward_group(params, caches, h_last, dlogits, grads)
    return loss_sum / total, grads


@dataclass
class LstmTrainResult:
    params: LstmParams
    epoch_losses: list[float]


def train_lstm(
    sequences: Sequence[Sequence[str]],
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
    if len(sequences) != len(labels):
        raise TrainingError("sequences and labels must have the same length")
    if not sequences:
        raise TrainingError("empty training set")
    ones = sum(labels)
    if ones == 0 or ones == len(labels):
        raise TrainingError("training set contains a single class")
    seqs = [truncate_tokens(s, cfg.max_seq_len) for s in sequences]
    for i, seq in enumerate(seqs):
        if not seq:
            raise TrainingError(f"sequence {i} is empty")

    init_seed, shuffle_seed = np.random.SeedSequence(cfg.seed).spawn(2)
    params = init.copy() if init is not None else init_lstm_params(
        emb.dim, cfg.hidden, init_seed
    )
    shuffle_rng = np.random.default_rng(shuffle_seed)
    n = len(seqs)
    epoch_losses: list[float] = []
    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(n)
        loss_sum = 0.0
        for batch_no, start in enumerate(range(0, n, cfg.batch_size), start=1):
            ids = order[start:start + cfg.batch_size]
            batch_seqs = [seqs[i] for i in ids]
            batch_labels = [labels[i] for i in ids]
            loss, grads = batch_gradients(batch_seqs, batch_labels, emb, params)
            if not np.isfinite(loss):
                raise DivergenceError(
                    f"LSTM training diverged at epoch {epoch}, batch {batch_no}"
                )
            for name, arr in params.tensors().items():
                arr -= cfg.learning_rate * grads[name]
            loss_sum += loss * len(ids)
        epoch_losses.append(loss_sum / n)
    return LstmTrainResult(params, epoch_losses)


def predict_lstm(
    tokens: Sequence[str],
    emb: EmbeddingTable,
    params: LstmParams,
    max_seq_len: int | None = None,
) -> Prediction:
    """Wraps lstm_forward; probability >= 0.5 maps to label 1."""
    toks = truncate_tokens(tokens, max_seq_len) if max_seq_len else list(tokens)
    prob = lstm_forward(toks, emb, params)
    return Prediction(1 if prob >= 0.5 else 0, prob)


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

    def score(self, docs: Sequence[Sequence[str]]) -> np.ndarray:
        """P(label 1) for every token list, each truncated to `cfg.max_seq_len`."""
        return np.array([
            predict_lstm(doc, self.embeddings, self.params, self.cfg.max_seq_len).score
            for doc in docs
        ], dtype=np.float64)


def fit_lstm(
    sequences: Sequence[Sequence[str]],
    labels: Sequence[int],
    seed: int = 0,
    embedding_dim: int = 300,
    embedding_path=None,
    **options,
) -> LstmModel:
    """Train on token lists; `options` are `LstmTrainConfig` fields.

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
    result = train_lstm(sequences, labels, emb, cfg)
    return LstmModel(result.params, cfg, emb.source, {"epoch_losses": result.epoch_losses}, emb)
