"""Independent brute-force oracles the test suite checks the implementations
against. These stay deliberately naive: probability-space products for naive
Bayes, exhaustive enumeration with exact rational scoring for tree splits,
central finite differences for gradients, a dense damped Newton method for the
linear models, a gate-by-gate LSTM forward and backward pass, frozen from
the LSTM's original per-gate layout, and the component ablation frozen from
its token-list path (each cell splits and segments again, and fits a
`Counter` vocabulary), the token encoder frozen from its set-based form, and
the name normalizer, segmentation, component selection, the CSV loader and
the dataset statistics frozen from their one-name-at-a-time forms. Also
`check_csr`, the invariant every `CsrMatrix` holds by construction, which
the suite checks on every matrix it builds (`conftest.checked_csr`)."""

import csv
import math
import unicodedata
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from vngender import classical, evaluation, featurize, names_core
from vngender.errors import DataError, EmptyNameError, EmptySequenceError, InvalidNameError


def multinomial_posterior(docs, labels, alpha, probe, n_features):
    """P(label 1 | probe) by direct smoothed relative-frequency products.

    docs/probe are dicts feature -> count.
    """
    joint = []
    n = len(docs)
    for c in (0, 1):
        members = [d for d, y in zip(docs, labels) if y == c]
        token_counts = [sum(d.get(f, 0) for d in members) for f in range(n_features)]
        total = sum(token_counts)
        prob = len(members) / n
        for f, tf in probe.items():
            theta = (token_counts[f] + alpha) / (total + alpha * n_features)
            prob *= theta ** tf
        joint.append(prob)
    if joint[0] + joint[1] == 0:
        return 0.5
    return joint[1] / (joint[0] + joint[1])


def bernoulli_posterior(docs, labels, alpha, probe, n_features):
    """P(label 1 | probe) with explicit presence and absence factors."""
    present = {f for f, tf in probe.items() if tf > 0}
    joint = []
    n = len(docs)
    for c in (0, 1):
        members = [d for d, y in zip(docs, labels) if y == c]
        prob = len(members) / n
        for f in range(n_features):
            df = sum(1 for d in members if d.get(f, 0) > 0)
            p = (df + alpha) / (len(members) + 2 * alpha)
            prob *= p if f in present else (1.0 - p)
        joint.append(prob)
    if joint[0] + joint[1] == 0:
        return 0.5
    return joint[1] / (joint[0] + joint[1])


def best_split(rows, labels, n_features, min_leaf=1):
    """Exhaustive minimum-weighted-Gini split with exact rational scoring.

    rows are dicts feature -> value. Returns (feature, threshold) or None when
    no candidate strictly improves on the parent. Ties resolve to the lowest
    feature index, then the lowest threshold.
    """
    n = len(rows)

    def purity(indices):
        n1 = sum(labels[i] for i in indices)
        n0 = len(indices) - n1
        return Fraction(n1 * n1 + n0 * n0, len(indices))

    best = None  # (score, feature, threshold)
    for f in range(n_features):
        values = sorted({row.get(f, 0.0) for row in rows})
        for lo, hi in zip(values, values[1:]):
            thr = (lo + hi) / 2.0
            left = [i for i in range(n) if rows[i].get(f, 0.0) < thr]
            right = [i for i in range(n) if rows[i].get(f, 0.0) >= thr]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            score = purity(left) + purity(right)
            if best is None or score > best[0]:
                best = (score, f, thr)
    if best is None:
        return None
    if best[0] <= purity(list(range(n))):
        return None
    return best[1], best[2]


def tensor_rel_error(a, b):
    """Norm-protected relative error between two gradient tensors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(
        float(np.abs(a).max()) if a.size else 0.0,
        float(np.abs(b).max()) if b.size else 0.0,
        1e-8,
    )
    return float(np.abs(a - b).max()) / scale


def fd_gradient(fn, arr, h):
    """Central finite differences of fn() w.r.t. every element of arr."""
    grad = np.zeros_like(arr, dtype=np.float64)
    for i in range(arr.size):
        orig = arr.flat[i]
        arr.flat[i] = orig + h
        up = fn()
        arr.flat[i] = orig - h
        down = fn()
        arr.flat[i] = orig
        grad.flat[i] = (up - down) / (2.0 * h)
    return grad


def vectorize(doc, tokens, doc_freq, n_docs, mode):
    """One document as a dict feature -> weight, token by token: raw counts,
    or smoothed TF-IDF tf * (ln((1+N)/(1+df)) + 1) scaled to unit L2 norm."""
    index_of = {tok: i for i, tok in enumerate(tokens)}
    counts = {}
    for tok in doc:
        if tok in index_of:
            counts[index_of[tok]] = counts.get(index_of[tok], 0) + 1
    if mode == "count":
        return {f: float(c) for f, c in counts.items()}
    weights = {f: c * (math.log((1.0 + n_docs) / (1.0 + doc_freq[f])) + 1.0)
               for f, c in counts.items()}
    norm = math.sqrt(sum(w * w for w in weights.values()))
    return {f: w / norm for f, w in weights.items()}


def tree_leaf(feature, threshold, left, right, root, row):
    """Leaf index reached from `root` by one row (dict feature -> value)."""
    node = root
    while feature[node] >= 0:
        go_right = row.get(int(feature[node]), 0.0) >= threshold[node]
        node = right[node] if go_right else left[node]
    return int(node)


def masked_sigmoid(z):
    """The logistic function, computed separately on the two signs of z."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def lstm_loss_and_grads(sequences, labels, w, u, b, out_w, out_b, scores=False):
    """Mean BCE of an LSTM classifier over sequences of input vectors, and
    its gradients, computed gate by gate: each group of equal-length
    sequences runs on its own, with four input and four recurrent products
    per step forward and eight backward. Parameters and gradients are in
    the stacked layout (gate rows in i, f, o, c order); gradients are
    returned by tensor name. With `scores`, a third value holds each
    sequence's P(label 1), in input order."""
    hdim = out_w.shape[0]
    gate = lambda arr, k: arr[k * hdim:(k + 1) * hdim]
    w_i, w_f, w_o, w_c = (gate(w, k) for k in range(4))
    u_i, u_f, u_o, u_c = (gate(u, k) for k in range(4))
    b_i, b_f, b_o, b_c = (gate(b, k) for k in range(4))
    gw = [np.zeros_like(w_i) for _ in range(4)]
    gu = [np.zeros_like(u_i) for _ in range(4)]
    gb = [np.zeros_like(b_i) for _ in range(4)]
    g_out_w, g_out_b = np.zeros_like(out_w), 0.0
    total = len(sequences)
    y = np.asarray(labels, dtype=np.float64)
    groups = {}
    for i, seq in enumerate(sequences):
        groups.setdefault(len(seq), []).append(i)
    loss_sum = 0.0
    probs = np.empty(total)
    for members in groups.values():
        x_steps = [np.stack([sequences[i][t] for i in members], axis=1)
                   for t in range(len(sequences[members[0]]))]
        h = np.zeros((hdim, len(members)))
        c = np.zeros((hdim, len(members)))
        caches = []
        for x in x_steps:
            gi = masked_sigmoid(w_i @ x + u_i @ h + b_i[:, None])
            gf = masked_sigmoid(w_f @ x + u_f @ h + b_f[:, None])
            go = masked_sigmoid(w_o @ x + u_o @ h + b_o[:, None])
            gc = np.tanh(w_c @ x + u_c @ h + b_c[:, None])
            c_new = gf * c + gi * gc
            tc = np.tanh(c_new)
            caches.append((x, h, c, gi, gf, go, gc, tc))
            h, c = go * tc, c_new
        logits = out_w @ h + out_b
        y_grp = y[members]
        loss_sum += float((np.logaddexp(0.0, logits) - y_grp * logits).sum())
        probs[members] = masked_sigmoid(logits)
        dlogits = (probs[members] - y_grp) / total
        g_out_w += h @ dlogits
        g_out_b += dlogits.sum()
        dh = np.outer(out_w, dlogits)
        dc = np.zeros_like(dh)
        for x, h_prev, c_prev, gi, gf, go, gc, tc in reversed(caches):
            do = dh * tc
            dc = dc + dh * go * (1.0 - tc * tc)
            dz = (dc * gc * gi * (1.0 - gi), dc * c_prev * gf * (1.0 - gf),
                  do * go * (1.0 - go), dc * gi * (1.0 - gc * gc))
            for k in range(4):
                gw[k] += dz[k] @ x.T
                gu[k] += dz[k] @ h_prev.T
                gb[k] += dz[k].sum(axis=1)
            dh = u_i.T @ dz[0] + u_f.T @ dz[1] + u_o.T @ dz[2] + u_c.T @ dz[3]
            dc = dc * gf
    grads = {"w": np.concatenate(gw), "u": np.concatenate(gu), "b": np.concatenate(gb),
             "out_w": g_out_w, "out_b": np.asarray(g_out_b)}
    return (loss_sum / total, grads, probs) if scores else (loss_sum / total, grads)


def dense_linear_objective(rows, labels, n_features, loss, strength):
    """f, gradient and Hessian of a linear model's objective over
    theta = (w, b), from a dense design matrix with a column of ones.

    rows are dicts feature -> value. "logistic": mean log-loss plus
    (strength/2) * ||w||^2, bias unregularized. "squared_hinge":
    (1/2) * ||theta||^2 + strength * sum of max(0, 1 - y z)^2, y in {-1, +1}.
    """
    x = np.zeros((len(rows), n_features + 1))
    for i, row in enumerate(rows):
        for f, v in row.items():
            x[i, f] = v
    x[:, n_features] = 1.0
    y = np.asarray(labels, dtype=np.float64)
    if loss == "logistic":
        reg = np.append(np.full(n_features, strength), 0.0)

        def value(theta):
            z = x @ theta
            return float(np.mean(np.logaddexp(0.0, z) - y * z)) + 0.5 * theta @ (reg * theta)

        def gradient(theta):
            return x.T @ (masked_sigmoid(x @ theta) - y) / len(y) + reg * theta

        def hessian(theta):
            p = masked_sigmoid(x @ theta)
            return (x.T * (p * (1.0 - p) / len(y))) @ x + np.diag(reg)
    else:
        y_pm = 2.0 * y - 1.0

        def value(theta):
            slack = np.maximum(0.0, 1.0 - y_pm * (x @ theta))
            return 0.5 * theta @ theta + strength * float(slack @ slack)

        def gradient(theta):
            slack = np.maximum(0.0, 1.0 - y_pm * (x @ theta))
            return theta - 2.0 * strength * x.T @ (y_pm * slack)

        def hessian(theta):
            active = x[y_pm * (x @ theta) < 1.0]
            return np.eye(n_features + 1) + 2.0 * strength * active.T @ active
    return value, gradient, hessian


def newton_minimize(value, gradient, hessian, size, max_iter=200):
    """Damped Newton from theta = 0: full Newton directions, halved until the
    Armijo condition holds; stops when no step lowers f any more."""
    theta = np.zeros(size)
    for _ in range(max_iter):
        g = gradient(theta)
        step = -np.linalg.solve(hessian(theta), g)
        f = value(theta)
        t = 1.0
        while t > 1e-20 and value(theta + t * step) > f + 1e-4 * t * float(g @ step):
            t /= 2.0
        if t <= 1e-20 or not np.any(theta + t * step != theta):
            break
        theta = theta + t * step
    return theta


def token_vocabulary(corpus, cfg):
    """Vocabulary of token lists from per-document `Counter` updates: with
    max_features set, the tokens of highest total count (ties to the smaller
    token) are kept; feature indices follow token order."""
    totals, df = Counter(), Counter()
    for doc in corpus:
        totals.update(doc)
        df.update(set(doc))
    if cfg.max_features is not None and len(totals) > cfg.max_features:
        kept = sorted(totals, key=lambda t: (-totals[t], t))[: cfg.max_features]
    else:
        kept = list(totals)
    tokens = tuple(sorted(kept))
    return featurize.Vocabulary(tokens, {tok: i for i, tok in enumerate(tokens)},
                                np.array([df[tok] for tok in tokens], dtype=np.int64),
                                len(corpus))


def set_encode(docs):
    """Token lists as `TokenIds` over the sorted set of their tokens, looked
    up in a dict built from that set."""
    tokens = tuple(sorted({tok for doc in docs for tok in doc}))
    id_of = {tok: i for i, tok in enumerate(tokens)}
    ids = np.array([id_of[tok] for doc in docs for tok in doc], dtype=np.int64)
    lengths = np.array([len(doc) for doc in docs], dtype=np.int64)
    rows = np.repeat(np.arange(len(docs), dtype=np.int64), lengths)
    return featurize.TokenIds(rows, ids, tokens, len(docs))


def token_ids(docs, vocab):
    """Token lists as `TokenIds` over the vocabulary, looked up token by
    token; an unseen token gets id len(vocab)."""
    rows = [r for r, doc in enumerate(docs) for _ in doc]
    ids = [vocab.index_of.get(tok, len(vocab)) for doc in docs for tok in doc]
    return featurize.TokenIds(np.array(rows, dtype=np.int64), np.array(ids, dtype=np.int64),
                              vocab.tokens, len(docs))


def token_transform(docs, vocab, cfg):
    """CSR rows of token lists, looked up token by token in the vocabulary."""
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
    return featurize.CsrMatrix(indptr, indices, data, v)


def check_csr(m):
    """Raise AssertionError unless `m` holds the `CsrMatrix` invariant:
    int64 `indptr` starting at 0 and never decreasing, int64 `indices` and
    float64 `data` of its last entry's size, and per row columns strictly
    increasing in [0, n_features) with non-zero values."""
    if not (m.indptr.dtype == m.indices.dtype == np.int64 and m.data.dtype == np.float64):
        raise AssertionError("CSR arrays must be int64, int64 and float64")
    sizes = np.diff(m.indptr)
    if m.indptr[:1].tolist() != [0] or (sizes < 0).any():
        raise AssertionError("indptr must start at 0 and not decrease")
    if not m.indptr[-1] == m.indices.size == m.data.size:
        raise AssertionError("indptr, indices and data sizes disagree")
    if ((m.indices < 0) | (m.indices >= m.n_features)).any():
        raise AssertionError(f"feature index out of range (n_features={m.n_features})")
    same_row = np.diff(np.repeat(np.arange(sizes.size), sizes)) == 0
    if (np.diff(m.indices)[same_row] <= 0).any():
        raise AssertionError("row columns must strictly increase")
    if (m.data == 0).any():
        raise AssertionError("stored zero")


def select_subset(subset, mask):
    """(token lists, labels, skipped count) of the records non-empty under
    mask, each normalized, segmented and selected on its own."""
    docs, labels, skipped = [], [], 0
    for rec in subset.records:
        comps = segment(normalize(rec.full_name))
        tokens = select_components(comps, mask)
        if not tokens:
            skipped += 1
            continue
        docs.append(tokens)
        labels.append(rec.gender)
    return docs, labels, skipped


def experiment(dataset, mask, model_spec, split_spec) -> dict:
    """One (mask, model) cell the token-list way, with its own split and
    segmentation. Returns the fields of `ExperimentResult` but the model and
    the vectorizer config."""
    vectorizer_cfg = model_spec.vectorizer
    train, dev, test = evaluation.stratified_split(dataset, split_spec)
    train_docs, train_labels, skip_train = select_subset(train, mask)
    _, _, skip_dev = select_subset(dev, mask)
    test_docs, test_labels, skip_test = select_subset(test, mask)
    spec = classical.kind_spec(model_spec.kind)
    if spec.reads_tokens:
        vocabulary = token_vocabulary(train_docs, featurize.VectorizerConfig())
        model = classical.train_classifier(model_spec.kind, token_ids(train_docs, vocabulary),
                                           train_labels, seed=model_spec.seed,
                                           **model_spec.options)
        x_test = token_ids(test_docs, vocabulary)
        label = model_spec.kind
    else:
        vocabulary = token_vocabulary(train_docs, vectorizer_cfg)
        matrix = token_transform(train_docs, vocabulary, vectorizer_cfg)
        model = classical.train_classifier(model_spec.kind, matrix, train_labels,
                                           seed=model_spec.seed, **model_spec.options)
        x_test = token_transform(test_docs, vocabulary, vectorizer_cfg)
        label = f"{model_spec.kind}+{vectorizer_cfg.mode}"
    preds = classical.predict(model, x_test)[0].tolist()
    cm = evaluation.confusion(test_labels, preds)
    return {
        "mask_label": mask.label,
        "model_label": label,
        "metrics": evaluation.macro_metrics(cm),
        "confusion": cm,
        "skipped": {"train": skip_train, "dev": skip_dev, "test": skip_test},
        "subset_sizes": {"train": len(train), "dev": len(dev), "test": len(test)},
        "vocabulary": vocabulary,
    }


def ablation_report(dataset, model_specs, split_spec):
    """The seven-mask ablation as one `experiment` per cell."""
    cells, skipped, model_labels = {}, {}, []
    for mask in names_core.ALL_MASKS:
        for spec in model_specs:
            cell = experiment(dataset, mask, spec, split_spec)
            cells[(mask.label, cell["model_label"])] = cell["metrics"]
            skipped[mask.label] = sum(cell["skipped"].values())
            if cell["model_label"] not in model_labels:
                model_labels.append(cell["model_label"])
    return evaluation.AblationReport([m.label for m in names_core.ALL_MASKS], model_labels,
                                     cells, skipped)


def normalize(raw):
    """Canonically compose, trim, collapse inner whitespace, and lowercase
    one name; a lone surrogate raises `InvalidNameError`, and a name left
    empty `EmptyNameError`."""
    try:
        raw.encode("utf-8")
    except UnicodeEncodeError:
        raise InvalidNameError("name is not valid Unicode text (lone surrogate)") from None
    text = unicodedata.normalize("NFC", raw)
    text = " ".join(text.split())
    if not text:
        raise EmptyNameError("name is empty after trimming")
    return text.lower()


@dataclass(frozen=True)
class NameComponents:
    """A normalized full name split into its positional components."""

    family: str | None
    middle: tuple[str, ...]
    given: str

    def tokens(self) -> list[str]:
        out = [self.family] if self.family else []
        out.extend(self.middle)
        out.append(self.given)
        return out


def segment(normalized):
    """Split a normalized name: first token family, last given, rest middle.

    Single-token names have only a given name; two-token names have no middle.
    """
    tokens = normalized.split()
    if not tokens:
        raise EmptyNameError("cannot segment an empty name")
    if len(tokens) == 1:
        return NameComponents(None, (), tokens[0])
    return NameComponents(tokens[0], tuple(tokens[1:-1]), tokens[-1])


def select_components(components, mask):
    """Tokens of the selected components, in original order; may be empty."""
    out = []
    if mask.use_family and components.family:
        out.append(components.family)
    if mask.use_middle:
        out.extend(components.middle)
    if mask.use_given:
        out.append(components.given)
    return out


def name_components(raw, mask):
    """The `components` of the response a bundle under `mask` gives one raw
    name, or the error it raises: `normalize`'s, or `EmptySequenceError`
    when the mask selects none of its tokens."""
    comps = segment(normalize(raw))
    if not select_components(comps, mask):
        raise EmptySequenceError(f"mask {mask.label!r} selects no tokens of {raw!r}")
    return {"family": comps.family, "middle": list(comps.middle), "given": comps.given}


LABELS = {"0": 0, "1": 1}


def load_dataset(path):
    """(names, labels, rejects) of a `full_name,gender` CSV, streamed through
    a text-mode file object one row at a time."""
    names, labels, rejects = [], [], []
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if not row:
                    continue
                if len(row) != 2:
                    rejects.append(f"row {lineno}: expected 2 fields, got {len(row)}")
                    continue
                label = LABELS.get(row[1].strip())
                if label is None:
                    if lineno > 1:
                        rejects.append(f"row {lineno}: label not in {{0,1}}: {row[1]!r}")
                    continue
                name = row[0].strip()
                if not name:
                    rejects.append(f"row {lineno}: empty full name")
                    continue
                names.append(name)
                labels.append(label)
    except FileNotFoundError as exc:
        raise DataError(f"dataset file not found: {path}") from exc
    if not names:
        raise DataError(f"{path}: dataset contains no valid rows")
    return names, labels, rejects


def dataset_stats(dataset, top_k):
    """The `DatasetStats` of a dataset, one record at a time through
    `normalize` and `segment`."""
    family = {0: Counter(), 1: Counter()}
    middle = {0: Counter(), 1: Counter()}
    given = {0: Counter(), 1: Counter()}
    seen = set()
    for rec in dataset.records:
        comps = segment(normalize(rec.full_name))
        seen.add(" ".join(comps.tokens()))
        if comps.family:
            family[rec.gender][comps.family] += 1
        for tok in set(comps.middle):
            middle[rec.gender][tok] += 1
        given[rec.gender][comps.given] += 1

    def top(counter):
        return sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]

    total = len(dataset.records)
    males = sum(rec.gender for rec in dataset.records)
    return {
        "total": total,
        "male_fraction": males / total,
        "female_fraction": (total - males) / total,
        "distinct_full_names": len(seen),
        "top_family_names": {g: top(family[g]) for g in (0, 1)},
        "top_middle_tokens": {g: top(middle[g]) for g in (0, 1)},
        "top_given_names": {g: top(given[g]) for g in (0, 1)},
    }
