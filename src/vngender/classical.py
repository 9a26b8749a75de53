"""The model kind registry, and six classical classifiers behind one fit /
batch-score contract.

Multinomial and Bernoulli naive Bayes, logistic regression and a
squared-hinge linear SVM (two losses on one trust-region Newton solver), a
Gini decision tree, and a bagging random forest. Training code is all
local; numpy is used for array arithmetic only.

One fit contract: every kind fits as `fit(x, labels, **options)`, through
`train_classifier(kind, x, labels, ...)`. The labels ride beside `x`, not
inside it, and each fit checks them once with `featurize.check_labels`.
Every kind reads its documents through a vocabulary fitted on its training
tokens, and its `x` comes from one step, `model_input(kind, docs,
vocabulary, vectorizer_cfg)`: the documents' vocabulary ids for a kind that
reads tokens, their `CsrMatrix` otherwise. Fitting, scoring a test split and
scoring a bundle's names all take that step, and every kind scores through
`predict`.

`score(x)` gives one score per row of a `CsrMatrix`: P(label 1), the SVM
margin, or the forest's share of label-1 votes. Row sums use
`CsrMatrix.row_sums`, so a row scores bit-identically alone and in any
batch. `predict` labels a score 1 from the kind's threshold up (ties to 1).
`MODEL_KINDS` registers all seven kinds, these six and the LSTM of `lstm`:
each kind's model class, fit function, seed use, threshold, `vngender train`
flags, and `reads_tokens`, set for a kind that skips the vectorizer. Every
model has `n_features`, the size of the vocabulary it reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar

import numpy as np

from . import featurize
from .errors import DivergenceError, PredictionError, TrainingError
from .featurize import CsrMatrix, TokenIds, VectorizerConfig, Vocabulary, check_labels
from .lstm import LstmModel, fit_lstm, sigmoid


def _check_strength(name: str, value: float) -> None:
    """A smoothing or regularization strength must be finite and >= 0."""
    if not (math.isfinite(value) and value >= 0):
        raise TrainingError(f"{name} must be finite and >= 0, got {value}")


def _posterior(j0: np.ndarray, j1: np.ndarray) -> np.ndarray:
    """P(label 1) from per-class joint log scores; -inf for both -> 0.5."""
    m = np.maximum(j0, j1)
    both_inf = np.isneginf(m)
    m[both_inf] = 0.0
    e0 = np.exp(j0 - m)
    e1 = np.exp(j1 - m)
    with np.errstate(invalid="ignore"):
        p = e1 / (e0 + e1)
    p[both_inf] = 0.5
    return p


# ---------------------------------------------------------------------------
# Naive Bayes
# ---------------------------------------------------------------------------

@dataclass
class MultinomialNbModel:
    kind: ClassVar[str] = "multinomial_nb"
    class_log_prior: np.ndarray   # (2,)
    feature_log_prob: np.ndarray  # (2, V)
    n_features: int
    train_meta: dict

    def score(self, x: CsrMatrix) -> np.ndarray:
        j0, j1 = (
            self.class_log_prior[c] + x.row_sums(self.feature_log_prob[c, x.indices] * x.data)
            for c in (0, 1)
        )
        return _posterior(j0, j1)


@dataclass
class BernoulliNbModel:
    kind: ClassVar[str] = "bernoulli_nb"
    class_log_prior: np.ndarray  # (2,)
    log_presence: np.ndarray     # (2, V)
    log_absence: np.ndarray      # (2, V)
    n_features: int
    train_meta: dict

    def score(self, x: CsrMatrix) -> np.ndarray:
        """prior + sum(log_absence) + sum over present features of
        (log_presence - log_absence), in O(nnz) per row. A -inf factor
        (alpha = 0) is counted apart, since -inf - -inf is NaN."""
        joints = []
        for c in (0, 1):
            p_inf = np.isneginf(self.log_presence[c])
            q_inf = np.isneginf(self.log_absence[c])
            log_p = np.where(p_inf, 0.0, self.log_presence[c])
            log_q = np.where(q_inf, 0.0, self.log_absence[c])
            cols = x.indices
            j = self.class_log_prior[c] + log_q.sum() + x.row_sums(log_p[cols] - log_q[cols])
            n_inf = x.row_sums(p_inf[cols]) + q_inf.sum() - x.row_sums(q_inf[cols])
            j[n_inf > 0] = -np.inf
            joints.append(j)
        return _posterior(*joints)


def _nb_counts(x: CsrMatrix, labels, alpha: float, entry_values) -> tuple:
    """Validates the fit; returns class log-priors, per-class sums of the
    entries' values for every feature (2, V) and rows per class."""
    _check_strength("alpha", alpha)
    y = check_labels(len(x), labels)
    n_per_class = np.bincount(y, minlength=2).astype(np.float64)
    priors = np.log(n_per_class) - math.log(len(x))
    entry_class = y[x.row_ids]
    sums = np.zeros((2, x.n_features), dtype=np.float64)
    for c in (0, 1):
        mask = entry_class == c
        weights = None if entry_values is None else entry_values[mask]
        sums[c] = np.bincount(x.indices[mask], weights=weights, minlength=x.n_features)
    return priors, sums, n_per_class


def fit_multinomial_nb(x: CsrMatrix, labels, alpha: float = 1.0) -> MultinomialNbModel:
    """Class log-priors from label frequencies, token log-probabilities with
    additive smoothing `alpha` over the full feature set."""
    priors, counts, _ = _nb_counts(x, labels, alpha, x.data)
    with np.errstate(divide="ignore"):
        log_prob = np.log(counts + alpha) - np.log(
            counts.sum(axis=1, keepdims=True) + alpha * x.n_features
        )
    meta = {"alpha": alpha, "n_train": len(x)}
    return MultinomialNbModel(priors, log_prob, x.n_features, meta)


def fit_bernoulli_nb(x: CsrMatrix, labels, alpha: float = 1.0) -> BernoulliNbModel:
    """As multinomial, but on feature presence, with explicit absence factors."""
    priors, doc_counts, n_per_class = _nb_counts(x, labels, alpha, None)
    p = (doc_counts + alpha) / (n_per_class[:, None] + 2.0 * alpha)
    with np.errstate(divide="ignore"):
        log_p = np.log(p)
        log_q = np.log(1.0 - p)
    meta = {"alpha": alpha, "n_train": len(x)}
    return BernoulliNbModel(priors, log_p, log_q, x.n_features, meta)


# ---------------------------------------------------------------------------
# Linear models: two losses on one trust-region Newton solver
# ---------------------------------------------------------------------------

@dataclass
class _LinearModel:
    weights: np.ndarray
    bias: float
    n_features: int
    train_meta: dict

    def score(self, x: CsrMatrix) -> np.ndarray:
        return x.dot_weights(self.weights, self.bias)


@dataclass
class LogisticRegressionModel(_LinearModel):
    kind: ClassVar[str] = "logistic_regression"

    def score(self, x: CsrMatrix) -> np.ndarray:
        return sigmoid(super().score(x))


@dataclass
class LinearSvmModel(_LinearModel):
    kind: ClassVar[str] = "linear_svm"


def _group_ids(*keys: np.ndarray) -> np.ndarray:
    """Dense ids of the distinct key tuples, one per position."""
    order = np.lexsort(keys)
    starts = np.zeros(order.size, dtype=bool)
    starts[:1] = True
    for key in keys:
        ranked = key[order]
        starts[1:] |= ranked[1:] != ranked[:-1]
    ids = np.empty(order.size, dtype=np.int64)
    ids[order] = np.cumsum(starts) - 1
    return ids


def _distinct_rows(x: CsrMatrix, labels) -> tuple[CsrMatrix, np.ndarray, np.ndarray]:
    """The distinct (row, label) pairs of `x`, in order of first occurrence:
    their rows, their labels and how many rows of `x` each stands for.

    Two rows are equal when they store the same columns with the same
    values. Rows start grouped by label and length; pass k splits the groups
    of rows longer than k by their k-th stored (column, value), so no padded
    copy of the matrix is built.
    """
    y = np.asarray(labels)
    sizes = np.diff(x.indptr)
    bits = x.data.view(np.int64)  # no stored zeros, so equal values have equal bits
    group = _group_ids(sizes, y)
    next_id = int(group.max(initial=-1)) + 1
    for k in range(int(sizes.max(initial=0))):
        live = np.flatnonzero(sizes > k)
        at = x.indptr[live] + k
        refined = _group_ids(bits[at], x.indices[at], group[live])
        group[live] = next_id + refined
        next_id += int(refined.max()) + 1
    _, first, counts = np.unique(group, return_index=True, return_counts=True)
    # Each array is freed once used: building the matrix sets the fit's peak memory.
    del group, bits
    order = np.argsort(first)
    keep, counts = first[order], counts[order]
    del first, order
    sizes = sizes[keep]
    entries = featurize.entry_positions(x.indptr[keep], sizes)
    indices, data = x.indices[entries], x.data[entries]
    del entries
    indptr = np.zeros(keep.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    return CsrMatrix(indptr, indices, data, x.n_features), y[keep], counts


@dataclass
class LinearObjective:
    """f(theta) = sum_i m_i loss(z_i, y_i) + (1/2) sum_j reg_j theta_j^2
    over theta = (w, b), with margins z = X w + b, summed over the distinct
    (row, label) pairs of the training rows: row i of `x` stands for its
    multiplicity of training rows, and its weight m_i is that multiplicity
    times the loss's scale. `loss(z, y)` gives each row's loss and its first
    and second derivatives in z_i."""

    x: CsrMatrix          # the distinct rows
    y: np.ndarray         # their labels
    weights: np.ndarray   # m_i, one per distinct row
    reg: np.ndarray       # (n_features + 1,)
    loss: Callable

    def at(self, theta: np.ndarray) -> tuple[float, np.ndarray, Callable]:
        """f(theta), its gradient, and v -> H(theta) v; a non-finite f raises."""
        loss, d1, d2 = self.loss(self._margins(theta), self.y)
        f = float(self.weights @ loss) + 0.5 * float(theta @ (self.reg * theta))
        if not math.isfinite(f):
            raise DivergenceError("the linear fit's objective is not finite")
        gradient = self.reg * theta + self._transpose_dot(self.weights * d1)
        curvature = self.weights * d2
        return f, gradient, lambda v: self.reg * v + self._transpose_dot(curvature * self._margins(v))

    def preconditioner(self) -> np.ndarray:
        """M, the diagonal of the Hessian at theta = 0, where every margin is
        0: reg_j + sum_i m_i d2_i(0) x_ij^2, and sum_i m_i d2_i(0) for the
        bias. An entry that is not > 0 (a column no row stores, with no
        regularization) is 1."""
        x = self.x
        curvature = self.weights * self.loss(np.zeros(len(self.y)), self.y)[2]
        columns = np.bincount(x.indices, weights=x.data * x.data * curvature[x.row_ids],
                              minlength=x.n_features)
        m = self.reg + np.append(columns, curvature.sum())
        m[~(m > 0)] = 1.0
        return m

    def _margins(self, theta: np.ndarray) -> np.ndarray:
        return self.x.dot_weights(theta[:-1], theta[-1])

    def _transpose_dot(self, u: np.ndarray) -> np.ndarray:
        x = self.x
        gw = np.bincount(x.indices, weights=x.data * u[x.row_ids], minlength=x.n_features)
        return np.append(gw, u.sum())


def _linear_objective(x: CsrMatrix, labels, scale: float, reg: np.ndarray,
                      loss: Callable) -> LinearObjective:
    """The objective of `loss` times `scale` over the distinct rows of `x`."""
    rows, y, counts = _distinct_rows(x, labels)
    return LinearObjective(rows, y.astype(np.float64), scale * counts, reg, loss)


def _log_loss(z: np.ndarray, y: np.ndarray):
    p = sigmoid(z)
    return np.logaddexp(0.0, z) - y * z, p - y, p * (1.0 - p)


def _squared_hinge(z: np.ndarray, y: np.ndarray):
    sign = 2.0 * y - 1.0
    slack = np.maximum(0.0, 1.0 - sign * z)
    return slack * slack, -2.0 * sign * slack, 2.0 * (slack > 0)


def logistic_objective(x: CsrMatrix, labels, l2: float) -> LinearObjective:
    """Mean log-loss over the n rows of `x` plus (l2/2) * ||w||^2 (bias
    unregularized)."""
    reg = np.append(np.full(x.n_features, l2), 0.0)
    return _linear_objective(x, labels, 1.0 / len(x), reg, _log_loss)


def squared_hinge_objective(x: CsrMatrix, labels, c: float) -> LinearObjective:
    """(1/2)(||w||^2 + b^2) + c * sum_i max(0, 1 - y_i z_i)^2, y in {-1, +1}."""
    return _linear_objective(x, labels, c, np.ones(x.n_features + 1), _squared_hinge)


def _m_norm(v: np.ndarray, m: np.ndarray) -> float:
    """||v||_M = sqrt(v' M v) for a diagonal M."""
    return math.sqrt(float(v @ (m * v)))


def _truncated_cg(hessian_dot: Callable, g: np.ndarray, delta: float, m: np.ndarray):
    """Conjugate gradient on H s = -g, preconditioned with the diagonal M
    (z = r / M), until z'r <= 0.01 z_0'r_0 (the 0.1 relative residual in the
    M^-1-norm), or up to the boundary ||s||_M = delta. Returns s, its
    residual -g - H s and the number of Hessian-vector products."""
    s, r = np.zeros_like(g), -g
    d = z = r / m
    zr = zr0 = float(z @ r)
    steps = 0
    while zr > 0.01 * zr0:  # also ends at the boundary: Steihaug's ||s||_M only grows
        hd = hessian_dot(d)
        steps += 1
        dhd = float(d @ hd)
        step = zr / dhd if dhd > 0 else math.inf
        if step == math.inf or _m_norm(s + step * d, m) > delta:
            md = m * d
            sd, ss, dd = float(s @ md), float(s @ (m * s)), float(d @ md)
            rad = math.sqrt(sd * sd + dd * (delta * delta - ss))
            step = (delta * delta - ss) / (sd + rad) if sd >= 0 else (rad - sd) / dd
            return s + step * d, r - step * hd, steps
        s, r, zr_old = s + step * d, r - step * hd, zr
        z = r / m
        zr = float(z @ r)
        d = z + (zr / zr_old) * d
    return s, r, steps


TRON_MAX_ITER = 1000
TRON_TOL = 1e-4


def tron(objective: LinearObjective, max_iter: int, tol: float) -> tuple[np.ndarray, float, dict]:
    """Trust-region Newton-CG from theta = 0 with the rules of LIBLINEAR's
    primal solver (Lin, Weng & Keerthi, JMLR 2008), run on the objective's
    distinct rows, each weighted by its multiplicity (LIBLINEAR's instance
    weights).

    The CG is preconditioned with M, the Hessian's diagonal at theta = 0
    (`LinearObjective.preconditioner`), and the trust region is measured in
    the M-norm ||s||_M = sqrt(s' M s), starting at radius ||g_0||_{M^-1}
    (Hsia, Chiang & Lin, "Preconditioned Conjugate Gradient Methods in
    Truncated Newton Frameworks for Large-scale Linear Classification", ACML
    2018). That is the unpreconditioned solve on the rescaled variable
    M^(1/2) theta. M is computed once: a diagonal that follows theta would
    change what the carried radius measures from one iteration to the next.

    Converged once ||g|| <= tol * ||g_0|| (Euclidean). Returns (weights,
    bias, the convergence record the fits store in `train_meta`); its `stop`
    says why the solve ended: "gradient" (converged), "no_progress" (a step
    changed f by no more than rounding) or "max_iter" (`max_iter`
    iterations, rejected steps included), `gradient_ratio` is the final
    ||g|| / ||g_0|| and `cg_steps` counts the Hessian-vector products."""
    theta = np.zeros(objective.reg.size)
    f, g, hessian_dot = objective.at(theta)
    m = objective.preconditioner()
    g0_norm = float(np.linalg.norm(g))
    delta = _m_norm(g, 1.0 / m)
    converged, stalled, n_iter, cg_steps = g0_norm == 0.0, False, 0, 0
    while not (converged or stalled) and n_iter < max_iter:
        n_iter += 1
        s, r, steps = _truncated_cg(hessian_dot, g, delta, m)
        cg_steps += steps
        f_new, g_new, hessian_dot_new = objective.at(theta + s)
        gs, s_norm = float(g @ s), _m_norm(s, m)
        predicted, actual = -0.5 * (gs - float(s @ r)), f - f_new
        if n_iter == 1:
            delta = min(delta, s_norm)
        bend = f_new - f - gs
        alpha = 4.0 if bend <= 0 else max(0.25, -0.5 * gs / bend)
        if actual < 1e-4 * predicted:
            delta = min(max(alpha, 0.25) * s_norm, 0.5 * delta)
        else:
            cap = 0.5 if actual < 0.25 * predicted else 4.0
            floor = 1.0 if actual >= 0.75 * predicted else 0.25
            delta = max(floor * delta, min(alpha * s_norm, cap * delta))
        if actual > 1e-4 * predicted:
            theta, f, g, hessian_dot = theta + s, f_new, g_new, hessian_dot_new
            converged = float(np.linalg.norm(g)) <= tol * g0_norm
        stalled = ((predicted <= 0 and actual <= 0)
                   or max(abs(actual), abs(predicted)) <= 1e-12 * abs(f))
    stop = "gradient" if converged else "no_progress" if stalled else "max_iter"
    record = {"max_iter": max_iter, "tol": tol, "converged": converged, "stop": stop,
              "n_iter": n_iter, "cg_steps": cg_steps, "objective": f,
              "gradient_ratio": float(np.linalg.norm(g)) / g0_norm if g0_norm else 0.0}
    return theta[:-1], float(theta[-1]), record


def fit_logistic_regression(x: CsrMatrix, labels, l2: float = 1e-4) -> LogisticRegressionModel:
    _check_strength("l2", l2)
    y = check_labels(len(x), labels)
    w, b, record = tron(logistic_objective(x, y, l2), TRON_MAX_ITER, TRON_TOL)
    return LogisticRegressionModel(w, b, x.n_features, {"l2": l2, **record})


def fit_linear_svm(x: CsrMatrix, labels, c: float = 1.0) -> LinearSvmModel:
    _check_strength("c", c)
    y = check_labels(len(x), labels)
    w, b, record = tron(squared_hinge_objective(x, y, c), TRON_MAX_ITER, TRON_TOL)
    return LinearSvmModel(w, b, x.n_features, {"c": c, **record})


# ---------------------------------------------------------------------------
# Decision tree and random forest
# ---------------------------------------------------------------------------

_NODE_ARRAYS = ("feature", "threshold", "left", "right", "p1", "n")
# Rows per pass of `_TreeEnsemble.leaves`; bounds the memory one call uses.
TREE_CHUNK = 256


@dataclass(frozen=True)
class _FeatureIndex:
    """The inner nodes of a tree ensemble, indexed by feature.

    Inner node k (the k-th inner node in node order) lies in tree `tree[k]`,
    and its left subtree holds the leaves of rank `lo[k]` to `hi[k] - 1`.
    `order` lists the inner nodes by (feature, threshold), and `keys[j]` is
    feature * (D + 1) + the rank of the threshold of node `order[j]` among
    the D `distinct` thresholds (NaN last). So the nodes of feature f whose
    threshold is <= v are those at positions `searchsorted(keys, f * (D + 1))`
    up to `searchsorted(keys, f * (D + 1) + searchsorted(distinct, v,
    "right"))`. `zero_side` lists the inner nodes with threshold <= 0, which
    send right a row that does not store their feature, and `zero_feature`
    their features. Leaves are ranked in node order.
    """

    keys: np.ndarray          # int64, ascending
    order: np.ndarray         # int64
    distinct: np.ndarray      # float64, ascending
    lo: np.ndarray            # int64, per inner node
    hi: np.ndarray            # int64, per inner node
    tree: np.ndarray          # int64, per inner node
    zero_side: np.ndarray     # int64
    zero_feature: np.ndarray  # int64
    first_leaf: np.ndarray    # int64, the rank of each tree's leftmost leaf
    leaf_node: np.ndarray     # int64, the node of each leaf rank


@dataclass
class _TreeEnsemble:
    """Trees as flat node arrays; tree t is nodes `roots[t]` to
    `roots[t + 1] - 1` (the last tree runs to the end).

    Node i sends a row whose value of feature `feature[i]` is >= `threshold[i]`
    to node `right[i]`, any other row to `left[i]`; a feature the row does not
    store reads 0. Leaves have feature -1 and children -1. `p1` is the share
    of label-1 training rows at the node and `n` their count.

    Each tree is stored in pre-order, left child first, as `_grow_tree`
    builds it: `left[i] == i + 1`, and `right[i]` is the node after the left
    subtree. Loading checks that layout and raises `PredictionError` for any
    other, such as a node with two parents or one no root reaches. So the
    left subtree of node i is nodes `left[i]` to `right[i] - 1`, and its
    leaves are a run of consecutive leaf ranks, numbering leaves in node
    order. From that, `__post_init__` builds a `_FeatureIndex`.
    """

    feature: np.ndarray    # int64
    threshold: np.ndarray  # float64
    left: np.ndarray       # int64
    right: np.ndarray      # int64
    p1: np.ndarray         # float64
    n: np.ndarray          # int64
    roots: np.ndarray      # int64
    n_features: int
    train_meta: dict
    index: _FeatureIndex = field(init=False, repr=False, compare=False,
                                 metadata={"stored": False})

    def __post_init__(self):
        size, roots = self.feature.size, self.roots
        if (any(getattr(self, name).shape != (size,) for name in _NODE_ARRAYS)
                or roots.ndim != 1 or roots.size == 0 or roots[0] != 0
                or np.any(np.diff(roots) <= 0) or roots[-1] >= size
                or np.any(self.feature >= self.n_features)):
            raise PredictionError("malformed tree node arrays")
        inner = self.feature >= 0
        # Read in pre-order, every node fills one open slot and an inner node
        # opens two; `opened[i]` counts the slots opened before node i, less
        # those filled. A tree's nodes keep a slot open until its last node.
        opened = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(np.where(inner, 1, -1), out=opened[1:])
        ends = np.append(roots[1:], size)
        tree = np.repeat(np.arange(roots.size), ends - roots)
        # The right child of an inner node is the next node that finds as
        # many slots open; no node between them finds fewer.
        by_level = np.argsort(opened[:-1], kind="stable")
        next_same = np.full(size, -1, dtype=np.int64)
        same = opened[by_level[1:]] == opened[by_level[:-1]]
        next_same[by_level[:-1][same]] = by_level[1:][same]
        if (np.any(opened[:-1] < opened[roots][tree])
                or np.any(opened[ends] != opened[roots] - 1)
                or not np.array_equal(self.left, np.where(inner, np.arange(1, size + 1), -1))
                or not np.array_equal(self.right, np.where(inner, next_same, -1))):
            raise PredictionError("tree nodes are not stored in pre-order, left child first")

        leaves_before = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(~inner, out=leaves_before[1:])
        at = np.flatnonzero(inner)
        features, thresholds = self.feature[at], self.threshold[at]
        # Not np.unique: its first call imports numpy.ma, which would add about
        # 25 ms to loading a bundle in a fresh process.
        distinct = np.sort(thresholds)
        kept = np.ones(distinct.size, dtype=bool)
        kept[1:] = distinct[1:] != distinct[:-1]
        distinct = distinct[kept]
        keys = features * (distinct.size + 1) + np.searchsorted(distinct, thresholds)
        order = np.argsort(keys, kind="stable")
        zero_side = np.flatnonzero(thresholds <= 0)
        self.index = _FeatureIndex(
            keys=keys[order], order=order, distinct=distinct,
            lo=leaves_before[at], hi=leaves_before[self.right[at]], tree=tree[at],
            zero_side=zero_side, zero_feature=features[zero_side],
            first_leaf=leaves_before[roots], leaf_node=np.flatnonzero(~inner))

    def leaves(self, x: CsrMatrix) -> np.ndarray:
        """Leaf reached by every row in every tree, shape (rows, trees), for
        a matrix no wider than the model's.

        Scores by feature, as QuickScorer does (Lucchese et al., SIGIR
        2015). A node that sends a row right rules out the leaves of its
        left subtree, and the row's exit leaf in a tree is the leftmost leaf
        that none of the tree's such nodes rules out. The work is in the
        nodes that test the rows' stored features, not in the trees' depth.
        At most `TREE_CHUNK` rows are scored per pass.
        """
        return self._by_chunk(x, lambda leaves: leaves, (self.roots.size,), np.int64)

    def score(self, x: CsrMatrix) -> np.ndarray:
        """Each row's score from its leaves (`_leaf_scores`), `TREE_CHUNK`
        rows at a time, so no (rows, trees) array of the whole batch is made."""
        return self._by_chunk(x, self._leaf_scores, (), np.float64)

    def _by_chunk(self, x: CsrMatrix, fn: Callable, shape: tuple, dtype) -> np.ndarray:
        """`fn` of the leaves of each chunk of rows, into one array."""
        out = np.empty((len(x), *shape), dtype=dtype)
        for start in range(0, len(x), TREE_CHUNK):
            stop = min(start + TREE_CHUNK, len(x))
            out[start:stop] = fn(self._exit_leaves(x, start, stop))
        return out

    def _exit_leaves(self, x: CsrMatrix, start: int, stop: int) -> np.ndarray:
        """`leaves` of rows `start` to `stop - 1` of `x`."""
        index, n_trees = self.index, self.roots.size
        a, b = x.indptr[start], x.indptr[stop]
        features, values = x.indices[a:b], x.data[a:b]
        rows = x.row_ids[a:b] - start
        # The nodes each stored entry sends right: its feature's nodes with
        # threshold <= value.
        keys = index.keys
        base = features * (index.distinct.size + 1)
        first = keys.searchsorted(base)
        counts = keys.searchsorted(base + index.distinct.searchsorted(values, side="right"))
        counts -= first
        right = index.order[featurize.entry_positions(first, counts)]
        owner = rows.repeat(counts)
        if index.zero_side.size:
            # A node with threshold <= 0 sends right every row that does not
            # store its feature.
            n_rows, width = stop - start, self.n_features
            zero_owner = np.repeat(np.arange(n_rows), index.zero_side.size)
            query = zero_owner * width + np.tile(index.zero_feature, n_rows)
            stored = np.append(rows * width + features, -1)
            absent = stored[np.searchsorted(stored[:-1], query)] != query
            right = np.concatenate([right, np.tile(index.zero_side, n_rows)[absent]])
            owner = np.concatenate([owner, zero_owner[absent]])

        exits = np.empty((stop - start, n_trees), dtype=np.int64)
        exits[:] = index.leaf_node[index.first_leaf]
        if right.size:
            # Sort by (row, node): by (row, tree, lo). Sweep each (row, tree)
            # group's intervals [lo, hi) left to right; `reach` is the end of
            # the run of leaves the intervals before cover from the tree's
            # first leaf. The first interval that starts past its reach leaves
            # a gap there; with none, the exit is past the last interval.
            n_inner = index.lo.size
            owner, right = np.divmod(np.sort(owner * n_inner + right), n_inner)
            tree = index.tree[right]
            group = owner * n_trees + tree
            offset = group * (index.leaf_node.size + 1)
            covered = np.maximum.accumulate(offset + index.hi[right]) - offset
            new_group = np.empty(group.size, dtype=bool)
            new_group[0] = True
            np.not_equal(group[1:], group[:-1], out=new_group[1:])
            starts = np.flatnonzero(new_group)
            reach = np.empty_like(covered)
            reach[1:] = covered[:-1]
            reach[starts] = index.first_leaf[tree[starts]]
            gap = np.where(index.lo[right] > reach, reach, index.leaf_node.size)
            exit_rank = np.minimum(np.minimum.reduceat(gap, starts),
                                   np.maximum.reduceat(covered, starts))
            exits.reshape(-1)[group[starts]] = index.leaf_node[exit_rank]
        return exits


@dataclass
class DecisionTreeModel(_TreeEnsemble):
    kind: ClassVar[str] = "decision_tree"

    def _leaf_scores(self, leaves: np.ndarray) -> np.ndarray:
        return self.p1[leaves[:, 0]]


@dataclass
class RandomForestModel(_TreeEnsemble):
    kind: ClassVar[str] = "random_forest"

    def _leaf_scores(self, leaves: np.ndarray) -> np.ndarray:
        votes = (self.p1[leaves] >= 0.5).sum(axis=1)
        return votes / self.roots.size


def _stack_trees(trees: list[dict]) -> dict:
    """One set of node arrays for several trees, with their `roots`."""
    sizes = [tree["feature"].size for tree in trees]
    roots = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.int64)
    out = {name: np.concatenate([tree[name] for tree in trees]) for name in _NODE_ARRAYS}
    shift = np.repeat(roots, sizes)
    for name in ("left", "right"):
        out[name] = np.where(out[name] >= 0, out[name] + shift, -1)
    out["roots"] = roots
    return out


def _node_entries(x: CsrMatrix, rows: np.ndarray, sampled: np.ndarray | None):
    """The stored entries of a node's rows as (owner, feature, value) arrays.

    `owner` is the entry's position in `rows`, so a row drawn twice by the
    bootstrap owns two copies. With `sampled`, a boolean mask over the
    features, only the entries of the marked features are kept.
    """
    starts = x.indptr[rows]
    sizes = x.indptr[rows + 1] - starts
    owner = np.repeat(np.arange(rows.size), sizes)
    pos = featurize.entry_positions(starts, sizes)
    if sampled is not None:
        kept = sampled[x.indices[pos]]
        owner, pos = owner[kept], pos[kept]
    return owner, x.indices[pos], x.data[pos]


def _node_score(n1: int, n0: int) -> tuple[int, int]:
    """Purity score (n1^2 + n0^2, n): larger score/den means lower Gini."""
    return n1 * n1 + n0 * n0, n1 + n0


def _best_split(entries, ones: np.ndarray, min_leaf: int):
    """Minimum-weighted-Gini split over (feature, midpoint-threshold) pairs,
    found from the node's stored entries alone.

    `entries` comes from `_node_entries`; `ones` holds the labels of the
    node's rows. Each present feature gets a histogram: one bucket per
    distinct stored value, with its row and label-1 counts, plus a zero
    bucket of the node's rows that do not store the feature, placed at value
    0 in sorted order. A feature no node row stores has the zero bucket alone
    and no candidate, so the cost is O(entries log entries), not O(features).
    Every bucket boundary is a candidate, with the midpoint of the two values
    as its threshold, unless that midpoint rounds down to the lower value
    (values one ulp apart), where it would not separate them. All
    candidates are scored at once with floats; those
    within 1e-9 (relative) of the best are re-ranked with exact integer
    arithmetic, so the tie rule (lowest feature, then lowest threshold) holds
    regardless of rounding. Returns (feature, threshold), or None when no
    candidate leaves `min_leaf` rows on both sides or strictly improves on
    the parent's Gini.
    """
    owner, feature, value = entries
    if feature.size == 0:
        return None
    n = ones.size
    tot1 = int(ones.sum())
    parent_num, parent_den = _node_score(tot1, n - tot1)

    order = np.lexsort((value, feature))
    feature, value, y = feature[order], value[order], ones[owner[order]]
    new_group = np.ones(feature.size, dtype=bool)
    new_group[1:] = (feature[1:] != feature[:-1]) | (value[1:] != value[:-1])
    starts = np.flatnonzero(new_group)
    g_feature, g_value = feature[starts], value[starts]
    g_n = np.diff(np.append(starts, feature.size))
    g_n1 = np.add.reduceat(y, starts)

    f_starts = np.flatnonzero(np.concatenate(([True], g_feature[1:] != g_feature[:-1])))
    present = g_feature[f_starts]
    z_n = n - np.add.reduceat(g_n, f_starts)
    z_n1 = tot1 - np.add.reduceat(g_n1, f_starts)
    z = z_n > 0
    b_feature = np.concatenate([g_feature, present[z]])
    b_value = np.concatenate([g_value, np.zeros(int(z.sum()))])
    order = np.lexsort((b_value, b_feature))
    b_feature, b_value = b_feature[order], b_value[order]
    b_n = np.concatenate([g_n, z_n[z]])[order]
    b_n1 = np.concatenate([g_n1, z_n1[z]])[order]

    # Each feature's buckets hold all n rows (tot1 of them label 1), so the
    # k-th present feature's running sums start at k * n and k * tot1.
    same = b_feature[1:] == b_feature[:-1]
    cand = np.flatnonzero(same)
    rank = np.cumsum(~same)[cand]
    n_left = np.cumsum(b_n)[cand] - rank * n
    n1_left = np.cumsum(b_n1)[cand] - rank * tot1
    n0_left = n_left - n1_left
    n_right = n - n_left
    n1_right = tot1 - n1_left
    n0_right = n_right - n1_right
    threshold = (b_value[cand] + b_value[cand + 1]) / 2.0
    ok = (n_left >= min_leaf) & (n_right >= min_leaf) & (threshold > b_value[cand])
    if not ok.any():
        return None
    a_left = n1_left * n1_left + n0_left * n0_left
    a_right = n1_right * n1_right + n0_right * n0_right
    s = a_left / n_left + a_right / n_right
    s[~ok] = -math.inf
    s_max = float(s.max())

    # Candidates run in (feature, threshold) order, so the first exact
    # maximum is the tie winner.
    best = None  # (num, den, candidate index)
    for k in np.flatnonzero(s >= s_max - 1e-9 * (1.0 + abs(s_max))):
        n_l, n_r = int(n_left[k]), int(n_right[k])
        num = int(a_left[k]) * n_r + int(a_right[k]) * n_l  # exact: s = num / (n_l * n_r)
        den = n_l * n_r
        if best is None or num * best[1] > best[0] * den:
            best = (num, den, k)
    # Split only on a strict Gini improvement over the parent.
    if best[0] * parent_den <= parent_num * best[1]:
        return None
    k = best[2]
    return int(b_feature[cand[k]]), float(threshold[k])


def _grow_tree(x: CsrMatrix, labels: np.ndarray, rows, *, max_depth, min_leaf, mtry,
               rng) -> dict:
    """Grow one tree depth-first on `rows` of `x` (duplicates allowed), with
    `labels` the int64 labels of all of `x`'s rows; returns its node arrays
    in pre-order, left child first, the layout `_TreeEnsemble` requires."""
    y01, n_features = labels, x.n_features
    # Marks the `mtry` features drawn for the node being split, then is cleared.
    sampled = np.zeros(n_features, dtype=bool) if mtry is not None and mtry < n_features else None
    nodes: dict[str, list] = {name: [] for name in _NODE_ARRAYS}
    stack = [(np.sort(rows), 0, -1, True)]  # rows, depth, parent index, is-left-child
    while stack:
        node_rows, depth, parent, is_left = stack.pop()
        idx = len(nodes["feature"])
        if parent >= 0:
            nodes["left" if is_left else "right"][parent] = idx
        n = node_rows.size
        n1 = int(y01[node_rows].sum())
        split = None
        can_split = (
            0 < n1 < n
            and (max_depth is None or depth < max_depth)
            and n >= 2 * min_leaf
        )
        if can_split:
            if sampled is None:
                entries = _node_entries(x, node_rows, None)
            else:
                features = rng.choice(n_features, size=mtry, replace=False)
                sampled[features] = True
                entries = _node_entries(x, node_rows, sampled)
                sampled[features] = False
            split = _best_split(entries, y01[node_rows], min_leaf)
        f, thr = split if split is not None else (-1, 0.0)
        for name, value in zip(_NODE_ARRAYS, (f, thr, -1, -1, n1 / n, n)):
            nodes[name].append(value)
        if split is None:
            continue
        owner, feature, value = entries
        at = feature == f
        node_values = np.zeros(n)
        node_values[owner[at]] = value[at]
        right = node_values >= thr
        stack.append((node_rows[right], depth + 1, idx, False))
        stack.append((node_rows[~right], depth + 1, idx, True))
    return {
        name: np.array(values, dtype=np.float64 if name in ("threshold", "p1") else np.int64)
        for name, values in nodes.items()
    }


def _check_tree_options(max_depth: int | None, min_leaf: int) -> None:
    if max_depth is not None and max_depth < 0:
        raise TrainingError("max_depth must be >= 0 when set")
    if min_leaf < 1:
        raise TrainingError("min_leaf must be >= 1")


def fit_decision_tree(
    x: CsrMatrix,
    labels,
    max_depth: int | None = None,
    min_leaf: int = 1,
) -> DecisionTreeModel:
    """Greedy binary Gini tree over (feature, value >= threshold) splits.

    A threshold is the midpoint of two consecutive distinct values of the
    node's rows, a feature a row does not store counting as 0; count,
    TF-IDF and negative values take the same path (see `_best_split`).
    """
    _check_tree_options(max_depth, min_leaf)
    y = check_labels(len(x), labels)
    tree = _grow_tree(x, y, np.arange(len(x)), max_depth=max_depth, min_leaf=min_leaf,
                      mtry=None, rng=None)
    meta = {"max_depth": max_depth, "min_leaf": min_leaf}
    return DecisionTreeModel(**_stack_trees([tree]), n_features=x.n_features, train_meta=meta)


def fit_random_forest(
    x: CsrMatrix,
    labels,
    n_trees: int = 100,
    mtry: int | None = None,
    bootstrap: bool = True,
    seed: int = 0,
    max_depth: int | None = None,
    min_leaf: int = 1,
) -> RandomForestModel:
    """Bagged Gini trees; per-tree seeds derive from the master seed.

    Each tree's generator draws its bootstrap rows first, then the `mtry`
    features of every node it tries to split, in the order nodes are grown.
    """
    if n_trees < 1:
        raise TrainingError("n_trees must be >= 1")
    if mtry is None:
        mtry = max(1, math.ceil(math.sqrt(x.n_features)))
    if not 1 <= mtry <= x.n_features:
        raise TrainingError(f"mtry must lie in [1, {x.n_features}]")
    _check_tree_options(max_depth, min_leaf)
    y = check_labels(len(x), labels)

    n = len(x)
    trees = []
    for tree_seed in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(tree_seed)
        rows = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        trees.append(_grow_tree(x, y, rows, max_depth=max_depth, min_leaf=min_leaf,
                                mtry=mtry, rng=rng))
    meta = {
        "n_trees": n_trees, "mtry": mtry, "bootstrap": bootstrap, "seed": seed,
        "max_depth": max_depth, "min_leaf": min_leaf,
    }
    return RandomForestModel(**_stack_trees(trees), n_features=x.n_features, train_meta=meta)


# ---------------------------------------------------------------------------
# Kind registry and batch prediction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KindSpec:
    """A model kind.

    `threshold`: scores at or above it get label 1. `train_flags`: the
    `vngender train` flag (by its argparse destination) behind each fit
    option. `reads_tokens`: the kind skips the vectorizer; it fits on and
    scores a `TokenIds` over the vocabulary, where the others fit on and
    score a `CsrMatrix`.
    """

    model: type
    fit: Callable
    seeded: bool
    threshold: float
    train_flags: dict
    reads_tokens: bool = False


MODEL_KINDS: dict[str, KindSpec] = {spec.model.kind: spec for spec in (
    KindSpec(MultinomialNbModel, fit_multinomial_nb, False, 0.5, {"alpha": "alpha"}),
    KindSpec(BernoulliNbModel, fit_bernoulli_nb, False, 0.5, {"alpha": "alpha"}),
    KindSpec(LogisticRegressionModel, fit_logistic_regression, False, 0.5, {"l2": "l2"}),
    KindSpec(LinearSvmModel, fit_linear_svm, False, 0.0, {"c": "c"}),
    KindSpec(DecisionTreeModel, fit_decision_tree, False, 0.5,
             {"max_depth": "max_depth", "min_leaf": "min_leaf"}),
    KindSpec(RandomForestModel, fit_random_forest, True, 0.5,
             {"n_trees": "trees", "mtry": "mtry", "bootstrap": "bootstrap",
              "max_depth": "max_depth", "min_leaf": "min_leaf"}),
    KindSpec(LstmModel, fit_lstm, True, 0.5,
             {"hidden": "hidden", "epochs": "epochs", "batch_size": "batch_size",
              "learning_rate": "lr", "max_seq_len": "max_seq_len",
              "embedding_dim": "embedding_dim", "embedding_path": "embedding"},
             reads_tokens=True),
)}


def kind_spec(kind: str) -> KindSpec:
    """The registry entry of `kind`; an unknown kind raises `TrainingError`."""
    spec = MODEL_KINDS.get(kind)
    if spec is None:
        raise TrainingError(
            f"unknown model kind {kind!r}; expected one of {', '.join(MODEL_KINDS)}"
        )
    return spec


def model_input(kind: str, docs: TokenIds, vocabulary: Vocabulary,
                vectorizer_cfg: VectorizerConfig | None):
    """What `kind` fits on and scores for encoded documents: for a kind that
    reads tokens, the documents as a `TokenIds` over the vocabulary (id
    `len(vocabulary)` for an unseen token), else their `CsrMatrix` under it."""
    if kind_spec(kind).reads_tokens:
        return TokenIds(docs.rows, featurize.columns(docs, vocabulary), vocabulary.tokens,
                        docs.n_docs)
    return featurize.transform(docs, vocabulary, vectorizer_cfg)


def predict(model, x) -> tuple[np.ndarray, np.ndarray]:
    """(labels, scores) for every row of `x`, the `model_input` of the
    model's kind; ties at the threshold get label 1. Documents over another
    vocabulary, or a matrix wider than the model's, raise `PredictionError`."""
    if isinstance(x, TokenIds) and len(x.tokens) != model.n_features:
        raise PredictionError(f"documents over {len(x.tokens)} tokens for a model "
                              f"with a vocabulary of {model.n_features}")
    if isinstance(x, CsrMatrix) and x.n_features > model.n_features:
        raise PredictionError(f"a matrix of {x.n_features} features for a model "
                              f"with {model.n_features} features")
    scores = model.score(x)
    labels = (scores >= MODEL_KINDS[model.kind].threshold).astype(np.int64)
    return labels, scores


def train_classifier(kind: str, x, labels, *, seed: int = 0, **options):
    """Fit `kind` on `x`, its `model_input`, and one 0/1 label per row, with
    keyword options. Only a seeded kind gets `seed`."""
    spec = kind_spec(kind)
    if spec.seeded:
        options = {"seed": seed, **options}
    return spec.fit(x, labels, **options)
