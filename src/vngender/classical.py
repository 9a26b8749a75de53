"""Six classical classifiers behind one fit / batch-score contract.

Multinomial and Bernoulli naive Bayes, logistic regression (full-batch
gradient descent), a linear SVM (stochastic subgradient with 1/t steps),
a Gini decision tree, and a bagging random forest. Training code is all
local; numpy is used for array arithmetic only.

`score(x)` gives one score per row of a `LabeledMatrix`: P(label 1), the
SVM margin, or the forest's share of label-1 votes. Row sums use
`LabeledMatrix.row_sums`, so a row scores bit-identically alone and in any
batch. `predict` labels a score 1 from the kind's threshold up (ties to 1).
`CLASSICAL_KINDS` registers each kind's model class, fit function, seed use,
threshold and `vngender train` flags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from .errors import DivergenceError, PredictionError, TrainingError
from .featurize import LabeledMatrix


def _require_both_classes(labels) -> None:
    if labels is None:
        raise TrainingError("training needs labelled rows")
    ones = int(labels.sum())
    if ones == 0 or ones == len(labels):
        raise TrainingError("training set contains a single class")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


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

    def score(self, x: LabeledMatrix) -> np.ndarray:
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

    def score(self, x: LabeledMatrix) -> np.ndarray:
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


def _nb_counts(data: LabeledMatrix, alpha: float, entry_values) -> tuple:
    """Validates the fit; returns class log-priors, per-class sums of the
    entries' values for every feature (2, V) and rows per class."""
    if alpha < 0:
        raise TrainingError("alpha must be >= 0")
    _require_both_classes(data.labels)
    n_per_class = np.bincount(data.labels, minlength=2).astype(np.float64)
    priors = np.log(n_per_class) - math.log(len(data))
    entry_class = data.labels[data.row_ids]
    sums = np.zeros((2, data.n_features), dtype=np.float64)
    for c in (0, 1):
        mask = entry_class == c
        weights = None if entry_values is None else entry_values[mask]
        sums[c] = np.bincount(data.indices[mask], weights=weights, minlength=data.n_features)
    return priors, sums, n_per_class


def fit_multinomial_nb(data: LabeledMatrix, alpha: float = 1.0) -> MultinomialNbModel:
    """Class log-priors from label frequencies, token log-probabilities with
    additive smoothing `alpha` over the full feature set."""
    priors, counts, _ = _nb_counts(data, alpha, data.data)
    with np.errstate(divide="ignore"):
        log_prob = np.log(counts + alpha) - np.log(
            counts.sum(axis=1, keepdims=True) + alpha * data.n_features
        )
    meta = {"alpha": alpha, "n_train": len(data)}
    return MultinomialNbModel(priors, log_prob, data.n_features, meta)


def fit_bernoulli_nb(data: LabeledMatrix, alpha: float = 1.0) -> BernoulliNbModel:
    """As multinomial, but on feature presence, with explicit absence factors."""
    priors, doc_counts, n_per_class = _nb_counts(data, alpha, None)
    p = (doc_counts + alpha) / (n_per_class[:, None] + 2.0 * alpha)
    with np.errstate(divide="ignore"):
        log_p = np.log(p)
        log_q = np.log(1.0 - p)
    meta = {"alpha": alpha, "n_train": len(data)}
    return BernoulliNbModel(priors, log_p, log_q, data.n_features, meta)


# ---------------------------------------------------------------------------
# Logistic regression
# ---------------------------------------------------------------------------

@dataclass
class LogisticRegressionModel:
    kind: ClassVar[str] = "logistic_regression"
    weights: np.ndarray
    bias: float
    n_features: int
    train_meta: dict

    def score(self, x: LabeledMatrix) -> np.ndarray:
        return _sigmoid(x.dot_weights(self.weights, self.bias))


def logistic_loss(data: LabeledMatrix, weights: np.ndarray, bias: float, l2: float) -> float:
    """Mean log-loss plus (l2/2) * ||w||^2 (bias unregularized)."""
    y = data.labels.astype(np.float64)
    z = data.dot_weights(weights, bias)
    losses = np.logaddexp(0.0, z) - y * z
    return float(losses.mean() + 0.5 * l2 * (weights @ weights))


def logistic_gradient(
    data: LabeledMatrix, weights: np.ndarray, bias: float, l2: float
) -> tuple[np.ndarray, float]:
    y = data.labels.astype(np.float64)
    z = data.dot_weights(weights, bias)
    residual = (_sigmoid(z) - y) / len(data)
    gw = np.bincount(data.indices, weights=data.data * residual[data.row_ids],
                     minlength=data.n_features)
    gw += l2 * weights
    return gw, float(residual.sum())


def fit_logistic_regression(
    data: LabeledMatrix,
    l2: float = 1e-4,
    lr: float = 0.1,
    max_iter: int = 1000,
    tol: float = 1e-6,
) -> LogisticRegressionModel:
    """Full-batch gradient descent; stops when the gradient inf-norm < tol."""
    if max_iter < 1:
        raise TrainingError("max_iter must be >= 1")
    if l2 < 0:
        raise TrainingError("l2 must be >= 0")
    _require_both_classes(data.labels)
    w = np.zeros(data.n_features, dtype=np.float64)
    b = 0.0
    converged = False
    n_iter = 0
    loss = math.nan
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            n_iter = it
            loss = logistic_loss(data, w, b, l2)
            if not math.isfinite(loss):
                raise DivergenceError(
                    f"logistic regression diverged at iteration {it} (non-finite loss)"
                )
            gw, gb = logistic_gradient(data, w, b, l2)
            gnorm = max(float(np.abs(gw).max()) if gw.size else 0.0, abs(gb))
            if gnorm < tol:
                converged = True
                break
            w -= lr * gw
            b -= lr * gb
    meta = {
        "l2": l2, "lr": lr, "max_iter": max_iter, "tol": tol,
        "converged": converged, "n_iter": n_iter, "final_loss": loss,
    }
    return LogisticRegressionModel(w, b, data.n_features, meta)


# ---------------------------------------------------------------------------
# Linear SVM
# ---------------------------------------------------------------------------

@dataclass
class LinearSvmModel:
    kind: ClassVar[str] = "linear_svm"
    weights: np.ndarray
    bias: float
    n_features: int
    train_meta: dict

    def score(self, x: LabeledMatrix) -> np.ndarray:
        return x.dot_weights(self.weights, self.bias)


def svm_objective(data: LabeledMatrix, weights: np.ndarray, bias: float, c: float) -> float:
    """(1/2)(||w||^2 + b^2) + c * sum of hinge losses."""
    y_pm = 2.0 * data.labels.astype(np.float64) - 1.0
    margins = y_pm * data.dot_weights(weights, bias)
    hinge = np.maximum(0.0, 1.0 - margins).sum()
    return float(0.5 * (weights @ weights + bias * bias) + c * hinge)


def fit_linear_svm(
    data: LabeledMatrix,
    c: float = 1.0,
    lr: float = 1.0,
    epochs: int = 5,
    seed: int = 0,
) -> LinearSvmModel:
    """Seeded stochastic subgradient descent with lr/t step decay.

    The bias rides along as a regularized constant feature, so each step
    shrinks (w, b) by (1 - lr/t) and adds the hinge subgradient of the
    sampled row scaled by c*n when its margin is below 1.
    """
    if epochs < 1:
        raise TrainingError("epochs must be >= 1")
    if c < 0:
        raise TrainingError("c must be >= 0")
    _require_both_classes(data.labels)
    rng = np.random.default_rng(seed)
    n = len(data)
    y_pm = 2.0 * data.labels.astype(np.float64) - 1.0
    row_cols = np.split(data.indices, data.indptr[1:-1])
    row_vals = np.split(data.data, data.indptr[1:-1])
    w = np.zeros(data.n_features, dtype=np.float64)
    b = 0.0
    t = 0
    objectives = []
    for epoch in range(1, epochs + 1):
        order = rng.permutation(n)
        for i in order:
            t += 1
            eta = lr / t
            cols, vals = row_cols[i], row_vals[i]
            margin = y_pm[i] * ((float(w[cols] @ vals) if cols.size else 0.0) + b)
            w *= 1.0 - eta
            b *= 1.0 - eta
            if margin < 1.0:
                scale = eta * c * n * y_pm[i]
                if cols.size:
                    w[cols] += scale * vals
                b += scale
        if not (np.isfinite(w).all() and math.isfinite(b)):
            raise DivergenceError(f"linear SVM diverged during epoch {epoch}")
        objectives.append(svm_objective(data, w, b, c))
    meta = {
        "c": c, "lr": lr, "epochs": epochs, "seed": seed,
        "objective_per_epoch": objectives,
    }
    return LinearSvmModel(w, b, data.n_features, meta)


# ---------------------------------------------------------------------------
# Decision tree and random forest
# ---------------------------------------------------------------------------

_NODE_ARRAYS = ("feature", "threshold", "left", "right", "p1", "n")


@dataclass
class _TreeEnsemble:
    """Trees as flat node arrays; tree t starts at node `roots[t]`.

    Node i sends a row whose value of feature `feature[i]` is >= `threshold[i]`
    to node `right[i]`, any other row to `left[i]`. Leaves have feature -1 and
    children -1. `p1` is the share of label-1 training rows at the node and
    `n` their count. Children come after their parent, so every walk ends.
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

    def __post_init__(self):
        size = self.feature.size
        inner = np.flatnonzero(self.feature >= 0)
        children = np.concatenate([self.left[inner], self.right[inner]])
        if (self.roots.size == 0 or np.any((self.roots < 0) | (self.roots >= size))
                or np.any(self.feature >= self.n_features)
                or np.any(children <= np.tile(inner, 2)) or np.any(children >= size)):
            raise PredictionError("malformed tree node arrays")

    def leaves(self, x: LabeledMatrix) -> np.ndarray:
        """Leaf reached by every row in every tree, shape (rows, trees).

        Each step moves all unfinished (row, tree) pairs down one level.
        """
        n_trees = self.roots.size
        node = np.tile(self.roots, len(x))
        row = np.repeat(np.arange(len(x)), n_trees)
        # Entry keys increase strictly; a -1 sentinel makes "absent" a miss.
        width = max(self.n_features, x.n_features)
        keys = np.append(x.row_ids * width + x.indices, -1)
        data = np.append(x.data, 0.0)
        live = np.flatnonzero(self.feature[node] >= 0)
        while live.size:
            at = node[live]
            query = row[live] * width + self.feature[at]
            pos = np.searchsorted(keys[:-1], query)
            value = np.where(keys[pos] == query, data[pos], 0.0)
            node[live] = np.where(value >= self.threshold[at], self.right[at], self.left[at])
            live = live[self.feature[node[live]] >= 0]
        return node.reshape(len(x), n_trees)


@dataclass
class DecisionTreeModel(_TreeEnsemble):
    kind: ClassVar[str] = "decision_tree"

    def score(self, x: LabeledMatrix) -> np.ndarray:
        return self.p1[self.leaves(x)[:, 0]]


@dataclass
class RandomForestModel(_TreeEnsemble):
    kind: ClassVar[str] = "random_forest"

    def score(self, x: LabeledMatrix) -> np.ndarray:
        votes = (self.p1[self.leaves(x)] >= 0.5).sum(axis=1)
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


def _feature_columns(data: LabeledMatrix) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-feature (row_ids, values) arrays sorted by row id."""
    row_ids, col_ids, values = data.row_ids, data.indices, data.data
    order = np.lexsort((row_ids, col_ids))
    col_sorted = col_ids[order]
    starts = np.searchsorted(col_sorted, np.arange(data.n_features + 1))
    cols = []
    for f in range(data.n_features):
        sl = order[starts[f]:starts[f + 1]]
        cols.append((row_ids[sl], values[sl]))
    return cols


def _node_values(col: tuple[np.ndarray, np.ndarray], rows: np.ndarray) -> np.ndarray:
    """Feature values of the node's rows (0 where the feature is absent)."""
    fr, fv = col
    out = np.zeros(rows.size, dtype=np.float64)
    if fr.size:
        pos = np.searchsorted(fr, rows)
        pos_c = np.minimum(pos, fr.size - 1)
        hit = fr[pos_c] == rows
        out[hit] = fv[pos_c[hit]]
    return out


def _node_score(n1: int, n0: int) -> tuple[int, int]:
    """Purity score (n1^2 + n0^2, n): larger score/den means lower Gini."""
    return n1 * n1 + n0 * n0, n1 + n0


def _best_split(cols, y01, rows, features, min_leaf):
    """Minimum-weighted-Gini split over (feature, midpoint-threshold) pairs.

    Candidates are screened with float scores, then near-ties are re-ranked
    with exact integer arithmetic so that the lowest-feature / lowest-
    threshold tie rule is honored regardless of rounding.
    """
    n = rows.size
    ones = y01[rows]
    tot1 = int(ones.sum())
    tot0 = n - tot1
    parent_num, parent_den = _node_score(tot1, tot0)

    finalists = []  # (s_float, feature, threshold, aL, nL, aR, nR)
    best_float = -math.inf
    for f in features:
        vals = _node_values(cols[f], rows)
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        sy = ones[order]
        change = np.nonzero(np.diff(sv))[0]
        if change.size == 0:
            continue
        cum1 = np.cumsum(sy)
        n_left = change + 1
        n1_left = cum1[change]
        n0_left = n_left - n1_left
        n_right = n - n_left
        n1_right = tot1 - n1_left
        n0_right = n_right - n1_right
        ok = (n_left >= min_leaf) & (n_right >= min_leaf)
        if not ok.any():
            continue
        a_left = n1_left * n1_left + n0_left * n0_left
        a_right = n1_right * n1_right + n0_right * n0_right
        with np.errstate(invalid="ignore"):
            s = a_left / n_left + a_right / n_right
        s[~ok] = -math.inf
        s_max = float(s.max())
        best_float = max(best_float, s_max)
        near = s >= s_max - 1e-9 * (1.0 + abs(s_max))
        thresholds = (sv[change] + sv[change + 1]) / 2.0
        for k in np.nonzero(near)[0]:
            finalists.append((
                float(s[k]), int(f), float(thresholds[k]),
                int(a_left[k]), int(n_left[k]), int(a_right[k]), int(n_right[k]),
            ))
    if not finalists:
        return None

    eps = 1e-9 * (1.0 + abs(best_float))
    best = None  # (num, den, feature, threshold)
    for s_f, f, thr, a_l, n_l, a_r, n_r in finalists:
        if s_f < best_float - eps:
            continue
        num = a_l * n_r + a_r * n_l  # exact: s = num / (n_l * n_r)
        den = n_l * n_r
        if best is None:
            best = (num, den, f, thr)
            continue
        diff = num * best[1] - best[0] * den
        if diff > 0 or (diff == 0 and (f, thr) < (best[2], best[3])):
            best = (num, den, f, thr)
    # Split only on a strict Gini improvement over the parent.
    if best[0] * parent_den <= parent_num * best[1]:
        return None
    return best[2], best[3]


def _grow_tree(cols, y01, rows, *, max_depth, min_leaf, mtry, rng, n_features) -> dict:
    """Grow one tree depth-first; returns its node arrays, root first."""
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
            if mtry is not None and mtry < n_features:
                features = np.sort(rng.choice(n_features, size=mtry, replace=False))
            else:
                features = np.arange(n_features)
            split = _best_split(cols, y01, node_rows, features, min_leaf)
        f, thr = split if split is not None else (-1, 0.0)
        for name, value in zip(_NODE_ARRAYS, (f, thr, -1, -1, n1 / n, n)):
            nodes[name].append(value)
        if split is None:
            continue
        vals = _node_values(cols[f], node_rows)
        stack.append((node_rows[vals >= thr], depth + 1, idx, False))
        stack.append((node_rows[vals < thr], depth + 1, idx, True))
    return {
        name: np.array(values, dtype=np.float64 if name in ("threshold", "p1") else np.int64)
        for name, values in nodes.items()
    }


def fit_decision_tree(
    data: LabeledMatrix,
    max_depth: int | None = None,
    min_leaf: int = 1,
) -> DecisionTreeModel:
    """Greedy binary Gini tree over (feature, count >= threshold) splits."""
    if min_leaf < 1:
        raise TrainingError("min_leaf must be >= 1")
    _require_both_classes(data.labels)
    tree = _grow_tree(
        _feature_columns(data), data.labels, np.arange(len(data)),
        max_depth=max_depth, min_leaf=min_leaf, mtry=None, rng=None,
        n_features=data.n_features,
    )
    meta = {"max_depth": max_depth, "min_leaf": min_leaf}
    return DecisionTreeModel(**_stack_trees([tree]), n_features=data.n_features, train_meta=meta)


def fit_random_forest(
    data: LabeledMatrix,
    n_trees: int = 100,
    mtry: int | None = None,
    bootstrap: bool = True,
    seed: int = 0,
    max_depth: int | None = None,
    min_leaf: int = 1,
) -> RandomForestModel:
    """Bagged Gini trees; per-tree seeds derive from the master seed."""
    if n_trees < 1:
        raise TrainingError("n_trees must be >= 1")
    if mtry is None:
        mtry = max(1, math.ceil(math.sqrt(data.n_features)))
    if not 1 <= mtry <= data.n_features:
        raise TrainingError(f"mtry must lie in [1, {data.n_features}]")
    if min_leaf < 1:
        raise TrainingError("min_leaf must be >= 1")
    _require_both_classes(data.labels)

    cols = _feature_columns(data)
    n = len(data)
    trees = []
    for tree_seed in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(tree_seed)
        rows = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        trees.append(_grow_tree(
            cols, data.labels, rows,
            max_depth=max_depth, min_leaf=min_leaf,
            mtry=mtry, rng=rng, n_features=data.n_features,
        ))
    meta = {
        "n_trees": n_trees, "mtry": mtry, "bootstrap": bootstrap, "seed": seed,
        "max_depth": max_depth, "min_leaf": min_leaf,
    }
    return RandomForestModel(**_stack_trees(trees), n_features=data.n_features, train_meta=meta)


# ---------------------------------------------------------------------------
# Kind registry and batch prediction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KindSpec:
    """A classical model kind.

    `threshold`: scores at or above it get label 1. `train_flags`: the
    `vngender train` flag (by its argparse destination) behind each fit
    option.
    """

    model: type
    fit: Callable
    seeded: bool
    threshold: float
    train_flags: dict


CLASSICAL_KINDS: dict[str, KindSpec] = {spec.model.kind: spec for spec in (
    KindSpec(MultinomialNbModel, fit_multinomial_nb, False, 0.5, {"alpha": "alpha"}),
    KindSpec(BernoulliNbModel, fit_bernoulli_nb, False, 0.5, {"alpha": "alpha"}),
    KindSpec(LogisticRegressionModel, fit_logistic_regression, False, 0.5,
             {"l2": "l2", "lr": "lr", "max_iter": "max_iter", "tol": "tol"}),
    KindSpec(LinearSvmModel, fit_linear_svm, True, 0.0,
             {"c": "c", "lr": "svm_lr", "epochs": "epochs"}),
    KindSpec(DecisionTreeModel, fit_decision_tree, False, 0.5,
             {"max_depth": "max_depth", "min_leaf": "min_leaf"}),
    KindSpec(RandomForestModel, fit_random_forest, True, 0.5,
             {"n_trees": "trees", "mtry": "mtry", "bootstrap": "bootstrap",
              "max_depth": "max_depth", "min_leaf": "min_leaf"}),
)}


def predict(model, x: LabeledMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(labels, scores) for every row of `x`; ties at the threshold get label 1."""
    if x.indices.size and int(x.indices.max()) >= model.n_features:
        raise PredictionError(
            f"feature index {int(x.indices.max())} out of range for a model "
            f"with {model.n_features} features"
        )
    scores = model.score(x)
    labels = (scores >= CLASSICAL_KINDS[model.kind].threshold).astype(np.int64)
    return labels, scores


def train_classifier(kind: str, data: LabeledMatrix, seed: int = 0, **options):
    """Dispatch to the fit function for `kind` with its keyword options."""
    spec = CLASSICAL_KINDS.get(kind)
    if spec is None:
        raise TrainingError(
            f"unknown classifier kind {kind!r}; expected one of {', '.join(CLASSICAL_KINDS)}"
        )
    if spec.seeded:
        options = {"seed": seed, **options}
    return spec.fit(data, **options)
