"""Independent brute-force oracles the test suite checks the implementations
against. These stay deliberately naive: probability-space products for naive
Bayes, exhaustive enumeration with exact rational scoring for tree splits,
central finite differences for gradients."""

import math
from fractions import Fraction

import numpy as np


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
