"""Independent brute-force oracles the test suite checks the implementations
against. These stay deliberately naive: probability-space products for naive
Bayes, exhaustive enumeration with exact rational scoring for tree splits,
central finite differences for gradients, a dense damped Newton method for the
linear models, and a gate-by-gate LSTM forward and backward pass, frozen from
the LSTM's original per-gate layout."""

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


def masked_sigmoid(z):
    """The logistic function, computed separately on the two signs of z."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def lstm_loss_and_grads(sequences, labels, w, u, b, out_w, out_b):
    """Mean BCE of an LSTM classifier over sequences of input vectors, and
    its gradients, computed gate by gate: each group of equal-length
    sequences runs on its own, with four input and four recurrent products
    per step forward and eight backward. Parameters and gradients are in
    the stacked layout (gate rows in i, f, o, c order); gradients are
    returned by tensor name."""
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
        dlogits = (masked_sigmoid(logits) - y_grp) / total
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
    return loss_sum / total, grads


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
