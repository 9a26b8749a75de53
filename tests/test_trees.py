import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import csr, planted_docs, predict_row
from vngender import classical as cl
from vngender import featurize as fz
from vngender.errors import PredictionError, TrainingError

MATRIX_KINDS = [kind for kind, spec in cl.MODEL_KINDS.items() if not spec.reads_tokens]


def tree_instance(seed, max_rows=10, max_features=4, values="count"):
    """Rows as dicts feature -> value, labels with both classes, and the width.

    values: "count" (0-3), "signed" (-3-3), or "tfidf": counts times a
    per-feature weight, scaled to unit L2 norm per row as TF-IDF rows are.
    """
    rng = np.random.default_rng(seed)
    n_rows = int(rng.integers(2, max_rows + 1))
    n_features = int(rng.integers(1, max_features + 1))
    low = -3 if values == "signed" else 0
    docs = []
    for _ in range(n_rows):
        doc = {}
        for f in range(n_features):
            v = int(rng.integers(low, 4))
            if v:
                doc[f] = v
        docs.append(doc)
    labels = [int(rng.integers(0, 2)) for _ in range(n_rows)]
    labels[0], labels[-1] = 1, 0
    if values == "tfidf":
        weight = rng.uniform(1.0, 3.0, n_features)
        docs = [{f: v * weight[f] for f, v in doc.items()} for doc in docs]
        docs = [{f: v / np.sqrt(sum(w * w for w in doc.values())) for f, v in doc.items()}
                for doc in docs]
    return docs, labels, n_features


def node_rows(model, root, rows) -> dict:
    """Positions in `rows` (dicts) of the rows that reach each node of the
    tree at `root`, a row listed as often as it occurs."""
    members = {}
    for i, row in enumerate(rows):
        node = root
        members.setdefault(node, []).append(i)
        while model.feature[node] >= 0:
            go_right = row.get(int(model.feature[node]), 0.0) >= model.threshold[node]
            node = int(model.right[node] if go_right else model.left[node])
            members.setdefault(node, []).append(i)
    return members


def node_depths(model, root) -> dict:
    depths, stack = {}, [(root, 0)]
    while stack:
        node, depth = stack.pop()
        depths[node] = depth
        if model.feature[node] >= 0:
            stack += [(int(model.left[node]), depth + 1), (int(model.right[node]), depth + 1)]
    return depths


def check_splits_against_oracle(model, root, rows, labels, n_features, max_depth, min_leaf):
    """Every internal node holds the oracle's split of the rows that reach it,
    and every leaf that could have split gets no split from the oracle."""
    members = node_rows(model, root, rows)
    depths = node_depths(model, root)
    assert set(members) == set(depths)
    for node, positions in members.items():
        node_docs = [rows[i] for i in positions]
        node_labels = [labels[i] for i in positions]
        assert model.n[node] == len(positions)
        expected = oracles.best_split(node_docs, node_labels, n_features, min_leaf)
        if model.feature[node] >= 0:
            assert (model.feature[node], model.threshold[node]) == expected
        elif (0 < sum(node_labels) < len(positions) and len(positions) >= 2 * min_leaf
              and (max_depth is None or depths[node] < max_depth)):
            assert expected is None


def tree_model(cls, nodes, roots=(0,), n_features=2):
    """A hand-built tree model from (feature, threshold, left, right, p1, n) rows."""
    columns = [np.array(col) for col in zip(*nodes)]
    names = ("feature", "threshold", "left", "right", "p1", "n")
    arrays = {name: col.astype(np.float64 if name in ("threshold", "p1") else np.int64)
              for name, col in zip(names, columns)}
    return cls(**arrays, roots=np.array(roots, dtype=np.int64),
               n_features=n_features, train_meta={})


# Thresholds of hand-built trees, and the values their probe rows store.
THRESHOLDS = (-1.5, -0.5, 0.0, 0.5, 1.0, 1.5, float("nan"))
PROBE_VALUES = (-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0)


def grow_tree(rng, nodes, n_features, chain=0, depth=0):
    """Append one random tree to `nodes` in pre-order, left child first, as
    (feature, threshold, left, right, p1, n) rows. With `chain`, the tree is
    a chain of that many inner nodes, each with one leaf child; otherwise a
    node splits with probability 0.6 up to depth 6."""
    idx = len(nodes)
    nodes.append((-1, 0.0, -1, -1, float(rng.random()), 1))
    if not (depth < chain if chain else depth < 6 and rng.random() < 0.6):
        return
    leaf_side = int(rng.integers(2)) if chain else -1
    children = []
    for side in (0, 1):
        children.append(len(nodes))
        if side == leaf_side:
            nodes.append((-1, 0.0, -1, -1, float(rng.random()), 1))
        else:
            grow_tree(rng, nodes, n_features, chain, depth + 1)
    nodes[idx] = (int(rng.integers(n_features)), float(rng.choice(THRESHOLDS)), *children,
                  0.5, 2)


def assert_leaves_match_oracle(model, probes, n_features):
    leaves = model.leaves(csr(probes, n_features=n_features))
    assert leaves.shape == (len(probes), model.roots.size)
    arrays = (model.feature, model.threshold, model.left, model.right)
    for i, probe in enumerate(probes):
        expected = [oracles.tree_leaf(*arrays, root, probe) for root in model.roots]
        assert leaves[i].tolist() == expected


def is_leaf(model, idx) -> bool:
    return model.feature[idx] < 0


def validate_tree_shape(model: cl.DecisionTreeModel):
    """Every node reachable exactly once; internal nodes have two children."""
    seen = set()
    stack = [0]
    while stack:
        idx = stack.pop()
        assert 0 <= idx < model.feature.size
        assert idx not in seen
        seen.add(idx)
        if is_leaf(model, idx):
            assert model.left[idx] == -1 and model.right[idx] == -1
        else:
            assert model.left[idx] != -1 and model.right[idx] != -1
            stack.extend((int(model.left[idx]), int(model.right[idx])))
    assert seen == set(range(model.feature.size))


class TestDecisionTree:
    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_root_split_matches_exhaustive_oracle(self, seed):
        docs, labels, n_features = tree_instance(seed)
        matrix = csr(docs, n_features)
        model = cl.fit_decision_tree(matrix, labels)
        expected = oracles.best_split(docs, labels, n_features)
        if expected is None:
            assert is_leaf(model, 0)
        else:
            assert (model.feature[0], model.threshold[0]) == expected

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 100_000), values=st.sampled_from(["count", "tfidf", "signed"]),
           min_leaf=st.integers(1, 3), max_depth=st.none() | st.integers(0, 3))
    def test_every_node_matches_exhaustive_oracle(self, seed, values, min_leaf, max_depth):
        docs, labels, n_features = tree_instance(seed, max_rows=14, values=values)
        model = cl.fit_decision_tree(csr(docs, n_features), labels,
                                     max_depth=max_depth, min_leaf=min_leaf)
        check_splits_against_oracle(model, 0, docs, labels, n_features, max_depth, min_leaf)

    def test_values_whose_midpoint_rounds_down_do_not_split(self):
        # (1 + (1 + 2^-52)) / 2 rounds to 1.0, so no threshold separates the
        # last two rows; taking that midpoint would leave a child empty.
        docs = [{0: 1.0}, {0: 1.0 + 2.0**-52}, {}]
        labels = [1, 0, 0]
        model = cl.fit_decision_tree(csr(docs, 1), labels)
        check_splits_against_oracle(model, 0, docs, labels, 1, None, 1)
        assert model.feature.size == 3

    def test_million_features_few_rows(self):
        # The search reads only the stored entries; a pass over every
        # feature at every node takes tens of seconds here.
        rng = np.random.default_rng(5)
        docs = [{int(f): 1.0 for f in rng.choice(10**6, 3, replace=False)} for _ in range(8)]
        labels = [1, 0] * 4
        matrix = csr(docs, 10**6)
        tree = cl.fit_decision_tree(matrix, labels)
        assert cl.predict(tree, matrix)[0].tolist() == labels
        forest = cl.fit_random_forest(matrix, labels, n_trees=3, seed=1)
        assert forest.roots.size == 3

    def test_perfect_feature_gives_depth_one_tree(self):
        docs = [{2: 1}, {2: 2}, {0: 1}, {1: 3}]
        labels = [1, 1, 0, 0]
        matrix = csr(docs, 3)
        model = cl.fit_decision_tree(matrix, labels)
        assert model.feature.size == 3  # root plus two leaves
        assert model.feature[0] == 2
        assert cl.predict(model, matrix)[0].tolist() == labels

    def test_pure_children_stop_splitting(self):
        docs = [{0: 1, 1: 1}, {0: 1, 1: 2}, {1: 1}, {1: 2}]
        matrix, labels = csr(docs, 2), [1, 1, 0, 0]
        model = cl.fit_decision_tree(matrix, labels)
        assert all(is_leaf(model, i) for i in range(1, model.feature.size))

    def test_tie_breaks_to_lowest_feature(self):
        # Features 1 and 3 carry the same perfect pattern; 1 must win.
        docs = [{1: 1, 3: 1}, {1: 1, 3: 1}, {}, {}]
        matrix, labels = csr(docs, 4), [1, 1, 0, 0]
        model = cl.fit_decision_tree(matrix, labels)
        assert model.feature[0] == 1

    def test_min_leaf_respected(self):
        docs, labels, n_features = tree_instance(77, max_rows=10)
        matrix = csr(docs, n_features)
        model = cl.fit_decision_tree(matrix, labels, min_leaf=3)
        inner = model.feature >= 0
        assert np.all(model.n[model.left[inner]] >= 3)
        assert np.all(model.n[model.right[inner]] >= 3)

    def test_max_depth_limits_growth(self):
        docs, labels, n_features = tree_instance(78)
        matrix = csr(docs, n_features)
        model = cl.fit_decision_tree(matrix, labels, max_depth=1)
        assert all(is_leaf(model, c)
                   for c in (model.left[0], model.right[0])
                   if not is_leaf(model, 0))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_tree_shape_is_proper_binary(self, seed):
        docs, labels, n_features = tree_instance(seed)
        matrix = csr(docs, n_features)
        validate_tree_shape(cl.fit_decision_tree(matrix, labels))

    def test_leaf_tie_predicts_label_one(self):
        model = tree_model(cl.DecisionTreeModel, [(-1, 0.0, -1, -1, 0.5, 4)])
        assert predict_row(model, {}).label == 1

    def test_single_class_rejected(self):
        with pytest.raises(TrainingError):
            cl.fit_decision_tree(csr([{0: 1}, {1: 1}], 2), [1, 1])

    def test_min_leaf_validation(self):
        matrix, labels = csr([{0: 1}, {1: 1}], 2), [1, 0]
        with pytest.raises(TrainingError):
            cl.fit_decision_tree(matrix, labels, min_leaf=0)

    def test_negative_max_depth_rejected(self):
        matrix, labels = csr([{0: 1}, {1: 1}], 2), [1, 0]
        with pytest.raises(TrainingError, match="max_depth"):
            cl.fit_decision_tree(matrix, labels, max_depth=-1)


def same_nodes(a, b) -> bool:
    names = ("feature", "threshold", "left", "right", "p1", "n", "roots")
    return all(np.array_equal(getattr(a, name), getattr(b, name)) for name in names)


class TestRandomForest:
    def test_single_full_tree_forest_equals_tree(self):
        docs, labels, n_features = tree_instance(12, max_rows=30, max_features=5)
        matrix = csr(docs, n_features)
        tree = cl.fit_decision_tree(matrix, labels)
        forest = cl.fit_random_forest(
            matrix, labels, n_trees=1, mtry=n_features, bootstrap=False, seed=99
        )
        rng = np.random.default_rng(4)
        for _ in range(100):
            probe = {int(f): float(rng.integers(0, 4))
                     for f in rng.choice(n_features, 2, replace=False)}
            assert predict_row(tree, probe).label == predict_row(forest, probe).label

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000), values=st.sampled_from(["count", "tfidf", "signed"]),
           min_leaf=st.integers(1, 3))
    def test_bootstrap_trees_match_exhaustive_oracle(self, seed, values, min_leaf):
        # With mtry = n_features the only draws are each tree's bootstrap
        # rows, so the rows a tree grew on can be drawn again here.
        docs, labels, n_features = tree_instance(seed, max_rows=14, values=values)
        n_trees = 3
        forest = cl.fit_random_forest(csr(docs, n_features), labels,
                                      n_trees=n_trees, mtry=n_features, seed=seed,
                                      min_leaf=min_leaf)
        tree_seeds = np.random.SeedSequence(seed).spawn(n_trees)
        for root, tree_seed in zip(forest.roots, tree_seeds, strict=True):
            drawn = np.random.default_rng(tree_seed).integers(0, len(docs), size=len(docs))
            check_splits_against_oracle(forest, int(root), [docs[i] for i in drawn],
                                        [labels[i] for i in drawn], n_features, None, min_leaf)

    def test_same_seed_same_forest(self):
        docs, labels, n_features = tree_instance(13, max_rows=25)
        matrix = csr(docs, n_features)
        a = cl.fit_random_forest(matrix, labels, n_trees=7, seed=5)
        b = cl.fit_random_forest(matrix, labels, n_trees=7, seed=5)
        assert same_nodes(a, b)

    def test_different_seeds_usually_differ(self):
        docs, labels, n_features = tree_instance(14, max_rows=25)
        matrix = csr(docs, n_features)
        a = cl.fit_random_forest(matrix, labels, n_trees=7, seed=5)
        b = cl.fit_random_forest(matrix, labels, n_trees=7, seed=6)
        assert not same_nodes(a, b)

    def test_planted_rule_reaches_perfect_training_accuracy(self):
        docs, labels = planted_docs(800, 1.0, 31)
        encoded = fz.encode(docs)
        vocab = fz.fit_vocabulary(encoded, fz.VectorizerConfig("count"))
        matrix = fz.transform(encoded, vocab, fz.VectorizerConfig("count"))
        forest = cl.fit_random_forest(matrix, labels, n_trees=10, seed=8)
        assert cl.predict(forest, matrix)[0].tolist() == labels

    def test_vote_fraction_is_score_and_ties_to_one(self):
        forest = tree_model(
            cl.RandomForestModel,
            [(-1, 0.0, -1, -1, 1.0, 1), (-1, 0.0, -1, -1, 0.0, 1)], roots=(0, 1),
        )
        pred = predict_row(forest, {})
        assert pred.score == 0.5
        assert pred.label == 1

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100_000), values=st.sampled_from(["count", "tfidf", "signed"]))
    def test_leaves_match_row_by_row_walk(self, seed, values):
        docs, labels, n_features = tree_instance(seed, max_rows=15, values=values)
        forest = cl.fit_random_forest(csr(docs, n_features), labels,
                                      n_trees=5, seed=seed)
        rng = np.random.default_rng(seed)
        low = -4 if values == "signed" else 0
        probes = docs + [{int(f): float(rng.integers(low, 5)) for f in range(n_features)}, {}]
        assert_leaves_match_oracle(forest, probes, n_features)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 100_000), n_trees=st.integers(1, 3), chain=st.booleans(),
           n_rows=st.sampled_from([0, 1, cl.TREE_CHUNK, cl.TREE_CHUNK + 1]))
    def test_leaves_of_hand_built_trees_match_row_by_row_walk(self, seed, n_trees, chain,
                                                              n_rows):
        """Random trees, or chains deeper than 64 levels, with thresholds
        <= 0 and NaN among theirs, on batches of 0, 1, one chunk and one
        chunk plus one rows."""
        rng = np.random.default_rng(seed)
        n_features = int(rng.integers(1, 5))
        nodes, roots = [], []
        for _ in range(n_trees):
            roots.append(len(nodes))
            grow_tree(rng, nodes, n_features, int(rng.integers(65, 81)) if chain else 0)
        forest = tree_model(cl.RandomForestModel, nodes, roots, n_features)
        probes = [{f: float(rng.choice(PROBE_VALUES)) for f in range(n_features)
                   if rng.random() < 0.5} for _ in range(n_rows)]
        assert_leaves_match_oracle(forest, probes, n_features)

    def test_scoring_memory_does_not_grow_with_the_batch(self):
        """Scoring holds one chunk's working arrays at a time: the peak
        memory of a 20,000-row batch, less its output, stays near that of a
        chunk-sized batch."""
        docs, labels = planted_docs(600, 0.9, 7)
        encoded = fz.encode(docs)
        vocab = fz.fit_vocabulary(encoded, fz.VectorizerConfig("count"))
        matrix = fz.transform(encoded, vocab, fz.VectorizerConfig("count"))
        forest = cl.fit_random_forest(matrix, labels, n_trees=20, seed=3)

        def peak_less_output(n_rows):
            rows = np.arange(n_rows) % len(matrix)
            sizes = np.diff(matrix.indptr)[rows]
            pos = fz.entry_positions(matrix.indptr[rows], sizes)
            batch = fz.CsrMatrix(np.append(0, np.cumsum(sizes)), matrix.indices[pos],
                                 matrix.data[pos], matrix.n_features)
            tracemalloc.start()
            try:
                scores = forest.score(batch)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - scores.nbytes

        assert peak_less_output(20_000) < 3 * peak_less_output(cl.TREE_CHUNK)

    def test_validation(self):
        matrix, labels = csr([{0: 1}, {1: 1}], 2), [1, 0]
        with pytest.raises(TrainingError):
            cl.fit_random_forest(matrix, labels, n_trees=0)
        with pytest.raises(TrainingError):
            cl.fit_random_forest(matrix, labels, mtry=5)
        with pytest.raises(TrainingError, match="max_depth"):
            cl.fit_random_forest(matrix, labels, max_depth=-2)


class TestPredictDispatch:
    def test_out_of_range_feature_rejected(self):
        matrix, labels = csr([{0: 1}, {1: 1}], 2), [1, 0]
        model = cl.fit_multinomial_nb(matrix, labels)
        with pytest.raises(PredictionError,
                           match="^a matrix of 6 features for a model with 2 features$"):
            predict_row(model, {5: 1})

    @pytest.mark.parametrize("kind", list(cl.MODEL_KINDS))
    def test_one_width_rule(self, kind):
        """Input built on the model's own vocabulary scores; documents over
        another vocabulary, or a wider matrix, raise `PredictionError`."""
        names = [["an", "thị"], ["văn", "nam"], ["mai", "thị"], ["đức", "nam"]]
        docs = fz.encode(names)
        labels = [0, 1, 0, 1]
        vocab = fz.fit_vocabulary(docs, fz.VectorizerConfig())
        cfg = None if cl.MODEL_KINDS[kind].reads_tokens else fz.VectorizerConfig()
        options = {"lstm": {"hidden": 2, "embedding_dim": 3, "epochs": 1},
                   "random_forest": {"n_trees": 2}}.get(kind, {})
        model = cl.train_classifier(kind, cl.model_input(kind, docs, vocab, cfg), labels,
                                    **options)
        assert cl.predict(model, cl.model_input(kind, docs, vocab, cfg))[0].shape == (4,)
        wider = fz.fit_vocabulary(fz.encode([*names, ["lan"]]), fz.VectorizerConfig())
        other = cl.model_input(kind, fz.encode([["an", "thị"]]), wider, cfg)
        with pytest.raises(PredictionError):
            cl.predict(model, other)

    def test_train_classifier_dispatch(self):
        matrix, labels = csr([{0: 2}, {1: 1}, {0: 1}, {1: 2}], 2), [1, 0, 1, 0]
        for kind in MATRIX_KINDS:
            options = {"n_trees": 3} if kind == "random_forest" else {}
            model = cl.train_classifier(kind, matrix, labels, seed=1, **options)
            assert model.kind == kind
            predicted, _ = cl.predict(model, matrix)
            assert set(predicted.tolist()) <= {0, 1}

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_row_scores_alone_equal_scores_in_batch(self, seed):
        docs, labels, n_features = tree_instance(seed, max_rows=12)
        matrix = csr(docs, n_features)
        for kind in MATRIX_KINDS:
            options = {"n_trees": 4} if kind == "random_forest" else {}
            model = cl.train_classifier(kind, matrix, labels, seed=seed, **options)
            batch_labels, batch_scores = cl.predict(model, matrix)
            for i, doc in enumerate(docs):
                alone = cl.predict(model, csr([doc], n_features=n_features))
                assert alone[0][0] == batch_labels[i]
                assert alone[1][0] == batch_scores[i]

    def test_registry_marks_seeded_kinds(self):
        seeded = {kind for kind, spec in cl.MODEL_KINDS.items() if spec.seeded}
        assert seeded == {"random_forest", "lstm"}
        for kind, spec in cl.MODEL_KINDS.items():
            assert spec.model.kind == kind
            assert ("seed" in inspect.signature(spec.fit).parameters) == spec.seeded

    def test_unknown_kind_rejected(self):
        matrix, labels = csr([{0: 1}, {1: 1}], 2), [1, 0]
        with pytest.raises(TrainingError):
            cl.train_classifier("gbdt", matrix, labels)
