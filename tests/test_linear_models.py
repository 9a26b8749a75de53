import numpy as np
import pytest

import oracles
from conftest import docs_to_matrix, predict_row, random_instance, row_dict
from vngender import classical as cl
from vngender.errors import DivergenceError, TrainingError


class TestLogisticRegressionGradient:
    @pytest.mark.parametrize("seed", range(20))
    def test_analytic_matches_central_differences(self, seed):
        docs, labels, n_features = random_instance(seed, max_features=5)
        matrix = docs_to_matrix(docs, labels, n_features)
        rng = np.random.default_rng(seed + 1000)
        w = rng.normal(0, 0.5, n_features)
        b = float(rng.normal())
        l2 = float(rng.choice([0.0, 1e-4, 0.1]))
        gw, gb = cl.logistic_gradient(matrix, w, b, l2)

        fd_w = oracles.fd_gradient(lambda: cl.logistic_loss(matrix, w, b, l2), w, 1e-5)
        b_arr = np.array([b])
        fd_b = oracles.fd_gradient(
            lambda: cl.logistic_loss(matrix, w, float(b_arr[0]), l2), b_arr, 1e-5
        )[0]
        assert oracles.tensor_rel_error(gw, fd_w) <= 1e-6
        assert oracles.tensor_rel_error(np.array([gb]), np.array([fd_b])) <= 1e-6


class TestLogisticRegressionFit:
    def test_zero_weights_score_half_and_tie_to_one(self):
        model = cl.LogisticRegressionModel(np.zeros(3), 0.0, 3, {})
        pred = predict_row(model, {1: 4})
        assert pred.score == 0.5
        assert pred.label == 1

    def test_separable_one_feature_reaches_perfect_accuracy(self):
        matrix = docs_to_matrix([{0: 1}, {0: 3}], [0, 1], 1)
        model = cl.fit_logistic_regression(matrix, l2=0.0, lr=0.5, max_iter=2000)
        assert cl.predict(model, matrix)[0].tolist() == [0, 1]

    def test_divergence_names_iteration(self):
        matrix = docs_to_matrix([{0: 1}, {0: 3}], [0, 1], 1)
        with pytest.raises(DivergenceError, match=r"iteration \d+"):
            cl.fit_logistic_regression(matrix, l2=0.0, lr=1e300, max_iter=50)

    def test_convergence_flag_recorded(self):
        matrix = docs_to_matrix([{0: 1}, {1: 1}], [0, 1], 2)
        model = cl.fit_logistic_regression(matrix, l2=0.1, lr=0.5, max_iter=5000, tol=1e-8)
        assert model.train_meta["converged"] is True
        assert model.train_meta["n_iter"] <= 5000

    def test_fit_is_deterministic(self):
        docs, labels, n_features = random_instance(3)
        matrix = docs_to_matrix(docs, labels, n_features)
        a = cl.fit_logistic_regression(matrix)
        b = cl.fit_logistic_regression(matrix)
        assert np.array_equal(a.weights, b.weights) and a.bias == b.bias

    def test_validation(self):
        matrix = docs_to_matrix([{0: 1}, {1: 1}], [0, 1], 2)
        with pytest.raises(TrainingError):
            cl.fit_logistic_regression(matrix, max_iter=0)
        with pytest.raises(TrainingError):
            cl.fit_logistic_regression(docs_to_matrix([{0: 1}], [1], 1))


def svm_instance(seed=5, n=20, n_features=6):
    rng = np.random.default_rng(seed)
    docs, labels = [], []
    for _ in range(n):
        y = int(rng.random() < 0.5)
        doc = {int(f): int(v) for f, v in zip(rng.choice(n_features, 2, replace=False),
                                              rng.integers(1, 4, 2))}
        if y:
            doc[0] = doc.get(0, 0) + 2
        docs.append(doc)
        labels.append(y)
    labels[0], labels[-1] = 1, 0
    return docs_to_matrix(docs, labels, n_features)


class TestLinearSvm:
    def test_separable_points_get_opposite_margins(self):
        matrix = docs_to_matrix([{0: 1}, {1: 1}], [1, 0], 2)
        model = cl.fit_linear_svm(matrix, c=1.0, epochs=30, seed=0)
        pos = predict_row(model, row_dict(matrix, 0))
        neg = predict_row(model, row_dict(matrix, 1))
        assert pos.label == 1 and neg.label == 0
        assert pos.score > 0 > neg.score

    def test_c_zero_keeps_weights_at_zero(self):
        matrix = svm_instance()
        model = cl.fit_linear_svm(matrix, c=0.0, epochs=5, seed=1)
        assert np.all(model.weights == 0.0) and model.bias == 0.0
        assert all(obj == 0.0 for obj in model.train_meta["objective_per_epoch"])

    def test_objective_prefix_means_non_increasing(self):
        # Averaged per-epoch objective trend on a fixed 20-point instance.
        matrix = svm_instance(seed=5)
        model = cl.fit_linear_svm(matrix, c=0.05, epochs=40, seed=9)
        objectives = model.train_meta["objective_per_epoch"]
        prefix = np.cumsum(objectives) / np.arange(1, len(objectives) + 1)
        assert np.all(np.diff(prefix) <= 1e-3)

    def test_objective_function_matches_definition(self):
        matrix = svm_instance(seed=2, n=6, n_features=3)
        w = np.array([0.5, -1.0, 0.25])
        b = 0.125
        y_pm = [2 * y - 1 for y in matrix.labels]
        manual = 0.5 * (float(w @ w) + b * b)
        for i, y in enumerate(y_pm):
            dot = sum(w[f] * v for f, v in row_dict(matrix, i).items())
            manual += 2.0 * max(0.0, 1.0 - y * (dot + b))
        assert cl.svm_objective(matrix, w, b, 2.0) == pytest.approx(manual, rel=1e-12)

    def test_same_seed_reproduces_weights(self):
        matrix = svm_instance(seed=7)
        a = cl.fit_linear_svm(matrix, seed=11)
        b = cl.fit_linear_svm(matrix, seed=11)
        assert np.array_equal(a.weights, b.weights) and a.bias == b.bias

    def test_zero_vector_scores_bias(self):
        model = cl.LinearSvmModel(np.array([1.0, -2.0]), -0.75, 2, {})
        pred = predict_row(model, {})
        assert pred.score == -0.75
        assert pred.label == 0

    def test_zero_margin_ties_to_label_one(self):
        model = cl.LinearSvmModel(np.zeros(2), 0.0, 2, {})
        assert predict_row(model, {0: 3}).label == 1

    def test_validation(self):
        matrix = svm_instance()
        with pytest.raises(TrainingError):
            cl.fit_linear_svm(matrix, epochs=0)
        with pytest.raises(TrainingError):
            cl.fit_linear_svm(matrix, c=-1.0)
