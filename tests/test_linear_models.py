import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import csr, docs_to_matrix, predict_row, random_instance, row_dict
from vngender import classical as cl
from vngender.errors import DivergenceError, TrainingError

OBJECTIVES = {"logistic": cl.logistic_objective, "squared_hinge": cl.squared_hinge_objective}


def random_point(seed, n_features):
    rng = np.random.default_rng(seed + 1000)
    return rng.normal(0, 0.5, n_features + 1), rng.normal(0, 1.0, n_features + 1)


class TestLogisticRegressionGradient:
    @pytest.mark.parametrize("seed", range(20))
    def test_analytic_matches_central_differences(self, seed):
        docs, labels, n_features = random_instance(seed, max_features=5)
        matrix = docs_to_matrix(docs, labels, n_features)
        theta, _ = random_point(seed, n_features)
        l2 = float(np.random.default_rng(seed).choice([0.0, 1e-4, 0.1]))
        objective = cl.logistic_objective(matrix, l2)
        analytic = objective.at(theta)[1]
        fd = oracles.fd_gradient(lambda: objective.at(theta)[0], theta, 1e-5)
        assert oracles.tensor_rel_error(analytic, fd) <= 1e-6


class TestObjectiveDerivatives:
    @pytest.mark.parametrize("seed", range(20))
    def test_squared_hinge_gradient_matches_central_differences(self, seed):
        docs, labels, n_features = random_instance(seed, max_features=5)
        objective = cl.squared_hinge_objective(docs_to_matrix(docs, labels, n_features), 0.7)
        theta, _ = random_point(seed, n_features)
        analytic = objective.at(theta)[1]
        fd = oracles.fd_gradient(lambda: objective.at(theta)[0], theta, 1e-5)
        assert oracles.tensor_rel_error(analytic, fd) <= 1e-6

    @pytest.mark.parametrize("loss", list(OBJECTIVES))
    @pytest.mark.parametrize("seed", range(10))
    def test_hessian_dot_matches_central_differences(self, loss, seed):
        docs, labels, n_features = random_instance(seed, max_features=5)
        objective = OBJECTIVES[loss](docs_to_matrix(docs, labels, n_features), 0.7)
        theta, v = random_point(seed, n_features)
        h = 1e-6
        fd = (objective.at(theta + h * v)[1] - objective.at(theta - h * v)[1]) / (2.0 * h)
        analytic = objective.at(theta)[2](v)
        assert oracles.tensor_rel_error(analytic, fd) <= 1e-6

    def test_squared_hinge_matches_definition(self):
        matrix = svm_instance(seed=2, n=6, n_features=3)
        theta = np.array([0.5, -1.0, 0.25, 0.125])
        y_pm = [2 * y - 1 for y in matrix.labels]
        manual = 0.5 * float(theta @ theta)
        for i, y in enumerate(y_pm):
            dot = sum(theta[f] * v for f, v in row_dict(matrix, i).items())
            manual += 2.0 * max(0.0, 1.0 - y * (dot + theta[-1])) ** 2
        value = cl.squared_hinge_objective(matrix, 2.0).at(theta)[0]
        assert value == pytest.approx(manual, rel=1e-12)


class TestSolverMatchesNewtonOracle:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 100_000), l2=st.floats(1e-2, 1.0))
    def test_logistic_regression(self, seed, l2):
        docs, labels, n_features = random_instance(seed, max_docs=10)
        model = cl.fit_logistic_regression(docs_to_matrix(docs, labels, n_features),
                                           l2=l2, tol=1e-10)
        theta = np.append(model.weights, model.bias)
        self.check(theta, model.train_meta, docs, labels, n_features, "logistic", l2)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 100_000), c=st.floats(0.01, 100.0))
    def test_squared_hinge(self, seed, c):
        # The objective `fit_linear_svm` minimizes, at a tight tolerance.
        docs, labels, n_features = random_instance(seed, max_docs=10)
        objective = cl.squared_hinge_objective(docs_to_matrix(docs, labels, n_features), c)
        w, b, record = cl.tron(objective, cl.TRON_MAX_ITER, 1e-10)
        self.check(np.append(w, b), record, docs, labels, n_features, "squared_hinge", c)

    @staticmethod
    def check(theta, record, docs, labels, n_features, loss, strength):
        value, gradient, hessian = oracles.dense_linear_objective(
            docs, labels, n_features, loss, strength)
        best = oracles.newton_minimize(value, gradient, hessian, n_features + 1)
        # At this tolerance the solve may end at the no-progress exit, unconverged.
        assert record["objective"] == pytest.approx(value(theta), rel=1e-12)
        assert abs(value(theta) - value(best)) <= 1e-10 * abs(value(best))
        assert oracles.tensor_rel_error(theta, best) <= 1e-5


class TestLogisticRegressionFit:
    def test_zero_weights_score_half_and_tie_to_one(self):
        model = cl.LogisticRegressionModel(np.zeros(3), 0.0, 3, {})
        pred = predict_row(model, {1: 4})
        assert pred.score == 0.5
        assert pred.label == 1

    def test_separable_one_feature_reaches_perfect_accuracy(self):
        matrix = docs_to_matrix([{0: 1}, {0: 3}], [0, 1], 1)
        model = cl.fit_logistic_regression(matrix, l2=0.0)
        assert cl.predict(model, matrix)[0].tolist() == [0, 1]

    def test_convergence_flag_recorded(self):
        matrix = docs_to_matrix([{0: 1}, {1: 1}], [0, 1], 2)
        model = cl.fit_logistic_regression(matrix, l2=0.1)
        assert model.train_meta["converged"] is True
        assert 1 <= model.train_meta["n_iter"] <= cl.TRON_MAX_ITER

    def test_iteration_cap_stops_unconverged(self):
        docs, labels, n_features = random_instance(3)
        model = cl.fit_logistic_regression(docs_to_matrix(docs, labels, n_features),
                                           max_iter=1, tol=1e-12)
        assert model.train_meta["converged"] is False
        assert model.train_meta["n_iter"] == 1

    def test_fit_is_deterministic(self):
        docs, labels, n_features = random_instance(3)
        matrix = docs_to_matrix(docs, labels, n_features)
        a = cl.fit_logistic_regression(matrix)
        b = cl.fit_logistic_regression(matrix)
        assert np.array_equal(a.weights, b.weights) and a.bias == b.bias

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_infinite_feature_value_raises_divergence(self):
        matrix = csr([{0: 1.0}, {0: np.inf}], [0, 1], 1)
        with pytest.raises(DivergenceError, match="not finite"):
            cl.fit_logistic_regression(matrix)
        with pytest.raises(DivergenceError, match="not finite"):
            cl.fit_linear_svm(matrix)

    def test_validation(self):
        matrix = docs_to_matrix([{0: 1}, {1: 1}], [0, 1], 2)
        with pytest.raises(TrainingError):
            cl.fit_logistic_regression(matrix, max_iter=0)
        with pytest.raises(TrainingError):
            cl.fit_logistic_regression(matrix, l2=-1.0)
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
        model = cl.fit_linear_svm(matrix, c=1.0)
        pos = predict_row(model, row_dict(matrix, 0))
        neg = predict_row(model, row_dict(matrix, 1))
        assert pos.label == 1 and neg.label == 0
        assert pos.score > 0 > neg.score

    def test_c_zero_keeps_weights_at_zero(self):
        model = cl.fit_linear_svm(svm_instance(), c=0.0)
        assert np.all(model.weights == 0.0) and model.bias == 0.0
        assert model.train_meta["converged"] is True
        assert model.train_meta["n_iter"] == 0
        assert model.train_meta["objective"] == 0.0

    def test_default_fit_converges_and_records_it(self):
        model = cl.fit_linear_svm(svm_instance(seed=7))
        meta = model.train_meta
        assert meta["converged"] is True
        assert set(meta) == {"c", "max_iter", "tol", "converged", "n_iter", "objective"}
        objective = cl.squared_hinge_objective(svm_instance(seed=7), 1.0)
        theta = np.append(model.weights, model.bias)
        assert meta["objective"] == objective.at(theta)[0]

    def test_fit_is_deterministic(self):
        matrix = svm_instance(seed=7)
        a = cl.fit_linear_svm(matrix)
        b = cl.fit_linear_svm(matrix)
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
            cl.fit_linear_svm(matrix, c=-1.0)
        with pytest.raises(TrainingError):
            cl.fit_linear_svm(docs_to_matrix([{0: 1}], [1], 1))
