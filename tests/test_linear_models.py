import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import csr, predict_row, random_instance, row_dict
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
        matrix = csr(docs, n_features)
        theta, _ = random_point(seed, n_features)
        l2 = float(np.random.default_rng(seed).choice([0.0, 1e-4, 0.1]))
        objective = cl.logistic_objective(matrix, labels, l2)
        analytic = objective.at(theta)[1]
        fd = oracles.fd_gradient(lambda: objective.at(theta)[0], theta, 1e-5)
        assert oracles.tensor_rel_error(analytic, fd) <= 1e-6


class TestObjectiveDerivatives:
    @pytest.mark.parametrize("seed", range(20))
    def test_squared_hinge_gradient_matches_central_differences(self, seed):
        docs, labels, n_features = random_instance(seed, max_features=5)
        objective = cl.squared_hinge_objective(csr(docs, n_features), labels, 0.7)
        theta, _ = random_point(seed, n_features)
        analytic = objective.at(theta)[1]
        fd = oracles.fd_gradient(lambda: objective.at(theta)[0], theta, 1e-5)
        assert oracles.tensor_rel_error(analytic, fd) <= 1e-6

    @pytest.mark.parametrize("loss", list(OBJECTIVES))
    @pytest.mark.parametrize("seed", range(10))
    def test_hessian_dot_matches_central_differences(self, loss, seed):
        docs, labels, n_features = random_instance(seed, max_features=5)
        objective = OBJECTIVES[loss](csr(docs, n_features), labels, 0.7)
        theta, v = random_point(seed, n_features)
        h = 1e-6
        fd = (objective.at(theta + h * v)[1] - objective.at(theta - h * v)[1]) / (2.0 * h)
        analytic = objective.at(theta)[2](v)
        assert oracles.tensor_rel_error(analytic, fd) <= 1e-6

    def test_squared_hinge_matches_definition(self):
        matrix, labels = svm_instance(seed=2, n=6, n_features=3)
        theta = np.array([0.5, -1.0, 0.25, 0.125])
        y_pm = [2 * y - 1 for y in labels]
        manual = 0.5 * float(theta @ theta)
        for i, y in enumerate(y_pm):
            dot = sum(theta[f] * v for f, v in row_dict(matrix, i).items())
            manual += 2.0 * max(0.0, 1.0 - y * (dot + theta[-1])) ** 2
        value = cl.squared_hinge_objective(matrix, labels, 2.0).at(theta)[0]
        assert value == pytest.approx(manual, rel=1e-12)


@st.composite
def repeated_rows(draw):
    """A few distinct rows, each drawn many times with either label."""
    n_features = draw(st.integers(1, 5))
    row = st.dictionaries(st.integers(0, n_features - 1), st.sampled_from([0.5, 1.0, 2.0, 3.0]),
                          max_size=n_features)
    distinct = draw(st.lists(row, min_size=1, max_size=5))
    picks = draw(st.lists(st.tuples(st.integers(0, len(distinct) - 1), st.integers(0, 1)),
                          min_size=2, max_size=30))
    return [distinct[i] for i, _ in picks], [y for _, y in picks], n_features


class TestDistinctRows:
    @settings(max_examples=100, deadline=None)
    @given(instance=repeated_rows())
    def test_multiplicities_count_every_row_once(self, instance):
        docs, labels, n_features = instance
        rows, y, counts = cl._distinct_rows(csr(docs, n_features), labels)
        assert counts.sum() == len(docs)
        pairs = [(tuple(sorted(row_dict(rows, i).items())), int(y[i])) for i in range(len(rows))]
        expected = Counter((tuple(sorted(doc.items())), label) for doc, label in zip(docs, labels))
        assert dict(zip(pairs, counts.tolist())) == expected
        assert len(pairs) == len(expected)

    @settings(max_examples=100, deadline=None)
    @given(instance=repeated_rows(), loss=st.sampled_from(list(OBJECTIVES)),
           seed=st.integers(0, 1000))
    def test_objective_matches_the_full_row_objective(self, instance, loss, seed):
        docs, labels, n_features = instance
        objective = OBJECTIVES[loss](csr(docs, n_features), labels, 0.7)
        value, gradient, hessian = oracles.dense_linear_objective(
            docs, labels, n_features, loss, 0.7)
        theta, v = random_point(seed, n_features)
        f, g, hessian_dot = objective.at(theta)
        assert f == pytest.approx(value(theta), rel=1e-12)
        assert oracles.tensor_rel_error(g, gradient(theta)) <= 1e-12
        assert oracles.tensor_rel_error(hessian_dot(v), hessian(theta) @ v) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(instance=repeated_rows(), loss=st.sampled_from(list(OBJECTIVES)))
    def test_preconditioner_is_the_hessian_diagonal_at_zero(self, instance, loss):
        docs, labels, n_features = instance
        objective = OBJECTIVES[loss](csr(docs, n_features), labels, 0.7)
        hessian = oracles.dense_linear_objective(docs, labels, n_features, loss, 0.7)[2]
        expected = np.diag(hessian(np.zeros(n_features + 1)))
        assert oracles.tensor_rel_error(objective.preconditioner(), expected) <= 1e-12

    @pytest.mark.parametrize("k", [2, 5])
    @pytest.mark.parametrize("seed", range(10))
    def test_rows_repeated_k_times_fit_the_same_weights(self, seed, k):
        # Mean log-loss is unchanged by repeating every row; the squared
        # hinge sum grows k-fold, which c / k undoes.
        docs, labels, n_features = random_instance(seed, max_docs=10)
        original = csr(docs, n_features)
        repeated = csr([doc for doc in docs for _ in range(k)], n_features)
        repeated_labels = np.repeat(labels, k)
        pairs = [(cl.fit_logistic_regression(original, labels, l2=0.1),
                  cl.fit_logistic_regression(repeated, repeated_labels, l2=0.1)),
                 (cl.fit_linear_svm(original, labels, c=1.0),
                  cl.fit_linear_svm(repeated, repeated_labels, c=1.0 / k))]
        for a, b in pairs:
            assert oracles.tensor_rel_error(np.append(a.weights, a.bias),
                                            np.append(b.weights, b.bias)) <= 1e-5


def one_token_rows(seed, n_features=20):
    """Rows of one token each, as under the given-name mask: feature f stands
    for 1 to 1000 rows (geometrically spaced), nearly all of one label."""
    rng = np.random.default_rng(seed)
    docs, labels = [], []
    for f, n in enumerate(np.rint(np.geomspace(1, 1000, n_features)).astype(int)):
        ones = int(rng.binomial(n, rng.choice([0.02, 0.98])))
        docs += [{f: 1.0}] * n
        labels += [1] * ones + [0] * (n - ones)
    return csr(docs, n_features), labels


class TestPreconditionedSolver:
    @pytest.mark.parametrize("fit", [cl.fit_linear_svm, cl.fit_logistic_regression])
    @pytest.mark.parametrize("seed", range(3))
    def test_multiplicities_from_1_to_1000_converge_in_few_iterations(self, fit, seed):
        meta = fit(*one_token_rows(seed)).train_meta
        assert meta["converged"] is True and meta["n_iter"] <= 10

    def test_unstored_column_without_regularization_stays_at_zero(self):
        matrix = csr([{0: 1}, {0: 1}, {2: 1}, {2: 2}, {0: 1, 2: 1}, {0: 2}], 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            model = cl.fit_logistic_regression(matrix, [0, 1, 1, 0, 1, 0], l2=0.0)
        assert np.all(np.isfinite(model.weights)) and math.isfinite(model.bias)
        assert model.weights[1] == 0.0 and model.train_meta["converged"] is True


class TestSolverMatchesNewtonOracle:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 100_000), l2=st.floats(1e-2, 1.0))
    def test_logistic_regression(self, seed, l2):
        # The objective `fit_logistic_regression` minimizes, at a tight tolerance.
        docs, labels, n_features = random_instance(seed, max_docs=10)
        objective = cl.logistic_objective(csr(docs, n_features), labels, l2)
        w, b, record = cl.tron(objective, cl.TRON_MAX_ITER, 1e-10)
        self.check(np.append(w, b), record, docs, labels, n_features, "logistic", l2)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 100_000), c=st.floats(0.01, 100.0))
    def test_squared_hinge(self, seed, c):
        # The objective `fit_linear_svm` minimizes, at a tight tolerance.
        docs, labels, n_features = random_instance(seed, max_docs=10)
        objective = cl.squared_hinge_objective(csr(docs, n_features), labels, c)
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
        matrix = csr([{0: 1}, {0: 3}], 1)
        model = cl.fit_logistic_regression(matrix, [0, 1], l2=0.0)
        assert cl.predict(model, matrix)[0].tolist() == [0, 1]

    def test_convergence_flag_recorded(self):
        model = cl.fit_logistic_regression(csr([{0: 1}, {1: 1}], 2), [0, 1], l2=0.1)
        assert model.train_meta["converged"] is True
        assert 1 <= model.train_meta["n_iter"] <= cl.TRON_MAX_ITER

    def test_iteration_cap_stops_unconverged(self):
        docs, labels, n_features = random_instance(3)
        objective = cl.logistic_objective(csr(docs, n_features), labels, 1e-4)
        _, _, record = cl.tron(objective, 1, 1e-12)
        assert record["converged"] is False and record["stop"] == "max_iter"
        assert record["n_iter"] == 1
        w, b, record = cl.tron(objective, 0, 1e-12)
        assert not w.any() and b == 0.0
        assert record["converged"] is False and record["n_iter"] == 0
        assert record["stop"] == "max_iter" and record["gradient_ratio"] == 1.0

    def test_stall_at_rounding_level_is_no_progress(self):
        docs, labels, n_features = random_instance(3)
        objective = cl.logistic_objective(csr(docs, n_features), labels, 1e-4)
        _, _, record = cl.tron(objective, cl.TRON_MAX_ITER, 1e-30)
        assert record["converged"] is False and record["stop"] == "no_progress"
        assert record["n_iter"] < cl.TRON_MAX_ITER and 0.0 < record["gradient_ratio"] < 1e-8

    def test_fit_is_deterministic(self):
        docs, labels, n_features = random_instance(3)
        matrix = csr(docs, n_features)
        a = cl.fit_logistic_regression(matrix, labels)
        b = cl.fit_logistic_regression(matrix, labels)
        assert np.array_equal(a.weights, b.weights) and a.bias == b.bias

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_infinite_feature_value_raises_divergence(self):
        matrix = csr([{0: 1.0}, {0: np.inf}], 1)
        with pytest.raises(DivergenceError, match="not finite"):
            cl.fit_logistic_regression(matrix, [0, 1])
        with pytest.raises(DivergenceError, match="not finite"):
            cl.fit_linear_svm(matrix, [0, 1])

    def test_validation(self):
        matrix = csr([{0: 1}, {1: 1}], 2)
        with pytest.raises(TrainingError):
            cl.fit_logistic_regression(matrix, [0, 1], l2=-1.0)
        with pytest.raises(TrainingError):
            cl.fit_logistic_regression(csr([{0: 1}], 1), [1])


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
    return csr(docs, n_features), labels


class TestLinearSvm:
    def test_separable_points_get_opposite_margins(self):
        matrix = csr([{0: 1}, {1: 1}], 2)
        model = cl.fit_linear_svm(matrix, [1, 0], c=1.0)
        pos = predict_row(model, row_dict(matrix, 0))
        neg = predict_row(model, row_dict(matrix, 1))
        assert pos.label == 1 and neg.label == 0
        assert pos.score > 0 > neg.score

    def test_c_zero_keeps_weights_at_zero(self):
        model = cl.fit_linear_svm(*svm_instance(), c=0.0)
        assert np.all(model.weights == 0.0) and model.bias == 0.0
        assert model.train_meta["converged"] is True
        assert model.train_meta["n_iter"] == 0 and model.train_meta["stop"] == "gradient"
        assert model.train_meta["objective"] == 0.0

    def test_default_fit_converges_and_records_it(self):
        model = cl.fit_linear_svm(*svm_instance(seed=7))
        meta = model.train_meta
        assert meta["converged"] is True
        assert set(meta) == {"c", "max_iter", "tol", "converged", "stop", "n_iter", "cg_steps",
                             "objective", "gradient_ratio"}
        assert meta["stop"] == "gradient" and meta["gradient_ratio"] <= meta["tol"]
        assert meta["cg_steps"] >= meta["n_iter"]
        objective = cl.squared_hinge_objective(*svm_instance(seed=7), 1.0)
        theta = np.append(model.weights, model.bias)
        assert meta["objective"] == objective.at(theta)[0]

    def test_fit_is_deterministic(self):
        matrix, labels = svm_instance(seed=7)
        a = cl.fit_linear_svm(matrix, labels)
        b = cl.fit_linear_svm(matrix, labels)
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
        with pytest.raises(TrainingError):
            cl.fit_linear_svm(*svm_instance(), c=-1.0)
        with pytest.raises(TrainingError):
            cl.fit_linear_svm(csr([{0: 1}], 1), [1])
