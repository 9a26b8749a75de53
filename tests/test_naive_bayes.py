import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import csr, predict_row, random_instance
from vngender import classical as cl
from vngender.errors import TrainingError

TOY_DOCS = [{0: 2, 1: 1}, {0: 1, 2: 1}, {2: 3}, {1: 1, 2: 1}]
TOY_LABELS = [1, 1, 0, 0]
ALPHAS = (0.5, 1.0, 2.0)
# alpha = 0 gives -inf log factors; the multinomial oracle itself divides by
# zero there, so only the Bernoulli tests include it.
BERNOULLI_ALPHAS = (0.0,) + ALPHAS


def probe_docs(docs, n_features):
    probes = list(docs)
    probes.append({})
    probes.append({f: 1 for f in range(n_features)})
    return probes


class TestMultinomialNb:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_toy_corpus_matches_oracle(self, alpha):
        model = cl.fit_multinomial_nb(csr(TOY_DOCS, 3), TOY_LABELS, alpha)
        for doc in probe_docs(TOY_DOCS, 3):
            expected = oracles.multinomial_posterior(TOY_DOCS, TOY_LABELS, alpha, doc, 3)
            assert predict_row(model, doc).score == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10_000), alpha=st.sampled_from(ALPHAS))
    def test_random_instances_match_oracle(self, seed, alpha):
        docs, labels, n_features = random_instance(seed)
        model = cl.fit_multinomial_nb(csr(docs, n_features), labels, alpha)
        for doc in probe_docs(docs, n_features):
            expected = oracles.multinomial_posterior(docs, labels, alpha, doc, n_features)
            assert predict_row(model, doc).score == pytest.approx(expected, abs=1e-12)

    def test_identical_rows_in_balanced_classes_score_half(self):
        model = cl.fit_multinomial_nb(csr([{0: 1, 1: 2}, {0: 1, 1: 2}], 2), [0, 1], 1.0)
        assert predict_row(model, {0: 1, 1: 2}).score == pytest.approx(0.5)

    def test_score_half_ties_to_label_one(self):
        model = cl.fit_multinomial_nb(csr([{0: 1}, {0: 1}], 1), [0, 1], 1.0)
        assert predict_row(model, {0: 1}).label == 1

    def test_unseen_token_has_finite_posterior(self):
        docs = [{0: 3}, {1: 2}]
        model = cl.fit_multinomial_nb(csr(docs, 3), [1, 0], 1.0)
        score = predict_row(model, {2: 5}).score
        assert 0.0 < score < 1.0

    def test_single_class_rejected(self):
        with pytest.raises(TrainingError):
            cl.fit_multinomial_nb(csr([{0: 1}, {1: 1}], 2), [1, 1], 1.0)

    def test_negative_alpha_rejected(self):
        with pytest.raises(TrainingError):
            cl.fit_multinomial_nb(csr(TOY_DOCS, 3), TOY_LABELS, -0.5)


class TestBernoulliNb:
    @pytest.mark.parametrize("alpha", BERNOULLI_ALPHAS)
    def test_toy_corpus_matches_oracle(self, alpha):
        model = cl.fit_bernoulli_nb(csr(TOY_DOCS, 3), TOY_LABELS, alpha)
        for doc in probe_docs(TOY_DOCS, 3):
            expected = oracles.bernoulli_posterior(TOY_DOCS, TOY_LABELS, alpha, doc, 3)
            assert predict_row(model, doc).score == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10_000), alpha=st.sampled_from(BERNOULLI_ALPHAS))
    def test_random_instances_match_oracle(self, seed, alpha):
        docs, labels, n_features = random_instance(seed)
        model = cl.fit_bernoulli_nb(csr(docs, n_features), labels, alpha)
        for doc in probe_docs(docs, n_features):
            expected = oracles.bernoulli_posterior(docs, labels, alpha, doc, n_features)
            assert predict_row(model, doc).score == pytest.approx(expected, abs=1e-12)

    def test_duplicated_token_scores_like_deduplicated(self):
        model = cl.fit_bernoulli_nb(csr(TOY_DOCS, 3), TOY_LABELS, 1.0)
        assert predict_row(model, {0: 5}).score == predict_row(model, {0: 1}).score

    def test_all_absent_doc_matches_oracle(self):
        model = cl.fit_bernoulli_nb(csr(TOY_DOCS, 3), TOY_LABELS, 1.0)
        expected = oracles.bernoulli_posterior(TOY_DOCS, TOY_LABELS, 1.0, {}, 3)
        assert predict_row(model, {}).score == pytest.approx(expected, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(TrainingError):
            cl.fit_bernoulli_nb(csr([{0: 1}, {1: 1}], 2), [0, 0], 1.0)
