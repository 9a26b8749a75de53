import math
import unicodedata

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from conftest import python_frames
from vngender import featurize as fz
from vngender.errors import FeaturizeError, TrainingError

TOKENS = st.sampled_from(["thị", "hiền", "văn", "nam", "đức", "mai", "an"])
DOCS = st.lists(st.lists(TOKENS, max_size=6), min_size=1, max_size=10)
# One syllable in its composed and decomposed forms, which are different tokens.
SYLLABLES = st.sampled_from(["hiền", unicodedata.normalize("NFD", "hiền"), "văn", "a", "đức"])


def fit(corpus, mode="count", max_features=None):
    return fz.fit_vocabulary(fz.encode(corpus), fz.VectorizerConfig(mode, max_features))


def transform(docs, vocab, mode="count"):
    return fz.transform(fz.encode(docs), vocab, fz.VectorizerConfig(mode))


def vec(doc, vocab, mode="count") -> dict:
    """The one row of transform([doc]) as a dict feature -> value."""
    m = transform([doc], vocab, mode)
    return dict(zip(m.indices.tolist(), m.data.tolist()))


class TestFitVocabulary:
    def test_counts_all_distinct_tokens(self):
        vocab = fit([["thị", "hiền"], ["văn", "nam"]])
        assert len(vocab) == 4

    def test_max_features_tie_breaks_lexicographically(self):
        vocab = fit([["thị", "hiền"], ["văn", "nam"]], max_features=1)
        assert vocab.tokens == ("hiền",)

    def test_ranking_prefers_higher_total_count(self):
        vocab = fit([["văn", "văn"], ["nam"]], max_features=1)
        assert vocab.tokens == ("văn",)

    def test_doc_freq_and_n_docs(self):
        vocab = fit([["an"], ["an"], ["nam"]])
        assert vocab.n_docs == 3
        assert vocab.doc_freq[vocab.index_of["an"]] == 2
        assert vocab.doc_freq[vocab.index_of["nam"]] == 1

    def test_indices_follow_lexicographic_order(self):
        vocab = fit([["văn", "an", "nam"]])
        assert vocab.tokens == tuple(sorted(vocab.tokens))
        assert [vocab.index_of[t] for t in vocab.tokens] == [0, 1, 2]

    def test_empty_corpus_errors(self):
        with pytest.raises(FeaturizeError):
            fit([])

    def test_all_empty_docs_error(self):
        with pytest.raises(FeaturizeError):
            fit([[], []])

    def test_config_validation(self):
        with pytest.raises(FeaturizeError):
            fz.VectorizerConfig("binary")
        with pytest.raises(FeaturizeError):
            fz.VectorizerConfig("count", 0)

    @given(DOCS)
    def test_fit_is_deterministic(self, corpus):
        try:
            a = fit(corpus)
        except FeaturizeError:
            return
        b = fit(corpus)
        assert a.tokens == b.tokens
        assert np.array_equal(a.doc_freq, b.doc_freq)
        assert a.n_docs == b.n_docs


class TestTransformCount:
    def test_raw_counts(self):
        vocab = fit([["thị", "hiền"], ["văn"]])
        v = vec(["thị", "thị", "hiền"], vocab)
        assert v[vocab.index_of["thị"]] == 2.0
        assert v[vocab.index_of["hiền"]] == 1.0

    def test_oov_dropped(self):
        vocab = fit([["thị"]])
        assert vec(["zzz"], vocab) == {}

    def test_empty_doc(self):
        vocab = fit([["thị"]])
        assert vec([], vocab) == {}

    @given(DOCS, st.lists(TOKENS, max_size=8))
    def test_l1_counts_in_vocab_tokens(self, corpus, doc):
        try:
            vocab = fit(corpus)
        except FeaturizeError:
            return
        v = vec(doc, vocab)
        in_vocab = sum(1 for t in doc if t in vocab.index_of)
        assert sum(v.values()) == in_vocab
        assert all(w == int(w) and w > 0 for w in v.values())

    @given(DOCS, st.lists(TOKENS, max_size=8))
    def test_max_features_preserves_surviving_weights(self, corpus, doc):
        try:
            full = fit(corpus)
        except FeaturizeError:
            return
        capped = fit(corpus, max_features=2)
        v_full = vec(doc, full)
        v_capped = vec(doc, capped)
        for token in capped.tokens:
            assert v_capped.get(capped.index_of[token], 0.0) == v_full.get(
                full.index_of[token], 0.0
            )


class TestTransformTfidf:
    def test_equal_idf_normalizes_to_diagonal(self):
        vocab = fit([["a", "b"]], mode="tfidf")
        for w in vec(["a", "b"], vocab, "tfidf").values():
            assert w == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)

    def test_single_feature_normalizes_to_one(self):
        vocab = fit([["a", "b"]], mode="tfidf")
        assert vec(["a", "a"], vocab, "tfidf") == {vocab.index_of["a"]: 1.0}

    def test_empty_doc(self):
        vocab = fit([["a"]], mode="tfidf")
        assert vec([], vocab, "tfidf") == {}

    def test_idf_weights_rarer_tokens_higher(self):
        vocab = fit([["a", "b"], ["a"], ["a"]], mode="tfidf")
        v = vec(["a", "b"], vocab, "tfidf")
        assert v[vocab.index_of["b"]] > v[vocab.index_of["a"]]

    @given(DOCS, st.lists(TOKENS, min_size=1, max_size=8))
    def test_unit_l2_norm(self, corpus, doc):
        try:
            vocab = fit(corpus, mode="tfidf")
        except FeaturizeError:
            return
        v = vec(doc, vocab, "tfidf")
        if v:
            assert abs(math.sqrt(sum(w * w for w in v.values())) - 1.0) <= 1e-12


class TestBatchTransform:
    @given(DOCS, st.lists(st.lists(TOKENS, max_size=6), max_size=8),
           st.sampled_from(fz.VECTORIZER_MODES))
    def test_matches_token_by_token_oracle(self, corpus, docs, mode):
        try:
            vocab = fit(corpus)
        except FeaturizeError:
            return
        m = transform(docs, vocab, mode)
        for i, doc in enumerate(docs):
            expected = oracles.vectorize(doc, vocab.tokens, vocab.doc_freq, vocab.n_docs, mode)
            sl = slice(m.indptr[i], m.indptr[i + 1])
            assert m.indices[sl].tolist() == sorted(expected)
            assert m.data[sl] == pytest.approx([expected[f] for f in sorted(expected)],
                                               rel=1e-14, abs=0.0)

    @given(DOCS, st.lists(st.lists(TOKENS, max_size=6), max_size=8),
           st.sampled_from(fz.VECTORIZER_MODES))
    def test_batch_rows_equal_single_rows(self, corpus, docs, mode):
        try:
            vocab = fit(corpus)
        except FeaturizeError:
            return
        m = transform(docs, vocab, mode)
        assert len(m) == len(docs)
        for i, doc in enumerate(docs):
            sl = slice(m.indptr[i], m.indptr[i + 1])
            assert dict(zip(m.indices[sl].tolist(), m.data[sl].tolist())) == vec(doc, vocab, mode)

    @given(DOCS, st.lists(st.lists(TOKENS, max_size=6), max_size=8))
    def test_rows_sorted_without_zeros(self, corpus, docs):
        try:
            vocab = fit(corpus)
        except FeaturizeError:
            return
        m = transform(docs, vocab)
        for i in range(len(m)):
            assert np.all(np.diff(m.indices[m.indptr[i]:m.indptr[i + 1]]) > 0)
        assert np.all(m.data > 0)

    def test_labels_ride_beside(self):
        # The matrix holds no labels; a fit gets them as a separate argument,
        # checked into int64.
        vocab = fit([["a"], ["b"]])
        m = transform([["a"], ["b"]], vocab)
        assert not hasattr(m, "labels")
        y = fz.check_labels(len(m), [True, False])
        assert y.dtype == np.int64 and y.tolist() == [1, 0]


class TestEncode:
    @given(st.lists(st.lists(TOKENS, max_size=6), max_size=10))
    def test_docs_round_trip(self, docs):
        encoded = fz.encode(docs)
        assert encoded.tokens == tuple(sorted(set(encoded.tokens)))
        assert len(encoded) == len(docs)
        assert encoded.docs() == [list(doc) for doc in docs]
        which = list(range(len(docs)))[::-2]
        assert encoded.docs(which) == [list(docs[r]) for r in which]

    @given(docs=st.lists(st.lists(SYLLABLES, max_size=7), max_size=12), chunk=st.integers(1, 5))
    def test_one_pass_matches_set_based_oracle(self, docs, chunk):
        expected = oracles.set_encode(docs)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fz, "ENCODE_CHUNK", chunk)
            encoded = [fz.encode(docs), fz.encode(list(doc) for doc in docs),
                       fz.encode(tuple(map(tuple, docs)))]
        for got in encoded:
            assert got.tokens == expected.tokens
            assert got.n_docs == expected.n_docs
            for name in ("rows", "ids"):
                ours, theirs = getattr(got, name), getattr(expected, name)
                assert ours.dtype == theirs.dtype
                assert ours.tolist() == theirs.tolist()


    def test_no_python_frame_per_token(self):
        docs = [["nguyễn", "thị", "hiền"], ["lan"], [], ["trần", "văn", "văn", "nam"]]
        few, few_frames = python_frames(fz.encode, docs)
        many, many_frames = python_frames(fz.encode, docs * 500)
        assert many.ids.tolist() == few.ids.tolist() * 500
        assert many_frames == few_frames


class TestColumns:
    @given(DOCS, st.lists(st.lists(TOKENS, max_size=6), max_size=8))
    def test_every_entry_gets_its_vocabulary_index(self, corpus, docs):
        vocab = fit(corpus + [["thị", "an", "an"]], max_features=3)
        got = fz.columns(fz.encode(docs), vocab).tolist()
        assert got == [vocab.index_of.get(tok, len(vocab)) for doc in docs for tok in doc]


def split_encoded(corpus, docs):
    """`corpus` and `docs` encoded over one token universe, as the ablation
    encodes its train and test subsets."""
    both = fz.encode(list(corpus) + list(docs))
    first = both.rows < len(corpus)
    return (fz.TokenIds(both.rows[first], both.ids[first], both.tokens, len(corpus)),
            fz.TokenIds(both.rows[~first] - len(corpus), both.ids[~first], both.tokens,
                        len(docs)))


class TestTokenListOracle:
    @given(DOCS, st.lists(st.lists(TOKENS, max_size=6), max_size=8),
           st.sampled_from(fz.VECTORIZER_MODES), st.none() | st.integers(1, 7))
    def test_shared_universe_matches_counter_path(self, corpus, docs, mode, max_features):
        cfg = fz.VectorizerConfig(mode, max_features)
        fit_part, docs_part = split_encoded(corpus, docs)
        try:
            vocab = fz.fit_vocabulary(fit_part, cfg)
        except FeaturizeError:
            assert not any(corpus)
            return
        expected = oracles.token_vocabulary(corpus, cfg)
        assert vocab.tokens == expected.tokens
        assert vocab.index_of == expected.index_of
        assert vocab.doc_freq.tolist() == expected.doc_freq.tolist()
        assert vocab.n_docs == expected.n_docs
        for ours, theirs in ((fz.transform(docs_part, vocab, cfg),
                              oracles.token_transform(docs, vocab, cfg)),
                             (fz.transform(fit_part, vocab, cfg),
                              oracles.token_transform(corpus, vocab, cfg))):
            for name in ("indptr", "indices", "data"):
                assert getattr(ours, name).tolist() == getattr(theirs, name).tolist()


class TestCsrMatrix:
    def test_out_of_range_feature_rejected(self):
        with pytest.raises(FeaturizeError, match="out of range"):
            fz.CsrMatrix([0, 1], [3], [1.0], 3)

    def test_unsorted_row_rejected(self):
        with pytest.raises(FeaturizeError, match="strictly increasing"):
            fz.CsrMatrix([0, 2], [2, 1], [1.0, 1.0], 3)

    def test_stored_zero_rejected(self):
        with pytest.raises(FeaturizeError, match="non-zero"):
            fz.CsrMatrix([0, 1], [1], [0.0], 3)

    def test_inconsistent_indptr_rejected(self):
        with pytest.raises(FeaturizeError):
            fz.CsrMatrix([0, 2], [1], [1.0], 3)

    def test_row_sums_match_alone_and_in_batch(self):
        m = fz.CsrMatrix([0, 2, 2, 5], [0, 3, 1, 2, 3], [0.1, 0.2, 0.3, 0.4, 0.5], 4)
        alone = fz.CsrMatrix([0, 3], [1, 2, 3], [0.3, 0.4, 0.5], 4)
        assert m.row_sums(m.data)[2] == alone.row_sums(alone.data)[0]
        assert m.row_sums(m.data)[1] == 0.0


class TestCheckLabels:
    @pytest.mark.parametrize("n_rows, labels, message", [
        (2, [1, 2], "^labels must be 0 or 1$"),
        (2, [1, 0.5], "^labels must be 0 or 1$"),
        (1, [1, 0], r"^expected 1 labels, one per row, got shape \(2,\)$"),
        (2, [[1, 0]], r"^expected 2 labels, one per row, got shape \(1, 2\)$"),
        (2, [1, 1], "^training set contains a single class$"),
        (0, [], "^empty training set$"),
    ])
    def test_label_validation(self, n_rows, labels, message):
        with pytest.raises(TrainingError, match=message):
            fz.check_labels(n_rows, labels)
