import builtins
import gc
import math
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import planted_docs
from vngender import classical, lstm
from vngender.featurize import TokenIds, encode
from vngender.errors import (
    DivergenceError,
    EmbeddingError,
    EmptySequenceError,
    TrainingError,
)


def write_vec(tmp_path, text, name="vectors.vec"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def zero_lstm_params(dim, hidden):
    """Every tensor zero, so every sequence scores exactly 0.5."""
    z = lambda *shape: np.zeros(shape, dtype=np.float64)
    return lstm.LstmParams(w=z(4 * hidden, dim), u=z(4 * hidden, hidden), b=z(4 * hidden),
                           out_w=z(hidden), out_b=z())


def batch_loss(sequences, labels, emb, params):
    return lstm.batch_gradients(encode(sequences), labels, emb, params)[0]


def score_one(tokens, emb, params, max_seq_len=None):
    """P(label 1) of one token list, scored as a batch of one."""
    return float(lstm.predict_lstm(encode([tokens]), emb, params, max_seq_len)[0])


def model_of(params, emb):
    return lstm.LstmModel(params, lstm.LstmTrainConfig(hidden=params.hidden), emb.source, {}, emb)


def random_params(dim, hidden, rng):
    """Parameters drawn from N(0, 1), large enough to saturate some gates."""
    params = lstm.init_lstm_params(dim, hidden)
    for arr in params.tensors().values():
        arr[...] = rng.normal(0.0, 1.0, arr.shape)
    return params


def random_batch(rng):
    """Up to 12 token sequences of mixed lengths 1..8 over a small pool, so
    tokens repeat within and across sequences, with random labels."""
    pool = [f"t{i}" for i in range(int(rng.integers(1, 10)))]
    seqs = [[str(rng.choice(pool)) for _ in range(int(rng.integers(1, 9)))]
            for _ in range(int(rng.integers(1, 13)))]
    return seqs, rng.integers(0, 2, len(seqs)).tolist()


class TestLoadEmbeddings:
    def test_parses_header_and_rows(self, tmp_path):
        path = write_vec(tmp_path, "2 3\na 1 0 0\nb 0 1 0\n")
        table = lstm.load_embeddings(path, 3)
        assert table.dim == 3
        assert set(table.vectors) == {"a", "b"}
        assert np.array_equal(table.lookup("a"), [1.0, 0.0, 0.0])
        assert table.source["kind"] == "vec_file"

    def test_header_dim_mismatch(self, tmp_path):
        path = write_vec(tmp_path, "1 300\na " + " ".join(["0"] * 300) + "\n")
        with pytest.raises(EmbeddingError, match="300"):
            lstm.load_embeddings(path, 64)

    def test_row_dim_mismatch_names_line(self, tmp_path):
        path = write_vec(tmp_path, "2 3\na 1 0 0\nb 0 1\n")
        with pytest.raises(EmbeddingError, match=":3:"):
            lstm.load_embeddings(path, 3)

    def test_non_numeric_component_names_line(self, tmp_path):
        path = write_vec(tmp_path, "1 3\na 1 x 0\n")
        with pytest.raises(EmbeddingError, match=":2:"):
            lstm.load_embeddings(path, 3)

    def test_duplicate_token_keeps_first_and_warns(self, tmp_path):
        path = write_vec(tmp_path, "2 2\na 1 0\na 0 1\n")
        with pytest.warns(UserWarning, match="duplicate"):
            table = lstm.load_embeddings(path, 2)
        assert np.array_equal(table.lookup("a"), [1.0, 0.0])

    def test_missing_file(self, tmp_path):
        with pytest.raises(EmbeddingError, match="not found"):
            lstm.load_embeddings(tmp_path / "missing.vec", 3)

    def test_reads_each_file_once_and_closes_it(self, tmp_path, monkeypatch):
        path = write_vec(tmp_path, "2 3\na 1 0 0\nb 0 1 0\n")
        opened, unraisable = [], []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        # An unclosed file warns when it is collected, inside __del__, where
        # the warning cannot propagate; it reaches sys.unraisablehook instead.
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            table = lstm.load_embeddings(path, 3)
            resolved = lstm.resolve_embeddings(table.source)
            gc.collect()
        assert unraisable == []
        assert opened == [path, str(path)]
        assert resolved.source == table.source
        assert np.array_equal(resolved.lookup("b"), [0.0, 1.0, 0.0])

    def test_resolve_refuses_changed_content(self, tmp_path):
        path = write_vec(tmp_path, "1 2\na 1 0\n")
        source = lstm.load_embeddings(path, 2).source
        write_vec(tmp_path, "1 2\na 0 1\n")
        with pytest.raises(EmbeddingError, match="content changed"):
            lstm.resolve_embeddings(source)
        path.unlink()
        with pytest.raises(EmbeddingError, match="missing"):
            lstm.resolve_embeddings(source)


class TestOovLookup:
    def test_lookup_is_stable(self):
        table = lstm.random_embeddings(8, seed=3)
        assert np.array_equal(table.lookup("đức"), table.lookup("đức"))

    def test_draws_do_not_depend_on_lookup_order(self):
        a = lstm.random_embeddings(8, seed=3)
        b = lstm.random_embeddings(8, seed=3)
        a.lookup("x")
        vec_a = a.lookup("y")
        vec_b = b.lookup("y")
        assert np.array_equal(vec_a, vec_b)

    def test_draws_respect_range_and_seed(self):
        table = lstm.random_embeddings(64, seed=1)
        vec = table.lookup("token")
        assert np.all(np.abs(vec) <= lstm.OOV_HALF_RANGE)
        other = lstm.random_embeddings(64, seed=2).lookup("token")
        assert not np.array_equal(vec, other)

    def test_matrix_rows_are_lookups(self):
        table = lstm.EmbeddingTable(2, {"a": np.array([1.0, 2.0])}, oov_seed=4)
        matrix = table.matrix(["b", "a"])
        assert matrix.shape == (2, 2)
        assert np.array_equal(matrix[0], table.lookup("b"))
        assert np.array_equal(matrix[1], [1.0, 2.0])
        assert table.matrix([]).shape == (0, 2)

    def test_scoring_fresh_tokens_keeps_retained_memory_flat(self):
        emb = lstm.random_embeddings(16, seed=0)
        model = model_of(lstm.init_lstm_params(16, 4, seed=0), emb)

        def fresh_names(start, count):
            return [["họ", f"tên{i}"] for i in range(start, start + count)]

        model.score(encode(fresh_names(0, 1000)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for start in range(1000, 21_000, 1000):
                model.score(encode(fresh_names(start, 1000)))
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # 20,000 cached 16-dim vectors would hold about 5 MB.
        assert retained < 500_000
        assert emb.vectors == {}


def scalar_oracle_forward(tokens, vectors, p):
    """Step-by-step scalar recurrence, independent of the numpy path."""
    sig = lambda z: 1.0 / (1.0 + math.exp(-z))
    hidden = p.hidden
    h = [0.0] * hidden
    c = [0.0] * hidden
    for tok in tokens:
        x = vectors[tok]
        nh, ncell = [0.0] * hidden, [0.0] * hidden
        for j in range(hidden):
            # Row j of gate k is row k * hidden + j of the stacked tensors.
            zi, zf, zo, zc = (
                sum(p.w[k * hidden + j][d] * x[d] for d in range(p.dim))
                + sum(p.u[k * hidden + j][d] * h[d] for d in range(hidden))
                + p.b[k * hidden + j]
                for k in range(4)
            )
            gi, gf, go = sig(zi), sig(zf), sig(zo)
            gc = math.tanh(zc)
            ncell[j] = gf * c[j] + gi * gc
            nh[j] = go * math.tanh(ncell[j])
        h, c = nh, ncell
    logit = sum(p.out_w[j] * h[j] for j in range(hidden)) + float(p.out_b)
    return sig(logit)


class TestForward:
    def test_zero_params_output_half(self):
        emb = lstm.random_embeddings(5, seed=0)
        params = zero_lstm_params(5, 3)
        assert score_one(["a", "b", "c"], emb, params) == 0.5

    def test_small_model_matches_scalar_oracle(self):
        vectors = {
            "a": np.array([0.3, -0.4]),
            "b": np.array([-0.1, 0.6]),
            "c": np.array([0.05, 0.2]),
        }
        emb = lstm.EmbeddingTable(2, vectors)
        params = lstm.init_lstm_params(2, 2, seed=17)
        got = score_one(["a", "b", "c"], emb, params)
        want = scalar_oracle_forward(["a", "b", "c"], vectors, params)
        assert got == pytest.approx(want, abs=1e-10)

    def test_forward_is_deterministic(self):
        emb = lstm.random_embeddings(4, seed=5)
        params = lstm.init_lstm_params(4, 6, seed=2)
        runs = {score_one(["tú", "tú"], emb, params) for _ in range(3)}
        assert len(runs) == 1

    def test_output_strictly_inside_unit_interval(self):
        emb = lstm.random_embeddings(4, seed=5)
        for seed in range(10):
            params = lstm.init_lstm_params(4, 6, seed=seed)
            out = score_one(["a", "b"], emb, params)
            assert 0.0 < out < 1.0

    def test_empty_sequence_rejected(self):
        emb = lstm.random_embeddings(4, seed=5)
        params = zero_lstm_params(4, 2)
        with pytest.raises(EmptySequenceError, match=r"\(name 1\)"):
            lstm.predict_lstm(encode([["a"], []]), emb, params)

    def test_sigmoid_equals_the_two_sided_formula_and_never_overflows(self):
        z = np.concatenate([
            [-1e308, -800.0, -40.0, -0.0, 0.0, 40.0, 800.0, 1e308, np.inf, -np.inf],
            np.random.default_rng(0).normal(0.0, 20.0, 2000),
        ])
        with np.errstate(over="raise", invalid="raise"):
            got = lstm.sigmoid(z)
        assert np.array_equal(got, oracles.masked_sigmoid(z))
        assert lstm.sigmoid(z.reshape(30, 67)).shape == (30, 67)


class TestGradients:
    @pytest.mark.parametrize("seed", range(3))
    def test_bptt_matches_central_differences(self, seed):
        emb = lstm.random_embeddings(3, seed=seed)
        params = lstm.init_lstm_params(3, 4, seed=seed + 50)
        seqs = [["a", "b", "c"], ["d"], ["e", "f"]]
        labels = [1, 0, 1]
        _, grads = lstm.batch_gradients(encode(seqs), labels, emb, params)
        for name, arr in params.tensors().items():
            fd = oracles.fd_gradient(
                lambda: batch_loss(seqs, labels, emb, params), arr, 1e-4
            )
            assert oracles.tensor_rel_error(grads[name], fd) <= 1e-4, name

    def test_zero_params_first_batch_loss_is_ln2(self):
        emb = lstm.random_embeddings(6, seed=0)
        params = zero_lstm_params(6, 4)
        loss = batch_loss([["a"], ["b", "c"], ["d"]], [1, 0, 1], emb, params)
        assert loss == pytest.approx(math.log(2.0), abs=1e-6)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_loss_and_gradients_match_gate_by_gate_oracle(self, seed):
        rng = np.random.default_rng(seed)
        dim, hidden = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        emb = lstm.random_embeddings(dim, seed=seed)
        params = random_params(dim, hidden, rng)
        seqs, labels = random_batch(rng)
        loss, grads = lstm.batch_gradients(encode(seqs), labels, emb, params)
        vectors = [[emb.lookup(tok) for tok in seq] for seq in seqs]
        want_loss, want = oracles.lstm_loss_and_grads(vectors, labels, **params.tensors())
        assert abs(loss - want_loss) <= 1e-12
        assert set(grads) == set(want)
        for name, grad in want.items():
            assert np.abs(np.asarray(grads[name]) - grad).max() <= 1e-12, name


class TestTraining:
    def test_same_seed_identical_loss_traces(self):
        docs, labels = planted_docs(120, 1.0, 13)
        emb = lstm.random_embeddings(8, seed=1)
        cfg = lstm.LstmTrainConfig(batch_size=16, epochs=3, learning_rate=0.5,
                                   hidden=8, seed=4)
        a = lstm.train_lstm(encode(docs), labels, emb, cfg)
        b = lstm.train_lstm(encode(docs), labels, emb, cfg)
        assert a.epoch_losses == b.epoch_losses
        for name, arr in a.params.tensors().items():
            assert np.array_equal(arr, b.params.tensors()[name])

    def test_planted_rule_training_accuracy(self):
        docs, labels = planted_docs(600, 1.0, 14)
        emb = lstm.random_embeddings(300, seed=2)
        cfg = lstm.LstmTrainConfig(batch_size=32, epochs=10, learning_rate=2.0,
                                   hidden=16, seed=5)
        result = lstm.train_lstm(encode(docs), labels, emb, cfg)
        preds = lstm.predict_lstm(encode(docs), emb, result.params, cfg.max_seq_len) >= 0.5
        accuracy = sum(p == y for p, y in zip(preds, labels)) / len(labels)
        assert accuracy >= 0.99

    def test_divergence_names_epoch_and_batch(self):
        docs, labels = planted_docs(64, 1.0, 15)
        emb = lstm.random_embeddings(4, seed=0)
        cfg = lstm.LstmTrainConfig(batch_size=16, epochs=3, learning_rate=0.1,
                                   hidden=4, seed=1)
        # An overflowing readout bias makes the very first batch loss non-finite.
        init = zero_lstm_params(4, 4)
        init.out_b[()] = 1e308
        # The overflow is reported as the error alone, without a numpy warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DivergenceError, match=r"epoch 1, batch 1"):
                lstm.train_lstm(encode(docs), labels, emb, cfg, init=init)

    def test_truncation_keeps_the_last_tokens(self):
        docs = [list("abcdefghij"), ["a", "b"], ["x", "y", "x", "z", "x"], ["y", "y", "y", "y"]]
        ids, lengths, tokens = lstm._sequences(encode(docs), 3, TrainingError, "{}")
        kept = [[tokens[i] for i in row[ids.shape[1] - n:]] for row, n in zip(ids, lengths)]
        assert kept == [doc[-3:] for doc in docs]
        # Ids number the kept tokens in order of first sight.
        assert tokens == ["h", "i", "j", "a", "b", "x", "z", "y"]
        emb = lstm.random_embeddings(4, seed=9)
        params = lstm.init_lstm_params(4, 3, seed=3)
        assert np.array_equal(lstm.predict_lstm(encode(docs), emb, params, 3),
                              lstm.predict_lstm(encode([doc[-3:] for doc in docs]), emb, params))

    def test_empty_document_names_its_index(self):
        docs = encode([["a"], ["b", "c"], [], ["d"]])
        emb = lstm.random_embeddings(4, seed=0)
        params = lstm.init_lstm_params(4, 2)
        with pytest.raises(TrainingError, match=r"^sequence 2 is empty$"):
            lstm.train_lstm(docs, [0, 1, 0, 1], emb, lstm.LstmTrainConfig(hidden=2))
        with pytest.raises(EmptySequenceError, match=r"^sequence 2 is empty$"):
            lstm.batch_gradients(docs, [0, 1, 0, 1], emb, params)
        with pytest.raises(EmptySequenceError, match=r"empty token sequence \(name 2\)"):
            lstm.predict_lstm(docs, emb, params)

    def test_fit_does_not_depend_on_the_universe_order(self):
        docs, labels = planted_docs(90, 0.9, 18)
        docs[5] = [f"t{i}" for i in range(11)]
        ordered = encode(docs)
        # The same documents over a shuffled universe with tokens they do not use.
        universe = list(ordered.tokens) + ["unused1", "unused2"]
        perm = np.random.default_rng(3).permutation(len(universe))
        new_id = np.argsort(perm)
        shuffled = TokenIds(ordered.rows, new_id[ordered.ids],
                            tuple(universe[i] for i in perm), ordered.n_docs)
        assert shuffled.docs() == ordered.docs()
        emb = lstm.random_embeddings(6, seed=2)
        cfg = lstm.LstmTrainConfig(batch_size=16, epochs=2, learning_rate=0.5, hidden=5, seed=8)
        a = lstm.train_lstm(ordered, labels, emb, cfg)
        b = lstm.train_lstm(shuffled, labels, emb, cfg)
        assert a.epoch_losses == b.epoch_losses
        for name, arr in a.params.tensors().items():
            assert np.array_equal(arr, b.params.tensors()[name]), name

    def test_single_class_rejected(self):
        emb = lstm.random_embeddings(4, seed=0)
        cfg = lstm.LstmTrainConfig(hidden=4)
        with pytest.raises(TrainingError):
            lstm.train_lstm(encode([["a"], ["b"]]), [1, 1], emb, cfg)

    def test_config_validation(self):
        with pytest.raises(TrainingError):
            lstm.LstmTrainConfig(batch_size=0)
        with pytest.raises(TrainingError):
            lstm.LstmTrainConfig(epochs=0)

    def test_zero_hidden_units_rejected(self):
        with pytest.raises(TrainingError, match="hidden"):
            lstm.LstmTrainConfig(hidden=0)

    def test_zero_embedding_dim_rejected(self):
        with pytest.raises(TrainingError, match="embedding_dim"):
            lstm.fit_lstm(encode([["a"], ["b"]]), [1, 0], embedding_dim=0, hidden=2)

    def test_init_stacks_the_per_gate_draws(self):
        # The draws of the per-gate layout (w_i, w_f, w_o, w_c, u_i, ...,
        # b_c, out_w, out_b), stacked in i, f, o, c order.
        rng = np.random.default_rng(7)
        draw = lambda *shape: rng.uniform(-lstm.INIT_HALF_RANGE, lstm.INIT_HALF_RANGE, shape)
        w = np.concatenate([draw(6, 4) for _ in range(4)])
        u = np.concatenate([draw(6, 6) for _ in range(4)])
        b = np.concatenate([draw(6) for _ in range(4)])
        out_w, out_b = draw(6), draw()
        params = lstm.init_lstm_params(4, 6, seed=7)
        assert np.all(params.b[6:12] == 1.0)
        b[6:12] = 1.0
        for got, want in zip(params.tensors().values(), (w, u, b, out_w, out_b)):
            assert np.array_equal(got, want)

    def test_training_matches_an_sgd_loop_on_the_oracle(self):
        docs, labels = planted_docs(70, 0.9, 16)
        docs[3] = [f"t{i}" for i in range(11)]      # truncated to its last 8 tokens
        emb = lstm.random_embeddings(6, seed=2)
        cfg = lstm.LstmTrainConfig(batch_size=16, epochs=2, learning_rate=0.5,
                                   hidden=5, seed=8)
        result = lstm.train_lstm(encode(docs), labels, emb, cfg)

        init_seed, shuffle_seed = np.random.SeedSequence(cfg.seed).spawn(2)
        params = lstm.init_lstm_params(6, 5, init_seed).tensors()
        shuffle_rng = np.random.default_rng(shuffle_seed)
        vectors = [[emb.lookup(tok) for tok in doc[-cfg.max_seq_len:]] for doc in docs]
        losses = []
        for _ in range(cfg.epochs):
            order = shuffle_rng.permutation(len(docs))
            loss_sum = 0.0
            for start in range(0, len(docs), cfg.batch_size):
                rows = order[start:start + cfg.batch_size]
                loss, grads = oracles.lstm_loss_and_grads(
                    [vectors[i] for i in rows], [labels[i] for i in rows], **params)
                for name, arr in params.items():
                    arr -= cfg.learning_rate * grads[name]
                loss_sum += loss * len(rows)
            losses.append(loss_sum / len(docs))
        assert np.abs(np.array(result.epoch_losses) - losses).max() <= 1e-12
        for name, arr in result.params.tensors().items():
            assert np.abs(arr - params[name]).max() <= 1e-12, name


class TestPredictLstm:
    def test_zero_params_tie_to_label_one(self):
        emb = lstm.random_embeddings(4, seed=0)
        labels, scores = classical.predict(model_of(zero_lstm_params(4, 2), emb), encode([["a"]]))
        assert scores[0] == 0.5 and labels[0] == 1

    def test_probability_below_half_gives_label_zero(self):
        emb = lstm.random_embeddings(4, seed=0)
        params = zero_lstm_params(4, 2)
        params.out_b[()] = -1.0
        labels, scores = classical.predict(model_of(params, emb), encode([["a"]]))
        assert labels[0] == 0 and scores[0] < 0.5

    def test_truncates_before_forward(self):
        emb = lstm.random_embeddings(4, seed=9)
        params = lstm.init_lstm_params(4, 3, seed=3)
        long_tokens = [f"t{i}" for i in range(12)]
        assert (
            score_one(long_tokens, emb, params, max_seq_len=4)
            == score_one(long_tokens[-4:], emb, params)
        )

    def test_model_scores_through_predict_lstm(self, monkeypatch):
        emb = lstm.random_embeddings(4, seed=9)
        calls = []
        monkeypatch.setattr(lstm, "predict_lstm", lambda *args: calls.append(args) or np.zeros(1))
        model = model_of(lstm.init_lstm_params(4, 3, seed=3), emb)
        docs = encode([["a", "b"]])
        model.score(docs)
        assert calls == [(docs, emb, model.params, model.cfg.max_seq_len)]

    @pytest.mark.parametrize("hidden", [3, 128])
    def test_a_name_scores_the_same_alone_and_in_a_batch(self, hidden):
        # Bit equality is not required: BLAS may round a product of one or
        # two rows differently from the same rows in a larger product.
        rng = np.random.default_rng(hidden)
        docs, _ = planted_docs(150, 1.0, 17, mask_label="full")
        docs += [["x"] * n for n in range(1, 10)]
        emb = lstm.random_embeddings(32, seed=1)
        model = model_of(random_params(32, hidden, rng), emb)
        labels, scores = classical.predict(model, encode(docs))
        alone = [classical.predict(model, encode([doc])) for doc in docs]
        assert [int(label[0]) for label, _ in alone] == labels.tolist()
        assert np.abs(np.array([score[0] for _, score in alone]) - scores).max() <= 1e-15

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000), chunk=st.integers(1, 5))
    def test_chunks_score_like_one_pass_and_like_the_oracle(self, seed, chunk):
        rng = np.random.default_rng(seed)
        dim, hidden = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        emb = lstm.random_embeddings(dim, seed=seed)
        params = random_params(dim, hidden, rng)
        seqs, _ = random_batch(rng)
        whole = lstm.predict_lstm(encode(seqs), emb, params)
        with mock.patch.object(lstm, "SCORE_CHUNK", chunk):
            chunked = lstm.predict_lstm(encode(seqs), emb, params)
        assert np.abs(chunked - whole).max() <= 1e-15
        for seq, score in zip(seqs, whole):
            # The oracle's loss for label 1 is softplus(-logit) = -log(score).
            loss, _ = oracles.lstm_loss_and_grads([[emb.lookup(t) for t in seq]], [1],
                                                  **params.tensors())
            assert abs(-math.log(score) - loss) <= 1e-12 * max(1.0, loss)
