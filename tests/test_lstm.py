import math

import numpy as np
import pytest

import oracles
from conftest import planted_docs
from vngender import lstm
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


class TestOovLookup:
    def test_lookup_is_cached_and_stable(self):
        table = lstm.random_embeddings(8, seed=3)
        first = table.lookup("đức")
        second = table.lookup("đức")
        assert first is second

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
            zi = sum(p.w_i[j][k] * x[k] for k in range(p.dim))
            zf = sum(p.w_f[j][k] * x[k] for k in range(p.dim))
            zo = sum(p.w_o[j][k] * x[k] for k in range(p.dim))
            zc = sum(p.w_c[j][k] * x[k] for k in range(p.dim))
            zi += sum(p.u_i[j][k] * h[k] for k in range(hidden)) + p.b_i[j]
            zf += sum(p.u_f[j][k] * h[k] for k in range(hidden)) + p.b_f[j]
            zo += sum(p.u_o[j][k] * h[k] for k in range(hidden)) + p.b_o[j]
            zc += sum(p.u_c[j][k] * h[k] for k in range(hidden)) + p.b_c[j]
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
        params = lstm.zero_lstm_params(5, 3)
        assert lstm.lstm_forward(["a", "b", "c"], emb, params) == 0.5

    def test_small_model_matches_scalar_oracle(self):
        vectors = {
            "a": np.array([0.3, -0.4]),
            "b": np.array([-0.1, 0.6]),
            "c": np.array([0.05, 0.2]),
        }
        emb = lstm.EmbeddingTable(2, vectors)
        params = lstm.init_lstm_params(2, 2, seed=17)
        got = lstm.lstm_forward(["a", "b", "c"], emb, params)
        want = scalar_oracle_forward(["a", "b", "c"], vectors, params)
        assert got == pytest.approx(want, abs=1e-10)

    def test_forward_is_deterministic(self):
        emb = lstm.random_embeddings(4, seed=5)
        params = lstm.init_lstm_params(4, 6, seed=2)
        runs = {lstm.lstm_forward(["tú", "tú"], emb, params) for _ in range(3)}
        assert len(runs) == 1

    def test_output_strictly_inside_unit_interval(self):
        emb = lstm.random_embeddings(4, seed=5)
        for seed in range(10):
            params = lstm.init_lstm_params(4, 6, seed=seed)
            out = lstm.lstm_forward(["a", "b"], emb, params)
            assert 0.0 < out < 1.0

    def test_empty_sequence_rejected(self):
        emb = lstm.random_embeddings(4, seed=5)
        params = lstm.zero_lstm_params(4, 2)
        with pytest.raises(EmptySequenceError):
            lstm.lstm_forward([], emb, params)


class TestGradients:
    @pytest.mark.parametrize("seed", range(3))
    def test_bptt_matches_central_differences(self, seed):
        emb = lstm.random_embeddings(3, seed=seed)
        params = lstm.init_lstm_params(3, 4, seed=seed + 50)
        seqs = [["a", "b", "c"], ["d"], ["e", "f"]]
        labels = [1, 0, 1]
        _, grads = lstm.batch_gradients(seqs, labels, emb, params)
        for name, arr in params.tensors().items():
            fd = oracles.fd_gradient(
                lambda: lstm.batch_loss(seqs, labels, emb, params), arr, 1e-4
            )
            assert oracles.tensor_rel_error(grads[name], fd) <= 1e-4, name

    def test_zero_params_first_batch_loss_is_ln2(self):
        emb = lstm.random_embeddings(6, seed=0)
        params = lstm.zero_lstm_params(6, 4)
        loss = lstm.batch_loss([["a"], ["b", "c"], ["d"]], [1, 0, 1], emb, params)
        assert loss == pytest.approx(math.log(2.0), abs=1e-6)


class TestTraining:
    def test_same_seed_identical_loss_traces(self):
        docs, labels = planted_docs(120, 1.0, 13)
        emb = lstm.random_embeddings(8, seed=1)
        cfg = lstm.LstmTrainConfig(batch_size=16, epochs=3, learning_rate=0.5,
                                   hidden=8, seed=4)
        a = lstm.train_lstm(docs, labels, emb, cfg)
        b = lstm.train_lstm(docs, labels, emb, cfg)
        assert a.epoch_losses == b.epoch_losses
        for name, arr in a.params.tensors().items():
            assert np.array_equal(arr, b.params.tensors()[name])

    def test_planted_rule_training_accuracy(self):
        docs, labels = planted_docs(600, 1.0, 14)
        emb = lstm.random_embeddings(300, seed=2)
        cfg = lstm.LstmTrainConfig(batch_size=32, epochs=10, learning_rate=2.0,
                                   hidden=16, seed=5)
        result = lstm.train_lstm(docs, labels, emb, cfg)
        preds = [
            lstm.predict_lstm(d, emb, result.params, cfg.max_seq_len).label
            for d in docs
        ]
        accuracy = sum(p == y for p, y in zip(preds, labels)) / len(labels)
        assert accuracy >= 0.99

    def test_divergence_names_epoch_and_batch(self):
        docs, labels = planted_docs(64, 1.0, 15)
        emb = lstm.random_embeddings(4, seed=0)
        cfg = lstm.LstmTrainConfig(batch_size=16, epochs=3, learning_rate=0.1,
                                   hidden=4, seed=1)
        # An overflowing readout bias makes the very first batch loss non-finite.
        init = lstm.zero_lstm_params(4, 4)
        init.out_b[()] = 1e308
        with pytest.raises(DivergenceError, match=r"epoch 1, batch 1"):
            lstm.train_lstm(docs, labels, emb, cfg, init=init)

    def test_truncation_keeps_trailing_tokens(self):
        assert lstm.truncate_tokens(list("abcdefghij"), 8) == list("cdefghij")
        assert lstm.truncate_tokens(["a", "b"], 8) == ["a", "b"]

    def test_single_class_rejected(self):
        emb = lstm.random_embeddings(4, seed=0)
        cfg = lstm.LstmTrainConfig(hidden=4)
        with pytest.raises(TrainingError):
            lstm.train_lstm([["a"], ["b"]], [1, 1], emb, cfg)

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
            lstm.fit_lstm([["a"], ["b"]], [1, 0], embedding_dim=0, hidden=2)

    def test_forget_gate_bias_initialized_to_one(self):
        params = lstm.init_lstm_params(4, 6, seed=0)
        assert np.all(params.b_f == 1.0)
        for name in ("w_i", "u_o", "b_c", "out_w"):
            arr = params.tensors()[name]
            assert np.all(np.abs(arr) <= lstm.INIT_HALF_RANGE)


class TestPredictLstm:
    def test_zero_params_tie_to_label_one(self):
        emb = lstm.random_embeddings(4, seed=0)
        params = lstm.zero_lstm_params(4, 2)
        pred = lstm.predict_lstm(["a"], emb, params)
        assert pred.score == 0.5 and pred.label == 1

    def test_probability_below_half_gives_label_zero(self):
        emb = lstm.random_embeddings(4, seed=0)
        params = lstm.zero_lstm_params(4, 2)
        params.out_b[()] = -1.0
        pred = lstm.predict_lstm(["a"], emb, params)
        assert pred.label == 0 and pred.score < 0.5

    def test_wraps_forward_exactly(self):
        emb = lstm.random_embeddings(4, seed=9)
        params = lstm.init_lstm_params(4, 3, seed=3)
        tokens = ["x", "y"]
        assert lstm.predict_lstm(tokens, emb, params).score == lstm.lstm_forward(
            tokens, emb, params
        )

    def test_truncates_before_forward(self):
        emb = lstm.random_embeddings(4, seed=9)
        params = lstm.init_lstm_params(4, 3, seed=3)
        long_tokens = [f"t{i}" for i in range(12)]
        assert (
            lstm.predict_lstm(long_tokens, emb, params, max_seq_len=4).score
            == lstm.lstm_forward(long_tokens[-4:], emb, params)
        )
