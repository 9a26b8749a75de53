import builtins
import gc
import math
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import planted_docs
from vngender import classical, lstm
from vngender.featurize import TokenIds, VectorizerConfig, encode, fit_vocabulary
from vngender.errors import (
    DivergenceError,
    EmbeddingError,
    EmptySequenceError,
    PredictionError,
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


def random_table(n_tokens, dim, seed):
    """The (n_tokens + 1, dim) table of a model fitted without vectors."""
    return lstm.embedding_table(n_tokens, dim, seed, np.zeros(0, dtype=np.int64),
                                np.zeros((0, dim)))


def vocab_of(seqs):
    return fit_vocabulary(encode(seqs), VectorizerConfig())


def over(seqs, vocab):
    """Token lists as the LSTM reads them: ids of the vocabulary."""
    return classical.model_input("lstm", encode(seqs), vocab, None)


def vectors_of(docs, table):
    """The table row of every entry, as one list of vectors per document."""
    bounds = np.cumsum(np.bincount(docs.rows, minlength=docs.n_docs))[:-1]
    return [list(table[ids]) for ids in np.split(docs.ids, bounds)]


def batch_loss(docs, labels, table, params):
    return lstm.batch_gradients(docs, labels, table, params)[0]


def score_one(tokens, table, params, max_seq_len=None):
    """P(label 1) of one token list, scored as a batch of one."""
    return float(lstm.predict_lstm(encode([tokens]), table, params, max_seq_len)[0])


def model_of(params, table):
    return lstm.LstmModel(params, lstm.LstmTrainConfig(hidden=params.hidden), len(table) - 1,
                          np.zeros(0, dtype=np.int64), np.zeros((0, params.dim)), {}, table)


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
    def test_keeps_the_rows_of_vocabulary_tokens(self, tmp_path):
        path = write_vec(tmp_path, "3 3\na 1 0 0\nb 0 1 0\nc 0 0 1\n")
        rows, values = lstm.load_embeddings(path, ("b", "c", "d"), 3)
        assert rows.dtype == np.int64 and rows.tolist() == [0, 1]
        assert values.tolist() == [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        rows, values = lstm.load_embeddings(path, ("x",), 3)
        assert rows.shape == (0,) and values.shape == (0, 3)

    def test_skips_other_tokens_unparsed(self, tmp_path):
        path = write_vec(tmp_path, "3 3\na 1 0 0\nzz x\nb 0 1 0\n")
        rows, values = lstm.load_embeddings(path, ("a", "b"), 3)
        assert rows.tolist() == [0, 1] and values.shape == (2, 3)

    @pytest.mark.parametrize("header", ["3\n", "x 3\n", "1 2 3\n", "\n"])
    def test_malformed_header_names_line_one(self, tmp_path, header):
        path = write_vec(tmp_path, header + "a 1 0 0\n")
        with pytest.raises(EmbeddingError, match=r":1: malformed header"):
            lstm.load_embeddings(path, ("a",), 3)

    def test_header_dim_mismatch(self, tmp_path):
        path = write_vec(tmp_path, "1 300\na " + " ".join(["0"] * 300) + "\n")
        with pytest.raises(EmbeddingError, match=r":1: header dimension 300 .* 64"):
            lstm.load_embeddings(path, ("a",), 64)

    def test_row_dim_mismatch_names_line(self, tmp_path):
        path = write_vec(tmp_path, "2 3\na 1 0 0\nb 0 1\n")
        with pytest.raises(EmbeddingError, match=":3:"):
            lstm.load_embeddings(path, ("a", "b"), 3)

    def test_non_numeric_component_names_line(self, tmp_path):
        path = write_vec(tmp_path, "1 3\na 1 x 0\n")
        with pytest.raises(EmbeddingError, match=":2:"):
            lstm.load_embeddings(path, ("a",), 3)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e39", "-3.5e38"])
    def test_component_not_finite_in_float32_names_line(self, tmp_path, value):
        path = write_vec(tmp_path, f"2 3\na 1 0 0\nb 0 {value} 1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(EmbeddingError, match=r":3: non-finite component$"):
                lstm.load_embeddings(path, ("a", "b"), 3)

    def test_largest_float32_component_is_kept(self, tmp_path):
        path = write_vec(tmp_path, "1 2\na 3.4028234e38 -3.4028234e38\n")
        _, values = lstm.load_embeddings(path, ("a",), 2)
        assert values.tolist() == [[3.4028234e38, -3.4028234e38]]

    @pytest.mark.parametrize("raw, byte", [(b"\xff 3\na 1 0 0\n", 0),
                                           (b"1 3\na 1 0 0\nb\xc3 0 1 0\n", 13)],
                             ids=["header", "token"])
    def test_undecodable_bytes_are_named(self, tmp_path, raw, byte):
        path = tmp_path / "vectors.vec"
        path.write_bytes(raw)
        with pytest.raises(EmbeddingError, match=rf": not UTF-8 text \(byte {byte}: "):
            lstm.load_embeddings(path, ("a", "b"), 3)

    def test_undecodable_byte_past_the_first_chunk_is_named_by_its_file_offset(self, tmp_path):
        head = "1000 3\n" + "".join(f"tok{i} 0.25 -0.5 1e-3\n" for i in range(1000))
        head = head.encode("utf-8")
        path = tmp_path / "vectors.vec"
        path.write_bytes(head + b"a\xff 1 0 0\n")
        with pytest.raises(EmbeddingError, match=rf": not UTF-8 text \(byte {len(head) + 1}: "):
            lstm.load_embeddings(path, ("a", "b"), 3)

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_lines_end_as_in_text_mode(self, tmp_path, end):
        text = "3 2\na 1 0\n\nb 0 1\nc 1 1\n".replace("\n", end)
        rows, values = lstm.load_embeddings(write_vec(tmp_path, text), ("a", "b", "c"), 2)
        assert rows.tolist() == [0, 1, 2]
        assert values.tolist() == [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        path = tmp_path / "bad.vec"
        path.write_bytes(text.replace("c 1 1", "c 1").encode("utf-8"))
        with pytest.raises(EmbeddingError, match=r"bad\.vec:5: expected 2 components, got 1$"):
            lstm.load_embeddings(path, ("a", "b", "c"), 2)

    def test_duplicate_token_keeps_first_and_warns(self, tmp_path):
        path = write_vec(tmp_path, "2 2\na 1 0\na 0 1\n")
        with pytest.warns(UserWarning, match="duplicate"):
            rows, values = lstm.load_embeddings(path, ("a",), 2)
        assert rows.tolist() == [0] and values.tolist() == [[1.0, 0.0]]

    def test_missing_file(self, tmp_path):
        with pytest.raises(EmbeddingError, match="not found"):
            lstm.load_embeddings(tmp_path / "missing.vec", ("a",), 3)

    def test_fit_reads_the_file_once_and_closes_it(self, tmp_path, monkeypatch):
        path = write_vec(tmp_path, "3 3\na 1 0 0\nb 0 1 0\nq 0 0 1\n")
        vocab = vocab_of([["a", "c"], ["b"], ["a"], ["c", "b"]])
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
            model = lstm.fit_lstm(over([["a", "c"], ["b"], ["a"], ["c", "b"]], vocab),
                                  [1, 0, 1, 0], embedding_dim=3, embedding_path=path, hidden=2)
            model.score(over([["a", "q"]], vocab))
            gc.collect()
        assert unraisable == []
        assert opened == [path]
        assert model.vec_rows.tolist() == [0, 1]
        assert np.array_equal(model.embedding[:2], np.eye(3)[:2])


class TestEmbeddingTable:
    def test_one_seeded_draw_with_the_stored_vectors_written_in(self):
        values = np.arange(6.0).reshape(2, 3)
        table = lstm.embedding_table(4, 3, 7, np.array([2, 0]), values)
        rng = np.random.default_rng(np.random.SeedSequence(7).spawn(3)[2])
        want = rng.uniform(-lstm.OOV_HALF_RANGE, lstm.OOV_HALF_RANGE, (5, 3))
        want[[2, 0]] = values
        assert np.array_equal(table, want)
        assert not np.array_equal(table, lstm.embedding_table(4, 3, 8, np.array([2, 0]), values))

    @pytest.mark.parametrize("rows, values", [
        ([4], np.zeros((1, 3))), ([-1], np.zeros((1, 3))),       # outside the vocabulary
        ([0], np.zeros((1, 2))), ([0, 1], np.zeros((1, 3))),     # not one row of width 3 each
    ])
    def test_stored_vectors_must_fit_the_table(self, rows, values):
        with pytest.raises(EmbeddingError):
            lstm.embedding_table(4, 3, 0, np.array(rows, dtype=np.int64), values)


class TestUnseenTokens:
    @pytest.fixture(scope="class")
    def fitted(self):
        docs, labels = planted_docs(200, 1.0, 19, mask_label="full")
        vocab = vocab_of(docs)
        model = lstm.fit_lstm(over(docs, vocab), labels, seed=3, embedding_dim=8, hidden=6,
                              epochs=1)
        return vocab, model

    def test_names_that_differ_in_an_unseen_token_score_the_same(self, fitted):
        vocab, model = fitted
        seen = list(vocab.tokens[:2])
        x = over([seen + ["zzz1"], seen + ["zzz2"]], vocab)
        assert x.ids.tolist() == [0, 1, len(vocab)] * 2
        scores = [classical.predict(model, over([seen + [tok]], vocab))[1][0]
                  for tok in ("zzz1", "zzz2")]
        assert scores[0] == scores[1]

    def test_a_name_of_unseen_tokens_still_scores(self, fitted):
        vocab, model = fitted
        a, b = (classical.predict(model, over([doc], vocab))[1][0]
                for doc in (["qqq", "rrr"], ["sss", "ttt"]))
        assert 0.0 < a < 1.0 and a == b

    def test_documents_over_another_universe_are_refused(self, fitted):
        _, model = fitted
        with pytest.raises(PredictionError, match="vocabulary"):
            classical.predict(model, encode([["a"]]))


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
        table = random_table(3, 5, seed=0)
        params = zero_lstm_params(5, 3)
        assert score_one(["a", "b", "c"], table, params) == 0.5

    def test_small_model_matches_scalar_oracle(self):
        vectors = {
            "a": np.array([0.3, -0.4]),
            "b": np.array([-0.1, 0.6]),
            "c": np.array([0.05, 0.2]),
        }
        table = np.array([vectors["a"], vectors["b"], vectors["c"], [0.0, 0.0]])
        params = lstm.init_lstm_params(2, 2, seed=17)
        got = score_one(["a", "b", "c"], table, params)
        want = scalar_oracle_forward(["a", "b", "c"], vectors, params)
        assert got == pytest.approx(want, abs=1e-10)

    def test_forward_is_deterministic(self):
        table = random_table(1, 4, seed=5)
        params = lstm.init_lstm_params(4, 6, seed=2)
        runs = {score_one(["tú", "tú"], table, params) for _ in range(3)}
        assert len(runs) == 1

    def test_output_strictly_inside_unit_interval(self):
        table = random_table(2, 4, seed=5)
        for seed in range(10):
            params = lstm.init_lstm_params(4, 6, seed=seed)
            out = score_one(["a", "b"], table, params)
            assert 0.0 < out < 1.0

    def test_empty_sequence_rejected(self):
        table = random_table(1, 4, seed=5)
        params = zero_lstm_params(4, 2)
        with pytest.raises(EmptySequenceError, match=r"\(name 1\)"):
            lstm.predict_lstm(encode([["a"], []]), table, params)

    def test_sigmoid_equals_the_two_sided_formula_and_never_overflows(self):
        z = np.concatenate([
            [-1e308, -800.0, -40.0, -0.0, 0.0, 40.0, 800.0, 1e308, np.inf, -np.inf],
            np.random.default_rng(0).normal(0.0, 20.0, 2000),
        ])
        with np.errstate(over="raise", invalid="raise"):
            got = lstm.sigmoid(z)
        assert np.array_equal(got, oracles.masked_sigmoid(z))
        assert lstm.sigmoid(z.reshape(30, 67)).shape == (30, 67)


    def test_sigmoid_stays_in_float32_and_widens_every_other_dtype(self):
        z = np.linspace(-100.0, 100.0, 401)
        narrow = lstm.sigmoid(z.astype(np.float32))
        assert narrow.dtype == np.float32
        assert np.abs(narrow - lstm.sigmoid(z)).max() <= 1e-7
        for other in (z.astype(np.float16), np.arange(-3, 4), [0.5, 2.0], 1.0):
            assert lstm.sigmoid(other).dtype == np.float64

class TestGradients:
    @pytest.mark.parametrize("seed", range(3))
    def test_bptt_matches_central_differences(self, seed):
        docs = encode([["a", "b", "c"], ["d"], ["e", "f"]])
        table = random_table(6, 3, seed=seed)
        params = lstm.init_lstm_params(3, 4, seed=seed + 50)
        labels = [1, 0, 1]
        _, grads = lstm.batch_gradients(docs, labels, table, params)
        for name, arr in params.tensors().items():
            fd = oracles.fd_gradient(
                lambda: batch_loss(docs, labels, table, params), arr, 1e-4
            )
            assert oracles.tensor_rel_error(grads[name], fd) <= 1e-4, name

    def test_zero_params_first_batch_loss_is_ln2(self):
        table = random_table(4, 6, seed=0)
        params = zero_lstm_params(6, 4)
        loss = batch_loss(encode([["a"], ["b", "c"], ["d"]]), [1, 0, 1], table, params)
        assert loss == pytest.approx(math.log(2.0), abs=1e-6)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_loss_and_gradients_match_gate_by_gate_oracle(self, seed):
        rng = np.random.default_rng(seed)
        dim, hidden = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        params = random_params(dim, hidden, rng)
        seqs, labels = random_batch(rng)
        docs = encode(seqs)
        table = random_table(len(docs.tokens), dim, seed)
        loss, grads = lstm.batch_gradients(docs, labels, table, params)
        want_loss, want = oracles.lstm_loss_and_grads(vectors_of(docs, table), labels,
                                                      **params.tensors())
        assert abs(loss - want_loss) <= 1e-12
        assert set(grads) == set(want)
        for name, grad in want.items():
            assert np.abs(np.asarray(grads[name]) - grad).max() <= 1e-12, name

    def test_float32_inputs_give_float32_loss_and_gradients(self):
        docs = encode([["a", "b", "c"], ["d"], ["e", "a"], ["b", "b", "f", "a"]])
        table = random_table(6, 3, seed=1).astype(np.float32)
        params = lstm.init_lstm_params(3, 4, seed=2).astype(np.float32)
        loss, grads = lstm.batch_gradients(docs, [1, 0, 1, 0], table, params)
        assert loss.dtype == np.float32
        assert {name: grad.dtype for name, grad in grads.items()} == dict.fromkeys(
            params.tensors(), np.float32)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_float32_loss_and_gradients_match_the_oracle(self, seed):
        rng = np.random.default_rng(seed)
        dim, hidden = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        params = random_params(dim, hidden, rng)
        seqs, labels = random_batch(rng)
        docs = encode(seqs)
        table = random_table(len(docs.tokens), dim, seed)
        loss, grads = lstm.batch_gradients(docs, labels, table.astype(np.float32),
                                           params.astype(np.float32))
        want_loss, want = oracles.lstm_loss_and_grads(vectors_of(docs, table), labels,
                                                      **params.tensors())
        assert abs(loss - want_loss) <= 1e-4 * max(1.0, want_loss)
        for name, grad in want.items():
            assert oracles.tensor_rel_error(grads[name], grad) <= 1e-4, name


class TestTraining:
    def test_same_seed_identical_loss_traces(self):
        docs, labels = planted_docs(120, 1.0, 13)
        x = encode(docs)
        table = random_table(len(x.tokens), 8, seed=1)
        cfg = lstm.LstmTrainConfig(batch_size=16, epochs=3, learning_rate=0.5,
                                   hidden=8, seed=4)
        a = lstm.train_lstm(x, labels, table, cfg)
        b = lstm.train_lstm(x, labels, table, cfg)
        assert a.epoch_losses == b.epoch_losses
        for name, arr in a.params.tensors().items():
            assert np.array_equal(arr, b.params.tensors()[name])

    def test_planted_rule_training_accuracy(self):
        docs, labels = planted_docs(600, 1.0, 14)
        vocab = vocab_of(docs)
        model = lstm.fit_lstm(over(docs, vocab), labels, seed=5, batch_size=32, epochs=10,
                              learning_rate=2.0, hidden=16)
        preds = classical.predict(model, over(docs, vocab))[0]
        accuracy = sum(p == y for p, y in zip(preds, labels)) / len(labels)
        assert accuracy >= 0.99

    def test_divergence_names_epoch_and_batch(self):
        docs, labels = planted_docs(64, 1.0, 15)
        x = encode(docs)
        table = random_table(len(x.tokens), 4, seed=0)
        cfg = lstm.LstmTrainConfig(batch_size=16, epochs=3, learning_rate=0.1,
                                   hidden=4, seed=1)
        # An overflowing readout bias makes the very first batch loss non-finite.
        init = zero_lstm_params(4, 4)
        init.out_b[()] = 1e308
        # The overflow is reported as the error alone, without a numpy warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DivergenceError, match=r"epoch 1, batch 1"):
                lstm.train_lstm(x, labels, table, cfg, init=init)

    def test_truncation_keeps_the_last_tokens(self):
        docs = [list("abcdefghij"), ["a", "b"], ["x", "y", "x", "z", "x"], ["y", "y", "y", "y"]]
        x = encode(docs)
        ids, lengths = lstm._sequences(x, 3, TrainingError, "{}")
        kept = [[x.tokens[i] for i in row[ids.shape[1] - n:]] for row, n in zip(ids, lengths)]
        assert kept == [doc[-3:] for doc in docs]
        vocab = vocab_of(docs)
        table = random_table(len(vocab), 4, seed=9)
        params = lstm.init_lstm_params(4, 3, seed=3)
        assert np.array_equal(lstm.predict_lstm(over(docs, vocab), table, params, 3),
                              lstm.predict_lstm(over([doc[-3:] for doc in docs], vocab),
                                                table, params))

    def test_empty_document_names_its_index(self):
        docs = encode([["a"], ["b", "c"], [], ["d"]])
        table = random_table(4, 4, seed=0)
        params = lstm.init_lstm_params(4, 2)
        with pytest.raises(TrainingError, match=r"^sequence 2 is empty$"):
            lstm.train_lstm(docs, [0, 1, 0, 1], table, lstm.LstmTrainConfig(hidden=2))
        with pytest.raises(EmptySequenceError, match=r"^sequence 2 is empty$"):
            lstm.batch_gradients(docs, [0, 1, 0, 1], table, params)
        with pytest.raises(EmptySequenceError, match=r"empty token sequence \(name 2\)"):
            lstm.predict_lstm(docs, table, params)

    def test_fit_does_not_depend_on_the_universe(self):
        docs, labels = planted_docs(90, 0.9, 18)
        docs[5] = [f"t{i}" for i in range(11)]
        alone = encode(docs)
        # The same documents inside a wider corpus, whose universe also holds
        # tokens they do not use, before, among and after theirs.
        wider = encode(docs + [["0"], ["m0", "t05"], ["zz"]])
        keep = wider.rows < len(docs)
        inside = TokenIds(wider.rows[keep], wider.ids[keep], wider.tokens, len(docs))
        assert inside.docs() == alone.docs() and inside.tokens != alone.tokens
        fits = []
        for docs_ids in (alone, inside):
            vocab = fit_vocabulary(docs_ids, VectorizerConfig())
            x = classical.model_input("lstm", docs_ids, vocab, None)
            fits.append(lstm.fit_lstm(x, labels, seed=8, embedding_dim=6, batch_size=16,
                                      epochs=2, learning_rate=0.5, hidden=5))
        a, b = fits
        assert a.train_meta == b.train_meta
        assert np.array_equal(a.embedding, b.embedding)
        for name, arr in a.params.tensors().items():
            assert np.array_equal(arr, b.params.tensors()[name]), name

    def test_single_class_rejected(self):
        table = random_table(2, 4, seed=0)
        cfg = lstm.LstmTrainConfig(hidden=4)
        with pytest.raises(TrainingError):
            lstm.train_lstm(encode([["a"], ["b"]]), [1, 1], table, cfg)

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
        x = encode(docs)
        table = random_table(len(x.tokens), 6, seed=2)
        cfg = lstm.LstmTrainConfig(batch_size=16, epochs=2, learning_rate=0.5,
                                   hidden=5, seed=8)
        result = lstm.train_lstm(x, labels, table, cfg)

        init_seed, shuffle_seed = np.random.SeedSequence(cfg.seed).spawn(2)
        params = lstm.init_lstm_params(6, 5, init_seed).tensors()
        shuffle_rng = np.random.default_rng(shuffle_seed)
        vectors = [doc[-cfg.max_seq_len:] for doc in vectors_of(x, table)]
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

    def test_fit_trains_on_its_embedding_table(self, monkeypatch):
        docs, labels = planted_docs(60, 0.9, 20)
        vocab = vocab_of(docs)
        calls, results, train = [], [], lstm.train_lstm

        def recording_train(*args):
            calls.append(args)
            results.append(train(*args))
            return results[-1]

        monkeypatch.setattr(lstm, "train_lstm", recording_train)
        model = lstm.fit_lstm(over(docs, vocab), labels, seed=4, embedding_dim=5, hidden=3)
        assert len(calls) == 1
        table, (result,) = calls[0][2], results
        assert table.dtype == np.float32
        assert np.array_equal(table, model.embedding.astype(np.float32))
        assert model.embedding.dtype == np.float64
        assert np.array_equal(model.embedding, random_table(len(vocab), 5, seed=4))
        for name, arr in model.params.tensors().items():
            assert arr.dtype == np.float64, name
            assert result.params.tensors()[name].dtype == np.float32, name
            assert np.array_equal(arr, result.params.tensors()[name]), name
        assert model.train_meta == {"epoch_losses": result.epoch_losses}
        assert model.n_features == len(vocab)

    def test_float32_fit_agrees_with_a_float64_fit(self):
        docs, labels = planted_docs(300, 1.0, 23)
        vocab = vocab_of(docs)
        x = over(docs, vocab)
        options = dict(batch_size=16, epochs=3, learning_rate=1.0, hidden=8)
        model = lstm.fit_lstm(x, labels, seed=6, embedding_dim=10, **options)
        table = random_table(len(vocab), 10, seed=6)
        wide = lstm.train_lstm(x, labels, table, lstm.LstmTrainConfig(seed=6, **options))
        assert np.abs(np.array(model.train_meta["epoch_losses"])
                      - wide.epoch_losses).max() <= 1e-5
        labels_32 = classical.predict(model, x)[0]
        labels_64 = classical.predict(model_of(wide.params, table), x)[0]
        assert np.array_equal(labels_32, labels_64)

    @pytest.mark.parametrize("learning_rate", [1e307, 1e39])
    def test_an_overflowing_fit_raises_without_a_numpy_warning(self, learning_rate):
        docs, labels = planted_docs(400, 1.0, 24)
        vocab = vocab_of(docs)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DivergenceError, match=r"epoch 1, batch 1$"):
                lstm.fit_lstm(over(docs, vocab), labels, embedding_dim=8, hidden=4,
                              epochs=1, learning_rate=learning_rate)

    def test_an_overflowing_last_update_raises(self):
        # One batch: its loss is finite, and only its update, the fit's
        # last, overflows float32.
        docs, labels = planted_docs(40, 1.0, 25)
        x = encode(docs)
        table = random_table(len(x.tokens), 4, seed=0).astype(np.float32)
        cfg = lstm.LstmTrainConfig(batch_size=64, epochs=1, learning_rate=1e39, hidden=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DivergenceError, match=r"epoch 1, batch 1$"):
                lstm.train_lstm(x, labels, table, cfg)

    @pytest.mark.parametrize("fault, where", [
        ("loss", "epoch 1, batch 3"),          # a NaN batch loss
        ("sum", "epoch 1, batch 2"),           # finite batch losses, an infinite sum
        ("tensor", "epoch 2, batch 4"),        # the last update alone is infinite
    ])
    def test_every_non_finite_result_names_its_batch(self, monkeypatch, fault, where):
        docs, labels = planted_docs(64, 1.0, 26)
        x = encode(docs)
        table = random_table(len(x.tokens), 4, seed=0)
        cfg = lstm.LstmTrainConfig(batch_size=16, epochs=2, learning_rate=0.1, hidden=4)
        calls, real = [], lstm._loss_and_grads

        def faulty(*args):
            loss, grads = real(*args)
            calls.append(None)
            if fault == "loss" and len(calls) == 3:
                loss = np.nan
            elif fault == "sum":
                loss = 1e307
            elif fault == "tensor" and len(calls) == 8:
                grads["b"] = np.full_like(grads["b"], np.inf)
            return loss, grads

        monkeypatch.setattr(lstm, "_loss_and_grads", faulty)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DivergenceError, match=where + "$"):
                lstm.train_lstm(x, labels, table, cfg)


class TestPredictLstm:
    def test_zero_params_tie_to_label_one(self):
        model = model_of(zero_lstm_params(4, 2), random_table(1, 4, seed=0))
        labels, scores = classical.predict(model, encode([["a"]]))
        assert scores[0] == 0.5 and labels[0] == 1

    def test_probability_below_half_gives_label_zero(self):
        params = zero_lstm_params(4, 2)
        params.out_b[()] = -1.0
        labels, scores = classical.predict(model_of(params, random_table(1, 4, seed=0)),
                                           encode([["a"]]))
        assert labels[0] == 0 and scores[0] < 0.5

    def test_truncates_before_forward(self):
        long_tokens = [f"t{i}" for i in range(12)]
        vocab = vocab_of([long_tokens])
        table = random_table(len(vocab), 4, seed=9)
        params = lstm.init_lstm_params(4, 3, seed=3)
        assert (
            lstm.predict_lstm(over([long_tokens], vocab), table, params, 4)[0]
            == lstm.predict_lstm(over([long_tokens[-4:]], vocab), table, params)[0]
        )

    def test_model_scores_through_predict_lstm(self, monkeypatch):
        table = random_table(2, 4, seed=9)
        calls = []
        monkeypatch.setattr(lstm, "predict_lstm", lambda *args: calls.append(args) or np.zeros(1))
        model = model_of(lstm.init_lstm_params(4, 3, seed=3), table)
        docs = encode([["a", "b"]])
        model.score(docs)
        assert calls == [(docs, table, model.params, model.cfg.max_seq_len)]

    @pytest.mark.parametrize("hidden", [3, 128])
    def test_a_name_scores_the_same_alone_and_in_a_batch(self, hidden):
        # Bit equality is not required: BLAS may round a product of one or
        # two rows differently from the same rows in a larger product.
        rng = np.random.default_rng(hidden)
        docs, _ = planted_docs(150, 1.0, 17, mask_label="full")
        docs += [["x"] * n for n in range(1, 10)]
        vocab = vocab_of(docs)
        model = model_of(random_params(32, hidden, rng), random_table(len(vocab), 32, seed=1))
        labels, scores = classical.predict(model, over(docs, vocab))
        alone = [classical.predict(model, over([doc], vocab)) for doc in docs]
        assert [int(label[0]) for label, _ in alone] == labels.tolist()
        assert np.abs(np.array([score[0] for _, score in alone]) - scores).max() <= 1e-15

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000), chunk=st.integers(1, 5))
    def test_chunks_score_like_one_pass_and_like_the_oracle(self, seed, chunk):
        rng = np.random.default_rng(seed)
        dim, hidden = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        params = random_params(dim, hidden, rng)
        seqs, _ = random_batch(rng)
        docs = encode(seqs)
        table = random_table(len(docs.tokens), dim, seed)
        whole = lstm.predict_lstm(docs, table, params)
        with mock.patch.object(lstm, "SCORE_CHUNK", chunk):
            chunked = lstm.predict_lstm(docs, table, params)
        assert np.abs(chunked - whole).max() <= 1e-15
        for vectors, score in zip(vectors_of(docs, table), whole):
            # The oracle's loss for label 1 is softplus(-logit) = -log(score).
            loss, _ = oracles.lstm_loss_and_grads([vectors], [1], **params.tensors())
            assert abs(-math.log(score) - loss) <= 1e-12 * max(1.0, loss)
