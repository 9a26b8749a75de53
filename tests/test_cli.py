import dataclasses
import inspect
import json
import warnings

import numpy as np
import pytest

from conftest import FAST_OPTIONS, SPLIT_SEED, run_cli
from vngender import bundle as bm
from vngender import classical, cli, data_io, evaluation, lstm, names_core
from vngender.evaluation import ModelSpec, SplitSpec
from vngender.featurize import VectorizerConfig

# The options of conftest.FAST_OPTIONS, by fit option name.
FAST_FIT_OPTIONS = {
    "random_forest": {"n_trees": 5, "max_depth": 4},
    "decision_tree": {"max_depth": 6},
    "lstm": {"hidden": 4, "embedding_dim": 8, "epochs": 1},
}

# What each `vngender train` fit flag gives when it is left unset, by kind
# and fit option.
UNSET_FLAG_VALUES = {
    "multinomial_nb": {"alpha": 1.0},
    "bernoulli_nb": {"alpha": 1.0},
    "logistic_regression": {"l2": 1e-4},
    "linear_svm": {"c": 1.0},
    "decision_tree": {"max_depth": None, "min_leaf": 1},
    "random_forest": {"n_trees": 100, "mtry": None, "bootstrap": True,
                      "max_depth": None, "min_leaf": 1},
    "lstm": {"hidden": 128, "epochs": 2, "batch_size": 32, "learning_rate": 1.0,
             "max_seq_len": 8, "embedding_dim": 300, "embedding_path": None},
}


def fit_defaults(kind: str) -> dict:
    """Default of every fit option of a kind, from the fit function's
    signature or, for options it passes on, from `LstmTrainConfig`."""
    params = inspect.signature(classical.MODEL_KINDS[kind].fit).parameters
    config = {f.name: f.default for f in dataclasses.fields(lstm.LstmTrainConfig)}
    return {option: params[option].default if option in params else config[option]
            for option in classical.MODEL_KINDS[kind].train_flags}


class TestTrain:
    @pytest.mark.parametrize("kind", list(UNSET_FLAG_VALUES))
    def test_unset_flags_keep_their_values(self, kind):
        args = cli.build_parser().parse_args(
            ["train", "--data", "d.csv", "--model", kind, "--out", "m.bundle"])
        assert not any(dest in args for dest in classical.MODEL_KINDS[kind].train_flags.values())
        assert fit_defaults(kind) == UNSET_FLAG_VALUES[kind]

    @pytest.mark.parametrize("kind", list(classical.MODEL_KINDS))
    def test_train_and_ablate_build_the_same_model(self, bundle_paths, names_csv, kind):
        loaded = bm.load_model(bundle_paths[kind, "full"])
        vcfg = None if classical.MODEL_KINDS[kind].reads_tokens else VectorizerConfig("count")
        spec = ModelSpec(kind, vcfg, SPLIT_SEED, FAST_FIT_OPTIONS.get(kind, {}))
        result = evaluation.run_experiment(
            data_io.load_dataset(names_csv), names_core.parse_mask("full"), spec,
            SplitSpec(seed=SPLIT_SEED),
        )
        arrays, meta = bm._split_fields(result.model)
        loaded_arrays, loaded_meta = bm._split_fields(loaded.model)
        assert meta == loaded_meta
        assert arrays.keys() == loaded_arrays.keys()
        for name, value in arrays.items():
            assert np.array_equal(value, loaded_arrays[name]), name
        rebuilt = bm.make_bundle(result.model, loaded.component_mask,
                                 spec.vectorizer, result.vocabulary)
        assert rebuilt.model_id == loaded.model_id

    def test_unconverged_fit_warns(self, names_csv, tmp_path, monkeypatch):
        monkeypatch.setattr(classical, "TRON_MAX_ITER", 3)
        code, out, err = run_cli(["train", "--data", names_csv, "--model",
                                  "logistic_regression", "--out", tmp_path / "lr.bundle"])
        assert code == 0
        meta = bm.load_model(tmp_path / "lr.bundle").model.train_meta
        assert meta["converged"] is False and meta["stop"] == "max_iter"
        assert err == ("warning: the logistic_regression fit stopped before it converged: "
                       "it reached its cap of 3 iterations; "
                       f"||g||/||g0|| = {meta['gradient_ratio']:.3g} against tol 0.0001\n")
        assert meta["gradient_ratio"] > 1e-4
        confusion = next(line for line in out.splitlines() if line.startswith("confusion"))
        assert len(confusion.split("\t")) == 5

    def test_fit_stalled_at_rounding_warns_with_its_reason(self, names_csv, tmp_path,
                                                           monkeypatch):
        monkeypatch.setattr(classical, "TRON_TOL", 1e-30)
        code, _, err = run_cli(["train", "--data", names_csv, "--model", "linear_svm",
                                "--out", tmp_path / "svm.bundle"])
        assert code == 0
        meta = bm.load_model(tmp_path / "svm.bundle").model.train_meta
        assert meta["converged"] is False and meta["stop"] == "no_progress"
        assert meta["n_iter"] < classical.TRON_MAX_ITER
        assert err == ("warning: the linear_svm fit stopped before it converged: "
                       "its last step changed the objective by no more than rounding; "
                       f"||g||/||g0|| = {meta['gradient_ratio']:.3g} against tol 1e-30\n")

    def test_linear_svm_records_convergence_without_warning(self, names_csv, tmp_path):
        code, _, err = run_cli(["train", "--data", names_csv, "--model", "linear_svm",
                                "--out", tmp_path / "svm.bundle"])
        assert code == 0 and err == ""
        meta = bm.load_model(tmp_path / "svm.bundle").model.train_meta
        assert meta["converged"] is True and meta["n_iter"] >= 1
        assert meta["objective"] > 0

    def test_fit_without_convergence_record_does_not_warn(self, names_csv, tmp_path):
        code, _, err = run_cli(["train", "--data", names_csv, "--model", "multinomial_nb",
                                "--out", tmp_path / "nb.bundle"])
        assert code == 0 and err == ""


class TestCommands:
    def test_evaluate(self, bundle_paths, names_csv):
        code, out, _ = run_cli(["evaluate", "--model", bundle_paths["multinomial_nb", "full"],
                                "--data", names_csv])
        assert code == 0
        lines = dict(line.split("\t", 1) for line in out.splitlines())
        assert set(lines) == {"class", "male", "female", "macro", "confusion"}
        counts = dict(field.split("=") for field in lines["confusion"].split("\t"))
        assert sum(map(int, counts.values())) == len(data_io.load_dataset(names_csv))

    def test_predict(self, bundle_paths):
        path = bundle_paths["linear_svm", "full"]
        names = ["Nguyễn Thị Lan", "Trần Văn Nam"]
        code, out, _ = run_cli(["predict", "--model", path, *names])
        assert code == 0
        loaded = bm.load_model(path)
        for name, line in zip(names, out.splitlines(), strict=True):
            response = bm.bundle_predict(loaded, name)
            assert line.split("\t") == [name, response["gender"], str(response["label"]),
                                        f"{response['score']:.6f}"]

    @pytest.mark.parametrize("kind", list(classical.MODEL_KINDS))
    def test_predict_scores_all_names_in_one_batch(self, bundle_paths, monkeypatch, kind):
        path = bundle_paths[kind, "full"]
        names = ["Nguyễn Thị Lan", "Trần Văn Nam", "Lê Minh"]
        loaded = bm.load_model(path)
        want = [f"{name}\t{r['gender']}\t{r['label']}\t{r['score']:.6f}"
                for name, r in ((name, bm.bundle_predict(loaded, name)) for name in names)]
        calls, predict = [], classical.predict
        monkeypatch.setattr(classical, "predict",
                            lambda *args: calls.append(args) or predict(*args))
        inputs, model_input = [], classical.model_input
        monkeypatch.setattr(classical, "model_input",
                            lambda *args: inputs.append(args) or model_input(*args))
        code, out, err = run_cli(["predict", "--model", path, *names])
        assert (code, err, len(calls), len(inputs)) == (0, "", 1, 1)
        assert inputs[0][0] == kind and len(inputs[0][1]) == len(names)
        assert out.splitlines() == want

    def test_predict_stops_at_a_name_it_cannot_score(self, bundle_paths):
        path = bundle_paths["linear_svm", "full"]
        code, out, err = run_cli(["predict", "--model", path, "Lê Minh", "  ", "Trần Văn Nam"])
        response = bm.bundle_predict(bm.load_model(path), "Lê Minh")
        assert code == 1
        assert out == (f"Lê Minh\t{response['gender']}\t{response['label']}"
                       f"\t{response['score']:.6f}\n")
        assert err == "error: name is empty after trimming\n"

    def test_lstm_bundle_needs_no_vec_file(self, names_csv, tmp_path):
        # Vectors for some training tokens, and for tokens the data lacks.
        rng = np.random.default_rng(0)
        tokens = [*data_io.MALE_MIDDLE_POOL, *data_io.GIVEN_POOL[:5], "zzz", "yyy"]
        vec = tmp_path / "e.vec"
        vec.write_text(f"{len(tokens)} 8\n" + "".join(
            tok + "".join(f" {v:.4f}" for v in rng.uniform(-1, 1, 8)) + "\n" for tok in tokens
        ), encoding="utf-8")
        path = tmp_path / "lstm.bundle"
        code, *_ = run_cli(["train", "--data", names_csv, "--model", "lstm", "--out", path,
                            "--embedding", vec, *FAST_OPTIONS["lstm"]])
        assert code == 0
        model = bm.load_model(path).model
        assert len(model.vec_rows) == len(tokens) - 2
        assert np.array_equal(model.embedding[model.vec_rows], model.vec_values)
        names = ["Nguyễn Văn Nam", "Trần Thị Lan", "Lê Minh"]
        before = run_cli(["predict", "--model", path, *names])
        vec.unlink()
        assert run_cli(["predict", "--model", path, *names]) == before
        assert before[0] == 0 and len(before[1].splitlines()) == 3

    @pytest.mark.parametrize("kind", ["multinomial_nb", "lstm"])
    def test_evaluate_skips_names_it_cannot_score(self, bundle_paths, monkeypatch, kind):
        # Blank, a lone surrogate, and a one-token name with no family
        # component under the "fan" mask.
        names = ["Lê Minh", "  ", "Nguy\udcffn Lan", "Lan", "Trần Thị Mai"]
        monkeypatch.setattr(data_io, "load_dataset",
                            lambda path: data_io.Dataset(names, [1, 0, 0, 0, 0]))
        code, out, _ = run_cli(["evaluate", "--model", bundle_paths[kind, "fan"],
                                "--data", "names.csv"])
        assert code == 0
        lines = dict(line.split("\t", 1) for line in out.splitlines())
        assert lines["skipped"] == "3"
        counts = dict(field.split("=") for field in lines["confusion"].split("\t"))
        assert sum(map(int, counts.values())) == 2

    def test_predict_reads_the_bundle_path_from_the_environment(self, bundle_paths, monkeypatch):
        monkeypatch.setenv(cli.ENV_BUNDLE, str(bundle_paths["bernoulli_nb", "full"]))
        code, out, _ = run_cli(["predict", "Lê Minh"])
        assert code == 0 and out.startswith("Lê Minh\t")

    def test_ablate_writes_report(self, names_csv, tmp_path):
        report = tmp_path / "report.json"
        code, out, _ = run_cli(["ablate", "--data", names_csv, "--seed", 1,
                                "--models", "multinomial_nb,bernoulli_nb:tfidf",
                                "--out", report])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1 + len(names_core.ALL_MASKS) + 1
        assert lines[-1] == f"report\t{report}"
        payload = json.loads(report.read_text(encoding="utf-8"))
        assert payload["model_labels"] == ["multinomial_nb+count", "bernoulli_nb+tfidf"]
        assert len(payload["cells"]) == 2 * len(names_core.ALL_MASKS)

    def test_stats(self, names_csv, tmp_path):
        code, out, _ = run_cli(["stats", "--data", names_csv, "--top-k", 3])
        assert code == 0 and out
        code, again, _ = run_cli(["stats", "--data", names_csv, "--top-k", 3,
                                  "--out", tmp_path / "stats.tsv"])
        assert code == 0 and again == ""
        assert (tmp_path / "stats.tsv").read_text(encoding="utf-8") == out

    def test_synth(self, tmp_path):
        code, out, _ = run_cli(["synth", 40, 0.9, 7])
        assert code == 0
        assert out.splitlines()[0] == "full_name,gender"
        assert len(out.splitlines()) == 41
        code, _, _ = run_cli(["synth", 40, 0.9, 7, "--out", tmp_path / "s.csv"])
        assert code == 0
        assert data_io.load_dataset(tmp_path / "s.csv").names == [
            line.rsplit(",", 1)[0] for line in out.splitlines()[1:]
        ]


class TestErrors:
    def expect_error(self, argv) -> str:
        code, _, err = run_cli(argv)
        assert code == 1
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        return err

    def test_unknown_model_kind(self, names_csv):
        err = self.expect_error(["ablate", "--data", names_csv, "--models", "gbdt"])
        assert "gbdt" in err

    @pytest.mark.parametrize("models", ["multinomial_nb:count,multinomial_nb:count",
                                        "linear_svm,linear_svm:count", "lstm,lstm"])
    def test_repeated_model_label(self, names_csv, models):
        err = self.expect_error(["ablate", "--data", names_csv, "--models", models])
        assert "twice" in err

    @pytest.mark.parametrize("models", ["lstm:tfidf", "multinomial_nb,lstm:count"])
    def test_vectorizer_for_a_kind_that_reads_tokens(self, names_csv, models):
        err = self.expect_error(["ablate", "--data", names_csv, "--models", models])
        assert "lstm" in err and "vectorizer" in err

    def test_missing_bundle_path(self, monkeypatch):
        monkeypatch.delenv(cli.ENV_BUNDLE, raising=False)
        err = self.expect_error(["predict", "Lê Minh"])
        assert cli.ENV_BUNDLE in err

    @pytest.mark.parametrize("bind", ["foo", "127.0.0.1:http", "127.0.0.1:70000", ":-1"])
    def test_bad_bind_address(self, bundle_paths, bind):
        err = self.expect_error(["serve", "--model", bundle_paths["multinomial_nb", "full"],
                                 "--bind", bind])
        assert repr(bind) in err

    @pytest.mark.parametrize("kind", list(classical.MODEL_KINDS))
    def test_name_with_lone_surrogate(self, bundle_paths, kind):
        # How Python decodes the argument bytes b"Nguy\xffn Lan".
        err = self.expect_error(["predict", "--model", bundle_paths[kind, "full"],
                                 "Nguy\udcffn Lan"])
        assert "surrogate" in err

    @pytest.mark.parametrize("kind, flag, value", [
        ("multinomial_nb", "--alpha", "nan"), ("multinomial_nb", "--alpha", "inf"),
        ("bernoulli_nb", "--alpha", "nan"), ("bernoulli_nb", "--alpha", "inf"),
        ("multinomial_nb", "--alpha", "-1"),
        ("logistic_regression", "--l2", "inf"), ("logistic_regression", "--l2", "nan"),
        ("linear_svm", "--c", "inf"), ("linear_svm", "--c", "nan"),
        ("lstm", "--lr", "0"), ("lstm", "--lr", "-1"), ("lstm", "--lr", "nan"),
        ("lstm", "--lr", "inf"),
    ])
    def test_bad_fit_option(self, names_csv, tmp_path, kind, flag, value):
        option = {"--lr": "learning_rate"}.get(flag, flag[2:])
        out = tmp_path / "m.bundle"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = self.expect_error(["train", "--data", names_csv, "--model", kind,
                                     flag, value, "--out", out, *FAST_OPTIONS.get(kind, [])])
        assert err.startswith(f"error: {option} must be finite and ") and not out.exists()

    def test_lstm_without_hidden_units(self, names_csv, tmp_path):
        out = tmp_path / "lstm.bundle"
        err = self.expect_error(["train", "--data", names_csv, "--model", "lstm",
                                 "--hidden", 0, "--out", out])
        assert "hidden" in err and not out.exists()

    def test_interrupt_during_the_bundle_load_exits_quietly(self, bundle_paths, monkeypatch):
        def interrupted(path):
            raise KeyboardInterrupt

        monkeypatch.setattr(bm, "load_model", interrupted)
        assert run_cli(["serve", "--model", bundle_paths["multinomial_nb", "full"],
                        "--bind", "127.0.0.1:0"]) == (130, "", "")

    def test_non_utf8_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"full_name,gender\nNguy\xffn Lan,0\n")
        err = self.expect_error(["stats", "--data", path])
        assert str(path) in err
