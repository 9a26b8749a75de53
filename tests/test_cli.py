import dataclasses
import inspect
import json

import numpy as np
import pytest

from conftest import SPLIT_SEED, run_cli
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
    "logistic_regression": {"l2": 1e-4, "max_iter": 1000, "tol": 1e-4},
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
        spec = ModelSpec(kind, seed=SPLIT_SEED, options=FAST_FIT_OPTIONS.get(kind, {}))
        result = evaluation.run_experiment(
            data_io.load_dataset(names_csv), names_core.parse_mask("full"), spec,
            VectorizerConfig("count"), SplitSpec(seed=SPLIT_SEED),
        )
        arrays, meta = bm._split_fields(result.model)
        loaded_arrays, loaded_meta = bm._split_fields(loaded.model)
        assert meta == loaded_meta
        assert arrays.keys() == loaded_arrays.keys()
        for name, value in arrays.items():
            assert np.array_equal(value, loaded_arrays[name]), name
        rebuilt = bm.make_bundle(result.model, loaded.component_mask,
                                 result.vectorizer_cfg, result.vocabulary)
        assert rebuilt.model_id == loaded.model_id

    def test_unconverged_fit_warns(self, names_csv, tmp_path):
        code, out, err = run_cli(["train", "--data", names_csv, "--model",
                                  "logistic_regression", "--max-iter", "3",
                                  "--out", tmp_path / "lr.bundle"])
        assert code == 0
        assert bm.load_model(tmp_path / "lr.bundle").model.train_meta["converged"] is False
        assert len(err.splitlines()) == 1 and err.startswith("warning")
        confusion = next(line for line in out.splitlines() if line.startswith("confusion"))
        assert len(confusion.split("\t")) == 5

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
        assert data_io.load_dataset(tmp_path / "s.csv").names() == [
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

    def test_lstm_without_hidden_units(self, names_csv, tmp_path):
        out = tmp_path / "lstm.bundle"
        err = self.expect_error(["train", "--data", names_csv, "--model", "lstm",
                                 "--hidden", 0, "--out", out])
        assert "hidden" in err and not out.exists()

    def test_non_utf8_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"full_name,gender\nNguy\xffn Lan,0\n")
        err = self.expect_error(["stats", "--data", path])
        assert str(path) in err
