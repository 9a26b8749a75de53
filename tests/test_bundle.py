import hashlib
import io
import json
import struct
import unicodedata
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oracles
from conftest import BUNDLES, FAST_OPTIONS, SPLIT_SEED, run_cli
from vngender import bundle as bm
from vngender import classical, data_io, evaluation, lstm
from vngender.errors import (
    BundleError,
    BundleFormatError,
    BundleVersionError,
    EmptySequenceError,
    ToolkitError,
)

PROBE_NAMES = ["Nguyễn Thị Lan", "Trần Văn Nam", "Lê Minh", "Phạm Hữu Đức Anh", "Vy"]


def sections_of(path) -> dict[str, bytes]:
    return bm._unpack_sections(Path(path).read_bytes())


def write_sections(tmp_path, sections: dict[str, bytes]):
    path = tmp_path / "crafted.bundle"
    with open(path, "wb") as fh:
        bm._write_sections(fh, list(sections.items()))
    return path


def npz_bytes(arrays: dict) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def npz_arrays(blob: bytes) -> dict:
    with np.load(io.BytesIO(blob)) as archive:
        return {name: archive[name] for name in archive.files}


class TestRoundTrip:
    @pytest.mark.parametrize("kind", classical.MODEL_KINDS)
    def test_reload_predicts_identically(self, bundle_paths, kind, tmp_path):
        loaded = bm.load_model(bundle_paths[kind, "full"])
        assert loaded.model_kind == kind
        again_path = tmp_path / "again.bundle"
        bm.save_model(loaded, again_path)
        assert again_path.read_bytes() == Path(bundle_paths[kind, "full"]).read_bytes()
        again = bm.load_model(again_path)
        assert again.model_id == loaded.model_id
        assert again.train_meta == loaded.train_meta
        assert again.model.train_meta == loaded.model.train_meta
        for name in PROBE_NAMES:
            assert bm.bundle_predict(again, name) == bm.bundle_predict(loaded, name)

    @pytest.mark.parametrize("kind", classical.MODEL_KINDS)
    def test_batch_of_one_matches_batch(self, bundle_paths, kind):
        loaded = bm.load_model(bundle_paths[kind, "full"])
        batch = bm.bundle_predict_many(loaded, PROBE_NAMES)
        for name, response in zip(PROBE_NAMES, batch, strict=True):
            assert bm.bundle_predict(loaded, name) == response

    def test_train_encodes_the_arrays_once(self, names_csv, tmp_path, monkeypatch):
        calls = []
        original = bm._encode_model

        def counted(model):
            calls.append(model.kind)
            return original(model)

        monkeypatch.setattr(bm, "_encode_model", counted)
        path = tmp_path / "lstm.bundle"
        code, *_ = run_cli(["train", "--data", names_csv, "--model", "lstm", "--out", path,
                            *FAST_OPTIONS["lstm"]])
        assert code == 0 and calls == ["lstm"]
        assert sections_of(path)["arrays"] == bm.load_model(path).arrays_npz

    def test_model_id_depends_only_on_content(self, bundle_paths):
        loaded = bm.load_model(bundle_paths["random_forest", "full"])
        a = bm.make_bundle(loaded.model, loaded.component_mask,
                           loaded.vectorizer_cfg, loaded.vocabulary, {"x": 1})
        b = bm.make_bundle(loaded.model, loaded.component_mask,
                           loaded.vectorizer_cfg, loaded.vocabulary, {"x": 2})
        assert a.model_id == b.model_id == loaded.model_id

    def test_lstm_rebuilds_its_embedding_table_at_load(self, bundle_paths):
        path = bundle_paths["lstm", "full"]
        loaded = bm.load_model(path)
        model = loaded.model
        assert model.n_features == len(loaded.vocabulary)
        want = lstm.embedding_table(model.n_features, 8, SPLIT_SEED, model.vec_rows,
                                    model.vec_values)
        assert want.shape == (model.n_features + 1, 8)
        assert np.array_equal(model.embedding, want)
        members = set(npz_arrays(sections_of(path)["arrays"]))
        assert {"vec_rows", "vec_values"} <= members and "embedding" not in members

    def test_lstm_keeps_its_epoch_losses(self, bundle_paths):
        losses = bm.load_model(bundle_paths["lstm", "full"]).model.train_meta["epoch_losses"]
        assert len(losses) == 1 and losses[0] > 0

    def test_every_kind_stores_arrays_in_npz(self, bundle_paths):
        for kind in classical.MODEL_KINDS:
            sections = sections_of(bundle_paths[kind, "full"])
            assert set(sections) == {"meta", "arrays"}
            assert npz_arrays(sections["arrays"])


class TestEmptyComponents:
    @pytest.mark.parametrize("kind", ["multinomial_nb", "lstm"])
    def test_mask_selecting_nothing_raises(self, bundle_paths, kind):
        loaded = bm.load_model(bundle_paths[kind, "fan"])
        with pytest.raises(EmptySequenceError):
            bm.bundle_predict(loaded, "Lan")
        assert bm.bundle_predict(loaded, "Nguyễn Lan")["components"]["family"] == "nguyễn"

    @pytest.mark.parametrize("kind, mask", BUNDLES)
    def test_evaluate_reproduces_training_macro_f1(self, bundle_paths, names_csv, tmp_path,
                                                   kind, mask):
        dataset = data_io.load_dataset(names_csv)
        test = evaluation.stratified_split(dataset, evaluation.SplitSpec(seed=SPLIT_SEED))[2]
        test_csv = tmp_path / "test.csv"
        data_io.save_dataset(test, test_csv)
        path = bundle_paths[kind, mask]
        stored = bm.load_model(path).train_meta
        code, out, _ = run_cli(["evaluate", "--model", path, "--data", test_csv])
        assert code == 0
        macro = next(line for line in out.splitlines() if line.startswith("macro\t"))
        assert macro.split("\t")[3] == f"{100 * stored['metrics']['macro_f1']:.2f}"
        skipped = [line for line in out.splitlines() if line.startswith("skipped\t")]
        # Only the one-token names of the fixture data have no family name.
        assert (stored["skipped"]["test"] > 0) == (mask == "fan")
        if stored["skipped"]["test"]:
            assert skipped == [f"skipped\t{stored['skipped']['test']}"]
        else:
            assert skipped == []


# Tokens of the fixture corpus's names, and one no bundle has seen.
NAME_TOKENS = ["Nguyễn", "Trần", "Lê", "Thị", "Văn", "Hữu", "Lan", "Nam", "Minh", "Hiền", "Zyx"]
GAPS = st.sampled_from([" ", "  ", "\t", "\u3000", " \n "])


@st.composite
def raw_names(draw):
    """A name a client may send: one to four tokens in any case, joined and
    padded by runs of whitespace, composed or decomposed; a blank; or a lone
    surrogate, alone or inside a name."""
    shape = draw(st.sampled_from(["name", "blank", "surrogate"]))
    if shape == "blank":
        return draw(st.sampled_from(["", " ", "\t\n", "\u3000"]))
    tokens = draw(st.lists(st.sampled_from(NAME_TOKENS), min_size=1, max_size=4))
    tokens = [draw(st.sampled_from([t, t.lower(), t.upper()])) for t in tokens]
    if shape == "surrogate":
        surrogate = draw(st.sampled_from(["\ud800", "\udcff"]))
        if draw(st.booleans()):
            tokens = [surrogate]
        else:
            at = draw(st.integers(0, len(tokens) - 1))
            tokens[at] = draw(st.sampled_from(["", tokens[at]])) + surrogate
    name = draw(st.sampled_from(["", " "])) + "".join(t + draw(GAPS) for t in tokens)
    return unicodedata.normalize(draw(st.sampled_from(["NFC", "NFD"])), name)


@pytest.fixture(scope="module", params=["full", "fan"])
def nb_bundle(request, bundle_paths):
    return bm.load_model(bundle_paths["multinomial_nb", request.param])


class TestBatchScoring:
    @settings(max_examples=80, deadline=None)
    @given(raws=st.lists(raw_names(), max_size=10))
    def test_each_name_scores_alone_and_as_the_oracle_says(self, nb_bundle, raws):
        results = bm.bundle_predict_many(nb_bundle, raws)
        assert len(results) == len(raws)
        for raw, result in zip(raws, results):
            (alone,) = bm.bundle_predict_many(nb_bundle, [raw])
            try:
                components = oracles.name_components(raw, nb_bundle.component_mask)
            except ToolkitError as exc:
                for got in (result, alone):
                    assert (type(got), str(got)) == (type(exc), str(exc))
            else:
                assert result == alone
                assert result["components"] == components


class TestMalformedBundles:
    @pytest.fixture
    def valid(self, bundle_paths):
        return sections_of(bundle_paths["decision_tree", "full"])

    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    def test_older_format_version_rejected(self, bundle_paths, tmp_path, version):
        blob = Path(bundle_paths["multinomial_nb", "full"]).read_bytes()[:-32]
        body = blob[:8] + struct.pack(">I", version) + blob[12:]
        path = tmp_path / "old.bundle"
        path.write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(BundleVersionError):
            bm.load_model(path)

    @pytest.mark.parametrize("section", ["meta", "arrays"])
    def test_missing_section(self, valid, tmp_path, section):
        del valid[section]
        with pytest.raises(BundleFormatError):
            bm.load_model(write_sections(tmp_path, valid))

    @pytest.mark.parametrize("meta", [b"{not json", b"\xff\xfe\x00", b"[1, 2]", b"null"])
    def test_unreadable_meta(self, valid, tmp_path, meta):
        valid["meta"] = meta
        with pytest.raises(BundleFormatError):
            bm.load_model(write_sections(tmp_path, valid))

    def test_unknown_kind(self, valid, tmp_path):
        meta = json.loads(valid["meta"])
        meta["model_kind"] = "gbdt"
        valid["meta"] = json.dumps(meta).encode("utf-8")
        with pytest.raises(BundleFormatError, match="gbdt"):
            bm.load_model(write_sections(tmp_path, valid))

    def test_unknown_mask(self, valid, tmp_path):
        meta = json.loads(valid["meta"])
        meta["mask"] = "given-only"
        valid["meta"] = json.dumps(meta).encode("utf-8")
        with pytest.raises(BundleFormatError, match="given-only"):
            bm.load_model(write_sections(tmp_path, valid))

    def test_missing_npz_member(self, valid, tmp_path):
        arrays = npz_arrays(valid["arrays"])
        del arrays["threshold"]
        valid["arrays"] = npz_bytes(arrays)
        with pytest.raises(BundleFormatError):
            bm.load_model(write_sections(tmp_path, valid))

    def test_corrupt_npz(self, valid, tmp_path):
        blob = bytearray(valid["arrays"])
        blob[len(blob) // 3] ^= 0xFF
        valid["arrays"] = bytes(blob)
        with pytest.raises(BundleFormatError):
            bm.load_model(write_sections(tmp_path, valid))

    def test_compressed_member_refused(self, valid, tmp_path):
        buf = io.BytesIO()
        np.savez_compressed(buf, **npz_arrays(valid["arrays"]))
        valid["arrays"] = buf.getvalue()
        with pytest.raises(BundleFormatError, match="compressed"):
            bm.load_model(write_sections(tmp_path, valid))

    def test_not_an_archive(self, valid, tmp_path):
        valid["arrays"] = b"no zip here"
        with pytest.raises(BundleFormatError):
            bm.load_model(write_sections(tmp_path, valid))

    def test_pickled_member_refused(self, valid, tmp_path):
        arrays = npz_arrays(valid["arrays"])
        arrays["threshold"] = np.array([{"x": 1}], dtype=object)
        valid["arrays"] = npz_bytes(arrays)
        with pytest.raises(BundleFormatError):
            bm.load_model(write_sections(tmp_path, valid))

    def test_cyclic_tree_rejected(self, valid, tmp_path):
        arrays = npz_arrays(valid["arrays"])
        arrays["left"][0] = 0
        valid["arrays"] = npz_bytes(arrays)
        with pytest.raises(BundleFormatError):
            bm.load_model(write_sections(tmp_path, valid))

    def test_shared_child_rejected(self, valid, tmp_path):
        # The root's right child is replaced by its left child's right
        # child, which then has two parents.
        arrays = npz_arrays(valid["arrays"])
        left, right = arrays["left"], arrays["right"]
        assert arrays["feature"][1] >= 0 and left[0] == 1
        right[0] = right[1]
        valid["arrays"] = npz_bytes(arrays)
        with pytest.raises(BundleFormatError, match="pre-order"):
            bm.load_model(write_sections(tmp_path, valid))

    def test_unreachable_node_rejected(self, valid, tmp_path):
        arrays = npz_arrays(valid["arrays"])
        leaf = {"feature": -1, "threshold": 0.0, "left": -1, "right": -1, "p1": 0.5, "n": 1}
        for name, value in leaf.items():
            arrays[name] = np.append(arrays[name], value).astype(arrays[name].dtype)
        valid["arrays"] = npz_bytes(arrays)
        with pytest.raises(BundleFormatError, match="pre-order"):
            bm.load_model(write_sections(tmp_path, valid))

    def test_out_of_order_roots_rejected(self, bundle_paths, tmp_path):
        sections = sections_of(bundle_paths["random_forest", "full"])
        arrays = npz_arrays(sections["arrays"])
        arrays["roots"][[1, 2]] = arrays["roots"][[2, 1]]
        sections["arrays"] = npz_bytes(arrays)
        with pytest.raises(BundleFormatError, match="malformed"):
            bm.load_model(write_sections(tmp_path, sections))

    @pytest.mark.parametrize("tamper", ["row out of range", "wrong width", "n_features"])
    def test_tampered_lstm_rejected(self, bundle_paths, tmp_path, tamper):
        sections = sections_of(bundle_paths["lstm", "full"])
        meta = json.loads(sections["meta"])
        arrays = npz_arrays(sections["arrays"])
        n_features = meta["model"]["n_features"]
        if tamper == "row out of range":
            arrays["vec_rows"] = np.array([n_features], dtype=np.int64)
            arrays["vec_values"] = np.zeros((1, 8))
        elif tamper == "wrong width":
            arrays["vec_values"] = np.zeros((0, 9))
        else:
            meta["model"]["n_features"] = n_features - 1
        sections["meta"] = json.dumps(meta).encode("utf-8")
        sections["arrays"] = npz_bytes(arrays)
        with pytest.raises(BundleFormatError):
            bm.load_model(write_sections(tmp_path, sections))

    def test_missing_file(self, tmp_path):
        with pytest.raises(BundleError):
            bm.load_model(tmp_path / "absent.bundle")

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_truncated_or_flipped_bytes_raise_bundle_errors(self, bundle_paths, tmp_path, data):
        blob = bytearray(Path(bundle_paths["logistic_regression", "full"]).read_bytes())
        if data.draw(st.booleans(), label="truncate"):
            blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
        else:
            pos = data.draw(st.integers(0, len(blob) - 1), label="position")
            blob[pos] ^= data.draw(st.integers(1, 255), label="mask")
        path = tmp_path / "fuzzed.bundle"
        path.write_bytes(bytes(blob))
        with pytest.raises(BundleError):
            bm.load_model(path)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_flipped_bytes_under_a_valid_checksum_raise_bundle_errors(
        self, bundle_paths, tmp_path, data
    ):
        kind = data.draw(st.sampled_from(["decision_tree", "lstm"]), label="kind")
        body = bytearray(Path(bundle_paths[kind, "full"]).read_bytes()[:-32])
        for _ in range(data.draw(st.integers(1, 3), label="flips")):
            pos = data.draw(st.integers(16, len(body) - 1), label="position")
            body[pos] ^= data.draw(st.integers(1, 255), label="mask")
        path = tmp_path / "fuzzed.bundle"
        path.write_bytes(bytes(body) + hashlib.sha256(bytes(body)).digest())
        try:
            bm.load_model(path)
        except BundleError:
            pass

