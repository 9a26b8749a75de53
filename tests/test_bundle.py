import hashlib
import io
import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import SPLIT_SEED, run_cli
from vngender import bundle as bm
from vngender import classical, data_io, evaluation, lstm
from vngender.errors import (
    BundleError,
    BundleFormatError,
    BundleVersionError,
    EmptySequenceError,
)

PROBE_NAMES = ["Nguyễn Thị Lan", "Trần Văn Nam", "Lê Minh", "Phạm Hữu Đức Anh", "Vy"]


def sections_of(path) -> dict[str, bytes]:
    return bm._unpack_sections(Path(path).read_bytes())


def write_sections(tmp_path, sections: dict[str, bytes]):
    path = tmp_path / "crafted.bundle"
    path.write_bytes(bm._pack_sections(list(sections.items())))
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
        assert loaded.format_version == bm.FORMAT_VERSION
        again_path = tmp_path / "again.bundle"
        bm.save_model(loaded, again_path)
        again = bm.load_model(again_path)
        assert again.model_id == loaded.model_id
        assert again.train_meta == loaded.train_meta
        assert again.model.train_meta == loaded.model.train_meta
        for name in PROBE_NAMES:
            assert bm.bundle_predict(again, name) == bm.bundle_predict(loaded, name)

    @pytest.mark.parametrize("kind", classical.MODEL_KINDS)
    def test_batch_of_one_matches_batch(self, bundle_paths, kind):
        loaded = bm.load_model(bundle_paths[kind, "full"])
        docs = [bm.select_tokens(loaded, name)[1] for name in PROBE_NAMES]
        labels, scores = bm.predict_docs(loaded, docs)
        for name, label, score in zip(PROBE_NAMES, labels, scores):
            response = bm.bundle_predict(loaded, name)
            assert response["label"] == label
            assert response["score"] == score

    def test_model_id_depends_only_on_content(self, bundle_paths):
        loaded = bm.load_model(bundle_paths["random_forest", "full"])
        a = bm.make_bundle(loaded.model, loaded.component_mask,
                           loaded.vectorizer_cfg, loaded.vocabulary, {"x": 1})
        b = bm.make_bundle(loaded.model, loaded.component_mask,
                           loaded.vectorizer_cfg, loaded.vocabulary, {"x": 2})
        assert a.model_id == b.model_id == loaded.model_id

    def test_lstm_embeddings_resolved_at_load(self, bundle_paths):
        loaded = bm.load_model(bundle_paths["lstm", "full"])
        assert isinstance(loaded.model.embeddings, lstm.EmbeddingTable)
        assert loaded.model.embeddings.source == loaded.model.embedding_source
        bm.bundle_predict(loaded, "Trần Văn Nam")
        assert not hasattr(loaded, "_embeddings")

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

    @pytest.mark.parametrize("kind", ["multinomial_nb", "lstm"])
    def test_evaluate_reproduces_training_macro_f1(self, bundle_paths, names_csv, tmp_path, kind):
        dataset = data_io.load_dataset(names_csv)
        test = evaluation.stratified_split(dataset, evaluation.SplitSpec(seed=SPLIT_SEED))[2]
        test_csv = tmp_path / "test.csv"
        data_io.save_dataset(test, test_csv)
        path = bundle_paths[kind, "fan"]
        stored = bm.load_model(path).train_meta
        code, out, _ = run_cli(["evaluate", "--model", path, "--data", test_csv])
        assert code == 0
        macro = next(line for line in out.splitlines() if line.startswith("macro\t"))
        assert macro.split("\t")[3] == f"{100 * stored['metrics']['macro_f1']:.2f}"
        skipped = next(line for line in out.splitlines() if line.startswith("skipped\t"))
        assert int(skipped.split("\t")[1]) == stored["skipped"]["test"] > 0


class TestMalformedBundles:
    @pytest.fixture
    def valid(self, bundle_paths):
        return sections_of(bundle_paths["decision_tree", "full"])

    @pytest.mark.parametrize("version", [1, 2, 3])
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

