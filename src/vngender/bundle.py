"""Model bundles: a single binary file holding vectorizer, parameters, the
component mask used at train time, and run metadata.

Layout (format version 2): magic, big-endian format version, section count,
then length-prefixed named sections, then a SHA-256 checksum of everything
before it. Two sections:

- ``meta``: UTF-8 JSON with the model kind, mask label, model id, training
  metadata, vectorizer config and vocabulary (both null for the LSTM), and
  ``model``, the model's fields that are not arrays.
- ``arrays``: an npz archive of the model's array fields, by field name;
  arrays of a nested dataclass are named ``<field>.<name>`` (the LSTM's
  ``params.w_i``, ...). It is read with ``allow_pickle=False``.

Every kind goes through the same field-by-field encoding; the model class of
a kind comes from `classical.CLASSICAL_KINDS`, or is `LstmPayload`. Embedding
tables are referenced (path + content hash, or a seed for random tables)
rather than embedded, and resolved once when the payload is built.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import struct
import time
import typing
import zipfile
from dataclasses import dataclass

import numpy as np

from . import classical, featurize, lstm, names_core
from .errors import (
    BundleError,
    BundleFormatError,
    BundleVersionError,
    EmptySequenceError,
    ToolkitError,
)
from .featurize import VectorizerConfig, Vocabulary
from .names_core import ComponentMask, NameComponents

MAGIC = b"VNGBUNDL"
FORMAT_VERSION = 2


@dataclass
class LstmPayload:
    params: lstm.LstmParams
    cfg: lstm.LstmTrainConfig
    embedding_source: dict
    embeddings: lstm.EmbeddingTable | None = dataclasses.field(
        default=None, repr=False, metadata={"stored": False}
    )

    def __post_init__(self):
        if self.embeddings is None:
            self.embeddings = _resolve_embeddings(self.embedding_source)


@dataclass
class ModelBundle:
    format_version: int
    model_kind: str
    component_mask: ComponentMask
    vectorizer_cfg: VectorizerConfig | None
    vocabulary: Vocabulary | None
    model: object                      # classical model or LstmPayload
    train_meta: dict
    model_id: str


# ---------------------------------------------------------------------------
# Section encoding
# ---------------------------------------------------------------------------

def _pack_sections(sections: list[tuple[str, bytes]]) -> bytes:
    out = bytearray(MAGIC)
    out += struct.pack(">I", FORMAT_VERSION)
    out += struct.pack(">I", len(sections))
    for name, payload in sections:
        encoded = name.encode("utf-8")
        out += struct.pack(">H", len(encoded)) + encoded
        out += struct.pack(">Q", len(payload)) + payload
    out += hashlib.sha256(bytes(out)).digest()
    return bytes(out)


def _unpack_sections(blob: bytes) -> dict[str, bytes]:
    if len(blob) < 16 + 32:
        raise BundleFormatError("truncated bundle file")
    if blob[: len(MAGIC)] != MAGIC:
        raise BundleFormatError("not a model bundle (bad magic string)")
    version, count = struct.unpack_from(">II", blob, len(MAGIC))
    if version != FORMAT_VERSION:
        raise BundleVersionError(
            f"bundle format version {version}; this reader supports version {FORMAT_VERSION}"
        )
    body, checksum = blob[:-32], blob[-32:]
    if hashlib.sha256(body).digest() != checksum:
        raise BundleFormatError("bundle checksum mismatch")
    sections: dict[str, bytes] = {}
    offset = 16
    for _ in range(count):
        if offset + 2 > len(body):
            break
        (name_len,) = struct.unpack_from(">H", body, offset)
        name = body[offset + 2:offset + 2 + name_len].decode("utf-8")
        offset += 2 + name_len
        if offset + 8 > len(body):
            break
        (size,) = struct.unpack_from(">Q", body, offset)
        sections[name] = body[offset + 8:offset + 8 + size]
        offset += 8 + size
    if offset != len(body):
        raise BundleFormatError("bundle sections do not fill the file")
    return sections


def _json_bytes(obj) -> bytes:
    return json.dumps(obj, ensure_ascii=False).encode("utf-8")


# ---------------------------------------------------------------------------
# Model encoding: array fields to npz members, the rest to JSON
# ---------------------------------------------------------------------------

def _stored_fields(cls_or_obj):
    return [f for f in dataclasses.fields(cls_or_obj) if f.metadata.get("stored", True)]


def _split_fields(obj, prefix: str = "") -> tuple[dict[str, np.ndarray], dict]:
    arrays, meta = {}, {}
    for f in _stored_fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, np.ndarray):
            arrays[prefix + f.name] = value
        elif dataclasses.is_dataclass(value):
            sub_arrays, meta[f.name] = _split_fields(value, f"{prefix}{f.name}.")
            arrays.update(sub_arrays)
        else:
            meta[f.name] = value
    return arrays, meta


def _join_fields(cls, arrays: dict[str, np.ndarray], meta: dict, prefix: str = ""):
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for f in _stored_fields(cls):
        sub_cls = hints[f.name]
        if dataclasses.is_dataclass(sub_cls):
            kwargs[f.name] = _join_fields(sub_cls, arrays, meta[f.name], f"{prefix}{f.name}.")
        elif prefix + f.name in arrays:
            kwargs[f.name] = arrays[prefix + f.name]
        else:
            kwargs[f.name] = meta[f.name]
    return cls(**kwargs)


def _encode_model(model) -> tuple[bytes, dict]:
    """(npz bytes, JSON-ready metadata); equal models encode to equal bytes."""
    arrays, meta = _split_fields(model)
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue(), meta


def _model_class(kind: str) -> type:
    if kind == "lstm":
        return LstmPayload
    spec = classical.CLASSICAL_KINDS.get(kind)
    if spec is None:
        raise BundleFormatError(f"unknown model kind {kind!r}")
    return spec.model


def _resolve_embeddings(source: dict) -> lstm.EmbeddingTable:
    if source.get("kind") == "random":
        return lstm.random_embeddings(source["dim"], source["seed"])
    if source.get("kind") == "vec_file":
        path = source["path"]
        try:
            actual = hashlib.sha256(open(path, "rb").read()).hexdigest()
        except FileNotFoundError as exc:
            raise BundleError(f"referenced embedding file missing: {path}") from exc
        if actual != source["sha256"]:
            raise BundleError(f"embedding file content changed: {path}")
        return lstm.load_embeddings(path, source["dim"], oov_seed=source.get("oov_seed", 0))
    raise BundleError(f"unknown embedding source {source.get('kind')!r}")


def _vocab_meta(vocabulary: Vocabulary | None) -> dict | None:
    if vocabulary is None:
        return None
    return {
        "tokens": list(vocabulary.tokens),
        "doc_freq": vocabulary.doc_freq.tolist(),
        "n_docs": vocabulary.n_docs,
    }


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------

def make_bundle(
    model,
    component_mask: ComponentMask,
    vectorizer_cfg: VectorizerConfig | None = None,
    vocabulary: Vocabulary | None = None,
    train_meta: dict | None = None,
) -> ModelBundle:
    """Assemble a bundle and derive its model_id from the payload bytes."""
    meta = dict(train_meta or {})
    meta.setdefault("created_unix", int(time.time()))
    kind = "lstm" if isinstance(model, LstmPayload) else model.kind
    if kind != "lstm" and (vectorizer_cfg is None or vocabulary is None):
        raise BundleError("classical bundles need a vectorizer config and vocabulary")
    arrays_blob, model_meta = _encode_model(model)
    digest = hashlib.sha256(
        arrays_blob + _json_bytes([model_meta, _vocab_meta(vocabulary)])
    ).hexdigest()
    return ModelBundle(
        format_version=FORMAT_VERSION,
        model_kind=kind,
        component_mask=component_mask,
        vectorizer_cfg=vectorizer_cfg,
        vocabulary=vocabulary,
        model=model,
        train_meta=meta,
        model_id=f"{kind}-{digest[:12]}",
    )


def save_model(bundle: ModelBundle, path) -> None:
    arrays_blob, model_meta = _encode_model(bundle.model)
    vcfg = bundle.vectorizer_cfg
    meta = {
        "model_kind": bundle.model_kind,
        "mask": bundle.component_mask.label,
        "model_id": bundle.model_id,
        "train_meta": bundle.train_meta,
        "vectorizer": dataclasses.asdict(vcfg) if vcfg else None,
        "vocabulary": _vocab_meta(bundle.vocabulary),
        "model": model_meta,
    }
    with open(path, "wb") as fh:
        fh.write(_pack_sections([("meta", _json_bytes(meta)), ("arrays", arrays_blob)]))


def load_model(path) -> ModelBundle:
    """Read a bundle; a file that cannot be decoded raises a `BundleError`."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise BundleError(f"cannot read bundle file {path}: {exc}") from exc
    try:
        sections = _unpack_sections(blob)
        meta = json.loads(sections["meta"].decode("utf-8"))
        with np.load(io.BytesIO(sections["arrays"]), allow_pickle=False) as archive:
            if any(info.compress_type != zipfile.ZIP_STORED for info in archive.zip.infolist()):
                raise BundleFormatError("compressed array member")
            arrays = {name: archive[name] for name in archive.files}
        kind = meta["model_kind"]
        model = _join_fields(_model_class(kind), arrays, meta["model"])
        vocab = meta["vocabulary"]
        vocabulary = None if vocab is None else Vocabulary(
            tuple(vocab["tokens"]),
            {tok: i for i, tok in enumerate(vocab["tokens"])},
            np.array(vocab["doc_freq"], dtype=np.int64),
            int(vocab["n_docs"]),
        )
        if kind != "lstm" and model.n_features != len(vocabulary):
            raise BundleFormatError("model and vocabulary sizes differ")
        vcfg = meta["vectorizer"]
        return ModelBundle(
            format_version=FORMAT_VERSION,
            model_kind=kind,
            component_mask=names_core.parse_mask(meta["mask"]),
            vectorizer_cfg=None if vcfg is None else VectorizerConfig(**vcfg),
            vocabulary=vocabulary,
            model=model,
            train_meta=meta["train_meta"],
            model_id=meta["model_id"],
        )
    except BundleError:
        raise
    except (ToolkitError, LookupError, TypeError, ValueError, AttributeError, EOFError,
            OSError, RuntimeError, zipfile.BadZipFile) as exc:
        raise BundleFormatError(f"cannot decode bundle: {type(exc).__name__}: {exc}") from exc


def select_tokens(bundle: ModelBundle, raw_name: str) -> tuple[NameComponents, list[str]]:
    """Segment a raw name and keep the bundle's components.

    Raises `EmptyNameError` for a blank name and `EmptySequenceError` when the
    mask selects no tokens; training skips such records, so every kind
    refuses to score them.
    """
    comps = names_core.segment(names_core.normalize(raw_name))
    tokens = names_core.select_components(comps, bundle.component_mask)
    if not tokens:
        raise EmptySequenceError(
            f"mask {bundle.component_mask.label!r} selects no tokens of {raw_name!r}"
        )
    return comps, tokens


def predict_docs(bundle: ModelBundle, docs: list[list[str]]) -> tuple[np.ndarray, np.ndarray]:
    """(labels, scores) for token lists that `select_tokens` returned."""
    if bundle.model_kind == "lstm":
        payload: LstmPayload = bundle.model
        preds = [
            lstm.predict_lstm(doc, payload.embeddings, payload.params, payload.cfg.max_seq_len)
            for doc in docs
        ]
        return (np.array([p.label for p in preds], dtype=np.int64),
                np.array([p.score for p in preds], dtype=np.float64))
    x = featurize.transform(docs, bundle.vocabulary, bundle.vectorizer_cfg)
    return classical.predict(bundle.model, x)


def bundle_predict(bundle: ModelBundle, raw_name: str) -> dict:
    """Full pipeline for one name, as a batch of one; returns the wire-format
    response dict."""
    comps, tokens = select_tokens(bundle, raw_name)
    labels, scores = predict_docs(bundle, [tokens])
    label = int(labels[0])
    return {
        "label": label,
        "gender": "male" if label == 1 else "female",
        "score": float(scores[0]),
        "components": {
            "family": comps.family,
            "middle": list(comps.middle),
            "given": comps.given,
        },
        "model_id": bundle.model_id,
    }
