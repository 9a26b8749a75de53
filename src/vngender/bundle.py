"""Model bundles: a single binary file holding vectorizer, parameters, the
component mask used at train time, and run metadata.

Layout (format version 5): magic, big-endian format version, section count,
then length-prefixed named sections, then a SHA-256 checksum of everything
before it. Two sections:

- ``meta``: UTF-8 JSON with the model kind, mask label, model id, training
  metadata, vectorizer config (null for a kind that reads tokens, such as
  the LSTM), vocabulary, and ``model``, the model's fields that are not
  arrays, its ``train_meta`` included.
- ``arrays``: an npz archive of the model's array fields, by field name;
  arrays of a nested dataclass are named ``<field>.<name>`` (the LSTM's
  ``params.w``, ``params.u``, ...). It is read with ``allow_pickle=False``.

Every kind, the LSTM included, goes through the same field-by-field encoding,
and the model class of a kind comes from `classical.MODEL_KINDS`. Every
model reads the bundle's vocabulary, so its `n_features` is the
vocabulary's size. A bundle needs no other file: the LSTM stores the
pretrained vectors of its vocabulary and rebuilds its embedding table from
them and its seed when it is built.

Scoring has one path: `bundle_predict_many` tokenizes its whole batch in one
`names_core.tokenize_batch` call, splits each name's tokens with
`names_core.segment` and keeps the bundle's components, encodes every
scorable name at once, turns them into the kind's `classical.model_input` as
training did, and scores them in one `classical.predict` call. Each
response's components are the lists `segment` gave. `bundle_predict` is a
batch of one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import itertools
import json
import struct
import time
import typing
import zipfile
from dataclasses import dataclass

import numpy as np

from . import classical, featurize, names_core
from .errors import (
    BundleError,
    BundleFormatError,
    BundleVersionError,
    EmptySequenceError,
    ToolkitError,
)
from .featurize import VectorizerConfig, Vocabulary
from .names_core import ComponentMask

MAGIC = b"VNGBUNDL"
FORMAT_VERSION = 5


@dataclass
class ModelBundle:
    model_kind: str
    component_mask: ComponentMask
    vectorizer_cfg: VectorizerConfig | None
    vocabulary: Vocabulary
    model: object                      # a model class of `classical.MODEL_KINDS`
    train_meta: dict
    model_id: str
    arrays_npz: bytes = dataclasses.field(repr=False)  # the model's encoded arrays section


# ---------------------------------------------------------------------------
# Section encoding
# ---------------------------------------------------------------------------

def _write_sections(fh, sections: list[tuple[str, bytes]]) -> None:
    """Write the header and the sections to `fh`, then the SHA-256 of all
    of it, hashing as it goes: no copy of the whole file is made."""
    digest = hashlib.sha256()

    def write(data: bytes) -> None:
        digest.update(data)
        fh.write(data)

    write(MAGIC + struct.pack(">II", FORMAT_VERSION, len(sections)))
    for name, payload in sections:
        encoded = name.encode("utf-8")
        write(struct.pack(">H", len(encoded)) + encoded + struct.pack(">Q", len(payload)))
        write(payload)
    fh.write(digest.digest())


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


def _check_features(model, vectorizer_cfg: VectorizerConfig | None,
                    vocabulary: Vocabulary) -> None:
    """The model reads a vocabulary of its width, through a vectorizer
    unless its kind reads tokens."""
    if model.n_features != len(vocabulary) or (
        (vectorizer_cfg is None) != classical.MODEL_KINDS[model.kind].reads_tokens
    ):
        raise BundleFormatError(f"the {model.kind} model and the vocabulary do not match")


def _vocab_meta(vocabulary: Vocabulary) -> dict:
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
    vectorizer_cfg: VectorizerConfig | None,
    vocabulary: Vocabulary,
    train_meta: dict | None = None,
) -> ModelBundle:
    """Assemble a bundle and derive its model_id from the payload bytes."""
    meta = dict(train_meta or {})
    meta.setdefault("created_unix", int(time.time()))
    _check_features(model, vectorizer_cfg, vocabulary)
    arrays_npz, model_meta = _encode_model(model)
    digest = hashlib.sha256(arrays_npz)
    digest.update(_json_bytes([model_meta, _vocab_meta(vocabulary)]))
    return ModelBundle(
        model_kind=model.kind,
        component_mask=component_mask,
        vectorizer_cfg=vectorizer_cfg,
        vocabulary=vocabulary,
        model=model,
        train_meta=meta,
        model_id=f"{model.kind}-{digest.hexdigest()[:12]}",
        arrays_npz=arrays_npz,
    )


def save_model(bundle: ModelBundle, path) -> None:
    """Write the bundle, its arrays section as `make_bundle` or `load_model`
    encoded it."""
    _, model_meta = _split_fields(bundle.model)
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
        _write_sections(fh, [("meta", _json_bytes(meta)), ("arrays", bundle.arrays_npz)])


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
        model = _join_fields(classical.kind_spec(kind).model, arrays, meta["model"])
        vocab = meta["vocabulary"]
        vocabulary = Vocabulary(
            tuple(vocab["tokens"]),
            {tok: i for i, tok in enumerate(vocab["tokens"])},
            np.array(vocab["doc_freq"], dtype=np.int64),
            int(vocab["n_docs"]),
        )
        vcfg = meta["vectorizer"]
        vcfg = None if vcfg is None else VectorizerConfig(**vcfg)
        _check_features(model, vcfg, vocabulary)
        return ModelBundle(
            model_kind=kind,
            component_mask=names_core.parse_mask(meta["mask"]),
            vectorizer_cfg=vcfg,
            vocabulary=vocabulary,
            model=model,
            train_meta=meta["train_meta"],
            model_id=meta["model_id"],
            arrays_npz=sections["arrays"],
        )
    except BundleError:
        raise
    except (ToolkitError, LookupError, TypeError, ValueError, AttributeError, EOFError,
            OSError, RuntimeError, zipfile.BadZipFile) as exc:
        raise BundleFormatError(f"cannot decode bundle: {type(exc).__name__}: {exc}") from exc


def bundle_predict_many(bundle: ModelBundle, raw_names: list[str]) -> list[dict | ToolkitError]:
    """The wire-format response of each name, with every scorable name
    scored in one `classical.predict` call.

    A name that cannot be scored gets its error in its place:
    `InvalidNameError` or `EmptyNameError` from `names_core.tokenize_batch`,
    or `EmptySequenceError` when the bundle's mask keeps none of its tokens.
    Training skips such records, so every kind refuses to score them.
    """
    token_lists, errors = names_core.tokenize_batch(raw_names)
    mask = bundle.component_mask
    kept_parts = (mask.use_family, mask.use_middle, mask.use_given)
    scored, docs = [], []  # (index, components) and the kept tokens of each scorable name
    for i, tokens in enumerate(token_lists):
        if i in errors:
            continue
        parts = names_core.segment(tokens)
        kept = sum(itertools.compress(parts, kept_parts), [])
        if kept:
            scored.append((i, parts))
            docs.append(kept)
        else:
            errors[i] = EmptySequenceError(
                f"mask {mask.label!r} selects no tokens of {raw_names[i]!r}"
            )
    results: list = list(map(errors.get, range(len(token_lists))))
    if not docs:
        return results
    x = classical.model_input(bundle.model_kind, featurize.encode(docs), bundle.vocabulary,
                              bundle.vectorizer_cfg)
    labels, scores = classical.predict(bundle.model, x)
    for (i, (family, middle, given)), label, score in zip(scored, labels.tolist(),
                                                          scores.tolist()):
        results[i] = {
            "label": label,
            "gender": "male" if label == 1 else "female",
            "score": score,
            "components": {"family": family[0] if family else None, "middle": middle,
                           "given": given[0]},
            "model_id": bundle.model_id,
        }
    return results


def bundle_predict(bundle: ModelBundle, raw_name: str) -> dict:
    """The response for one name: `bundle_predict_many` on a batch of one,
    raising the error a name that cannot be scored gets."""
    (result,) = bundle_predict_many(bundle, [raw_name])
    if isinstance(result, ToolkitError):
        raise result
    return result
