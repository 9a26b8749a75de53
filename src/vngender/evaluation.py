"""Stratified splitting, macro-averaged metrics, experiments, and the 7-way
component ablation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import classical, featurize, lstm, names_core
from .data_io import Dataset
from .errors import EvaluationError
from .featurize import VectorizerConfig, Vocabulary
from .names_core import ALL_MASKS, ComponentMask


@dataclass(frozen=True)
class SplitSpec:
    train_frac: float = 0.7
    dev_frac: float = 0.1
    test_frac: float = 0.2
    seed: int = 0

    def __post_init__(self):
        fracs = (self.train_frac, self.dev_frac, self.test_frac)
        if any(f <= 0 for f in fracs):
            raise EvaluationError("split fractions must be positive")
        if abs(sum(fracs) - 1.0) > 1e-12:
            raise EvaluationError("split fractions must sum to 1")


def _cut(n: int, frac: float) -> int:
    # The epsilon guards floor() against cases like 100 * 0.7 == 69.999...
    return int(math.floor(n * frac + 1e-9))


def stratified_split(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Per-label seeded shuffle and floor cuts, merged and reshuffled.

    Each label's records are shuffled and cut at floor(n*train) and
    floor(n*(train+dev)); the per-label pieces are merged across labels and
    each merged subset is reshuffled with its own derived seed.
    """
    by_label: dict[int, list[int]] = {0: [], 1: []}
    for i, rec in enumerate(dataset.records):
        by_label[rec.gender].append(i)
    for label, idx in by_label.items():
        if len(idx) < 3:
            raise EvaluationError(
                f"label {label} has only {len(idx)} records; "
                "need at least 3 to populate train/dev/test"
            )

    seeds = np.random.SeedSequence(spec.seed).spawn(5)
    parts: dict[str, list[int]] = {"train": [], "dev": [], "test": []}
    for label, seed in ((0, seeds[0]), (1, seeds[1])):
        idx = np.array(by_label[label], dtype=np.int64)
        np.random.default_rng(seed).shuffle(idx)
        n = idx.size
        c1 = _cut(n, spec.train_frac)
        c2 = _cut(n, spec.train_frac + spec.dev_frac)
        parts["train"].extend(idx[:c1].tolist())
        parts["dev"].extend(idx[c1:c2].tolist())
        parts["test"].extend(idx[c2:].tolist())

    out = []
    for (name, ids), seed in zip(parts.items(), seeds[2:]):
        arr = np.array(ids, dtype=np.int64)
        np.random.default_rng(seed).shuffle(arr)
        records = [dataset.records[i] for i in arr]
        out.append(Dataset(records, source_tag=f"{dataset.source_tag}:{name}"))
    return out[0], out[1], out[2]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def confusion(y_true: Sequence[int], y_pred: Sequence[int]) -> ConfusionMatrix:
    """2x2 counts with label 1 (male) as the positive class."""
    if len(y_true) != len(y_pred):
        raise EvaluationError("y_true and y_pred must have the same length")
    if not y_true:
        raise EvaluationError("cannot build a confusion matrix from no pairs")
    tp = fp = tn = fn = 0
    for t, p in zip(y_true, y_pred):
        if t not in (0, 1) or p not in (0, 1):
            raise EvaluationError("labels must be 0 or 1")
        if t == 1:
            if p == 1:
                tp += 1
            else:
                fn += 1
        else:
            if p == 1:
                fp += 1
            else:
                tn += 1
    return ConfusionMatrix(tp, fp, tn, fn)


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class MacroMetrics:
    per_class: dict[int, ClassMetrics]
    macro_precision: float
    macro_recall: float
    macro_f1: float


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _class_metrics(tp: int, fp: int, fn: int) -> ClassMetrics:
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    f1 = _ratio(2 * precision * recall, precision + recall)
    return ClassMetrics(precision, recall, f1)


def macro_metrics(cm: ConfusionMatrix) -> MacroMetrics:
    """Per-class precision/recall/F1 (0/0 -> 0) and their unweighted means."""
    if cm.total == 0:
        raise EvaluationError("empty confusion matrix")
    pos = _class_metrics(cm.tp, cm.fp, cm.fn)
    neg = _class_metrics(cm.tn, cm.fn, cm.fp)
    return MacroMetrics(
        per_class={1: pos, 0: neg},
        macro_precision=(pos.precision + neg.precision) / 2.0,
        macro_recall=(pos.recall + neg.recall) / 2.0,
        macro_f1=(pos.f1 + neg.f1) / 2.0,
    )


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

@dataclass
class ModelSpec:
    """What to train: a classical kind or "lstm", plus its options."""

    kind: str
    seed: int = 0
    options: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return self.kind


@dataclass
class LstmArtifacts:
    params: lstm.LstmParams
    cfg: lstm.LstmTrainConfig
    embeddings: lstm.EmbeddingTable
    epoch_losses: list[float]


@dataclass
class ExperimentResult:
    mask_label: str
    model_label: str
    metrics: MacroMetrics
    confusion: ConfusionMatrix
    misclassified: list[tuple[str, int, int]]
    skipped: dict[str, int]
    subset_sizes: dict[str, int]
    vectorizer_cfg: VectorizerConfig | None
    vocabulary: Vocabulary | None
    classifier: object | None
    lstm_artifacts: LstmArtifacts | None
    run_meta: dict


def _select_subset(subset: Dataset, mask: ComponentMask):
    """(token lists, labels, skipped count) for records non-empty under mask."""
    docs: list[list[str]] = []
    labels: list[int] = []
    skipped = 0
    for rec in subset.records:
        comps = names_core.segment(names_core.normalize(rec.full_name))
        tokens = names_core.select_components(comps, mask)
        if not tokens:
            skipped += 1
            continue
        docs.append(tokens)
        labels.append(rec.gender)
    return docs, labels, skipped


def _lstm_embeddings(spec: ModelSpec) -> lstm.EmbeddingTable:
    opts = spec.options
    if "embedding" in opts:
        return opts["embedding"]
    if "embedding_path" in opts:
        return lstm.load_embeddings(
            opts["embedding_path"], opts.get("embedding_dim", 300),
            oov_seed=opts.get("embedding_seed", 0),
        )
    return lstm.random_embeddings(
        opts.get("embedding_dim", 300), opts.get("embedding_seed", 0)
    )


def _lstm_config(spec: ModelSpec) -> lstm.LstmTrainConfig:
    opts = spec.options
    return lstm.LstmTrainConfig(
        batch_size=opts.get("batch_size", 32),
        epochs=opts.get("epochs", 2),
        learning_rate=opts.get("learning_rate", 0.05),
        max_seq_len=opts.get("max_seq_len", 8),
        hidden=opts.get("hidden", 128),
        seed=spec.seed,
    )


def run_experiment(
    dataset: Dataset,
    mask: ComponentMask,
    model_spec: ModelSpec,
    vectorizer_cfg: VectorizerConfig | None,
    split_spec: SplitSpec,
) -> ExperimentResult:
    """split -> segment/select -> fit vectorizer on train -> train -> score test.

    The dev subset is produced and left untouched. Records whose selected
    components are empty under the mask are skipped and counted.
    """
    train, dev, test = stratified_split(dataset, split_spec)
    train_docs, train_labels, skip_train = _select_subset(train, mask)
    dev_docs, _, skip_dev = _select_subset(dev, mask)
    test_docs, test_labels, skip_test = _select_subset(test, mask)
    if not train_docs:
        raise EvaluationError(f"no usable training records under mask {mask.label!r}")
    if not test_docs:
        raise EvaluationError(f"no usable test records under mask {mask.label!r}")

    vocabulary = None
    classifier = None
    lstm_artifacts = None
    if model_spec.kind == "lstm":
        emb = _lstm_embeddings(model_spec)
        cfg = _lstm_config(model_spec)
        result = lstm.train_lstm(train_docs, train_labels, emb, cfg)
        lstm_artifacts = LstmArtifacts(result.params, cfg, emb, result.epoch_losses)
        preds = [
            lstm.predict_lstm(doc, emb, result.params, cfg.max_seq_len).label
            for doc in test_docs
        ]
        model_label = "lstm"
    else:
        if vectorizer_cfg is None:
            raise EvaluationError("classical models need a vectorizer config")
        vocabulary = featurize.fit_vocabulary(train_docs, vectorizer_cfg)
        matrix = featurize.transform(train_docs, vocabulary, vectorizer_cfg, train_labels)
        classifier = classical.train_classifier(
            model_spec.kind, matrix, seed=model_spec.seed, **model_spec.options
        )
        test_matrix = featurize.transform(test_docs, vocabulary, vectorizer_cfg)
        preds = classical.predict(classifier, test_matrix)[0].tolist()
        model_label = f"{model_spec.kind}+{vectorizer_cfg.mode}"

    cm = confusion(test_labels, preds)
    misclassified = [
        (" ".join(doc), truth, pred)
        for doc, truth, pred in zip(test_docs, test_labels, preds)
        if truth != pred
    ]
    return ExperimentResult(
        mask_label=mask.label,
        model_label=model_label,
        metrics=macro_metrics(cm),
        confusion=cm,
        misclassified=misclassified,
        skipped={"train": skip_train, "dev": skip_dev, "test": skip_test},
        subset_sizes={"train": len(train), "dev": len(dev), "test": len(test)},
        vectorizer_cfg=vectorizer_cfg,
        vocabulary=vocabulary,
        classifier=classifier,
        lstm_artifacts=lstm_artifacts,
        run_meta={
            "model_seed": model_spec.seed,
            "split_seed": split_spec.seed,
            "vectorizer_fit_on": "train",
        },
    )


@dataclass
class AblationReport:
    mask_labels: list[str]
    model_labels: list[str]
    cells: dict[tuple[str, str], MacroMetrics]
    skipped: dict[str, int]   # per mask, summed over subsets


def run_ablation(
    dataset: Dataset,
    model_specs: Sequence[ModelSpec],
    vectorizer_cfgs: Sequence[VectorizerConfig | None],
    split_spec: SplitSpec,
) -> AblationReport:
    """run_experiment over all seven masks x given models, on one shared split."""
    if len(model_specs) != len(vectorizer_cfgs):
        raise EvaluationError("model_specs and vectorizer_cfgs must align")
    cells: dict[tuple[str, str], MacroMetrics] = {}
    skipped: dict[str, int] = {}
    model_labels: list[str] = []
    for mask in ALL_MASKS:
        for spec, vcfg in zip(model_specs, vectorizer_cfgs):
            result = run_experiment(dataset, mask, spec, vcfg, split_spec)
            cells[(mask.label, result.model_label)] = result.metrics
            skipped[mask.label] = sum(result.skipped.values())
            if result.model_label not in model_labels:
                model_labels.append(result.model_label)
    return AblationReport(
        mask_labels=[m.label for m in ALL_MASKS],
        model_labels=model_labels,
        cells=cells,
        skipped=skipped,
    )


# ---------------------------------------------------------------------------
# Report formatting
# ---------------------------------------------------------------------------

def format_metrics(metrics: MacroMetrics, cm: ConfusionMatrix | None = None) -> str:
    """Per-class and macro scores as a tab-separated table (percent)."""
    lines = ["class\tprecision\trecall\tf1"]
    for label, name in ((1, "male"), (0, "female")):
        c = metrics.per_class[label]
        lines.append(f"{name}\t{100*c.precision:.2f}\t{100*c.recall:.2f}\t{100*c.f1:.2f}")
    lines.append(
        f"macro\t{100*metrics.macro_precision:.2f}"
        f"\t{100*metrics.macro_recall:.2f}\t{100*metrics.macro_f1:.2f}"
    )
    if cm is not None:
        lines.append(f"confusion\ttp={cm.tp}\tfp={cm.fp}\ttn={cm.tn} fn={cm.fn}")
    return "\n".join(lines) + "\n"


def format_ablation(report: AblationReport) -> str:
    """One row per mask; per model, male/female/macro F1 columns (percent)."""
    header = ["mask"]
    for label in report.model_labels:
        header += [f"{label}:male_f1", f"{label}:female_f1", f"{label}:macro_f1"]
    header.append("skipped")
    lines = ["\t".join(header)]
    for mask_label in report.mask_labels:
        row = [mask_label]
        for model_label in report.model_labels:
            m = report.cells[(mask_label, model_label)]
            row += [
                f"{100*m.per_class[1].f1:.2f}",
                f"{100*m.per_class[0].f1:.2f}",
                f"{100*m.macro_f1:.2f}",
            ]
        row.append(str(report.skipped[mask_label]))
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"


def ablation_to_dict(report: AblationReport) -> dict:
    """JSON-ready structure for the CLI's report file."""
    return {
        "mask_labels": report.mask_labels,
        "model_labels": report.model_labels,
        "skipped": report.skipped,
        "cells": {
            f"{mask}|{model}": {
                "male_f1": m.per_class[1].f1,
                "female_f1": m.per_class[0].f1,
                "macro_precision": m.macro_precision,
                "macro_recall": m.macro_recall,
                "macro_f1": m.macro_f1,
            }
            for (mask, model), m in report.cells.items()
        },
    }
