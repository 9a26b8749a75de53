"""Stratified splitting, macro-averaged metrics, experiments, and the 7-way
component ablation.

The split is the paper's: per label, 70% train, 10% dev and the rest test,
drawn from one seed. The fractions are fixed so that every command and every
bundle's recorded metrics come from the same protocol; only the seed varies.

An experiment reads the dataset's columns as they are: one
`featurize.encode` call (the one token encoder) turns the tokens of every
name, which `names_core.tokenize` normalizes and splits in file order, into
ids, and each token is tagged with its name component by position
(`_encode_split`). The train, dev and test subsets are then index gathers
over those arrays, in the order `_split_indices` draws, the same draw
`stratified_split` uses to split the columns themselves. A (mask, model)
cell then keeps the entries of the mask's components, fits a vocabulary on
train (under the `ModelSpec`'s vectorizer config, or the default one for a
kind that reads tokens), and fits and scores the model under the fit
contract of `classical`: train and test go through the same
`classical.model_input` step, and the model fits on (x, labels)
(`_run_cell`). `run_experiment` is one cell;
`run_ablation` runs the seven masks x the given models on one encoded split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import classical, featurize, names_core
from .data_io import Dataset
from .errors import EvaluationError
from .featurize import TokenIds, VectorizerConfig, Vocabulary
from .names_core import ALL_MASKS, ComponentMask


# The shares of each label that go to train and dev; test gets the rest.
TRAIN_FRAC = 0.7
DEV_FRAC = 0.1


@dataclass(frozen=True)
class SplitSpec:
    seed: int = 0


SUBSETS = ("train", "dev", "test")


def _cut(n: int, frac: float) -> int:
    # The epsilon guards floor() against cases like 100 * 0.7 == 69.999...
    return int(math.floor(n * frac + 1e-9))


def _split_indices(labels: np.ndarray, spec: SplitSpec) -> list[np.ndarray]:
    """The train, dev and test record indices of records with `labels`.

    Each label's indices are shuffled with a seed of their own and cut at
    floor(n*TRAIN_FRAC) and floor(n*(TRAIN_FRAC+DEV_FRAC)); the per-label
    pieces are merged across labels and each merged subset is reshuffled
    with its own derived seed.
    """
    if not np.isin(labels, (0, 1)).all():
        raise EvaluationError("labels must be 0 or 1")
    seeds = np.random.SeedSequence(spec.seed).spawn(5)
    by_label = [np.flatnonzero(labels == label) for label in (0, 1)]
    for label, idx in enumerate(by_label):
        if idx.size < 3:
            raise EvaluationError(
                f"label {label} has only {idx.size} records; "
                "need at least 3 to populate train/dev/test"
            )
    pieces = []
    for idx, seed in zip(by_label, seeds):
        np.random.default_rng(seed).shuffle(idx)
        n = idx.size
        pieces.append(np.split(idx, [_cut(n, TRAIN_FRAC), _cut(n, TRAIN_FRAC + DEV_FRAC)]))
    subsets = []
    for parts, seed in zip(zip(*pieces), seeds[2:]):
        idx = np.concatenate(parts)
        np.random.default_rng(seed).shuffle(idx)
        subsets.append(idx)
    return subsets


def stratified_split(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """The train, dev and test subsets of `_split_indices`, as datasets."""
    train, dev, test = (
        Dataset([dataset.names[i] for i in idx.tolist()], dataset.labels[idx],
                source_tag=f"{dataset.source_tag}:{name}")
        for name, idx in zip(SUBSETS, _split_indices(dataset.labels, spec))
    )
    return train, dev, test


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
    """2x2 counts with label 1 (male) as the positive class; the labels may
    be sequences or arrays."""
    t, p = np.asarray(y_true), np.asarray(y_pred)
    if len(t) != len(p):
        raise EvaluationError("y_true and y_pred must have the same length")
    if not len(t):
        raise EvaluationError("cannot build a confusion matrix from no pairs")
    if not (np.isin(t, (0, 1)).all() and np.isin(p, (0, 1)).all()):
        raise EvaluationError("labels must be 0 or 1")
    tn, fp, fn, tp = np.bincount(2 * t.astype(np.int64) + p.astype(np.int64),
                                 minlength=4).tolist()
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
    """What to train: a kind of `classical.MODEL_KINDS`, the vectorizer of a
    kind that reads a feature matrix (a kind that reads tokens has none),
    and its fit options."""

    kind: str
    vectorizer: VectorizerConfig | None = None
    seed: int = 0
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        reads_tokens = classical.kind_spec(self.kind).reads_tokens
        if reads_tokens and self.vectorizer is not None:
            raise EvaluationError(f"{self.kind} reads tokens and takes no vectorizer")
        if not reads_tokens and self.vectorizer is None:
            raise EvaluationError(f"{self.kind} needs a vectorizer config")

    @property
    def label(self) -> str:
        """The report label: the kind, plus the vectorizer mode if it has one."""
        return self.kind if self.vectorizer is None else f"{self.kind}+{self.vectorizer.mode}"


@dataclass
class ExperimentResult:
    mask_label: str
    model_label: str
    metrics: MacroMetrics
    confusion: ConfusionMatrix
    skipped: dict[str, int]
    subset_sizes: dict[str, int]
    vocabulary: Vocabulary
    model: object


@dataclass(frozen=True, eq=False)
class _EncodedSubset:
    """Every token of every record of one split subset, with its component."""

    names: TokenIds     # one document per record, all components
    parts: np.ndarray   # int8 `names_core` component code of each entry of `names`
    labels: np.ndarray  # int64, one per record

    def select(self, mask: ComponentMask) -> tuple[TokenIds, np.ndarray, int]:
        """(documents, labels, skipped count) of the records left non-empty
        by the mask, renumbered in record order."""
        keep = np.array([mask.use_family, mask.use_middle, mask.use_given])[self.parts]
        rows = self.names.rows[keep]
        present = np.bincount(rows, minlength=len(self.names)) > 0
        n_docs = int(present.sum())
        new_row = np.cumsum(present) - 1
        docs = TokenIds(new_row[rows], self.names.ids[keep], self.names.tokens, n_docs)
        return docs, self.labels[present], len(self.names) - n_docs


def _encode_split(dataset: Dataset, split_spec: SplitSpec) -> dict[str, _EncodedSubset]:
    """Encode every record once, then gather the train, dev and test subsets.

    `names_core.tokenize` normalizes and splits the names, and
    `featurize.encode` encodes their tokens as they come, a chunk at a time.
    The component of each token comes from its position
    (`names_core.component_codes`), and each subset gathers the entries of
    its records in `_split_indices` order.
    """
    names = featurize.encode(names_core.tokenize(dataset.names))
    lengths = np.bincount(names.rows, minlength=names.n_docs)
    ids, tokens = names.ids, names.tokens
    del names  # its rows are freed before the gathers, which set the peak memory
    labels = dataset.labels
    parts = names_core.component_codes(lengths)
    starts = np.cumsum(lengths) - lengths

    encoded = {}
    for name, idx in zip(SUBSETS, _split_indices(labels, split_spec)):
        sizes = lengths[idx]
        rows = np.repeat(np.arange(idx.size, dtype=np.int64), sizes)
        entry = featurize.entry_positions(starts[idx], sizes)
        encoded[name] = _EncodedSubset(TokenIds(rows, ids[entry], tokens, idx.size),
                                       parts[entry], labels[idx])
    return encoded


def _run_cell(split: dict[str, _EncodedSubset], mask: ComponentMask,
              spec: ModelSpec) -> ExperimentResult:
    """One (mask, model) cell on an encoded split: select the mask's tokens,
    fit the vocabulary and the model on train, score test."""
    train, train_labels, skip_train = split["train"].select(mask)
    _, _, skip_dev = split["dev"].select(mask)
    test, test_labels, skip_test = split["test"].select(mask)
    if not train.n_docs:
        raise EvaluationError(f"no usable training records under mask {mask.label!r}")
    if not test.n_docs:
        raise EvaluationError(f"no usable test records under mask {mask.label!r}")

    vocabulary = featurize.fit_vocabulary(train, spec.vectorizer or VectorizerConfig())
    model = classical.train_classifier(
        spec.kind, classical.model_input(spec.kind, train, vocabulary, spec.vectorizer),
        train_labels, seed=spec.seed, **spec.options,
    )
    x_test = classical.model_input(spec.kind, test, vocabulary, spec.vectorizer)
    preds = classical.predict(model, x_test)[0]

    cm = confusion(test_labels, preds)
    return ExperimentResult(
        mask_label=mask.label,
        model_label=spec.label,
        metrics=macro_metrics(cm),
        confusion=cm,
        skipped={"train": skip_train, "dev": skip_dev, "test": skip_test},
        subset_sizes={name: len(subset.names) for name, subset in split.items()},
        vocabulary=vocabulary,
        model=model,
    )


def run_experiment(
    dataset: Dataset,
    mask: ComponentMask,
    spec: ModelSpec,
    split_spec: SplitSpec,
) -> ExperimentResult:
    """encode and split -> select the mask's tokens -> fit vocabulary on
    train -> train -> score test.

    The dev subset is produced and left untouched. Records whose selected
    components are empty under the mask are skipped and counted.
    """
    return _run_cell(_encode_split(dataset, split_spec), mask, spec)


@dataclass
class AblationReport:
    mask_labels: list[str]
    model_labels: list[str]
    cells: dict[tuple[str, str], MacroMetrics]
    skipped: dict[str, int]   # per mask, summed over subsets


def run_ablation(
    dataset: Dataset,
    specs: Sequence[ModelSpec],
    split_spec: SplitSpec,
) -> AblationReport:
    """All seven masks x the given models on one split that is segmented and
    encoded once; each cell is the `run_experiment` of its mask and model."""
    split = _encode_split(dataset, split_spec)
    cells: dict[tuple[str, str], MacroMetrics] = {}
    skipped: dict[str, int] = {}
    model_labels: list[str] = []
    for mask in ALL_MASKS:
        for spec in specs:
            result = _run_cell(split, mask, spec)
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
        lines.append(f"confusion\ttp={cm.tp}\tfp={cm.fp}\ttn={cm.tn}\tfn={cm.fn}")
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
