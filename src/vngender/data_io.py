"""Labeled name datasets: CSV ingestion, descriptive statistics, synthetic corpora.

A `Dataset` holds its rows as two columns, a list of names and an int64
array of labels; every reader (the split, the encoder, the statistics, the
CLI) takes the columns as they are.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from . import featurize, names_core
from .errors import DataError

MALE = 1
FEMALE = 0

# Share of male records in generated corpora.
SYNTHETIC_MALE_SHARE = 0.5771

FAMILY_POOL = (
    "nguyễn", "trần", "lê", "phạm", "hoàng", "phan",
    "vũ", "võ", "đặng", "bùi", "đỗ", "hồ",
)
FEMALE_MIDDLE_POOL = ("thị", "diệu", "mỹ", "kim", "thu", "thùy")
MALE_MIDDLE_POOL = ("văn", "đức", "hữu", "công", "quang", "đình")
GIVEN_POOL = (
    "anh", "bình", "châu", "dũng", "giang", "hà", "hiền", "khanh",
    "lan", "linh", "long", "mai", "minh", "nam", "ngọc", "phương",
    "quân", "sơn", "thanh", "trang", "trung", "tú", "vy", "yến",
)


@dataclass(frozen=True)
class DatasetRecord:
    full_name: str
    gender: int


@dataclass(eq=False)
class Dataset:
    """Labeled names as two columns: `names[i]` has label `labels[i]`, 0 or
    1; any other label raises `DataError`."""

    names: list[str]
    labels: np.ndarray  # int64, one per name
    source_tag: str = ""
    rejects: list[str] = field(default_factory=list)

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.shape != (len(self.names),):
            raise DataError(f"{len(self.names)} names but labels of shape {labels.shape}")
        if not np.isin(labels, (FEMALE, MALE)).all():
            raise DataError("labels must be 0 or 1")
        self.labels = labels.astype(np.int64, copy=False)

    def __len__(self) -> int:
        return len(self.names)

    @property
    def records(self) -> tuple[DatasetRecord, ...]:
        """The rows as records, built on each read."""
        return tuple(map(DatasetRecord, self.names, self.labels.tolist()))

    def label_counts(self) -> dict[int, int]:
        return {label: int(np.count_nonzero(self.labels == label)) for label in (FEMALE, MALE)}


@dataclass
class DatasetStats:
    total: int
    male_fraction: float
    female_fraction: float
    distinct_full_names: int
    top_family_names: dict[int, list[tuple[str, int]]]
    top_middle_tokens: dict[int, list[tuple[str, int]]]
    top_given_names: dict[int, list[tuple[str, int]]]


_LABELS = {"0": FEMALE, "1": MALE}


def load_dataset(path) -> Dataset:
    """Read a `full_name,gender` CSV; bad rows are rejected with diagnostics.

    The file is read and decoded as UTF-8 whole, and one leading byte-order
    mark is dropped. An optional header row is detected by its second field
    not parsing as 0/1.
    """
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
    except FileNotFoundError as exc:
        raise DataError(f"dataset file not found: {path}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc
    reader = csv.reader(io.StringIO(text.removeprefix("\ufeff"), newline=""))
    names: list[str] = []
    labels: list[int] = []
    rejects: list[str] = []
    lineno = 0
    try:
        for lineno, row in enumerate(reader, start=1):
            if not row:
                continue  # blank line
            if len(row) != 2:
                rejects.append(f"row {lineno}: expected 2 fields, got {len(row)}")
                continue
            label = _LABELS.get(row[1].strip())
            if label is None:
                if lineno > 1:
                    rejects.append(f"row {lineno}: label not in {{0,1}}: {row[1]!r}")
                continue  # a first row is the header
            name = row[0].strip()
            if not name:
                rejects.append(f"row {lineno}: empty full name")
                continue
            names.append(name)
            labels.append(label)
    except csv.Error as exc:
        raise DataError(f"{path}: row {lineno + 1}: {exc}") from exc

    if not names:
        raise DataError(f"{path}: dataset contains no valid rows")
    return Dataset(names, labels, source_tag=str(path), rejects=rejects)


def save_dataset(dataset: Dataset, path) -> None:
    """Write the dataset as a `full_name,gender` CSV with a header row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["full_name", "gender"])
        writer.writerows(zip(dataset.names, dataset.labels.tolist()))


def dataset_stats(dataset: Dataset, top_k: int = 10) -> DatasetStats:
    """Label fractions plus per-gender ranked component tokens.

    A token is counted once per record containing it; ranking is by count
    descending, then token ascending. Duplicate full names are kept, and the
    distinct-name count surfaces how many there are.
    """
    if not len(dataset):
        raise DataError("cannot compute statistics of an empty dataset")
    if top_k < 1:
        raise DataError("top_k must be >= 1")

    docs = featurize.encode(names_core.tokenize(dataset.names))
    v = len(docs.tokens)
    # Six tables, one per (component, gender); each distinct (record, table,
    # token) key counts once, so a token counts once per record.
    table = names_core.component_codes(np.bincount(docs.rows, minlength=len(dataset)))
    table = 2 * table + dataset.labels[docs.rows]
    keys = np.unique((docs.rows * 6 + table) * v + docs.ids)
    counts = np.bincount(keys % (6 * v), minlength=6 * v).reshape(6, v)

    def top(code: int) -> dict[int, list[tuple[str, int]]]:
        """Per gender, the top_k tokens of one component by count
        descending, then token ascending (ids follow token order)."""
        ranked = {}
        for gender in (FEMALE, MALE):
            count = counts[2 * code + gender]
            ids = np.flatnonzero(count)
            ids = ids[np.lexsort((ids, -count[ids]))][:top_k].tolist()
            ranked[gender] = [(docs.tokens[i], int(count[i])) for i in ids]
        return ranked

    by_label = dataset.label_counts()
    total = len(dataset)
    return DatasetStats(
        total=total,
        male_fraction=by_label[MALE] / total,
        female_fraction=by_label[FEMALE] / total,
        distinct_full_names=len(set(map(" ".join, names_core.tokenize(dataset.names)))),
        top_family_names=top(names_core.FAMILY),
        top_middle_tokens=top(names_core.MIDDLE),
        top_given_names=top(names_core.GIVEN),
    )


def format_stats(stats: DatasetStats) -> str:
    """Render statistics as UTF-8 tab-separated tables."""
    lines = [
        f"total\t{stats.total}",
        f"male_fraction\t{stats.male_fraction:.6f}",
        f"female_fraction\t{stats.female_fraction:.6f}",
        f"distinct_full_names\t{stats.distinct_full_names}",
    ]
    tables = (
        ("family", stats.top_family_names),
        ("middle", stats.top_middle_tokens),
        ("given", stats.top_given_names),
    )
    for comp, per_gender in tables:
        for gender, label in ((MALE, "male"), (FEMALE, "female")):
            lines.append("")
            lines.append(f"# top {comp} tokens ({label})")
            for token, count in per_gender[gender]:
                lines.append(f"{token}\t{count}")
    return "\n".join(lines) + "\n"


def generate_synthetic(n: int, fidelity: float, seed: int) -> Dataset:
    """Seeded synthetic corpus whose gender signal lives in the middle token.

    Each record follows the planted middle-token rule with probability
    `fidelity` and is flipped otherwise; family and given names are drawn
    independently of gender, so only the middle name carries signal.
    """
    if n < 2:
        raise DataError("synthetic dataset needs n >= 2")
    if not 0.0 <= fidelity <= 1.0:
        raise DataError("fidelity must lie in [0, 1]")

    rng = np.random.default_rng(seed)
    names: list[str] = []
    labels: list[int] = []
    for _ in range(n):
        male = rng.random() < SYNTHETIC_MALE_SHARE
        follows_rule = rng.random() < fidelity
        pool = MALE_MIDDLE_POOL if male == follows_rule else FEMALE_MIDDLE_POOL
        fam = FAMILY_POOL[rng.integers(len(FAMILY_POOL))]
        mid = pool[rng.integers(len(pool))]
        giv = GIVEN_POOL[rng.integers(len(GIVEN_POOL))]
        names.append(" ".join(w.capitalize() for w in (fam, mid, giv)))
        labels.append(MALE if male else FEMALE)
    tag = f"synthetic(n={n},fidelity={fidelity},seed={seed})"
    return Dataset(names, labels, source_tag=tag)
