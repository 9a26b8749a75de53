"""Labeled name datasets: CSV ingestion, descriptive statistics, synthetic corpora."""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import names_core
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


@dataclass
class Dataset:
    records: list[DatasetRecord]
    source_tag: str = ""
    rejects: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def label_counts(self) -> dict[int, int]:
        counts = {FEMALE: 0, MALE: 0}
        for rec in self.records:
            counts[rec.gender] += 1
        return counts


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


def _parse_label(text: str) -> int | None:
    return _LABELS.get(text.strip())


def load_dataset(path) -> Dataset:
    """Read a `full_name,gender` CSV; bad rows are rejected with diagnostics.

    An optional header row is detected by its second field not parsing as 0/1.
    Rows are read one at a time, so the file's rows are never all held at once.
    """
    records: list[DatasetRecord] = []
    rejects: list[str] = []
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if not row:
                    continue  # blank line
                if len(row) != 2:
                    rejects.append(f"row {lineno}: expected 2 fields, got {len(row)}")
                    continue
                label = _parse_label(row[1])
                if label is None:
                    if lineno > 1:
                        rejects.append(f"row {lineno}: label not in {{0,1}}: {row[1]!r}")
                    continue  # a first row is the header
                name = row[0].strip()
                if not name:
                    rejects.append(f"row {lineno}: empty full name")
                    continue
                records.append(DatasetRecord(name, label))
    except FileNotFoundError as exc:
        raise DataError(f"dataset file not found: {path}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc

    if not records:
        raise DataError(f"{path}: dataset contains no valid rows")
    return Dataset(records, source_tag=str(path), rejects=rejects)


def save_dataset(dataset: Dataset, path) -> None:
    """Write the dataset as a `full_name,gender` CSV with a header row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["full_name", "gender"])
        for rec in dataset.records:
            writer.writerow([rec.full_name, rec.gender])


def dataset_stats(dataset: Dataset, top_k: int = 10) -> DatasetStats:
    """Label fractions plus per-gender ranked component tokens.

    A token is counted once per record containing it; ranking is by count
    descending, then token ascending. Duplicate full names are kept, and the
    distinct-name count surfaces how many there are.
    """
    if not dataset.records:
        raise DataError("cannot compute statistics of an empty dataset")
    if top_k < 1:
        raise DataError("top_k must be >= 1")

    family = {FEMALE: Counter(), MALE: Counter()}
    middle = {FEMALE: Counter(), MALE: Counter()}
    given = {FEMALE: Counter(), MALE: Counter()}
    seen: set[str] = set()
    for rec in dataset.records:
        comps = names_core.segment(names_core.normalize(rec.full_name))
        seen.add(" ".join(comps.tokens()))
        if comps.family:
            family[rec.gender][comps.family] += 1
        for tok in set(comps.middle):
            middle[rec.gender][tok] += 1
        given[rec.gender][comps.given] += 1

    def top(counter: Counter) -> list[tuple[str, int]]:
        return sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]

    counts = dataset.label_counts()
    total = len(dataset.records)
    return DatasetStats(
        total=total,
        male_fraction=counts[MALE] / total,
        female_fraction=counts[FEMALE] / total,
        distinct_full_names=len(seen),
        top_family_names={g: top(family[g]) for g in (FEMALE, MALE)},
        top_middle_tokens={g: top(middle[g]) for g in (FEMALE, MALE)},
        top_given_names={g: top(given[g]) for g in (FEMALE, MALE)},
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
    records: list[DatasetRecord] = []
    for _ in range(n):
        male = rng.random() < SYNTHETIC_MALE_SHARE
        follows_rule = rng.random() < fidelity
        pool = MALE_MIDDLE_POOL if male == follows_rule else FEMALE_MIDDLE_POOL
        fam = FAMILY_POOL[rng.integers(len(FAMILY_POOL))]
        mid = pool[rng.integers(len(pool))]
        giv = GIVEN_POOL[rng.integers(len(GIVEN_POOL))]
        full = " ".join(w.capitalize() for w in (fam, mid, giv))
        records.append(DatasetRecord(full, MALE if male else FEMALE))
    tag = f"synthetic(n={n},fidelity={fidelity},seed={seed})"
    return Dataset(records, source_tag=tag)
