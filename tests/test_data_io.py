import csv
import dataclasses
import io
import unicodedata

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from vngender import data_io
from vngender.data_io import Dataset, DatasetRecord
from vngender.errors import DataError


def planted_gender(full_name: str) -> int | None:
    """Gender the planted rule assigns to a generated name, by middle token."""
    comps = oracles.segment(oracles.normalize(full_name))
    if not comps.middle:
        return None
    tok = comps.middle[0]
    if tok in data_io.MALE_MIDDLE_POOL:
        return data_io.MALE
    if tok in data_io.FEMALE_MIDDLE_POOL:
        return data_io.FEMALE
    return None


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadDataset:
    def test_basic_rows(self, tmp_path):
        path = write_csv(tmp_path, "Võ Minh Đù,1\nNguyễn Thị Hiền,0\n")
        ds = data_io.load_dataset(path)
        assert ds.names == ["Võ Minh Đù", "Nguyễn Thị Hiền"]
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [1, 0]
        assert not ds.rejects

    def test_header_detected(self, tmp_path):
        path = write_csv(tmp_path, "full_name,gender\nVõ Minh Đù,1\n")
        ds = data_io.load_dataset(path)
        assert len(ds) == 1 and ds.labels.tolist() == [1]

    def test_names_are_trimmed(self, tmp_path):
        path = write_csv(tmp_path, "  Trần Văn Nam  ,1\n")
        assert data_io.load_dataset(path).names == ["Trần Văn Nam"]

    def test_rejects_carry_row_numbers(self, tmp_path):
        path = write_csv(
            tmp_path,
            "full_name,gender\nTrần Văn Nam,1\nbad row\nLê Thị Mai,2\n,0\nVõ Văn Ba,0\n",
        )
        ds = data_io.load_dataset(path)
        assert len(ds) == 2
        assert len(ds.rejects) == 3
        assert "row 3" in ds.rejects[0]
        assert "row 4" in ds.rejects[1] and "'2'" in ds.rejects[1]
        assert "row 5" in ds.rejects[2] and "empty" in ds.rejects[2]

    def test_empty_file_errors(self, tmp_path):
        with pytest.raises(DataError, match="no valid rows"):
            data_io.load_dataset(write_csv(tmp_path, ""))

    def test_header_only_file_errors(self, tmp_path):
        with pytest.raises(DataError, match="no valid rows"):
            data_io.load_dataset(write_csv(tmp_path, "full_name,gender\n"))

    def test_missing_file_errors(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            data_io.load_dataset(tmp_path / "nope.csv")

    def test_undecodable_byte_past_the_first_chunk_is_named_by_its_file_offset(self, tmp_path):
        head = "".join(f"Nguyễn Văn Nam {i},1\n" for i in range(1000)).encode("utf-8")
        path = tmp_path / "data.csv"
        path.write_bytes(head + b"L\xffn,0\n")
        with pytest.raises(DataError, match=rf"not UTF-8 text \(byte {len(head) + 1}: "):
            data_io.load_dataset(path)

    @pytest.mark.parametrize("header", ["", "full_name,gender\r\n"])
    def test_one_leading_byte_order_mark_is_dropped(self, tmp_path, header):
        path = tmp_path / "data.csv"
        path.write_bytes(b"\xef\xbb\xbf" + f"{header}Lê Văn Nam,1\r\nLan,0\r\n".encode("utf-8"))
        ds = data_io.load_dataset(path)
        assert ds.names == ["Lê Văn Nam", "Lan"] and not ds.rejects
        text = data_io.format_stats(data_io.dataset_stats(ds))
        assert "\ufeff" not in text and "\nlê\t1\n" in text

    def test_only_one_byte_order_mark_is_dropped(self, tmp_path):
        path = write_csv(tmp_path, "\ufeff\ufeffLan,1\n")
        assert data_io.load_dataset(path).names == ["\ufeffLan"]

    def test_field_over_the_csv_limit_names_file_and_row(self, tmp_path):
        path = write_csv(tmp_path, "full_name,gender\nLan,0\n" + "a" * 140_000 + ",1\n")
        with pytest.raises(DataError, match=rf"^{path}: row 3: field larger than field limit"):
            data_io.load_dataset(path)


# Pieces of CSV text: letters, spaces, separators, quotes and line-end
# characters, so that generated fields need quoting and raw lines can be
# malformed, and characters that `str.splitlines` would end a line at but
# a file object does not.
CSV_PIECES = st.sampled_from(["Lê", "Văn", "Nam", " ", ",", '"', "\n", "\r", "\t", "0", "1", "x",
                              "\x0b", "\x1c", "\x85", "\u2028"])
LABEL_TEXT = st.sampled_from(["0", "1", "0", "1", " 1 ", "0\t", "2", "x", "", "01"])
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def csv_files(draw):
    """CSV text with or without a header, rows written by `csv.writer` with
    a drawn line end (quoting commas, quotes and line ends in fields), blank
    lines, rows of other field counts, and raw unquoted lines."""
    out = io.StringIO(newline="")
    if draw(st.booleans()):
        out.write("full_name,gender" + draw(LINE_ENDS))
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row", "row", "row", "blank", "fields", "raw"]))
        end = draw(LINE_ENDS)
        if kind == "blank":
            out.write(end)
        elif kind == "raw":
            out.write("".join(draw(st.lists(CSV_PIECES, max_size=6))) + end)
        else:
            name = "".join(draw(st.lists(CSV_PIECES, min_size=1, max_size=5)))
            fields = [name, draw(LABEL_TEXT)]
            if kind == "fields":
                fields = draw(st.lists(st.just(name), max_size=3))
            csv.writer(out, lineterminator=end).writerow(fields)
    text = out.getvalue()
    return text[:-1] if text and draw(st.booleans()) else text


def oracle_load(path):
    """`oracles.load_dataset`, or the message of its `DataError`."""
    try:
        return oracles.load_dataset(path)
    except DataError as exc:
        return str(exc)


class TestLoadDatasetOracle:
    @settings(max_examples=300, deadline=None)
    @given(text=csv_files())
    def test_columns_and_rejects_match_the_streaming_loader(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = oracle_load(path)
        try:
            ds = data_io.load_dataset(path)
        except DataError as exc:
            assert str(exc) == expected
            return
        assert (ds.names, ds.labels.tolist(), ds.rejects) == expected
        assert ds.labels.dtype == np.int64


class TestDataset:
    def test_records_are_built_from_the_columns_and_read_only(self):
        ds = Dataset(["Lê Văn Nam", "Lan"], [1, 0])
        assert ds.records == (DatasetRecord("Lê Văn Nam", 1), DatasetRecord("Lan", 0))
        assert isinstance(ds.records, tuple)
        assert type(ds.records[0].gender) is int

    def test_labels_are_int64_and_one_per_name(self):
        assert Dataset(["Lan"], [True]).labels.dtype == np.int64
        with pytest.raises(DataError, match="2 names but labels of shape"):
            Dataset(["Lan", "Mai"], [0])

    def test_label_counts(self):
        assert Dataset(["a", "b", "c"], [1, 0, 1]).label_counts() == {0: 1, 1: 2}


NAME_CHARS = st.characters(
    whitelist_categories=("Lu", "Ll", "Nd", "Po", "Zs"),
    whitelist_characters=",\"'",
    blacklist_characters="\r\n",
)
RAW_NAMES = st.text(NAME_CHARS, min_size=1, max_size=24).map(str.strip).filter(bool)


class TestRoundTrip:
    @settings(max_examples=60)
    @given(rows=st.lists(st.tuples(RAW_NAMES, st.integers(0, 1)), min_size=1, max_size=12))
    def test_save_then_load_is_identity(self, tmp_path_factory, rows):
        names, labels = map(list, zip(*rows))
        ds = Dataset(names, labels, source_tag="mem")
        path = tmp_path_factory.mktemp("rt") / "ds.csv"
        data_io.save_dataset(ds, path)
        loaded = data_io.load_dataset(path)
        assert (loaded.names, loaded.labels.tolist()) == (names, labels)
        assert not loaded.rejects


class TestDatasetStats:
    def test_symmetric_fractions(self):
        ds = Dataset(["Trần Văn Nam", "Lê Đức Anh", "Lê Thị Mai", "Võ Kim Yến"], [1, 1, 0, 0])
        stats = data_io.dataset_stats(ds, top_k=3)
        assert stats.male_fraction == 0.5
        assert stats.female_fraction == 0.5
        assert stats.total == 4
        assert stats.top_family_names[1] == [("lê", 1), ("trần", 1)]

    def test_counts_normalize_case(self):
        ds = Dataset(["NGUYỄN Văn Nam", "nguyễn Đức Anh", "Lê Thị Mai"], [1, 1, 0])
        stats = data_io.dataset_stats(ds, top_k=1)
        assert stats.top_family_names[1] == [("nguyễn", 2)]

    def test_tie_break_is_lexicographic(self):
        ds = Dataset(["Võ Văn Bình", "Bùi Đức Anh", "Lê Thị Mai"], [1, 1, 0])
        stats = data_io.dataset_stats(ds, top_k=2)
        assert stats.top_family_names[1] == [("bùi", 1), ("võ", 1)]

    def test_every_count_bounded_by_total(self):
        ds = data_io.generate_synthetic(300, 0.9, 5)
        stats = data_io.dataset_stats(ds, top_k=50)
        counts = ds.label_counts()
        for table in (stats.top_family_names, stats.top_middle_tokens, stats.top_given_names):
            for gender in (0, 1):
                assert all(c <= stats.total for _, c in table[gender])
                assert sum(c for _, c in table[gender]) <= counts[gender]

    def test_duplicates_kept_and_surfaced(self):
        ds = Dataset(["Lê Thị Mai"] * 3 + ["Võ Văn Ba"], [0, 0, 0, 1])
        stats = data_io.dataset_stats(ds)
        assert stats.total == 4
        assert stats.distinct_full_names == 2

    def test_empty_dataset_errors(self):
        with pytest.raises(DataError):
            data_io.dataset_stats(Dataset([], []))

    def test_labels_other_than_zero_or_one_error(self):
        with pytest.raises(DataError, match="labels must be 0 or 1"):
            data_io.dataset_stats(Dataset(["Lê Thị Mai", "Lan"], [0, 2]))

    def test_bad_top_k_errors(self):
        ds = Dataset(["Lê Thị Mai"], [0])
        with pytest.raises(DataError):
            data_io.dataset_stats(ds, top_k=0)

    def test_format_stats_is_tab_separated(self):
        ds = data_io.generate_synthetic(50, 1.0, 1)
        text = data_io.format_stats(data_io.dataset_stats(ds, top_k=3))
        assert text.startswith("total\t50")
        assert "# top middle tokens (female)" in text


STATS_TOKENS = st.sampled_from(["Nguyễn", "nguyễn", "NGUYỄN", "Thị", "thị", "văn", "Hiền", "lan",
                                 unicodedata.normalize("NFD", "Hiền"), "a"])


@st.composite
def stats_datasets(draw):
    """Names of 1-5 tokens, repeats and case variants included, separated
    by runs of spaces and tabs, with random labels."""
    names = []
    for _ in range(draw(st.integers(1, 12))):
        tokens = draw(st.lists(STATS_TOKENS, min_size=1, max_size=5))
        names.append(" ".join(tokens) if draw(st.booleans()) else " \t ".join(tokens) + " ")
    return Dataset(names, draw(st.lists(st.integers(0, 1), min_size=len(names),
                                        max_size=len(names))))


class TestDatasetStatsOracle:
    @settings(max_examples=150, deadline=None)
    @given(ds=stats_datasets(), top_k=st.integers(1, 4))
    def test_stats_match_the_per_record_oracle(self, ds, top_k):
        got = dataclasses.asdict(data_io.dataset_stats(ds, top_k))
        assert got == oracles.dataset_stats(ds, top_k)


class TestGenerateSynthetic:
    def test_is_pure_function_of_arguments(self):
        a = data_io.generate_synthetic(500, 0.95, 7)
        b = data_io.generate_synthetic(500, 0.95, 7)
        assert a.names == b.names and a.labels.tolist() == b.labels.tolist()

    def test_csv_bytes_identical(self, tmp_path):
        for name in ("a.csv", "b.csv"):
            data_io.save_dataset(data_io.generate_synthetic(1000, 0.95, 7), tmp_path / name)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_fidelity_one_is_deterministic_rule(self):
        ds = data_io.generate_synthetic(1000, 1.0, 7)
        assert list(map(planted_gender, ds.names)) == ds.labels.tolist()

    def test_rule_agreement_tracks_fidelity(self):
        ds = data_io.generate_synthetic(10000, 0.95, 7)
        agree = sum(g == y for g, y in zip(map(planted_gender, ds.names), ds.labels.tolist()))
        assert abs(agree / len(ds) - 0.95) <= 0.01

    def test_label_balance_mirrors_corpus_share(self):
        ds = data_io.generate_synthetic(10000, 0.95, 7)
        assert abs(ds.label_counts()[1] / len(ds) - 0.5771) < 0.02

    def test_family_and_given_pools_disjoint_from_middles(self):
        middles = set(data_io.MALE_MIDDLE_POOL) | set(data_io.FEMALE_MIDDLE_POOL)
        assert not middles & set(data_io.FAMILY_POOL)
        assert not middles & set(data_io.GIVEN_POOL)
        assert not set(data_io.MALE_MIDDLE_POOL) & set(data_io.FEMALE_MIDDLE_POOL)

    def test_validation(self):
        with pytest.raises(DataError):
            data_io.generate_synthetic(1, 0.5, 0)
        with pytest.raises(DataError):
            data_io.generate_synthetic(10, 1.5, 0)
        with pytest.raises(DataError):
            data_io.generate_synthetic(10, -0.1, 0)
