import pytest
from hypothesis import given, settings, strategies as st

from vngender import data_io, names_core
from vngender.data_io import Dataset, DatasetRecord
from vngender.errors import DataError


def planted_gender(full_name: str) -> int | None:
    """Gender the planted rule assigns to a generated name, by middle token."""
    comps = names_core.segment(names_core.normalize(full_name))
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
        assert ds.records == [
            DatasetRecord("Võ Minh Đù", 1),
            DatasetRecord("Nguyễn Thị Hiền", 0),
        ]
        assert not ds.rejects

    def test_header_detected(self, tmp_path):
        path = write_csv(tmp_path, "full_name,gender\nVõ Minh Đù,1\n")
        ds = data_io.load_dataset(path)
        assert len(ds) == 1 and ds.records[0].gender == 1

    def test_names_are_trimmed(self, tmp_path):
        path = write_csv(tmp_path, "  Trần Văn Nam  ,1\n")
        assert data_io.load_dataset(path).records[0].full_name == "Trần Văn Nam"

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
        ds = Dataset([DatasetRecord(n, g) for n, g in rows], source_tag="mem")
        path = tmp_path_factory.mktemp("rt") / "ds.csv"
        data_io.save_dataset(ds, path)
        loaded = data_io.load_dataset(path)
        assert loaded.records == ds.records
        assert not loaded.rejects


class TestDatasetStats:
    def test_symmetric_fractions(self):
        ds = Dataset(
            [
                DatasetRecord("Trần Văn Nam", 1),
                DatasetRecord("Lê Đức Anh", 1),
                DatasetRecord("Lê Thị Mai", 0),
                DatasetRecord("Võ Kim Yến", 0),
            ]
        )
        stats = data_io.dataset_stats(ds, top_k=3)
        assert stats.male_fraction == 0.5
        assert stats.female_fraction == 0.5
        assert stats.total == 4
        assert stats.top_family_names[1] == [("lê", 1), ("trần", 1)]

    def test_counts_normalize_case(self):
        ds = Dataset(
            [DatasetRecord("NGUYỄN Văn Nam", 1), DatasetRecord("nguyễn Đức Anh", 1),
             DatasetRecord("Lê Thị Mai", 0)]
        )
        stats = data_io.dataset_stats(ds, top_k=1)
        assert stats.top_family_names[1] == [("nguyễn", 2)]

    def test_tie_break_is_lexicographic(self):
        ds = Dataset(
            [DatasetRecord("Võ Văn Bình", 1), DatasetRecord("Bùi Đức Anh", 1),
             DatasetRecord("Lê Thị Mai", 0)]
        )
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
        ds = Dataset([DatasetRecord("Lê Thị Mai", 0)] * 3 + [DatasetRecord("Võ Văn Ba", 1)])
        stats = data_io.dataset_stats(ds)
        assert stats.total == 4
        assert stats.distinct_full_names == 2

    def test_empty_dataset_errors(self):
        with pytest.raises(DataError):
            data_io.dataset_stats(Dataset([]))

    def test_bad_top_k_errors(self):
        ds = Dataset([DatasetRecord("Lê Thị Mai", 0)])
        with pytest.raises(DataError):
            data_io.dataset_stats(ds, top_k=0)

    def test_format_stats_is_tab_separated(self):
        ds = data_io.generate_synthetic(50, 1.0, 1)
        text = data_io.format_stats(data_io.dataset_stats(ds, top_k=3))
        assert text.startswith("total\t50")
        assert "# top middle tokens (female)" in text


class TestGenerateSynthetic:
    def test_is_pure_function_of_arguments(self):
        a = data_io.generate_synthetic(500, 0.95, 7)
        b = data_io.generate_synthetic(500, 0.95, 7)
        assert a.records == b.records

    def test_csv_bytes_identical(self, tmp_path):
        for name in ("a.csv", "b.csv"):
            data_io.save_dataset(data_io.generate_synthetic(1000, 0.95, 7), tmp_path / name)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_fidelity_one_is_deterministic_rule(self):
        ds = data_io.generate_synthetic(1000, 1.0, 7)
        assert all(planted_gender(r.full_name) == r.gender for r in ds.records)

    def test_rule_agreement_tracks_fidelity(self):
        ds = data_io.generate_synthetic(10000, 0.95, 7)
        agree = sum(
            1 for r in ds.records if planted_gender(r.full_name) == r.gender
        )
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
