import sys
import unicodedata

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import python_frames
from vngender import names_core as nc
from vngender.errors import EmptyNameError, InvalidNameError, ToolkitError

TOKENS = st.sampled_from(
    ["nguyễn", "trần", "thị", "văn", "hiền", "đức", "minh", "tú", "a", "xyz"]
)
NAMES = st.lists(TOKENS, min_size=1, max_size=5).map(" ".join)


class TestNormalize:
    def test_trims_collapses_and_lowercases(self):
        assert nc.normalize("  Nguyễn   Thị Hiền ") == "nguyễn thị hiền"

    def test_decomposed_equals_precomposed(self):
        decomposed = unicodedata.normalize("NFD", "Nguyễn")
        assert decomposed != "Nguyễn"
        assert nc.normalize(decomposed) == nc.normalize("nguyễn")

    def test_whitespace_only_raises(self):
        with pytest.raises(EmptyNameError):
            nc.normalize("   ")

    @pytest.mark.parametrize("raw", ["Nguy\udcffn Lan", "\ud800", "Lan \udfff"])
    def test_lone_surrogate_raises(self, raw):
        with pytest.raises(InvalidNameError):
            nc.normalize(raw)

    @given(st.text(max_size=40))
    def test_idempotent(self, raw):
        try:
            once = nc.normalize(raw)
        except EmptyNameError:
            return
        assert nc.normalize(once) == once


# Every character `str.split` splits at, and the pieces of names that
# normalization changes: decomposed marks, a combining mark on its own, a
# sigma that lowercases to a final form at the end of a word, and two lone
# surrogates.
WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
PIECES = ["Nguyễn", "thị", "ĐỨC", unicodedata.normalize("NFD", "Hiền"), "\u0301", "ΟΔΥΣΣΕΥΣ",
          "Σ", "aΣ", "ß", "İ", "x", "\udcff", "\ud800"]


@st.composite
def raw_batch_names(draw):
    """Pieces joined by runs of mixed Unicode whitespace; blank names too."""
    pieces = draw(st.lists(st.sampled_from(PIECES), max_size=4))
    gaps = st.text(st.sampled_from(WHITESPACE), max_size=3)
    name = draw(gaps) + "".join(piece + draw(gaps) for piece in pieces)
    return unicodedata.normalize(draw(st.sampled_from(["NFC", "NFD"])), name)


def oracle_tokens(raw):
    """`oracles.normalize(raw).split()`, or the type of the error it raises."""
    try:
        return oracles.normalize(raw).split()
    except (EmptyNameError, InvalidNameError) as exc:
        return type(exc)


class TestTokenize:
    @settings(max_examples=300)
    @given(raw_batch_names())
    def test_one_name_matches_the_oracle(self, raw):
        expected = oracle_tokens(raw)
        if isinstance(expected, list):
            assert list(nc.tokenize([raw])) == [expected]
            assert nc.normalize(raw) == " ".join(expected)
        else:
            for fn in (lambda raws: list(nc.tokenize(raws)), lambda raws: nc.normalize(raws[0])):
                with pytest.raises(expected):
                    fn([raw])

    @settings(max_examples=150)
    @given(raws=st.lists(raw_batch_names(), max_size=8), chunk=st.integers(1, 4))
    def test_a_batch_matches_the_oracle_name_by_name(self, raws, chunk):
        expected = [oracle_tokens(raw) for raw in raws]
        errors = [e for e in expected if not isinstance(e, list)]
        # Chunks of 1 to 4 names put bad names in every position of a chunk.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(nc, "TOKENIZE_CHUNK", chunk)
            if not errors:
                assert list(nc.tokenize(raws)) == expected
                assert list(nc.tokenize(iter(raws))) == expected
                return
            with pytest.raises(errors[0]) as raised:
                list(nc.tokenize(raws))
        assert type(raised.value) is errors[0]

    @pytest.mark.parametrize("raws, error", [
        (["Lan", " ", "\udcff"], EmptyNameError),
        (["Lan", "\udcff", " "], InvalidNameError),
        (["\ud800\udc00", "Lan"], InvalidNameError),  # a surrogate pair is not text either
        (["Lan", "\u3000\u2028"], EmptyNameError),
    ])
    def test_the_first_bad_name_decides_the_error(self, raws, error):
        with pytest.raises(error) as raised:
            list(nc.tokenize(raws))
        assert type(raised.value) is error

    def test_an_empty_batch_has_no_tokens(self):
        assert list(nc.tokenize([])) == []

    def test_no_python_frame_per_name(self):
        names = ["  Nguyễn Thị\tHiền ", unicodedata.normalize("NFD", "Trần Văn Nam")]
        tokenize = lambda names: list(nc.tokenize(names))
        few, few_frames = python_frames(tokenize, names)
        many, many_frames = python_frames(tokenize, names * 500)
        assert many == few * 500
        assert many_frames == few_frames

    def test_chunks_are_tokenized_as_they_are_read(self, monkeypatch):
        monkeypatch.setattr(nc, "TOKENIZE_CHUNK", 2)
        read = []
        tokens = nc.tokenize(read.append(name) or name for name in ["a", "b c", " ", "d"])
        assert next(tokens) == ["a"] and read == ["a", "b c"]
        assert next(tokens) == ["b", "c"]
        with pytest.raises(EmptyNameError):
            next(tokens)


class TestTokenizeBatch:
    @settings(max_examples=150)
    @given(st.lists(raw_batch_names(), max_size=8))
    def test_each_name_matches_the_oracle(self, raws):
        tokens, errors = nc.tokenize_batch(raws)
        assert len(tokens) == len(raws)
        for i, raw in enumerate(raws):
            expected = oracle_tokens(raw)
            if isinstance(expected, list):
                assert i not in errors and tokens[i] == expected
            else:
                assert type(errors[i]) is expected
        assert set(errors) <= set(range(len(raws)))

    def test_every_bad_name_gets_its_own_error(self):
        tokens, errors = nc.tokenize_batch(["\udcff", "Lan", " ", "a \ud800", "", "Lê Minh"])
        assert {i: (type(e), str(e)) for i, e in errors.items()} == {
            0: (InvalidNameError, "name is not valid Unicode text (lone surrogate)"),
            2: (EmptyNameError, "name is empty after trimming"),
            3: (InvalidNameError, "name is not valid Unicode text (lone surrogate)"),
            4: (EmptyNameError, "name is empty after trimming"),
        }
        assert (tokens[1], tokens[5]) == (["lan"], ["lê", "minh"])
        assert errors[0] is not errors[3]


class TestSegment:
    def test_three_tokens(self):
        assert nc.segment(["nguyễn", "thị", "hiền"]) == (["nguyễn"], ["thị"], ["hiền"])

    def test_single_token_is_given(self):
        assert nc.segment(["hiền"]) == ([], [], ["hiền"])

    def test_two_tokens_have_no_middle(self):
        assert nc.segment(["trần", "nam"]) == (["trần"], [], ["nam"])

    def test_interior_tokens_are_middle(self):
        assert nc.segment(["nguyễn", "văn", "minh", "đức"]) == (
            ["nguyễn"], ["văn", "minh"], ["đức"])

    def test_no_tokens_have_no_components(self):
        assert nc.segment([]) == ([], [], [])

    @given(NAMES)
    def test_components_reassemble_the_tokens(self, name):
        tokens = nc.normalize(name).split()
        family, middle, given = nc.segment(tokens)
        assert family + middle + given == tokens

    @given(NAMES)
    def test_matches_the_oracle(self, name):
        comps = oracles.segment(oracles.normalize(name))
        family, middle, given = nc.segment(nc.normalize(name).split())
        assert family == ([comps.family] if comps.family else [])
        assert (middle, given) == (list(comps.middle), [comps.given])


class TestMasks:
    def test_seven_masks(self):
        assert len(nc.ALL_MASKS) == 7
        assert len({m.label for m in nc.ALL_MASKS}) == 7

    def test_all_flags_must_not_be_off(self):
        with pytest.raises(ToolkitError, match="at least one component"):
            nc.ComponentMask(False, False, False)

    def test_parse_round_trips_labels(self):
        for label, mask in nc.MASKS.items():
            assert nc.parse_mask(label) == mask
            assert mask.label == label

    def test_parse_unknown_mask(self):
        with pytest.raises(ToolkitError, match="unknown component mask 'given-only'"):
            nc.parse_mask("given-only")


class TestComponentCodes:
    @given(st.lists(st.integers(0, 10), max_size=12))
    def test_codes_follow_segment(self, lengths):
        expected = []
        for n in lengths:
            family, middle, given = nc.segment([f"t{i}" for i in range(n)])
            expected += [nc.FAMILY] * len(family) + [nc.MIDDLE] * len(middle)
            expected += [nc.GIVEN] * len(given)
        codes = nc.component_codes(np.array(lengths, dtype=np.int32))
        assert codes.dtype == np.int8
        assert codes.tolist() == expected
