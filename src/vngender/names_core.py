"""Normalization and family / middle / given segmentation of Vietnamese full names.

Vietnamese names put the family name first and the given name last; everything
in between is the middle name. `tokenize` normalizes and splits many names
at once, and `normalize` is its batch of one. Segmentation here is strictly
positional: `segment` splits one name, and `component_codes` gives the same
rule for many names at once, as one code per token.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import unicodedata
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import EmptyNameError, InvalidNameError, ToolkitError


@dataclass(frozen=True)
class NameComponents:
    """A normalized full name split into its positional components."""

    family: str | None
    middle: tuple[str, ...]
    given: str

    def tokens(self) -> list[str]:
        out = [self.family] if self.family else []
        out.extend(self.middle)
        out.append(self.given)
        return out


@dataclass(frozen=True)
class ComponentMask:
    """Which name components feed the feature pipeline."""

    use_family: bool = True
    use_middle: bool = True
    use_given: bool = True

    def __post_init__(self):
        if not (self.use_family or self.use_middle or self.use_given):
            raise ToolkitError("component mask must keep at least one component")

    @property
    def label(self) -> str:
        if self.use_family and self.use_middle and self.use_given:
            return "full"
        parts = []
        if self.use_family:
            parts.append("fan")
        if self.use_middle:
            parts.append("mn")
        if self.use_given:
            parts.append("fin")
        return "+".join(parts)


MASKS: dict[str, ComponentMask] = {
    "fan": ComponentMask(True, False, False),
    "mn": ComponentMask(False, True, False),
    "fin": ComponentMask(False, False, True),
    "fan+mn": ComponentMask(True, True, False),
    "fan+fin": ComponentMask(True, False, True),
    "mn+fin": ComponentMask(False, True, True),
    "full": ComponentMask(True, True, True),
}

# All seven non-empty component subsets, in ablation-report order.
ALL_MASKS: tuple[ComponentMask, ...] = tuple(MASKS.values())


def parse_mask(label: str) -> ComponentMask:
    try:
        return MASKS[label.strip().lower()]
    except KeyError:
        raise ToolkitError(
            f"unknown component mask {label!r}; expected one of {', '.join(MASKS)}"
        ) from None


# Names per step of `tokenize`; only one step's token strings exist at once.
TOKENIZE_CHUNK = 1024

_NFC = functools.partial(unicodedata.normalize, "NFC")


def tokenize(raw_names: Iterable[str]) -> Iterator[list[str]]:
    """The tokens of every raw name, in order: canonically composed (NFC),
    lowercased and split at whitespace, which also trims it.

    The names are read `TOKENIZE_CHUNK` at a time, each chunk through
    C-level `map`s with no Python frame per name, and the token lists are
    produced lazily, so a consumer that keeps only what it needs
    (`featurize.encode`) never holds every name's tokens at once. A name
    with a lone surrogate (an undecodable byte of a command-line argument,
    or a JSON escape) raises `InvalidNameError`, and a name left with no
    tokens `EmptyNameError`, when its chunk is reached; of several bad
    names, the first one's error is raised.
    """
    names = iter(raw_names)
    chunks = iter(lambda: list(itertools.islice(names, TOKENIZE_CHUNK)), [])
    return itertools.chain.from_iterable(map(_tokenize_chunk, chunks))


def _tokenize_chunk(raw_names: list[str]) -> list[list[str]]:
    tokens = list(map(str.split, map(str.lower, map(_NFC, raw_names))))
    invalid = len(tokens)
    try:
        "".join(raw_names).encode("utf-8")
    except UnicodeEncodeError as exc:
        # The name holding the first surrogate of the joined text.
        invalid = bisect.bisect_right(list(itertools.accumulate(map(len, raw_names))), exc.start)
    if [] in tokens[:invalid]:
        raise EmptyNameError("name is empty after trimming")
    if invalid < len(tokens):
        raise InvalidNameError("name is not valid Unicode text (lone surrogate)")
    return tokens


def normalize(raw: str) -> str:
    """One name's tokens (`tokenize` of a batch of one), joined by single spaces."""
    return " ".join(_tokenize_chunk([raw])[0])


def segment(normalized: str) -> NameComponents:
    """Split a normalized name: first token family, last given, rest middle.

    Single-token names have only a given name; two-token names have no middle.
    """
    tokens = normalized.split()
    if not tokens:
        raise EmptyNameError("cannot segment an empty name")
    if len(tokens) == 1:
        return NameComponents(None, (), tokens[0])
    return NameComponents(tokens[0], tuple(tokens[1:-1]), tokens[-1])


# Component code of a token; a mask keeps the codes of its components.
FAMILY, MIDDLE, GIVEN = 0, 1, 2


def component_codes(lengths: np.ndarray) -> np.ndarray:
    """The int8 component code of every token of names of `lengths` tokens
    each, flattened name by name: the positional rule of `segment`. A name's
    last token is GIVEN, the first of a name of two or more tokens FAMILY,
    and every other MIDDLE."""
    lengths = np.asarray(lengths, dtype=np.int64)
    ends = np.cumsum(lengths)
    codes = np.full(int(lengths.sum()), MIDDLE, dtype=np.int8)
    several = lengths >= 2
    codes[ends[several] - lengths[several]] = FAMILY
    codes[ends[lengths >= 1] - 1] = GIVEN
    return codes


def select_components(components: NameComponents, mask: ComponentMask) -> list[str]:
    """Tokens of the selected components, in original order.

    May be empty (e.g. a family-only mask on a single-token name); callers
    decide whether to skip or score such records.
    """
    out: list[str] = []
    if mask.use_family and components.family:
        out.append(components.family)
    if mask.use_middle:
        out.extend(components.middle)
    if mask.use_given:
        out.append(components.given)
    return out
