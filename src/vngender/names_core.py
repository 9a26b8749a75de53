"""Normalization and family / middle / given segmentation of Vietnamese full names.

Vietnamese names put the family name first and the given name last; everything
in between is the middle name. `tokenize_batch` is the one way a raw name
becomes tokens: it normalizes and splits a batch of names at once and gives
each bad name's error by index. `tokenize` reads a corpus through it chunk
by chunk, and `normalize` is its batch of one. Segmentation here is strictly
positional: `segment` splits one name's tokens, and `component_codes` gives
the same rule for many names at once, as one code per token.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
import unicodedata
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import EmptyNameError, InvalidNameError, ToolkitError


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
_LONE_SURROGATE = re.compile("[\ud800-\udfff]")


def tokenize_batch(raw_names: Sequence[str]) -> tuple[list[list[str]], dict[int, ToolkitError]]:
    """The tokens of every raw name, canonically composed (NFC), lowercased
    and split at whitespace, which also trims it; and, by index, the error of
    every name that has no usable tokens.

    A name with a lone surrogate (an undecodable byte of a command-line
    argument, or a JSON escape) gets `InvalidNameError`, and a name left
    with no tokens `EmptyNameError`; no name gets both. Every name goes
    through C-level `map`s with no Python frame of its own, and only a bad
    name costs a step of a Python loop, so a batch takes time linear in its
    size however many of its names are bad.
    """
    tokens = list(map(str.split, map(str.lower, map(_NFC, raw_names))))
    errors: dict[int, ToolkitError] = {}
    # Each check first asks the whole batch in one call, the cheapest way
    # when every name is good, and only then looks for the bad names.
    if not all(tokens):
        for i in itertools.compress(itertools.count(), map(operator.not_, tokens)):
            errors[i] = EmptyNameError("name is empty after trimming")
    try:
        "".join(raw_names).encode("utf-8")
    except UnicodeEncodeError:
        for i in itertools.compress(itertools.count(), map(_LONE_SURROGATE.search, raw_names)):
            errors[i] = InvalidNameError("name is not valid Unicode text (lone surrogate)")
    return tokens, errors


def tokenize(raw_names: Iterable[str]) -> Iterator[list[str]]:
    """The tokens of every raw name, in order, as `tokenize_batch` gives them.

    The names are read `TOKENIZE_CHUNK` at a time and the token lists are
    produced lazily, so a consumer that keeps only what it needs
    (`featurize.encode`) never holds every name's tokens at once. A bad
    name's error is raised when its chunk is reached; of several bad names,
    the first one's error is raised.
    """
    names = iter(raw_names)
    chunks = iter(lambda: list(itertools.islice(names, TOKENIZE_CHUNK)), [])
    return itertools.chain.from_iterable(map(_tokenize_chunk, chunks))


def _tokenize_chunk(raw_names: list[str]) -> list[list[str]]:
    tokens, errors = tokenize_batch(raw_names)
    if errors:
        raise errors[min(errors)]
    return tokens


def normalize(raw: str) -> str:
    """One name's tokens (`tokenize_batch` of a batch of one), joined by
    single spaces; a bad name raises its error."""
    return " ".join(_tokenize_chunk([raw])[0])


def segment(tokens: list[str]) -> tuple[list[str], list[str], list[str]]:
    """(family, middle, given) of one name's tokens: the first token is the
    family name, the last the given name, and the rest the middle name.

    A one-token name has only a given name, and a two-token name no middle.
    """
    return tokens[:1] if len(tokens) > 1 else [], tokens[1:-1], tokens[-1:]


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
