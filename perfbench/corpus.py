"""Seeded, paper-scale Vietnamese name corpus with a realistic vocabulary.

Syllables are built from onset x rhyme x tone and NFC-composed. Family,
middle and given tokens come from Zipf-weighted pools; middle and given
tokens each lean toward one gender, family tokens carry no gender signal.
Names have 1 to 5 tokens: one-token names are a bare given name (so the
family-only ablation cells skip them) and two-token names have no middle.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass

import numpy as np

ONSETS = (
    "", "b", "c", "ch", "d", "đ", "g", "gh", "gi", "h", "k", "kh", "l", "m",
    "n", "ng", "ngh", "nh", "ph", "qu", "r", "s", "t", "th", "tr", "v", "x",
)
OPEN_RHYMES = (
    "a", "ai", "am", "an", "ang", "anh", "ao", "au", "ay", "ăm", "ăn", "ăng",
    "âm", "ân", "âng", "âu", "ây", "e", "em", "en", "eng", "eo", "ê", "êm",
    "ên", "ênh", "êu", "i", "ia", "im", "in", "inh", "iu", "iêm", "iên",
    "iêu", "o", "oa", "oai", "oan", "oang", "oanh", "oay", "oe", "oen", "oi",
    "om", "on", "ong", "ô", "ôi", "ôm", "ôn", "ông", "ơ", "ơi", "ơm", "ơn",
    "u", "ua", "uân", "uây", "ui", "um", "un", "ung", "uy", "uyên", "uôi",
    "uôm", "uôn", "uông", "ư", "ưa", "ưi", "ưng", "ươi", "ươm", "ươn",
    "ương", "ưu", "y", "yên", "yêu",
)
# Rhymes closed by a stop consonant only take the acute or dot-below tone.
STOP_RHYMES = (
    "ac", "ach", "ap", "at", "ăc", "ăp", "ăt", "âc", "âp", "ât", "ec", "ep",
    "et", "êch", "êp", "êt", "ich", "ip", "it", "iêc", "iêp", "iêt", "oc",
    "op", "ot", "oach", "oat", "ôc", "ôp", "ôt", "ơp", "ơt", "uc", "up", "ut",
    "uôc", "uôt", "uyêt", "ưc", "ưt", "ươc", "ươp", "ươt",
)
LEVEL, GRAVE, ACUTE, HOOK, TILDE, DOT = "", "\u0300", "\u0301", "\u0309", "\u0303", "\u0323"
OPEN_TONES = (LEVEL, GRAVE, ACUTE, HOOK, TILDE, DOT)
STOP_TONES = (ACUTE, DOT)

VOWELS = set("aăâeêioôơuưy")
MARKED_VOWELS = set("ăâêôơư")
FRONT = ("e", "ê", "i", "y")

# Common family names with approximate population shares (percent); a tail
# of generated syllables follows them.
FAMILY_HEAD = (
    ("nguyễn", 38.4), ("trần", 12.1), ("lê", 9.5), ("phạm", 7.0),
    ("hoàng", 5.1), ("huỳnh", 4.0), ("phan", 4.5), ("vũ", 3.9), ("võ", 3.2),
    ("đặng", 2.1), ("bùi", 2.0), ("đỗ", 1.4), ("hồ", 1.3), ("ngô", 1.3),
    ("dương", 1.0), ("lý", 0.5), ("đinh", 0.5), ("trương", 0.5),
    ("lâm", 0.4), ("mai", 0.4), ("tô", 0.3), ("hà", 0.3), ("tạ", 0.2),
    ("lương", 0.2), ("cao", 0.2), ("châu", 0.2), ("quách", 0.1),
    ("kiều", 0.1), ("tăng", 0.1), ("thái", 0.1),
)
# Common middle names with their share of male bearers.
MIDDLE_HEAD = (
    ("văn", 0.99), ("thị", 0.01), ("hữu", 0.95), ("đức", 0.96),
    ("công", 0.93), ("quang", 0.92), ("đình", 0.94), ("minh", 0.7),
    ("ngọc", 0.2), ("thanh", 0.45), ("kim", 0.1), ("thu", 0.06),
    ("mỹ", 0.03), ("diệu", 0.04), ("thùy", 0.02), ("xuân", 0.4),
    ("hoài", 0.5), ("bảo", 0.6), ("gia", 0.7), ("tuấn", 0.95),
)

N_FAMILY_TAIL = 150
N_MIDDLE_TAIL = 300
N_GIVEN = 2600
N_FRESH = 400
ZIPF_S = 1.0
MALE_SHARE = 0.52
# P(number of tokens = 1..5)
LENGTH_PROBS = (0.03, 0.10, 0.62, 0.21, 0.04)


def _tone_index(rhyme: str) -> int:
    """Index of the vowel in `rhyme` that carries the tone mark."""
    vowel_pos = [i for i, ch in enumerate(rhyme) if ch in VOWELS]
    marked = [i for i in vowel_pos if rhyme[i] in MARKED_VOWELS]
    if marked:
        return marked[-1]
    if rhyme[-1] not in VOWELS:
        return vowel_pos[-1]
    if len(vowel_pos) == 1:
        return vowel_pos[0]
    if len(vowel_pos) == 3 or rhyme[:2] in ("oa", "oe", "uy"):
        return vowel_pos[1]
    return vowel_pos[0]


def _onset_fits(onset: str, rhyme: str) -> bool:
    front = rhyme.startswith(FRONT)
    if onset in ("k", "gh", "ngh"):
        return front
    if onset in ("c", "g", "ng"):
        return not front
    if onset == "gi":
        return not rhyme.startswith("i")
    if onset == "qu":
        return not rhyme.startswith(("u", "o", "y"))
    if rhyme.startswith("y"):
        return onset in ("", "k", "l", "m", "h", "t", "s", "v")
    return True


def syllable(onset: str, rhyme: str, tone: str) -> str:
    pos = _tone_index(rhyme)
    return unicodedata.normalize("NFC", onset + rhyme[: pos + 1] + tone + rhyme[pos + 1:])


def syllable_inventory() -> list[str]:
    """Every onset x rhyme x tone syllable the rules allow, sorted."""
    out = set()
    for rhymes, tones in ((OPEN_RHYMES, OPEN_TONES), (STOP_RHYMES, STOP_TONES)):
        for onset in ONSETS:
            for rhyme in rhymes:
                if _onset_fits(onset, rhyme):
                    out.update(syllable(onset, rhyme, tone) for tone in tones)
    return sorted(out)


@dataclass
class Pool:
    tokens: list[str]
    weights: np.ndarray   # Zipf-style popularity
    p_male: np.ndarray    # share of male bearers of each token

    def conditional(self, male: bool) -> np.ndarray:
        p = self.weights * (self.p_male if male else 1.0 - self.p_male)
        return p / p.sum()


def _zipf(n: int, offset: int = 1) -> np.ndarray:
    return 1.0 / np.arange(offset, offset + n, dtype=np.float64) ** ZIPF_S


def _leans(rng: np.random.Generator, n: int) -> np.ndarray:
    """Three quarters of tokens lean strongly to one gender, the rest are unisex."""
    strong = rng.random(n) < 0.75
    side = rng.random(n) < 0.5
    p = np.where(side, rng.uniform(0.85, 0.99, n), rng.uniform(0.01, 0.15, n))
    return np.where(strong, p, rng.uniform(0.3, 0.7, n))


@dataclass
class Corpus:
    names: list[str]        # display form: each token capitalized
    genders: list[int]      # 1 male, 0 female
    n_tokens: list[int]
    fresh_given: list[str]  # syllables never used by any pool
    family: Pool
    middle: Pool

    def distinct_tokens(self) -> int:
        return len({tok for name in self.names for tok in name.lower().split()})

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("full_name,gender\n")
            for name, gender in zip(self.names, self.genders):
                fh.write(f"{name},{gender}\n")


def make_name(tokens: list[str]) -> str:
    return " ".join(tok.capitalize() for tok in tokens)


def generate(n: int, seed: int) -> Corpus:
    """`n` names with genders, reproducible from `seed`."""
    rng = np.random.default_rng(seed)
    inventory = syllable_inventory()
    fixed = {tok for tok, _ in FAMILY_HEAD} | {tok for tok, _ in MIDDLE_HEAD}
    free = [s for s in inventory if s not in fixed]
    order = rng.permutation(len(free))
    free = [free[i] for i in order]
    cut1 = N_GIVEN
    cut2 = cut1 + N_MIDDLE_TAIL
    cut3 = cut2 + N_FAMILY_TAIL
    given_tokens = free[:cut1]
    middle_tail = free[cut1:cut2]
    family_tail = free[cut2:cut3]
    fresh = free[cut3:cut3 + N_FRESH]

    fam_head_w = np.array([w for _, w in FAMILY_HEAD]) / 100.0
    family = Pool(
        [tok for tok, _ in FAMILY_HEAD] + family_tail,
        np.concatenate([fam_head_w, 0.03 * _zipf(N_FAMILY_TAIL) / _zipf(N_FAMILY_TAIL).sum()]),
        np.full(len(FAMILY_HEAD) + N_FAMILY_TAIL, 0.5),
    )
    mid_head_w = 0.6 * _zipf(len(MIDDLE_HEAD))
    middle = Pool(
        [tok for tok, _ in MIDDLE_HEAD] + middle_tail,
        np.concatenate([mid_head_w, 0.3 * _zipf(N_MIDDLE_TAIL, len(MIDDLE_HEAD) + 1)]),
        np.concatenate([[p for _, p in MIDDLE_HEAD], _leans(rng, N_MIDDLE_TAIL)]),
    )
    given = Pool(given_tokens, _zipf(N_GIVEN, 3), _leans(rng, N_GIVEN))

    genders = (rng.random(n) < MALE_SHARE).astype(int)
    lengths = rng.choice(np.arange(1, 6), size=n, p=LENGTH_PROBS)
    giv = _draw(rng, given, genders)
    fam = _draw(rng, family, genders)
    mids = np.stack([_draw(rng, middle, genders) for _ in range(3)], axis=1)
    names: list[str] = []
    for i, length in enumerate(lengths.tolist()):
        if length == 1:
            names.append(make_name([given.tokens[giv[i]]]))
            continue
        slots = mids[i, : length - 2].tolist()
        for k in range(1, len(slots)):  # redraw repeated middle tokens
            while slots[k] in slots[:k]:
                slots[k] = int(_draw(rng, middle, genders[i:i + 1])[0])
        tokens = [family.tokens[fam[i]], *(middle.tokens[j] for j in slots), given.tokens[giv[i]]]
        names.append(make_name(tokens))
    return Corpus(names, genders.tolist(), lengths.tolist(), fresh, family, middle)


def _draw(rng: np.random.Generator, pool: Pool, genders: np.ndarray) -> np.ndarray:
    """One pool index per entry of `genders`, drawn from that gender's distribution."""
    out = np.empty(genders.size, dtype=np.int64)
    for male in (0, 1):
        sel = genders == male
        cdf = np.cumsum(pool.conditional(bool(male)))
        out[sel] = np.minimum(np.searchsorted(cdf, rng.random(int(sel.sum()))), len(cdf) - 1)
    return out


def fresh_name(rng: np.random.Generator, corpus: Corpus, male: int) -> str:
    """A three-token name whose given syllable no corpus name uses."""
    g = np.array([male])
    fam = corpus.family.tokens[_draw(rng, corpus.family, g)[0]]
    mid = corpus.middle.tokens[_draw(rng, corpus.middle, g)[0]]
    giv = corpus.fresh_given[rng.integers(len(corpus.fresh_given))]
    return make_name([fam, mid, giv])
