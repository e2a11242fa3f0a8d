"""Corpus data model: coding scheme, manifestos, segmentation and RILE.

A corpus file is UTF-8 JSON lines, one manifesto per line::

    {"id": "...", "party_id": "...", "country": "...", "language": "...",
     "election_date": "YYYY-MM-DD", "rile": 12.5, "ches": 4.2,
     "sentences": [{"text": "...", "code": "504"}, ...]}

``rile`` and ``ches`` (optional) are finite JSON numbers, ``rile`` the raw
[-100, 100] score, and ``code`` (optional) is the gold category of a
sentence.  RILE is held in the scaled [-1, 1] convention everywhere inside
the package; the raw convention exists only in files.

The coding scheme is the packaged ``assets/cmp_scheme.tsv``: UTF-8 text
with one ``code<TAB>major_category<TAB>polarity`` row per category code;
``#`` starts a comment.  A valid scheme has exactly 57 codes, 13 of them
left and 13 right.
"""

from __future__ import annotations

import json
import logging
import re
import sys
from dataclasses import dataclass
from datetime import date
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

log = logging.getLogger(__name__)

N_CODES = 57
N_LEFT = 13
N_RIGHT = 13

_LANGUAGE_TAG = re.compile(r"^[A-Za-z]{2,3}([_-][A-Za-z0-9]{2,8})?$")
_TOKEN = re.compile(r"\w+", re.UNICODE)


class CorpusFormatError(ValueError):
    """Raised for malformed corpus files or label schemes."""


class Polarity(Enum):
    LEFT = "left"
    RIGHT = "right"
    NEUTRAL = "neutral"


@dataclass(frozen=True)
class LabelScheme:
    """The category inventory: code -> major category and polarity."""

    codes: tuple[str, ...]
    categories: dict[str, str]
    polarities: dict[str, Polarity]

    def __post_init__(self):
        if len(self.codes) != N_CODES:
            raise CorpusFormatError(
                f"scheme must have exactly {N_CODES} codes, got {len(self.codes)}"
            )
        if len(set(self.codes)) != len(self.codes):
            raise CorpusFormatError("scheme codes must be unique")
        for code in self.codes:
            if code not in self.categories or code not in self.polarities:
                raise CorpusFormatError(f"code {code!r} lacks category or polarity")
        n_left = sum(1 for p in self.polarities.values() if p is Polarity.LEFT)
        n_right = sum(1 for p in self.polarities.values() if p is Polarity.RIGHT)
        if (n_left, n_right) != (N_LEFT, N_RIGHT):
            raise CorpusFormatError(
                f"scheme must score {N_LEFT} codes left and {N_RIGHT} right, "
                f"got {n_left} left / {n_right} right"
            )

    @classmethod
    def default(cls) -> "LabelScheme":
        """The packaged scheme, ``assets/cmp_scheme.tsv``."""
        origin = "<default scheme>"
        text = resources.files("polyscale").joinpath("assets/cmp_scheme.tsv").read_text("utf-8")
        codes: list[str] = []
        categories: dict[str, str] = {}
        polarities: dict[str, Polarity] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise CorpusFormatError(
                    f"{origin}: line {lineno}: expected 3 tab-separated fields, got {len(parts)}"
                )
            code, category, pol = (p.strip() for p in parts)
            try:
                polarity = Polarity(pol)
            except ValueError:
                raise CorpusFormatError(
                    f"{origin}: line {lineno}: unknown polarity {pol!r}"
                ) from None
            if code in categories:
                raise CorpusFormatError(f"{origin}: line {lineno}: duplicate code {code!r}")
            codes.append(code)
            categories[code] = category
            polarities[code] = polarity
        return cls(tuple(codes), categories, polarities)

    def polarity_of(self, code: str) -> Polarity:
        try:
            return self.polarities[code]
        except KeyError:
            raise ValueError(f"unknown code {code!r}") from None

    def index(self, code: str) -> int:
        try:
            return self.codes.index(code)
        except ValueError:
            raise ValueError(f"unknown code {code!r}") from None


@dataclass(frozen=True)
class Sentence:
    """One coding unit: a quasi-sentence with its tokens and optional gold code."""

    text: str
    tokens: tuple[str, ...]
    position_index: int  # 1-based within the document
    gold_code: str | None = None

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("sentence must have at least one token")
        if self.position_index < 1:
            raise ValueError("position_index is 1-based")


@dataclass(frozen=True)
class Manifesto:
    id: str
    party_id: str
    country: str
    language: str
    election_date: date
    sentences: tuple[Sentence, ...]
    rile_gold: float | None = None  # scaled [-1, 1]
    ches_gold: float | None = None

    def __post_init__(self):
        if not self.sentences:
            raise ValueError(f"manifesto {self.id!r} has no sentences")
        if self.rile_gold is not None and not -1.0 <= self.rile_gold <= 1.0:
            raise ValueError(f"manifesto {self.id!r}: rile_gold outside [-1, 1]")

    @property
    def fully_annotated(self) -> bool:
        return all(s.gold_code is not None for s in self.sentences)


@dataclass(frozen=True)
class Corpus:
    manifestos: tuple[Manifesto, ...]
    scheme: LabelScheme

    def __len__(self) -> int:
        return len(self.manifestos)

    def __iter__(self):
        return iter(self.manifestos)

    def get(self, manifesto_id: str) -> Manifesto:
        for m in self.manifestos:
            if m.id == manifesto_id:
                return m
        raise KeyError(manifesto_id)


def tokenize(text: str) -> tuple[str, ...]:
    """Word tokens: maximal runs of word characters; punctuation is dropped."""
    return tuple(_TOKEN.findall(text))


# Segmentation heuristic.  Splits at sentence-final punctuation, then
# at ";" when both sides contain a verb-like token.  "Verb-like" is a stated
# default: an auxiliary/copula from the list below, or an alphabetic token of
# length >= 4 ending in a common verbal suffix.
_AUX_VERBS = frozenset(
    "am is are was were be been being has have had do does did will would "
    "shall should can could may might must".split()
)
_VERB_SUFFIXES = ("ing", "ed", "ise", "ize", "ate", "ify", "en")
_FINAL_SPLIT = re.compile(r"(?<=[.!?…])\s+")


def _verb_like(token: str) -> bool:
    t = token.lower()
    return t in _AUX_VERBS or (len(t) >= 4 and t.isalpha() and t.endswith(_VERB_SUFFIXES))


def _split_semicolons(piece: str) -> list[str]:
    parts = piece.split(";")
    if len(parts) == 1:
        return [piece]
    out: list[str] = []
    current = parts[0]
    for nxt in parts[1:]:
        left_ok = any(_verb_like(t) for t in tokenize(current))
        right_ok = any(_verb_like(t) for t in tokenize(nxt))
        if left_ok and right_ok:
            out.append(current)
            current = nxt
        else:
            current = current + ";" + nxt
    out.append(current)
    return out


def segment(text: str) -> list[Sentence]:
    """Split raw text into coding units with the rule-based heuristic above.

    Pre-segmented corpora bypass this.  The heuristic is the same for every
    language.
    """
    if not text or not text.strip():
        raise ValueError("cannot segment empty text")
    pieces: list[str] = []
    for chunk in _FINAL_SPLIT.split(text.strip()):
        pieces.extend(_split_semicolons(chunk))
    sentences: list[Sentence] = []
    for piece in pieces:
        piece = piece.strip()
        tokens = tokenize(piece)
        if not tokens:
            continue
        sentences.append(
            Sentence(text=piece, tokens=tokens, position_index=len(sentences) + 1)
        )
    if not sentences:
        raise ValueError("text yielded no tokens")
    return sentences


def compute_rile(labels: Sequence[str], scheme: LabelScheme) -> float:
    """(right - left) / total over sentence codes, in [-1, 1]."""
    if not labels:
        raise ValueError("compute_rile needs at least one label")
    n_right = 0
    n_left = 0
    for code in labels:
        pol = scheme.polarity_of(code)
        if pol is Polarity.RIGHT:
            n_right += 1
        elif pol is Polarity.LEFT:
            n_left += 1
    return (n_right - n_left) / len(labels)


def _gold_score(record: dict, key: str, where: str) -> float | None:
    """``record[key]``: None when absent or null, else a finite JSON number."""
    value = record.get(key)
    if value is not None and (isinstance(value, bool) or not isinstance(value, (int, float))
                              or not abs(value) <= sys.float_info.max):
        raise CorpusFormatError(f"{where}: {key} must be a finite number, not {value!r}")
    return None if value is None else float(value)


def _manifesto_from_record(
    record: dict, scheme: LabelScheme, languages: set[str] | None, where: str
) -> Manifesto:
    for key in ("id", "party_id", "country", "language", "election_date", "sentences"):
        if key not in record:
            raise CorpusFormatError(f"{where}: missing field {key!r}")
    lang = record["language"]
    if languages is not None:
        if lang not in languages:
            raise CorpusFormatError(f"{where}: unknown language tag {lang!r}")
    elif not isinstance(lang, str) or not _LANGUAGE_TAG.match(lang):
        raise CorpusFormatError(f"{where}: malformed language tag {lang!r}")
    try:
        election = date.fromisoformat(record["election_date"])
    except (TypeError, ValueError):
        raise CorpusFormatError(
            f"{where}: bad election_date {record['election_date']!r} (want YYYY-MM-DD)"
        ) from None
    rile = _gold_score(record, "rile", where)
    if rile is not None:
        if not -100.0 <= rile <= 100.0:
            raise CorpusFormatError(f"{where}: rile {rile} outside [-100, 100]")
        rile = rile / 100.0
    ches = _gold_score(record, "ches", where)
    raw_sentences = record["sentences"]
    if not isinstance(raw_sentences, list) or not raw_sentences:
        raise CorpusFormatError(f"{where}: sentences must be a non-empty list")
    sentences = []
    for i, s in enumerate(raw_sentences, start=1):
        if not isinstance(s, dict) or "text" not in s:
            raise CorpusFormatError(f"{where}: sentence {i} must be an object with 'text'")
        code = s.get("code")
        if code is not None:
            code = str(code)
            if code not in scheme.polarities:
                raise CorpusFormatError(f"{where}: sentence {i}: unknown code {code!r}")
        tokens = tokenize(s["text"])
        if not tokens:
            raise CorpusFormatError(f"{where}: sentence {i} has no tokens")
        sentences.append(
            Sentence(text=s["text"], tokens=tokens, position_index=i, gold_code=code)
        )
    try:
        return Manifesto(
            id=str(record["id"]),
            party_id=str(record["party_id"]),
            country=str(record["country"]),
            language=lang,
            election_date=election,
            sentences=tuple(sentences),
            rile_gold=rile,
            ches_gold=ches,
        )
    except ValueError as exc:
        raise CorpusFormatError(f"{where}: {exc}") from None


def load_corpus(
    path: str | Path,
    scheme: LabelScheme | None = None,
    languages: Iterable[str] | None = None,
) -> Corpus:
    """Read a JSON-lines corpus file.

    ``languages``, when given, is the set of accepted language tags; records
    with other tags are rejected.  Without it, any well-formed tag (2-3
    letters plus optional subtag) is accepted.  Errors name the line.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"corpus file not found: {path}")
    scheme = scheme or LabelScheme.default()
    allowed = set(languages) if languages is not None else None
    manifestos: list[Manifesto] = []
    seen_ids: set[str] = set()
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}: line {lineno}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"{where}: malformed record: {exc}") from None
            if not isinstance(record, dict):
                raise CorpusFormatError(f"{where}: record must be an object")
            m = _manifesto_from_record(record, scheme, allowed, where)
            if m.id in seen_ids:
                raise CorpusFormatError(f"{where}: duplicate manifesto id {m.id!r}")
            seen_ids.add(m.id)
            manifestos.append(m)
    if not manifestos:
        raise CorpusFormatError(f"{path}: corpus is empty")
    return Corpus(tuple(manifestos), scheme)


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write JSON lines in the file convention (raw [-100, 100] RILE).

    The raw value is rounded to 9 decimals so that import followed by export
    reproduces any source value with up to 9 decimal places exactly.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for m in corpus.manifestos:
            record: dict = {
                "id": m.id,
                "party_id": m.party_id,
                "country": m.country,
                "language": m.language,
                "election_date": m.election_date.isoformat(),
            }
            if m.rile_gold is not None:
                record["rile"] = round(m.rile_gold * 100.0, 9)
            if m.ches_gold is not None:
                record["ches"] = m.ches_gold
            record["sentences"] = [
                {"text": s.text} if s.gold_code is None else {"text": s.text, "code": s.gold_code}
                for s in m.sentences
            ]
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")

