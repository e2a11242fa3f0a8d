import json

import numpy as np
import pytest

from polyscale.corpus import (
    CorpusFormatError,
    LabelScheme,
    Polarity,
    compute_rile,
    load_corpus,
    save_corpus,
    segment,
)


def rile_counting_oracle(labels, scheme):
    """Independent route: count polarities one by one."""
    right = sum(1 for c in labels if scheme.polarities[c] is Polarity.RIGHT)
    left = sum(1 for c in labels if scheme.polarities[c] is Polarity.LEFT)
    return (right - left) / len(labels)


class TestLabelScheme:
    def test_default_cardinalities(self):
        scheme = LabelScheme.default()
        assert len(scheme.codes) == 57
        pols = list(scheme.polarities.values())
        assert pols.count(Polarity.LEFT) == 13
        assert pols.count(Polarity.RIGHT) == 13
        assert pols.count(Polarity.NEUTRAL) == 31

    def test_known_polarities(self):
        scheme = LabelScheme.default()
        # negative stance on military scores left, positive scores right
        assert scheme.polarity_of("105") is Polarity.LEFT
        assert scheme.polarity_of("104") is Polarity.RIGHT
        assert scheme.polarity_of("408") is Polarity.NEUTRAL
        assert scheme.polarity_of("504") is Polarity.LEFT

    def test_unknown_code_rejected(self):
        scheme = LabelScheme.default()
        with pytest.raises(ValueError, match="999"):
            scheme.polarity_of("999")

    def test_wrong_cardinality_rejected(self):
        scheme = LabelScheme.default()
        # flip one right code to neutral: 12/13 split must be rejected
        polarities = {**scheme.polarities, "104": Polarity.NEUTRAL}
        with pytest.raises(CorpusFormatError, match="13"):
            LabelScheme(scheme.codes, scheme.categories, polarities)

    def test_code_index_is_stable(self):
        scheme = LabelScheme.default()
        assert scheme.index("000") == 0
        assert scheme.codes[scheme.index("605")] == "605"


class TestComputeRile:
    def test_worked_example(self):
        scheme = LabelScheme.default()
        labels = ["104"] * 4 + ["105"] * 1 + ["408"] * 5
        assert compute_rile(labels, scheme) == 0.3
        assert compute_rile(labels, scheme) == rile_counting_oracle(labels, scheme)

    def test_random_multisets_match_oracle(self):
        scheme = LabelScheme.default()
        rng = np.random.default_rng(42)
        codes = np.array(scheme.codes)
        for _ in range(200):
            labels = list(rng.choice(codes, size=rng.integers(1, 60)))
            assert compute_rile(labels, scheme) == rile_counting_oracle(labels, scheme)

    def test_all_neutral_is_zero(self):
        scheme = LabelScheme.default()
        assert compute_rile(["000", "408", "501"], scheme) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_rile([], LabelScheme.default())


class TestSegment:
    def test_final_punctuation(self):
        got = segment("A. B.")
        assert [s.text for s in got] == ["A.", "B."]
        assert [s.position_index for s in got] == [1, 2]

    def test_semicolon_with_verbs_splits(self):
        text = "We are committed to reform; the budget is balanced."
        got = segment(text)
        assert [s.text for s in got] == [
            "We are committed to reform",
            "the budget is balanced.",
        ]

    def test_semicolon_without_verbs_kept(self):
        text = "Growth; jobs; security."
        got = segment(text)
        assert len(got) == 1
        assert got[0].tokens == ("Growth", "jobs", "security")

    def test_positions_are_one_based_and_contiguous(self):
        got = segment("One is here. Two is here! Three is here?")
        assert [s.position_index for s in got] == [1, 2, 3]

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            segment("   ")

    def test_tokens_nonempty(self):
        for s in segment("Ja, wir stimmen zu. Nein!"):
            assert s.tokens


def write_corpus_file(tmp_path, records):
    path = tmp_path / "corpus.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")
    return path


def make_record(mid="m1", **overrides):
    record = {
        "id": mid,
        "party_id": "p1",
        "country": "XA",
        "language": "en",
        "election_date": "2006-05-01",
        "rile": 12.5,
        "sentences": [
            {"text": "We will expand the welfare state.", "code": "504"},
            {"text": "Taxes shall be lowered."},
        ],
    }
    record.update(overrides)
    return record


class TestLoadCorpus:
    def test_load_basic(self, tmp_path):
        path = write_corpus_file(tmp_path, [make_record()])
        corpus = load_corpus(path)
        assert len(corpus) == 1
        m = corpus.get("m1")
        assert m.rile_gold == 0.125
        assert m.election_date.year == 2006
        assert m.sentences[0].gold_code == "504"
        assert m.sentences[1].gold_code is None
        assert m.sentences[0].position_index == 1
        assert not m.fully_annotated

    def test_fully_annotated_detection(self, tmp_path):
        rec = make_record(
            sentences=[
                {"text": "One is good.", "code": "000"},
                {"text": "Two is bad.", "code": "105"},
            ]
        )
        corpus = load_corpus(write_corpus_file(tmp_path, [rec]))
        assert corpus.get("m1").fully_annotated

    def test_unknown_code_names_line(self, tmp_path):
        bad = make_record(mid="m2", sentences=[{"text": "Hello there.", "code": "999"}])
        path = write_corpus_file(tmp_path, [make_record(), bad])
        with pytest.raises(CorpusFormatError, match="line 2.*999"):
            load_corpus(path)

    def test_unknown_language_rejected(self, tmp_path):
        path = write_corpus_file(tmp_path, [make_record(language="zz")])
        with pytest.raises(CorpusFormatError, match="zz"):
            load_corpus(path, languages={"en", "de"})

    def test_malformed_language_rejected(self, tmp_path):
        path = write_corpus_file(tmp_path, [make_record(language="not a tag")])
        with pytest.raises(CorpusFormatError, match="language"):
            load_corpus(path)

    def test_rile_bounds_checked(self, tmp_path):
        path = write_corpus_file(tmp_path, [make_record(rile=101.0)])
        with pytest.raises(CorpusFormatError, match="rile"):
            load_corpus(path)

    @pytest.mark.parametrize("field, value", [
        ("ches", float("nan")), ("ches", float("inf")), ("rile", float("-inf")),  # non-finite
        ("rile", True), ("ches", False),  # boolean
        ("rile", "left"), ("ches", "4.2"),  # not a JSON number
    ])
    def test_bad_gold_score_names_record_and_field(self, tmp_path, field, value):
        path = write_corpus_file(tmp_path, [make_record(), make_record("m2", **{field: value})])
        with pytest.raises(CorpusFormatError, match=f"line 2: {field} must be a finite number"):
            load_corpus(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = write_corpus_file(tmp_path, [make_record(), make_record()])
        with pytest.raises(CorpusFormatError, match="duplicate"):
            load_corpus(path)

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps(make_record()) + "\n{oops\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="line 2"):
            load_corpus(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_corpus(tmp_path / "nope.jsonl")

    def test_rile_scaled_internally(self, tmp_path):
        path = write_corpus_file(tmp_path, [make_record(rile=-100.0)])
        assert load_corpus(path).get("m1").rile_gold == -1.0


class TestRoundTrip:
    def test_field_for_field(self, tmp_path):
        records = [
            make_record("a", rile=42.0, ches=3.7),
            make_record("b", rile=-7.25),
            make_record("c", rile=33.333),
        ]
        records[1]["sentences"] = [{"text": "Nur ein Satz.", "code": "000"}]
        records[1]["language"] = "de"
        path = write_corpus_file(tmp_path, records)
        first = load_corpus(path)
        out = tmp_path / "again.jsonl"
        save_corpus(first, out)
        second = load_corpus(out)
        assert first.manifestos == second.manifestos

    def test_raw_values_reproduced(self, tmp_path, caplog):
        rng = np.random.default_rng(7)
        records = []
        for i, raw in enumerate(np.round(rng.uniform(-100, 100, size=50), 3)):
            records.append(make_record(f"m{i}", rile=float(raw)))
        path = write_corpus_file(tmp_path, records)
        corpus = load_corpus(path)
        out = tmp_path / "out.jsonl"
        save_corpus(corpus, out)
        for line, rec in zip(out.read_text().splitlines(), records):
            assert json.loads(line)["rile"] == rec["rile"]
