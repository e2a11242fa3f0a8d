"""Segment raw manifesto text into coded sentences and score it.

The scoring scale is (right - left) / total over sentence codes: -1 means
every sentence carries a left-scored code, +1 every sentence a right-scored
one, and neutral codes dilute the score toward zero.
"""

from datetime import date

from polyscale.corpus import (
    Corpus,
    LabelScheme,
    Manifesto,
    Sentence,
    compute_rile,
    load_corpus,
    save_corpus,
    segment,
)

scheme = LabelScheme.default()
print(f"label scheme: {len(scheme.codes)} codes "
      f"({sum(1 for c in scheme.codes if scheme.polarity_of(c).value == 'left')} left, "
      f"{sum(1 for c in scheme.codes if scheme.polarity_of(c).value == 'right')} right)")

# The segmenter splits at sentence-final punctuation, and at
# semicolons when both halves look clausal.
text = (
    "We will expand public healthcare and protect pension levels. "
    "Markets work best when the state steps back; enterprise must be freed "
    "from red tape. Our schools deserve investment. Peace remains the "
    "foundation of our foreign policy."
)
sentences = segment(text)
print(f"\nsegmented into {len(sentences)} sentences:")
for s in sentences:
    print(f"  [{s.position_index}] {s.text}")

# Attach gold codes by hand: welfare expansion (504, left), free market
# economy (401, right), economic incentives (402, right), education
# expansion (506, left), peace (106, left).  The semicolon sentence was
# split in two because both halves look clausal, so five codes are needed.
codes = ("504", "401", "402", "506", "106")
coded = tuple(
    Sentence(text=s.text, tokens=s.tokens, position_index=s.position_index,
             gold_code=c)
    for s, c in zip(sentences, codes)
)
rile = compute_rile(codes, scheme)
print(f"\ngold codes {codes} -> rile {rile:+.3f} "
      f"(file convention scales this to {rile * 100:+.1f})")

doc = Manifesto(
    id="demo-2025", party_id="XX-P1", country="XX", language="en",
    election_date=date(2025, 9, 1), sentences=coded,
    rile_gold=rile, ches_gold=None,
)
corpus = Corpus(manifestos=(doc,), scheme=scheme)

path = "/tmp/demo_corpus.jsonl"
save_corpus(corpus, path)
reloaded = load_corpus(path)
again = reloaded.get("demo-2025")
print(f"\nround trip through {path}: {len(again.sentences)} sentences, "
      f"rile_gold {again.rile_gold:+.3f}")
