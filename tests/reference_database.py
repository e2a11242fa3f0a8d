"""Atom-by-atom evidence assembly: the reference for ``calibration.build_database``.

``reference_database`` is the loop ``build_database`` ran before it wrote
each predicate's atoms as one column: one ``observe`` call per atom, pairs
found by nested loops over the test documents, each cosine taken with its own
``np.dot``.  Tests compare the two databases atom for atom, in order within
each predicate, and value bytes for value bytes.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from polyscale.calibration import (
    CalibrationConfig,
    PartyGraph,
    lw_right_left_ratio,
    squash,
)
from polyscale.corpus import Corpus
from polyscale.hiermodel import DocPrediction
from polyscale.pslengine import RelationalDatabase


def reference_database(
    corpus: Corpus,
    predictions: Mapping[str, DocPrediction] | Sequence[DocPrediction],
    party_graph: PartyGraph,
    config: CalibrationConfig | None = None,
    context_positions: Mapping[str, float] | None = None,
) -> RelationalDatabase:
    """``build_database``'s atoms, one ``observe`` call each.  Skips the input
    checks, which the two share no code for but the tests of each cover."""
    config = config or CalibrationConfig()
    context_positions = dict(context_positions or {})
    if not isinstance(predictions, Mapping):
        predictions = {p.manifesto_id: p for p in predictions}

    db = RelationalDatabase()
    test_docs = [m for m in corpus.manifestos if m.id in predictions]
    for doc in test_docs:
        pred = predictions[doc.id]
        db.observe("Manifesto", (doc.id,), 1.0)
        db.observe("Party", (doc.id, doc.party_id), 1.0)
        ratio = lw_right_left_ratio(pred.codes, corpus.scheme)
        value = squash(ratio)
        if value > 0.0:
            db.observe("LwRightLeftRatio", (doc.id,), value)
        db.add_target("pos", (doc.id,), initial=(pred.rile_hat + 1.0) / 2.0)
    for mid, value in context_positions.items():
        db.observe("pos", (mid,), value)

    window_days = config.recency_window_years * 365.25
    recent_pairs = []
    for i, x in enumerate(test_docs):
        for y in test_docs[i + 1 :]:
            if x.country == y.country and x.election_date == y.election_date:
                db.observe("SameElec", (x.id, y.id), 1.0)
                db.observe("SameElec", (y.id, x.id), 1.0)
            gap = abs((x.election_date - y.election_date).days)
            if gap <= window_days:
                db.observe("Recent", (x.id, y.id), 1.0)
                db.observe("Recent", (y.id, x.id), 1.0)
                recent_pairs.append((x, y))

    parties = sorted({doc.party_id for doc in test_docs})
    for i, a in enumerate(parties):
        for b in parties[i + 1 :]:
            reg = party_graph.regional_count(a, b)
            if reg > 0:
                value = squash(reg)
                db.observe("RegCoalition", (a, b), value)
                db.observe("RegCoalition", (b, a), value)
            eu = party_graph.eu_count(a, b)
            if eu > 0:
                value = squash(eu)
                db.observe("EUCoalition", (a, b), value)
                db.observe("EUCoalition", (b, a), value)

    norms = {doc.id: np.linalg.norm(predictions[doc.id].doc_vector) for doc in test_docs}
    for x, y in recent_pairs:
        cosine = float(np.dot(predictions[x.id].doc_vector, predictions[y.id].doc_vector)
                       / (norms[x.id] * norms[y.id]))
        sim = min(1.0, max(0.0, cosine))
        if sim > 0.0:
            db.observe("Similarity", (x.id, y.id), sim)
            db.observe("Similarity", (y.id, x.id), sim)

    by_party: dict[str, list] = {}
    for doc in corpus.manifestos:
        by_party.setdefault(doc.party_id, []).append(doc)
    for doc in test_docs:
        earlier = [
            d
            for d in by_party.get(doc.party_id, [])
            if d.election_date < doc.election_date
        ]
        if not earlier:
            continue
        prev = max(earlier, key=lambda d: (d.election_date, d.id))
        db.observe("PreviousManifesto", (doc.id, doc.party_id, prev.id), 1.0)
    return db
