"""Post-hoc calibration of document scores with relational soft-logic rules.

The neural scaler reads one manifesto at a time, so systematic per-party or
per-country offsets survive training.  This module rescales its outputs
jointly: each test manifesto x gets an open atom pos(x) in [0, 1] (0 far
left, 1 far right), evidence atoms are computed from the corpus, a party
coalition graph, and the model's own predictions, and MAP inference over
the shipped rule program (``assets/position_rules.psl``) returns the
calibrated positions.

Evidence atoms:

* ``Manifesto(x)``, ``Party(x, a)`` for test manifestos.
* ``SameElec(x, y)`` for test pairs fielded in the same country and
  election date; ``Recent(x, y)`` for test pairs whose dates lie within the
  recency window.
* ``RegCoalition(a, b)`` and ``EUCoalition(a, b)``: how often two parties
  governed together, squashed to [0, 1).
* ``Similarity(x, y)``: cosine similarity of the model's document vectors,
  clamped to [0, 1], for Recent pairs.
* ``LwRightLeftRatio(x)``: squashed location-weighted share of rightward
  sentence labels; a sentence at 1-based position l weighs ln(l + 1), so
  later sentences count more.
* ``PreviousManifesto(x, a, t)``: t is party a's latest manifesto strictly
  before x (ties on date broken by id), drawn from test and context
  documents.

Context documents (typically training manifestos scored by stacked
cross-fitting, see ``stacked_estimates``) enter as observed pos atoms and
anchor their parties' test manifestos through the temporal rules.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import Corpus, LabelScheme
from .hiermodel import DocPrediction, ModelConfig, predict, train
from .pslengine import (
    GroundNetwork,
    MapResult,
    PslProgram,
    RelationalDatabase,
    SolverConfig,
    ground,
    load_program,
    map_inference,
    rule_text,
)

log = logging.getLogger(__name__)

# rule index layout of assets/position_rules.psl
RULE_GROUPS = {
    "coal": tuple(range(0, 8)),
    "esim": (8, 9),
    "ploc": (10, 11),
    "temp": (12, 13),
}
ABLATION_ORDER = ("coal", "esim", "ploc", "temp")


def default_program() -> PslProgram:
    from importlib import resources

    with resources.as_file(
        resources.files("polyscale").joinpath("assets/position_rules.psl")
    ) as path:
        return load_program(path)


def group_rules(groups: Sequence[str]) -> list[int]:
    """Sorted indices of the rules in the named groups."""
    indices: list[int] = []
    for name in groups:
        if name not in RULE_GROUPS:
            raise ValueError(f"unknown rule group {name!r}")
        indices.extend(RULE_GROUPS[name])
    return sorted(indices)


def program_for_groups(program: PslProgram, groups: Sequence[str]) -> PslProgram:
    """The rules of the named groups, at their indices in the default layout."""
    indices = group_rules(groups)
    short = [name for name in groups if RULE_GROUPS[name][-1] >= len(program.rules)]
    if short:
        raise ValueError(f"rule group(s) {', '.join(map(repr, short))} index past the "
                         f"program's {len(program.rules)} rule(s)")
    return program.subset(indices)


def squash(value: float) -> float:
    """Map a nonnegative signal to [0, 1): 2 / (1 + exp(-v)) - 1."""
    value = float(value)
    if value < 0:
        raise ValueError(f"squash expects a nonnegative value, got {value}")
    return 2.0 / (1.0 + math.exp(-value)) - 1.0


def lw_right_left_ratio(codes: Sequence[str], scheme: LabelScheme) -> float:
    """Location-weighted share of rightward labels among all sentences.

    Sentence at 1-based position l contributes ln(l + 1) to its polarity's
    bucket; the ratio is W_right / (W_right + W_left + W_neutral).
    """
    if not codes:
        raise ValueError("cannot compute a label ratio without sentences")
    weights = {"left": 0.0, "right": 0.0, "neutral": 0.0}
    for position, code in enumerate(codes, start=1):
        weights[scheme.polarity_of(code).value] += math.log(position + 1)
    total = weights["left"] + weights["right"] + weights["neutral"]
    return weights["right"] / total


@dataclass(frozen=True)
class PartyGraph:
    """Symmetric coalition counts between parties, regional and European."""

    regional: dict
    eu: dict

    @staticmethod
    def _key(a: str, b: str) -> tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    @classmethod
    def from_pairs(cls, pairs) -> "PartyGraph":
        """pairs: iterable of (party_a, party_b, count, kind)."""
        regional: dict = {}
        eu: dict = {}
        for a, b, count, kind in pairs:
            count = int(count)
            if count < 0:
                raise ValueError(f"coalition count must be nonnegative, got {count}")
            kind = kind.upper()
            if kind == "REGIONAL":
                table = regional
            elif kind == "EU":
                table = eu
            else:
                raise ValueError(f"coalition kind must be REGIONAL or EU, got {kind!r}")
            key = cls._key(str(a), str(b))
            table[key] = table.get(key, 0) + count
        return cls(regional, eu)

    @classmethod
    def from_file(cls, path) -> "PartyGraph":
        path = Path(path)
        pairs = []
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                fields = line.split("\t")
                if len(fields) != 4:
                    raise ValueError(
                        f"{path}:{lineno}: expected 4 tab-separated fields "
                        f"(party_a, party_b, count, kind), got {len(fields)}"
                    )
                try:
                    count = int(fields[2])
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: count {fields[2]!r} is not an integer"
                    ) from None
                pairs.append((fields[0], fields[1], count, fields[3]))
        return cls.from_pairs(pairs)

    @property
    def parties(self) -> set:
        out = set()
        for key in list(self.regional) + list(self.eu):
            out.update(key)
        return out

    def regional_count(self, a: str, b: str) -> int:
        return self.regional.get(self._key(a, b), 0)

    def eu_count(self, a: str, b: str) -> int:
        return self.eu.get(self._key(a, b), 0)


def save_party_graph(graph: PartyGraph, path) -> None:
    """Write a graph in the tab-separated format ``from_file`` reads."""
    lines = ["# party_a\tparty_b\tcount\tkind"]
    for kind, table in (("REGIONAL", graph.regional), ("EU", graph.eu)):
        for (a, b), count in sorted(table.items()):
            lines.append(f"{a}\t{b}\t{count}\t{kind}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class CalibrationConfig:
    recency_window_years: float = 4.0
    prior_weight: float = 0.0

    def __post_init__(self):
        if self.recency_window_years <= 0:
            raise ValueError("recency_window_years must be positive")
        if self.prior_weight < 0:
            raise ValueError("prior_weight must be nonnegative")


def build_database(
    corpus: Corpus,
    predictions: Mapping[str, DocPrediction] | Sequence[DocPrediction],
    party_graph: PartyGraph,
    config: CalibrationConfig | None = None,
    context_positions: Mapping[str, float] | None = None,
) -> RelationalDatabase:
    """Assemble the evidence atoms and pos targets for one calibration run.

    Manifestos with predictions become test documents (pos targets
    initialized at their rescaled model score); ids in context_positions
    become observed pos atoms.  Every corpus manifesto must be one or the
    other.
    """
    config = config or CalibrationConfig()
    context_positions = dict(context_positions or {})
    if isinstance(predictions, Mapping):
        predictions = dict(predictions)
    else:
        predictions = {p.manifesto_id: p for p in predictions}
    corpus_ids = {m.id for m in corpus.manifestos}
    for mid, value in context_positions.items():
        if mid not in corpus_ids:
            raise ValueError(f"context id {mid!r} is not in the corpus")
        if mid in predictions:
            raise ValueError(f"manifesto {mid!r} is both test and context")
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"context position for {mid!r} must be in [0, 1]")
    uncovered = [
        m.id
        for m in corpus.manifestos
        if m.id not in predictions and m.id not in context_positions
    ]
    if uncovered:
        raise ValueError(
            f"manifesto(s) {uncovered} are neither test (predicted) nor context"
        )

    db = RelationalDatabase()
    test_docs = [m for m in corpus.manifestos if m.id in predictions]
    known_parties = party_graph.parties
    warned: set[str] = set()
    for doc in test_docs:
        pred = predictions[doc.id]
        db.observe("Manifesto", (doc.id,), 1.0)
        db.observe("Party", (doc.id, doc.party_id), 1.0)
        ratio = lw_right_left_ratio(pred.codes, corpus.scheme)
        value = squash(ratio)
        if value > 0.0:
            db.observe("LwRightLeftRatio", (doc.id,), value)
        db.add_target("pos", (doc.id,), initial=(pred.rile_hat + 1.0) / 2.0)
        if doc.party_id not in known_parties and doc.party_id not in warned:
            warned.add(doc.party_id)
            log.warning(
                "party %s has no coalition records; treating its links as absent",
                doc.party_id,
            )
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

    # cosine of the document vectors, clamped to [0, 1]
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


@dataclass
class CalibrationResult:
    positions: dict
    rile: dict
    map_result: MapResult
    network: GroundNetwork


def calibrate(
    db: RelationalDatabase,
    program: PslProgram | None = None,
    solver_config: SolverConfig | None = None,
    config: CalibrationConfig | None = None,
    network: GroundNetwork | None = None,
) -> CalibrationResult:
    """Ground the program against the evidence and run MAP inference.

    A positive prior_weight adds a squared pull toward each target's
    initial value, keeping weakly-constrained atoms near the model score.
    A caller that has already grounded the program against ``db`` passes
    that network instead, such as a ``GroundNetwork.select`` cut of a
    larger program's network (``evaluate`` grounds its database once and
    cuts each ablation prefix from it).  The prior rows are appended to it.
    Each program rule that grounded no rows is logged as a warning, with its
    text and its ``RuleStats`` prune counts.
    """
    program = program or default_program()
    config = config or CalibrationConfig()
    if network is None:
        network = ground(program, db)
    elif len(network.stats) != len(program.rules) or network.free_atoms != tuple(db.targets):
        raise ValueError("the network was not grounded from this program and database")
    elif len(network) != len(network.rules):
        raise ValueError("the network already holds prior rows")
    for k, (rule, stats) in enumerate(zip(program.rules, network.stats)):
        if not stats.rows:
            log.warning("rule %d grounded no rows, so it constrains nothing: %s (%s)",
                        k, rule_text(rule), stats)
    if config.prior_weight > 0.0:
        network.add_prior(config.prior_weight)
    result = map_inference(network, solver_config)
    if not result.converged:
        log.warning(
            "MAP inference stopped without converging after %d iterations",
            result.iterations,
        )
    positions = {
        atom[1][0]: float(result.values[i]) for atom, i in network.free_index.items()
    }
    rile = {mid: 2.0 * pos - 1.0 for mid, pos in positions.items()}
    return CalibrationResult(positions, rile, result, network)


@dataclass(frozen=True)
class StackedEstimate:
    position: float
    fold: int
    trained_on_ids: tuple


def stacked_estimates(
    corpus: Corpus,
    config: ModelConfig,
    k: int = 5,
) -> dict:
    """Out-of-fold positions for every corpus document via k-fold refits.

    Documents are assigned to folds round-robin in corpus order; each fold
    is scored by a model trained on the other folds' trainable documents,
    so no document is scored by a model that saw it.
    """
    from .hiermodel import training_documents

    if k < 2:
        raise ValueError("stacked estimation needs at least 2 folds")
    docs = corpus.manifestos
    if not docs:
        raise ValueError("cannot build stacked estimates for an empty corpus")
    folds = {doc.id: i % k for i, doc in enumerate(docs)}
    out: dict[str, StackedEstimate] = {}
    for fold in range(min(k, len(docs))):
        held_out = [d for d in docs if folds[d.id] == fold]
        if not held_out:
            continue
        rest = tuple(d for d in docs if folds[d.id] != fold)
        rest_corpus = Corpus(manifestos=rest, scheme=corpus.scheme)
        trainable = training_documents(rest_corpus)
        if not trainable:
            raise ValueError(
                f"fold {fold} leaves no trainable documents to fit on"
            )
        params, _ = train(rest_corpus, config)
        trained_ids = tuple(d.id for d in trainable)
        for pred in predict(params, held_out):
            out[pred.manifesto_id] = StackedEstimate(
                position=(pred.rile_hat + 1.0) / 2.0,
                fold=fold,
                trained_on_ids=trained_ids,
            )
    return out
