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
        # written so that NaN fails too
        if not self.recency_window_years > 0:
            raise ValueError(
                f"recency_window_years must be positive, got {self.recency_window_years}")
        if not self.prior_weight >= 0:
            raise ValueError(f"prior_weight must be nonnegative, got {self.prior_weight}")


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

    Each predicate's atoms are found with array masks over the test
    documents (election dates as integer days) and written in one
    ``observe_many`` call, in the order of the atom-by-atom loop kept as the
    reference in ``tests/reference_database.py``: pairs (x, y) with x before
    y in corpus order, each followed by (y, x).
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
    ids = [doc.id for doc in test_docs]
    preds = [predictions[mid] for mid in ids]
    n = len(test_docs)
    each = np.arange(n)[:, None]
    known_parties = party_graph.parties
    for party in dict.fromkeys(doc.party_id for doc in test_docs):
        if party not in known_parties:
            log.warning("party %s has no coalition records; treating its links as absent",
                        party)
    parties = sorted({doc.party_id for doc in test_docs})
    party_code = {party: k for k, party in enumerate(parties)}
    db.observe_many("Manifesto", ids, each, 1.0)
    db.observe_many("Party", ids + parties,
                    np.column_stack([each[:, 0], [n + party_code[d.party_id] for d in test_docs]]),
                    1.0)
    ratios = np.array([squash(lw_right_left_ratio(p.codes, corpus.scheme)) for p in preds])
    db.observe_many("LwRightLeftRatio", ids, each[ratios > 0.0], ratios[ratios > 0.0])
    for mid, pred in zip(ids, preds):
        db.add_target("pos", (mid,), initial=(pred.rile_hat + 1.0) / 2.0)
    db.observe_many("pos", list(context_positions), np.arange(len(context_positions))[:, None],
                    list(context_positions.values()))

    def both_ways(i, j):
        return np.stack([i, j, j, i], axis=1).reshape(-1, 2)

    x, y = np.triu_indices(n, 1)
    country = {c: k for k, c in enumerate(dict.fromkeys(d.country for d in test_docs))}
    countries = np.array([country[d.country] for d in test_docs], dtype=np.int64)
    days = np.array([d.election_date.toordinal() for d in test_docs], dtype=np.int64)
    same = (countries[x] == countries[y]) & (days[x] == days[y])
    db.observe_many("SameElec", ids, both_ways(x[same], y[same]), 1.0)
    recent = np.abs(days[x] - days[y]) <= config.recency_window_years * 365.25
    x, y = x[recent], y[recent]
    db.observe_many("Recent", ids, both_ways(x, y), 1.0)

    a, b = np.triu_indices(len(parties), 1)
    for predicate, count_of in (("RegCoalition", party_graph.regional_count),
                                ("EUCoalition", party_graph.eu_count)):
        counts = np.array([count_of(parties[i], parties[j])
                           for i, j in zip(a.tolist(), b.tolist())], dtype=np.int64)
        linked = counts > 0
        values = [squash(c) for c in counts[linked].tolist()]
        db.observe_many(predicate, parties, both_ways(a[linked], b[linked]),
                        np.repeat(values, 2))

    # cosine of the document vectors, clamped to [0, 1]; a stacked matmul takes
    # the same dot product per pair as np.dot
    if n:
        vectors = np.stack([p.doc_vector for p in preds])[:, None, :]
        norms = np.sqrt(np.matmul(vectors, vectors.transpose(0, 2, 1))[:, 0, 0])
        dots = np.matmul(vectors[x], vectors[y].transpose(0, 2, 1))[:, 0, 0]
        cosine = dots / (norms[x] * norms[y])
        similar = cosine > 0.0
        db.observe_many("Similarity", ids, both_ways(x[similar], y[similar]),
                        np.repeat(np.minimum(1.0, cosine[similar]), 2))

    by_party: dict[str, list] = {}
    for doc in corpus.manifestos:
        by_party.setdefault(doc.party_id, []).append(doc)
    links = []
    for doc in test_docs:
        earlier = [
            d
            for d in by_party.get(doc.party_id, [])
            if d.election_date < doc.election_date
        ]
        if earlier:
            prev = max(earlier, key=lambda d: (d.election_date, d.id))
            links += [doc.id, doc.party_id, prev.id]
    db.observe_many("PreviousManifesto", links, np.arange(len(links)).reshape(-1, 3), 1.0)
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
