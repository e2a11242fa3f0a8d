"""Metrics, data splits, hyperparameter tuning, and experiment runs.

``run_experiment`` drives the full pipeline from a JSON-able config dict:
load corpus, split, optionally tune loss weights on the dev set, train,
predict the test set, build stacked context positions, and calibrate under
an incremental rule-group ablation.  The database is grounded once, and
each ablation prefix is calibrated on its rules' rows of that network.  It
writes three CSV files plus a run manifest whose content hashes make reruns
byte-for-byte comparable:

* ``sentence_f.csv``: per-language micro-averaged F1 of sentence codes.
* ``document_corr.csv``: Pearson and Spearman correlation of document
  scores against gold, for the raw model and the calibrated output.
* ``calibration_ablation.csv``: Spearman under growing rule sets, against
  gold document scores and expert party scores.

Repeated stratified runs fan out over processes when POLYSCALE_THREADS
allows; results reduce in repeat order, so thread count never changes the
output.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import json
import logging
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import __version__, calibration
from .calibration import (
    ABLATION_ORDER,
    CalibrationConfig,
    PartyGraph,
    build_database,
    calibrate,
    default_program,
    group_rules,
    stacked_estimates,
)
from .corpus import Corpus, Manifesto, load_corpus
from .hiermodel import ModelConfig, effective_rile, predict, train

log = logging.getLogger(__name__)

DEFAULT_CUTOFF = datetime.date(2009, 1, 1)


def micro_f(gold: Sequence[str], predicted: Sequence[str], exclude=()) -> float:
    """Micro-averaged F1 over pooled per-class counts.

    With no excluded classes every false positive pairs with a false
    negative, so the score equals plain accuracy; excluding classes (such
    as the uncoded catch-all) makes precision and recall diverge.
    """
    if len(gold) != len(predicted):
        raise ValueError("gold and predicted label lists differ in length")
    if not gold:
        raise ValueError("cannot score an empty label list")
    excluded = set(exclude)
    classes = (set(gold) | set(predicted)) - excluded
    if not classes:
        raise ValueError("all classes were excluded")
    tp = fp = fn = 0
    for g, p in zip(gold, predicted):
        if g == p:
            if g in classes:
                tp += 1
            continue
        if p in classes:
            fp += 1
        if g in classes:
            fn += 1
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall)


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be 1-D sequences of equal length")
    if len(x) < 2:
        raise ValueError("correlation needs at least 2 points")
    cx = x - x.mean()
    cy = y - y.mean()
    denom = float(np.sqrt(np.sum(cx * cx) * np.sum(cy * cy)))
    if denom == 0.0:
        raise ValueError("correlation is undefined for constant input")
    return float(np.dot(cx, cy) / denom)


def average_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    arr = np.asarray(values, dtype=np.float64)
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(len(arr), dtype=np.float64)
    i = 0
    while i < len(arr):
        j = i
        while j + 1 < len(arr) and arr[order[j + 1]] == arr[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Rank correlation: Pearson on average ranks."""
    return pearson(average_ranks(x), average_ranks(y))


@dataclass(frozen=True)
class SplitSpec:
    kind: str = "temporal"
    test_fraction: float = 0.2
    dev_fraction: float = 0.1
    cutoff: datetime.date = DEFAULT_CUTOFF

    def __post_init__(self):
        if self.kind not in ("temporal", "random_stratified"):
            raise ValueError(
                f"split kind must be temporal or random_stratified, got {self.kind!r}"
            )
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must be in (0, 1)")
        if not 0.0 <= self.dev_fraction < 1.0:
            raise ValueError("dev_fraction must be in [0, 1)")


@dataclass(frozen=True)
class Split:
    train: tuple
    dev: tuple
    test: tuple


def make_split(corpus: Corpus, spec: SplitSpec, seed: int = 0) -> Split:
    """Deterministic train/dev/test partition of a corpus.

    temporal: documents dated strictly before the cutoff form the training
    pool, the rest the test set.  random_stratified: per-country random
    draws of round(n * test_fraction) documents.  The dev set is a seeded
    fraction of the training pool either way.
    """
    rng = np.random.default_rng(seed)
    docs = corpus.manifestos
    if spec.kind == "temporal":
        pool = [m for m in docs if m.election_date < spec.cutoff]
        test = [m for m in docs if m.election_date >= spec.cutoff]
    else:
        pool, test = [], []
        by_country: dict[str, list[Manifesto]] = {}
        for m in docs:
            by_country.setdefault(m.country, []).append(m)
        for country in sorted(by_country):
            group = by_country[country]
            n_test = round(len(group) * spec.test_fraction)
            chosen = set(rng.permutation(len(group))[:n_test].tolist())
            for i, m in enumerate(group):
                (test if i in chosen else pool).append(m)
    if not test:
        raise ValueError("split produced an empty test partition")
    n_dev = round(len(pool) * spec.dev_fraction)
    dev_idx = set(rng.permutation(len(pool))[:n_dev].tolist())
    dev = [m for i, m in enumerate(pool) if i in dev_idx]
    train = [m for i, m in enumerate(pool) if i not in dev_idx]
    if not train:
        raise ValueError("split produced an empty training partition")
    return Split(tuple(train), tuple(dev), tuple(test))


@dataclass(frozen=True)
class TuneTrial:
    parameter: str
    value: float
    score: float


def grid_tune(
    train_docs: Sequence[Manifesto],
    dev_docs: Sequence[Manifesto],
    scheme,
    base: ModelConfig,
    alphas: Sequence[float] = (),
    gammas: Sequence[float] = (),
    betas: Sequence[float] = (),
    embeddings=None,
) -> tuple[ModelConfig, list[TuneTrial]]:
    """Coordinate search over loss weights, one parameter at a time.

    Each candidate trains on the training documents and is scored by the
    Pearson correlation of predicted against gold document scores on the
    dev set; candidates sweep alpha, then gamma, then beta.
    """
    train_corpus = Corpus(manifestos=tuple(train_docs), scheme=scheme)
    scored_dev = [m for m in dev_docs if effective_rile(m, scheme) is not None]
    if len(scored_dev) < 2:
        raise ValueError("tuning needs at least 2 dev documents with scores")
    targets = [effective_rile(m, scheme) for m in scored_dev]

    def score(config: ModelConfig) -> float:
        params, _ = train(train_corpus, config, embeddings=embeddings)
        preds = predict(params, scored_dev)
        return pearson([p.rile_hat for p in preds], targets)

    best = base
    trials: list[TuneTrial] = []
    for parameter, candidates in (("alpha", alphas), ("gamma", gammas), ("beta", betas)):
        if not candidates:
            continue
        best_score = None
        best_value = getattr(best, parameter)
        for value in candidates:
            trial_config = replace(best, **{parameter: float(value)})
            s = score(trial_config)
            trials.append(TuneTrial(parameter, float(value), s))
            if best_score is None or s > best_score:
                best_score = s
                best_value = float(value)
        best = replace(best, **{parameter: best_value})
    return best, trials


def _normalize_config(source) -> dict:
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fh:
            source = json.load(fh)
    if not isinstance(source, Mapping):
        raise ValueError("experiment config must be a mapping or a JSON file path")
    cfg = dict(source)
    if "corpus" not in cfg:
        raise ValueError("experiment config requires a 'corpus' path")
    if "party_graph" not in cfg:
        raise ValueError("experiment config requires a 'party_graph' path")
    cfg.setdefault("split", {})
    cfg.setdefault("model", {})
    cfg.setdefault("calibration", {})
    cfg.setdefault("stacked_folds", 5)
    cfg.setdefault("repeats", 1)
    cfg.setdefault("seed", 0)
    cfg.setdefault("sentence_exclude", [])
    if cfg["repeats"] < 1:
        raise ValueError("repeats must be at least 1")
    return cfg


def _split_spec(block: Mapping) -> SplitSpec:
    kwargs = dict(block)
    if "cutoff" in kwargs:
        kwargs["cutoff"] = datetime.date.fromisoformat(kwargs["cutoff"])
    return SplitSpec(**kwargs)


@dataclass
class SingleRun:
    language_f: dict
    model_corr: tuple
    calibrated_corr: tuple
    ablation: list


def _run_once(corpus: Corpus, graph: PartyGraph, cfg: dict, seed: int) -> SingleRun:
    spec = _split_spec(cfg["split"])
    split = make_split(corpus, spec, seed=seed)
    model_config = ModelConfig(**{**cfg["model"], "seed": seed})
    if cfg.get("tune"):
        tune = cfg["tune"]
        model_config, trials = grid_tune(
            split.train, split.dev, corpus.scheme, model_config,
            alphas=tune.get("alphas", ()),
            gammas=tune.get("gammas", ()),
            betas=tune.get("betas", ()),
        )
        log.info("tuned config after %d trials: alpha=%.3g beta=%.3g gamma=%.3g",
                 len(trials), model_config.alpha, model_config.beta, model_config.gamma)
    fit_docs = split.train + split.dev
    fit_corpus = Corpus(manifestos=fit_docs, scheme=corpus.scheme)
    params, _ = train(fit_corpus, model_config)
    preds = predict(params, split.test)

    language_f = _sentence_scores(split.test, preds, tuple(cfg["sentence_exclude"]))

    scored = [
        (p.rile_hat, m.rile_gold)
        for m, p in zip(split.test, preds)
        if m.rile_gold is not None
    ]
    if len(scored) < 2:
        raise ValueError("test partition has fewer than 2 documents with gold scores")
    model_corr = (
        pearson([s[0] for s in scored], [s[1] for s in scored]),
        spearman([s[0] for s in scored], [s[1] for s in scored]),
    )

    calib_config = CalibrationConfig(**cfg["calibration"])
    context = {
        mid: est.position
        for mid, est in stacked_estimates(
            fit_corpus, model_config, k=cfg["stacked_folds"]
        ).items()
    }
    db_corpus = Corpus(manifestos=split.test + fit_docs, scheme=corpus.scheme)
    db = build_database(db_corpus, preds, graph, calib_config, context)
    program = default_program()
    # one grounding serves every prefix: each rule's rows ground on their own
    full = calibration.ground(program, db)

    gold_by_id = {m.id: m.rile_gold for m in split.test if m.rile_gold is not None}
    ches_by_id = {m.id: m.ches_gold for m in split.test if m.ches_gold is not None}
    ablation = []
    final = None
    for i, group in enumerate(ABLATION_ORDER):
        rules = group_rules(ABLATION_ORDER[: i + 1])
        result = calibrate(
            db, program.subset(rules), config=calib_config, network=full.select(rules)
        )
        label = group if i == 0 else f"+{group}"
        s_rile = _spearman_or_none(
            [result.rile[mid] for mid in gold_by_id],
            [gold_by_id[mid] for mid in gold_by_id],
        )
        s_ches = None
        if len(ches_by_id) >= 2:
            s_ches = _spearman_or_none(
                [result.rile[mid] for mid in ches_by_id],
                [ches_by_id[mid] for mid in ches_by_id],
            )
        ablation.append((label, s_rile, s_ches))
        final = result
    calibrated_corr = (
        pearson(
            [final.rile[mid] for mid in gold_by_id],
            [gold_by_id[mid] for mid in gold_by_id],
        ),
        spearman(
            [final.rile[mid] for mid in gold_by_id],
            [gold_by_id[mid] for mid in gold_by_id],
        ),
    )
    return SingleRun(language_f, model_corr, calibrated_corr, ablation)


def _spearman_or_none(x, y):
    """Rank correlation, or None when it is undefined (constant input).

    Ablation rows under partial rule sets can legitimately produce tied
    positions; an undefined diagnostic is recorded as missing, not faked.
    """
    try:
        return spearman(x, y)
    except ValueError:
        return None


def _sentence_scores(test_docs, preds, exclude) -> dict:
    by_lang: dict[str, tuple[list, list]] = {}
    for doc, pred in zip(test_docs, preds):
        golds, outs = by_lang.setdefault(doc.language, ([], []))
        for sentence, code in zip(doc.sentences, pred.codes):
            if sentence.gold_code is not None:
                golds.append(sentence.gold_code)
                outs.append(code)
    out = {}
    for lang in sorted(by_lang):
        golds, outs = by_lang[lang]
        if golds:
            out[lang] = (micro_f(golds, outs, exclude=exclude), len(golds))
    return out


def _repeat_worker(payload):
    corpus, graph, cfg, seed = payload
    return _run_once(corpus, graph, cfg, seed)


@dataclass
class ExperimentResult:
    sentence_f: dict
    correlations: dict
    ablation: list
    manifest: dict
    out_dir: Path


def run_experiment(config, out_dir, seed: int | None = None) -> ExperimentResult:
    """Run the pipeline and write sentence_f.csv, document_corr.csv,
    calibration_ablation.csv, and run_manifest.json into out_dir."""
    cfg = _normalize_config(config)
    if seed is not None:
        cfg["seed"] = int(seed)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus = load_corpus(cfg["corpus"])
    graph = PartyGraph.from_file(cfg["party_graph"])

    repeats = int(cfg["repeats"])
    repeat_seeds = [int(s.generate_state(1)[0] % (2**31)) for s in
                    np.random.SeedSequence(cfg["seed"]).spawn(repeats)]
    payloads = [(corpus, graph, cfg, s) for s in repeat_seeds]
    workers = max(1, int(os.environ.get("POLYSCALE_THREADS", "1")))
    if repeats > 1 and workers > 1:
        with ProcessPoolExecutor(max_workers=min(workers, repeats)) as pool:
            runs = list(pool.map(_repeat_worker, payloads))
    else:
        runs = [_repeat_worker(p) for p in payloads]

    sentence_f = _reduce_sentence_f(runs)
    correlations = {
        "model": _mean_pairs([r.model_corr for r in runs]),
        "calibrated": _mean_pairs([r.calibrated_corr for r in runs]),
    }
    ablation = _reduce_ablation(runs)

    sentence_rows = [[lang, _fmt(score), n] for lang, (score, n) in sentence_f.items()]
    if sentence_f:
        avg = float(np.mean([score for score, _ in sentence_f.values()]))
        sentence_rows.append(["avg", _fmt(avg), sum(n for _, n in sentence_f.values())])
    tables = {
        "sentence_f.csv": (["language", "micro_f", "n_sentences"], sentence_rows),
        "document_corr.csv": (
            ["approach", "pearson_r", "spearman_rho"],
            [[name, *map(_fmt, correlations[name])] for name in ("model", "calibrated")]),
        "calibration_ablation.csv": (
            ["groups", "spearman_rile", "spearman_ches"],
            [[label, *map(_fmt, rhos)] for label, *rhos in ablation]),
    }
    files = {name: _write_csv(out_dir / name, header, rows)
             for name, (header, rows) in tables.items()}
    manifest = {
        "package_version": __version__,
        "config": _jsonable(cfg),
        "seed": cfg["seed"],
        "repeat_seeds": repeat_seeds,
        "outputs": {name: _sha256(path) for name, path in sorted(files.items())},
    }
    manifest_path = out_dir / "run_manifest.json"
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return ExperimentResult(sentence_f, correlations, ablation, manifest, out_dir)


def _jsonable(value):
    if isinstance(value, Mapping):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, datetime.date):
        return value.isoformat()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _mean_pairs(pairs):
    return (
        float(np.mean([p[0] for p in pairs])),
        float(np.mean([p[1] for p in pairs])),
    )


def _reduce_sentence_f(runs) -> dict:
    langs = sorted({lang for run in runs for lang in run.language_f})
    out = {}
    for lang in langs:
        values = [run.language_f[lang][0] for run in runs if lang in run.language_f]
        counts = [run.language_f[lang][1] for run in runs if lang in run.language_f]
        out[lang] = (float(np.mean(values)), int(np.sum(counts)))
    return out


def _reduce_ablation(runs) -> list:
    labels = [row[0] for row in runs[0].ablation]
    out = []
    for i, label in enumerate(labels):
        riles = [run.ablation[i][1] for run in runs if run.ablation[i][1] is not None]
        chess = [run.ablation[i][2] for run in runs if run.ablation[i][2] is not None]
        out.append(
            (
                label,
                float(np.mean(riles)) if riles else None,
                float(np.mean(chess)) if chess else None,
            )
        )
    return out


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.12g}"


def _write_csv(path: Path, header: list, rows: list) -> Path:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
