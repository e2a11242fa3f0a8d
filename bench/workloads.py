"""The three benchmark workloads: inputs made from a seed, one operation each.

Every workload builds its inputs with ``make_planted_corpus(seed=...)``, so
the program sees only generated data.  ``setup`` returns the state the timed
operations share; ``run_op`` performs operation ``i`` and returns what the
runner checks: a determinism key and fingerprint, the quality figures the
floors in ``baseline.json`` apply to, and any problem found in the outputs.

Calls into polyscale go through module attributes (``hiermodel.train``,
``calibration.calibrate``) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

from polyscale import calibration, evaluation, hiermodel
from polyscale.corpus import Corpus, save_corpus
from polyscale.synthetic import make_planted_corpus

# c09-shaped corpus: 200 documents over 3 pseudo-languages and coalition blocks
CORPUS = dict(n_countries=4, parties_per_country=5, n_elections=10,
              annotated_fraction=0.6)
MODEL = dict(embed_dim=24, word_hidden=16, sentence_hidden=16, learning_rate=3e-3)
# evaluate grounds the whole database once per ablation prefix, but trains
# only on the elections before its cutoff.  Two countries of six parties,
# short documents and an early cutoff (24 train, 72 test documents) keep one
# run_experiment near 5 s with grounding and MAP the larger part.
EVAL_CORPUS = dict(n_countries=2, parties_per_country=6, n_elections=8,
                   annotated_fraction=0.6, sentences_per_doc=(3, 5))
SPLIT_CUTOFF = date(2022, 1, 2)
EVAL_SPLIT_CUTOFF = date(2010, 1, 2)
ROLLING_START = date(2014, 1, 1)

# A smoke run keeps the code paths and shrinks the work, for the self-test.
SMOKE_CORPUS = dict(n_countries=2, parties_per_country=3, n_elections=5,
                    annotated_fraction=0.6, sentences_per_doc=(2, 4))
SMOKE_MODEL = dict(embed_dim=6, word_hidden=4, sentence_hidden=4, learning_rate=3e-3)
SMOKE_SPLIT_CUTOFF = date(2014, 1, 2)
SMOKE_ROLLING_START = date(2010, 1, 1)

CSV_HEADERS = {
    "sentence_f.csv": ["language", "micro_f", "n_sentences"],
    "document_corr.csv": ["approach", "pearson_r", "spearman_rho"],
    "calibration_ablation.csv": ["groups", "spearman_rile", "spearman_ches"],
}


@dataclass
class Outcome:
    key: str  # operations with the same key must give the same fingerprint
    fingerprint: dict
    quality: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


def corpus_digest(corpus: Corpus) -> str:
    return _digest(*(
        (m.id, m.rile_gold, m.ches_gold, [(s.tokens, s.gold_code) for s in m.sentences])
        for m in corpus.manifestos
    ))


def predictions_digest(preds) -> str:
    return _digest(*((p.manifesto_id, p.rile_hat, p.codes) for p in preds))


def _spearman_gain(model: dict, calibrated: dict, theta: dict) -> float:
    ids = sorted(theta)
    return (evaluation.spearman([calibrated[i] for i in ids], [theta[i] for i in ids])
            - evaluation.spearman([model[i] for i in ids], [theta[i] for i in ids]))


class Fit:
    """Train on the elections before the cutoff, then score every document:
    the test split for quality, the training split for twice the predict
    samples."""

    name = "fit"
    counts_calls = True  # failed_share counts train and predict calls
    setup_repeats = 5
    setup_between_ops = True  # set-up is short: time it again after every op
    epochs = 3  # at 2 epochs some seeds still give an anti-correlated model
    corpus = CORPUS
    cutoff = SPLIT_CUTOFF

    def __init__(self, smoke: bool):
        self.smoke = smoke

    def min_ops(self, state: dict) -> int:
        return 1

    def _split(self, seed: int):
        planted = make_planted_corpus(
            seed=seed, **(SMOKE_CORPUS if self.smoke else self.corpus))
        spec = evaluation.SplitSpec(
            kind="temporal", dev_fraction=0.0,
            cutoff=SMOKE_SPLIT_CUTOFF if self.smoke else self.cutoff,
        )
        return planted, evaluation.make_split(planted.corpus, spec, seed=seed)

    def setup(self, seed: int, work_dir: Path) -> dict:
        planted, split = self._split(seed)
        config = hiermodel.ModelConfig(
            **(SMOKE_MODEL if self.smoke else MODEL), epochs=self.epochs, seed=seed
        )
        return {
            "inputs": corpus_digest(planted.corpus),
            "fit": Corpus(manifestos=split.train, scheme=planted.corpus.scheme),
            "test": split.test,
            "config": config,
        }

    def run_op(self, i: int, state: dict, tracer) -> Outcome:
        params, logs = hiermodel.train(state["fit"], state["config"])
        preds = hiermodel.predict(params, state["test"])
        hiermodel.predict(params, state["fit"])
        r = evaluation.pearson([p.rile_hat for p in preds],
                               [m.rile_gold for m in state["test"]])
        return Outcome(
            key="fit",
            fingerprint={
                "final_loss": repr(logs[-1].mean_loss),
                "predictions": predictions_digest(preds),
            },
            quality={"doc_pearson": r},
        )


class Evaluate(Fit):
    """``run_experiment`` on files written in set-up, into a fresh directory."""

    name = "evaluate"
    corpus = EVAL_CORPUS
    cutoff = EVAL_SPLIT_CUTOFF
    epochs = 2
    stacked_folds = 2

    def setup(self, seed: int, work_dir: Path) -> dict:
        planted, split = self._split(seed)
        inputs = work_dir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        save_corpus(planted.corpus, inputs / "corpus.jsonl")
        calibration.save_party_graph(planted.party_graph, inputs / "graph.tsv")
        cutoff = SMOKE_SPLIT_CUTOFF if self.smoke else self.cutoff
        config = {
            "corpus": str(inputs / "corpus.jsonl"),
            "party_graph": str(inputs / "graph.tsv"),
            "split": {"kind": "temporal", "cutoff": cutoff.isoformat(),
                      "dev_fraction": 0.0},
            "model": {**(SMOKE_MODEL if self.smoke else MODEL), "epochs": self.epochs},
            "stacked_folds": self.stacked_folds,
            "calibration": {"prior_weight": 1.0},
            "seed": seed,
        }
        return {
            "inputs": corpus_digest(planted.corpus),
            "config": config,
            "work_dir": work_dir,
            "theta": {m.id: m.ches_gold for m in split.test},
        }

    def run_op(self, i: int, state: dict, tracer) -> Outcome:
        out_dir = state["work_dir"] / f"out-{i}"
        try:
            result = evaluation.run_experiment(state["config"], out_dir)
            problems = _check_outputs(out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        gain = _spearman_gain(tracer.last["evaluation.predict"],
                              tracer.last["evaluation.calibrate"], state["theta"])
        return Outcome(
            key="evaluate",
            fingerprint={"outputs": result.manifest["outputs"]},
            quality={"doc_pearson": result.correlations["model"][0],
                     "calib_spearman_gain": gain},
            problems=problems,
        )


def _check_outputs(out_dir: Path) -> list:
    problems = []
    for name, header in CSV_HEADERS.items():
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name} is missing")
            continue
        with open(path, newline="", encoding="utf-8") as fh:
            first = next(csv.reader(fh), None)
        if first != header:
            problems.append(f"{name} header {first} != {header}")
    manifest = out_dir / "run_manifest.json"
    if not manifest.is_file():
        problems.append("run_manifest.json is missing")
    elif set(json.loads(manifest.read_text())["outputs"]) != set(CSV_HEADERS):
        problems.append("run_manifest.json does not hash the three CSV files")
    return problems


class Rolling:
    """One caller in a closed loop: each election is predicted, then
    calibrated against every earlier manifesto, and its calibrated positions
    become context for the next one.  A pass over all elections restarts
    from the set-up context, so every pass repeats the same work."""

    name = "rolling"
    counts_calls = False  # failed_share counts elections
    setup_repeats = 3
    setup_between_ops = False  # set-up trains a model; ops are short elections
    epochs = 3  # at 2 epochs calibration lowers the Spearman on average

    def __init__(self, smoke: bool):
        self.smoke = smoke

    def min_ops(self, state: dict) -> int:
        return len(state["elections"])  # one full pass

    def setup(self, seed: int, work_dir: Path) -> dict:
        planted = make_planted_corpus(seed=seed, **(SMOKE_CORPUS if self.smoke else CORPUS))
        start = SMOKE_ROLLING_START if self.smoke else ROLLING_START
        docs = planted.corpus.manifestos
        history = tuple(m for m in docs if m.election_date < start)
        years = sorted({m.election_date.year for m in docs if m.election_date >= start})
        elections = [tuple(m for m in docs if m.election_date.year == y) for y in years]
        config = hiermodel.ModelConfig(
            **(SMOKE_MODEL if self.smoke else MODEL), epochs=self.epochs, seed=seed
        )
        scheme = planted.corpus.scheme
        params, _ = hiermodel.train(Corpus(manifestos=history, scheme=scheme), config)
        context = {
            p.manifesto_id: (p.rile_hat + 1.0) / 2.0
            for p in hiermodel.predict(params, history)
        }
        return {
            "inputs": corpus_digest(planted.corpus),
            "params": params,
            "scheme": scheme,
            "graph": planted.party_graph,
            "program": calibration.default_program(),
            "calib": calibration.CalibrationConfig(prior_weight=1.0),
            "history": history,
            "elections": elections,
            "setup_context": context,
        }

    def run_op(self, i: int, state: dict, tracer) -> Outcome:
        k = i % len(state["elections"])
        if k == 0:
            state["pass"] = {"context": dict(state["setup_context"]),
                             "history": list(state["history"]),
                             "model": {}, "calibrated": {}, "gold": {}, "theta": {}}
        run = state["pass"]
        election = state["elections"][k]
        preds = hiermodel.predict(state["params"], election)
        db = calibration.build_database(
            Corpus(manifestos=election + tuple(run["history"]), scheme=state["scheme"]),
            preds, state["graph"], state["calib"], run["context"],
        )
        result = calibration.calibrate(db, state["program"], config=state["calib"])
        run["context"].update(result.positions)
        run["history"].extend(election)
        for m, p in zip(election, preds):
            run["model"][m.id] = p.rile_hat
            run["calibrated"][m.id] = result.rile[m.id]
            run["gold"][m.id] = m.rile_gold
            run["theta"][m.id] = m.ches_gold
        outcome = Outcome(
            key=f"election-{election[0].election_date.year}",
            fingerprint={"positions": _digest(sorted(result.positions.items()))},
        )
        if k == len(state["elections"]) - 1:
            ids = sorted(run["gold"])
            outcome.quality = {
                "doc_pearson": evaluation.pearson(
                    [run["model"][m] for m in ids], [run["gold"][m] for m in ids]),
                "calib_spearman_gain": _spearman_gain(
                    run["model"], run["calibrated"], run["theta"]),
            }
        return outcome


WORKLOADS = {w.name: w for w in (Fit, Evaluate, Rolling)}
