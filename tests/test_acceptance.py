"""Acceptance gate: one test per shipping criterion, tolerances pinned.

Each test prints a single PASS line with the measured values next to the
pinned bound, so a log scrape shows exactly how much margin each criterion
passed with.  Budgets are wall-clock on one core.
"""

import json
import time
from collections import Counter
from datetime import date
from pathlib import Path

import numpy as np

import polyscale.diffcore as dc
from polyscale.calibration import (
    CalibrationConfig,
    build_database,
    calibrate,
    default_program,
    save_party_graph,
    stacked_estimates,
)
from polyscale.corpus import (
    Corpus,
    LabelScheme,
    Manifesto,
    Polarity,
    Sentence,
    compute_rile,
    save_corpus,
)
from polyscale.embedalign import BilingualLexicon, EmbeddingTable, align
from polyscale.evaluation import (
    SplitSpec,
    make_split,
    micro_f,
    pearson,
    run_experiment,
    spearman,
)
from polyscale.hiermodel import ModelConfig, document_loss, predict, train
from polyscale.pslengine import (
    GroundNetwork,
    load_program,
    map_inference,
    parse_program,
    print_program,
)
import reference_ops as ops
from polyscale.synthetic import make_planted_corpus
from reference_grounder import GroundLiteral, GroundRule, network_of
from reference_hinge import distance_to_satisfaction
from reference_model import combine_losses

RULES_PATH = Path(__file__).resolve().parents[1] / "src/polyscale/assets/position_rules.psl"


def _report(line: str) -> None:
    print(line, flush=True)


# --- shared small-model fixture (criteria 1 and 2) ---

def _tiny_corpus() -> Corpus:
    """Three documents, 49 distinct tokens, so the capped vocabulary is
    exactly 50 once the per-language unknown slot is added."""
    scheme = LabelScheme.default()
    lengths = [(6, 6, 5), (6, 6, 5), (5, 5, 5)]
    codes = [("103", "000", "104"), ("104", "201", "101"), ("105", "102", "203")]
    docs = []
    counter = 0
    for d, (lens, doc_codes) in enumerate(zip(lengths, codes)):
        sentences = []
        for s, (n, code) in enumerate(zip(lens, doc_codes)):
            tokens = tuple(f"w{counter + t:02d}" for t in range(n))
            counter += n
            sentences.append(
                Sentence(text=" ".join(tokens), tokens=tokens,
                         position_index=s + 1, gold_code=code)
            )
        docs.append(
            Manifesto(
                id=f"fx-{d}", party_id=f"AA-P{d + 1}", country="AA",
                language="aa", election_date=date(2010, 5, 1),
                sentences=tuple(sentences),
                rile_gold=compute_rile(doc_codes, scheme), ches_gold=None,
            )
        )
    assert counter == 49
    return Corpus(manifestos=tuple(docs), scheme=scheme)


def _tiny_model(config: ModelConfig):
    corpus = _tiny_corpus()
    params, _ = train(corpus, config)
    return corpus, params


def test_c01_gradient_fidelity():
    """Analytic vs central finite-difference gradients over every parameter
    of the full hierarchical model: max relative error <= 1e-4, under 60 s."""
    config = ModelConfig(embed_dim=6, word_hidden=8, sentence_hidden=8,
                         epochs=0, vocab_cap=50, seed=3)
    assert config.alpha != 0 and config.beta != 0 and config.gamma != 0
    corpus, params = _tiny_model(config)
    assert len(params.vocab) == 50

    def loss_fn():
        total = None
        for doc in corpus.manifestos:
            loss, _ = document_loss(params, doc)
            total = loss if total is None else ops.add(total, loss)
        return total

    start = time.perf_counter()
    worst = dc.check_gradients(loss_fn, params.store, epsilon=3e-3)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-4
    assert elapsed < 60.0
    _report(
        f"PASS c01 gradient fidelity: max rel err {worst:.3e} <= 1e-4 over "
        f"{params.store.n_values()} parameters in {elapsed:.1f}s (< 60s)"
    )


def test_c02_loss_algebra():
    """Coefficient algebra of the combined objective, checked bitwise, plus
    the worked composition value 4.8 at the default weights."""
    combined = combine_losses(
        dc.constant(1.0), dc.constant(2.0), dc.constant(3.0), dc.constant(4.0),
        alpha=0.3, beta=0.1, gamma=0.7,
    )
    assert float(combined.value) == 4.8

    config = ModelConfig(embed_dim=6, word_hidden=8, sentence_hidden=8,
                         epochs=0, vocab_cap=50, seed=3)
    corpus, params = _tiny_model(config)
    doc = corpus.manifestos[0]

    sentence_only = ModelConfig(**{**config.__dict__, "alpha": 1.0, "beta": 0.0, "gamma": 0.0})
    total, parts = document_loss(params, doc, sentence_only)
    assert float(total.value) == parts["sentence"]

    joint = ModelConfig(**{**config.__dict__, "beta": 0.0, "gamma": 0.0})
    total_j, parts_j = document_loss(params, doc, joint)
    expected = 0.3 * parts_j["sentence"] + 0.7 * parts_j["doc"]
    assert float(total_j.value) == expected
    _report(
        "PASS c02 loss algebra: alpha=1,beta=gamma=0 equals the sentence loss "
        "bitwise; beta=gamma=0 equals the two-part joint loss bitwise; "
        f"worked composition value {float(combined.value)} == 4.8"
    )


def test_c03_rile_oracle():
    """compute_rile equals an independent counting oracle exactly on 1000
    random label multisets, and negates exactly under a left/right swap."""
    scheme = LabelScheme.default()
    lefts = sorted(c for c in scheme.codes if scheme.polarity_of(c) is Polarity.LEFT)
    rights = sorted(c for c in scheme.codes if scheme.polarity_of(c) is Polarity.RIGHT)
    swap = {**dict(zip(lefts, rights)), **dict(zip(rights, lefts))}
    rng = np.random.default_rng(303)
    codes = np.array(scheme.codes)
    for _ in range(1000):
        labels = [str(c) for c in rng.choice(codes, size=int(rng.integers(1, 61)))]
        counts = Counter(scheme.polarity_of(c) for c in labels)
        oracle = (counts[Polarity.RIGHT] - counts[Polarity.LEFT]) / len(labels)
        value = compute_rile(labels, scheme)
        assert value == oracle
        swapped = [swap.get(c, c) for c in labels]
        assert compute_rile(swapped, scheme) == -value
    _report(
        "PASS c03 rile oracle: 1000 random multisets match the counting "
        "oracle exactly, and the left/right swap negates the score exactly"
    )


def _observed(value: float, negated: bool, tag: str) -> GroundLiteral:
    return GroundLiteral(predicate="obs", args=(tag,), negated=negated,
                         free_index=None, observed_value=float(value))


def test_c04_hinge_distance_suite():
    """distance_to_satisfaction on two-atom bodies matches the closed form
    max(v1 + v2 - v_head - 1, 0) exactly, stays in [0, 1], and is weakly
    monotone: increasing in body truth, decreasing in head truth."""
    rng = np.random.default_rng(404)
    empty = np.empty(0)
    for t in range(10_000):
        v1, v2, vh = rng.uniform(0.0, 1.0, 3)
        n1, n2, nh = rng.uniform(size=3) < 0.5
        rule = GroundRule(
            weight=1.0, exponent=1,
            body=(_observed(v1, n1, "a"), _observed(v2, n2, "b")),
            head=_observed(vh, nh, "h"),
        )
        e1 = 1.0 - v1 if n1 else v1
        e2 = 1.0 - v2 if n2 else v2
        eh = 1.0 - vh if nh else vh
        closed_form = max(e1 + e2 - eh - 1.0, 0.0)
        d = distance_to_satisfaction(rule, empty)
        assert d == closed_form
        assert 0.0 <= d <= 1.0

        # raise the first body atom's truth and lower the head's truth
        v1_up = min(1.0, v1 + 0.1) if not n1 else max(0.0, v1 - 0.1)
        vh_dn = max(0.0, vh - 0.1) if not nh else min(1.0, vh + 0.1)
        harder = GroundRule(
            weight=1.0, exponent=1,
            body=(_observed(v1_up, n1, "a"), _observed(v2, n2, "b")),
            head=_observed(vh_dn, nh, "h"),
        )
        assert distance_to_satisfaction(harder, empty) >= d
    _report(
        "PASS c04 hinge distance: 10000 valuations match the two-atom closed "
        "form exactly, lie in [0, 1], and move monotonely with body and head"
    )


def _random_network(rng: np.random.Generator) -> GroundNetwork:
    n_free = int(rng.integers(1, 4))
    free_atoms = tuple(("pos", (f"x{i}",)) for i in range(n_free))
    rules = []
    for r in range(int(rng.integers(1, 7))):
        literals = []
        for j in range(int(rng.integers(1, 3)) + 1):  # body plus head
            negated = bool(rng.uniform() < 0.4)
            if rng.uniform() < 0.6:
                idx = int(rng.integers(n_free))
                literals.append(GroundLiteral(
                    predicate="pos", args=(f"x{idx}",), negated=negated,
                    free_index=idx, observed_value=None,
                ))
            else:
                literals.append(_observed(rng.uniform(), negated, f"o{r}{j}"))
        rules.append(GroundRule(
            weight=float(rng.uniform(0.1, 3.0)),
            exponent=int(rng.choice((1, 2))),
            body=tuple(literals[:-1]),
            head=literals[-1],
        ))
    return network_of(free_atoms, rng.uniform(0.0, 1.0, n_free), rules)


def _rule_affine(rule: GroundRule, n_free: int) -> tuple[np.ndarray, float]:
    """Independent reconstruction of one rule's hinge argument as coef . x + const."""
    coef = np.zeros(n_free)
    const = -(len(rule.body) - 1.0)
    for lit in rule.body:
        if lit.free_index is not None:
            coef[lit.free_index] += -1.0 if lit.negated else 1.0
            const += 1.0 if lit.negated else 0.0
        else:
            const += 1.0 - lit.observed_value if lit.negated else lit.observed_value
    head = rule.head
    if head.free_index is not None:
        coef[head.free_index] += 1.0 if head.negated else -1.0
        const += -1.0 if head.negated else 0.0
    else:
        const -= 1.0 - head.observed_value if head.negated else head.observed_value
    return coef, const


def _grid_minimum(network: GroundNetwork, grids: dict) -> float:
    k = len(network.free_atoms)
    if k not in grids:
        axis = np.linspace(0.0, 1.0, 101)
        mesh = np.meshgrid(*([axis] * k), indexing="ij")
        grids[k] = np.stack(mesh, axis=-1).reshape(-1, k)
    points = grids[k]
    energy = np.zeros(points.shape[0])
    for rule in network.rules:
        coef, const = _rule_affine(rule, k)
        hinge = np.clip(points @ coef + const, 0.0, None)
        energy += rule.weight * hinge ** rule.exponent
    return float(energy.min())


def test_c05_map_oracle():
    """Solver energy is within 1e-3 of an exhaustive 0.01-step grid search on
    100 seeded random networks (<= 3 free variables, <= 6 rules, mixed
    exponents), in under 120 s total."""
    rng = np.random.default_rng(505)
    grids: dict = {}
    start = time.perf_counter()
    worst_gap = -np.inf
    for _ in range(100):
        network = _random_network(rng)
        result = map_inference(network)
        reference = _grid_minimum(network, grids)
        gap = result.energy - reference
        worst_gap = max(worst_gap, gap)
        assert result.energy <= reference + 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(
        f"PASS c05 map oracle: 100 networks, worst solver-minus-grid gap "
        f"{worst_gap:.2e} <= 1e-3, total {elapsed:.1f}s (< 120s)"
    )


def test_c06_energy_convexity():
    """1000 Jensen inequality checks on random network energies, slack 1e-12."""
    rng = np.random.default_rng(606)
    checked = 0
    while checked < 1000:
        network = _random_network(rng)
        k = len(network.free_atoms)
        for _ in range(20):
            x = rng.uniform(0.0, 1.0, k)
            y = rng.uniform(0.0, 1.0, k)
            t = float(rng.uniform())
            mixed = network.energy(t * x + (1.0 - t) * y)
            bound = t * network.energy(x) + (1.0 - t) * network.energy(y)
            assert mixed <= bound + 1e-12
            checked += 1
            if checked == 1000:
                break
    _report(
        "PASS c06 convexity: 1000 Jensen checks on random network energies "
        "hold within 1e-12"
    )


def test_c07_procrustes_recovery():
    """align() recovers a planted rotation: Frobenius residual and
    orthogonality deviation both <= 1e-6."""
    rng = np.random.default_rng(707)
    words = [f"w{i}" for i in range(30)]
    source = rng.normal(size=(30, 8))
    rotation, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    other = EmbeddingTable(words, source)
    english = EmbeddingTable(words, source @ rotation)
    lexicon = BilingualLexicon(tuple((w, w) for w in words))
    projection = align(other, english, lexicon)
    residual = float(np.linalg.norm(source @ projection.matrix - english.matrix))
    ortho = float(np.abs(projection.matrix.T @ projection.matrix - np.eye(8)).max())
    assert projection.n_pairs_used == 30
    assert residual <= 1e-6
    assert ortho <= 1e-6
    _report(
        f"PASS c07 procrustes: Frobenius residual {residual:.2e} <= 1e-6, "
        f"orthogonality deviation {ortho:.2e} <= 1e-6"
    )


def test_c08_shipped_program_round_trip():
    """The shipped calibration program parses to exactly 14 rules and
    survives parse -> print -> parse unchanged."""
    program = load_program(RULES_PATH)
    assert len(program.rules) == 14
    assert program == default_program()
    reparsed = parse_program(print_program(program))
    assert reparsed == program
    assert len(reparsed.rules) == 14
    _report(
        "PASS c08 program round trip: 14 rules, parse -> print -> parse "
        "reproduces an identical structure"
    )


def test_c09_synthetic_end_to_end():
    """Planted 200-document corpus over 3 pseudo-languages with coalition
    blocks: the trained model beats 2x the majority micro-F, correlates with
    the planted scores at r >= 0.8, and calibration strictly improves the
    Spearman rank agreement with the planted positions.  Under 600 s."""
    start = time.perf_counter()
    planted = make_planted_corpus(seed=11, n_countries=4, parties_per_country=5,
                                  n_elections=10, annotated_fraction=0.6)
    corpus = planted.corpus
    assert len(corpus.manifestos) == 200
    assert len({m.language for m in corpus.manifestos}) == 3

    spec = SplitSpec(kind="temporal", cutoff=date(2022, 1, 2), dev_fraction=0.0)
    split = make_split(corpus, spec, seed=11)
    fit_corpus = Corpus(manifestos=split.train, scheme=corpus.scheme)
    config = ModelConfig(embed_dim=24, word_hidden=16, sentence_hidden=16,
                         epochs=28, learning_rate=3e-3, seed=11)
    params, _ = train(fit_corpus, config)
    preds = predict(params, split.test)

    gold_codes, pred_codes = [], []
    for m, p in zip(split.test, preds):
        for sentence, code in zip(m.sentences, p.codes):
            if sentence.gold_code is not None:
                gold_codes.append(sentence.gold_code)
                pred_codes.append(code)
    train_counts = Counter(
        s.gold_code for m in split.train for s in m.sentences if s.gold_code
    )
    majority_code = train_counts.most_common(1)[0][0]
    f_model = micro_f(gold_codes, pred_codes)
    f_majority = micro_f(gold_codes, [majority_code] * len(gold_codes))
    assert f_model >= 2.0 * f_majority

    r = pearson([p.rile_hat for p in preds], [m.rile_gold for m in split.test])
    assert r >= 0.8

    theta = {m.id: m.ches_gold for m in split.test}
    rho_model = spearman(
        [p.rile_hat for p in preds], [theta[p.manifesto_id] for p in preds]
    )
    calib = CalibrationConfig(prior_weight=1.0)
    context = {
        mid: est.position
        for mid, est in stacked_estimates(fit_corpus, config, k=3).items()
    }
    db_corpus = Corpus(manifestos=split.test + split.train, scheme=corpus.scheme)
    db = build_database(db_corpus, preds, planted.party_graph, calib, context)
    result = calibrate(db, default_program(), config=calib)
    rho_calibrated = spearman(
        [result.rile[m.id] for m in split.test],
        [theta[m.id] for m in split.test],
    )
    assert rho_calibrated > rho_model

    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report(
        f"PASS c09 synthetic end to end: micro-F {f_model:.3f} >= 2x majority "
        f"{f_majority:.3f} (ratio {f_model / f_majority:.1f}), pearson "
        f"{r:.3f} >= 0.8, spearman {rho_model:.3f} -> {rho_calibrated:.3f} "
        f"after calibration, total {elapsed:.0f}s (< 600s)"
    )


def test_c10_reference_scale_reporting(tmp_path):
    """Reference-scale scores (sentence avg F 0.48, document r 0.50 and
    rho 0.63, calibrated rho 0.61 against expert surveys) need the licensed
    manifesto corpus, survey data, and pretrained embeddings, none of which
    ship here.  What is checked instead: the harness computes exactly those
    metrics and emits the three tables in those shapes, so the numbers are
    reproducible by a user who supplies the data.  Acceptance rests on
    criteria 1-9."""
    planted = make_planted_corpus(seed=13, parties_per_country=4, n_elections=3,
                                  annotated_fraction=0.5, sentences_per_doc=(3, 6))
    corpus_path = tmp_path / "corpus.jsonl"
    graph_path = tmp_path / "graph.tsv"
    save_corpus(planted.corpus, corpus_path)
    save_party_graph(planted.party_graph, graph_path)
    config = {
        "corpus": str(corpus_path),
        "party_graph": str(graph_path),
        "split": {"kind": "temporal"},
        "model": {"embed_dim": 8, "word_hidden": 6, "sentence_hidden": 6, "epochs": 2},
        "stacked_folds": 2,
        "seed": 4,
    }
    result = run_experiment(config, tmp_path / "run")

    def rows(name):
        return [
            line.split(",")
            for line in (result.out_dir / name).read_text().splitlines()
        ]

    sentence_rows = rows("sentence_f.csv")
    assert sentence_rows[0] == ["language", "micro_f", "n_sentences"]
    assert sentence_rows[-1][0] == "avg"
    assert len(sentence_rows) >= 3  # at least one language plus the average

    corr_rows = rows("document_corr.csv")
    assert corr_rows[0] == ["approach", "pearson_r", "spearman_rho"]
    assert [r[0] for r in corr_rows[1:]] == ["model", "calibrated"]

    ablation_rows = rows("calibration_ablation.csv")
    assert ablation_rows[0] == ["groups", "spearman_rile", "spearman_ches"]
    assert [r[0] for r in ablation_rows[1:]] == ["coal", "+esim", "+ploc", "+temp"]

    manifest = json.loads((result.out_dir / "run_manifest.json").read_text())
    assert set(manifest["outputs"]) == {
        "sentence_f.csv", "document_corr.csv", "calibration_ablation.csv",
    }
    _report(
        "PASS c10 reference-scale reporting: per-language sentence F, document "
        "correlation, and calibration ablation tables are emitted in the "
        "reference shapes; reproducing the reference-scale numbers requires "
        "licensed corpora and pretrained embeddings, so acceptance rests on "
        "criteria 1-9"
    )
