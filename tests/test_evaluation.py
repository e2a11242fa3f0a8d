"""Tests for metrics, splits, tuning, and the experiment runner."""

import csv
import hashlib
import json
from datetime import date

import numpy as np
import pytest

from polyscale import calibration, evaluation
from polyscale.calibration import save_party_graph
from polyscale.corpus import save_corpus
from polyscale.evaluation import (
    SplitSpec,
    average_ranks,
    grid_tune,
    make_split,
    micro_f,
    pearson,
    run_experiment,
    spearman,
)
from polyscale.hiermodel import ModelConfig
from polyscale.synthetic import make_planted_corpus


def brute_force_ranks(values):
    """Independent tie-averaged ranks: positions in the sorted order."""
    out = []
    for v in values:
        less = sum(1 for w in values if w < v)
        ties = sum(1 for w in values if w == v)
        out.append(less + (ties + 1) / 2.0)
    return np.array(out)


class TestMicroF:
    def test_perfect_prediction_scores_one(self):
        labels = ["104", "203", "104", "416"]
        assert micro_f(labels, labels) == 1.0

    def test_known_fixture(self):
        gold = ["a", "a", "b", "b", "c"]
        pred = ["a", "b", "b", "c", "c"]
        assert micro_f(gold, pred) == pytest.approx(3 / 5)

    def test_exclusion_changes_pooled_counts(self):
        gold = ["a", "a", "b", "b", "c"]
        pred = ["a", "b", "b", "c", "c"]
        # without c: tp=2, fp=1 (pred b vs gold a), fn=2 -> F = 4/7
        assert micro_f(gold, pred, exclude={"c"}) == pytest.approx(4 / 7)

    def test_no_exclusion_equals_accuracy(self):
        rng = np.random.default_rng(11)
        labels = [str(c) for c in range(6)]
        for _ in range(50):
            n = int(rng.integers(3, 40))
            gold = [labels[i] for i in rng.integers(len(labels), size=n)]
            pred = [labels[i] for i in rng.integers(len(labels), size=n)]
            accuracy = sum(g == p for g, p in zip(gold, pred)) / n
            assert micro_f(gold, pred) == pytest.approx(accuracy)

    def test_zero_overlap_scores_zero(self):
        assert micro_f(["a", "a"], ["b", "b"]) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            micro_f(["a"], ["a", "b"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            micro_f([], [])

    def test_all_classes_excluded_rejected(self):
        with pytest.raises(ValueError, match="excluded"):
            micro_f(["a"], ["a"], exclude={"a"})


class TestCorrelation:
    def test_pearson_perfect_linear(self):
        x = [1.0, 2.0, 5.0, 9.0]
        assert pearson(x, [2 * v + 3 for v in x]) == pytest.approx(1.0)
        assert pearson(x, [-v for v in x]) == pytest.approx(-1.0)

    def test_pearson_matches_numpy(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(3, 60))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            assert pearson(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-12)

    def test_pearson_constant_input_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_pearson_needs_two_points(self):
        with pytest.raises(ValueError, match="at least 2"):
            pearson([1.0], [2.0])

    def test_average_ranks_fixture(self):
        np.testing.assert_allclose(
            average_ranks([10.0, 20.0, 20.0, 30.0]), [1.0, 2.5, 2.5, 4.0]
        )

    def test_average_ranks_match_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(2, 40))
            values = rng.integers(0, 6, size=n).astype(float)
            np.testing.assert_allclose(
                average_ranks(values), brute_force_ranks(values)
            )

    def test_spearman_monotone_transform_is_one(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=30)
        assert spearman(x, np.exp(x)) == pytest.approx(1.0)

    def test_spearman_with_ties_matches_rank_pearson(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(4, 30))
            x = rng.integers(0, 5, size=n).astype(float)
            y = rng.integers(0, 5, size=n).astype(float)
            if len(set(x.tolist())) < 2 or len(set(y.tolist())) < 2:
                continue
            expected = pearson(brute_force_ranks(x), brute_force_ranks(y))
            assert spearman(x, y) == pytest.approx(expected, abs=1e-12)


@pytest.fixture(scope="module")
def planted():
    return make_planted_corpus(
        seed=13,
        parties_per_country=4,
        n_elections=3,
        annotated_fraction=0.5,
        sentences_per_doc=(3, 6),
    )


def ids_of(split):
    """The manifesto ids of each partition, in order."""
    return [[m.id for m in part] for part in (split.train, split.dev, split.test)]


class TestSplit:
    def test_temporal_honours_cutoff(self, planted):
        split = make_split(planted.corpus, SplitSpec(kind="temporal"), seed=1)
        cutoff = date(2009, 1, 1)
        for m in split.train + split.dev:
            assert m.election_date < cutoff
        for m in split.test:
            assert m.election_date >= cutoff

    def test_partitions_are_disjoint_and_cover(self, planted):
        spec = SplitSpec(kind="random_stratified", test_fraction=0.25)
        split = make_split(planted.corpus, spec, seed=3)
        all_ids = [m.id for m in split.train + split.dev + split.test]
        assert len(all_ids) == len(set(all_ids)) == len(planted.corpus)

    def test_stratified_test_counts_per_country(self, planted):
        spec = SplitSpec(kind="random_stratified", test_fraction=0.25)
        split = make_split(planted.corpus, spec, seed=3)
        by_country = {}
        for m in planted.corpus:
            by_country[m.country] = by_country.get(m.country, 0) + 1
        test_by_country = {}
        for m in split.test:
            test_by_country[m.country] = test_by_country.get(m.country, 0) + 1
        for country, n in by_country.items():
            assert test_by_country.get(country, 0) == round(n * 0.25)

    def test_same_seed_reproduces_split(self, planted):
        spec = SplitSpec(kind="random_stratified", test_fraction=0.3)
        a = make_split(planted.corpus, spec, seed=8)
        b = make_split(planted.corpus, spec, seed=8)
        assert ids_of(a) == ids_of(b)

    def test_different_seed_changes_split(self, planted):
        spec = SplitSpec(kind="random_stratified", test_fraction=0.3)
        a = make_split(planted.corpus, spec, seed=8)
        b = make_split(planted.corpus, spec, seed=9)
        assert ids_of(a) != ids_of(b)

    def test_dev_fraction_zero_gives_empty_dev(self, planted):
        spec = SplitSpec(kind="temporal", dev_fraction=0.0)
        split = make_split(planted.corpus, spec, seed=1)
        assert split.dev == ()

    def test_empty_test_partition_rejected(self, planted):
        spec = SplitSpec(kind="temporal", cutoff=date(2050, 1, 1))
        with pytest.raises(ValueError, match="test partition"):
            make_split(planted.corpus, spec, seed=1)

    def test_empty_training_partition_rejected(self, planted):
        spec = SplitSpec(kind="temporal", cutoff=date(1990, 1, 1))
        with pytest.raises(ValueError, match="training partition"):
            make_split(planted.corpus, spec, seed=1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="split kind"):
            SplitSpec(kind="chronological")


class TestGridTune:
    def test_picks_candidate_and_records_trials(self, planted):
        split = make_split(planted.corpus, SplitSpec(kind="temporal"), seed=2)
        base = ModelConfig(
            embed_dim=8, word_hidden=6, sentence_hidden=6, epochs=2, seed=2
        )
        config, trials = grid_tune(
            split.train,
            split.dev,
            planted.scheme,
            base,
            alphas=(0.2, 0.4),
            gammas=(0.5,),
        )
        assert config.alpha in (0.2, 0.4)
        assert config.gamma == 0.5
        assert config.beta == base.beta
        assert [t.parameter for t in trials] == ["alpha", "alpha", "gamma"]
        assert all(np.isfinite(t.score) for t in trials)
        best_alpha_score = max(t.score for t in trials if t.parameter == "alpha")
        assert config.alpha == next(
            t.value for t in trials if t.score == best_alpha_score
        )

    def test_too_few_dev_documents_rejected(self, planted):
        split = make_split(planted.corpus, SplitSpec(kind="temporal"), seed=2)
        base = ModelConfig(embed_dim=8, word_hidden=6, sentence_hidden=6, epochs=1)
        with pytest.raises(ValueError, match="dev documents"):
            grid_tune(split.train, split.dev[:1], planted.scheme, base, alphas=(0.3,))


@pytest.fixture(scope="module")
def experiment_files(tmp_path_factory, planted):
    root = tmp_path_factory.mktemp("experiment")
    corpus_path = root / "corpus.jsonl"
    graph_path = root / "graph.tsv"
    save_corpus(planted.corpus, corpus_path)
    save_party_graph(planted.party_graph, graph_path)
    return root, corpus_path, graph_path


def experiment_config(corpus_path, graph_path, **overrides):
    cfg = {
        "corpus": str(corpus_path),
        "party_graph": str(graph_path),
        "split": {"kind": "temporal"},
        "model": {
            "embed_dim": 8,
            "word_hidden": 6,
            "sentence_hidden": 6,
            "epochs": 2,
        },
        "stacked_folds": 2,
        "seed": 4,
    }
    cfg.update(overrides)
    return cfg


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def first_run(experiment_files):
    root, corpus_path, graph_path = experiment_files
    cfg = experiment_config(corpus_path, graph_path)
    return cfg, run_experiment(cfg, root / "run1")


class TestRunExperiment:
    def test_emits_all_artifacts(self, first_run):
        _, result = first_run
        for name in (
            "sentence_f.csv",
            "document_corr.csv",
            "calibration_ablation.csv",
            "run_manifest.json",
        ):
            assert (result.out_dir / name).exists()

    def test_sentence_f_has_language_and_avg_rows(self, first_run):
        _, result = first_run
        rows = read_csv(result.out_dir / "sentence_f.csv")
        assert rows[0] == ["language", "micro_f", "n_sentences"]
        languages = [r[0] for r in rows[1:]]
        assert languages[-1] == "avg"
        assert set(languages[:-1]) == {"aa", "bb", "cc"}
        scores = [float(r[1]) for r in rows[1:-1]]
        assert float(rows[-1][1]) == pytest.approx(np.mean(scores))

    def test_document_corr_rows(self, first_run):
        _, result = first_run
        rows = read_csv(result.out_dir / "document_corr.csv")
        assert rows[0] == ["approach", "pearson_r", "spearman_rho"]
        assert [r[0] for r in rows[1:]] == ["model", "calibrated"]
        for row in rows[1:]:
            assert -1.0 <= float(row[1]) <= 1.0
            assert -1.0 <= float(row[2]) <= 1.0

    def test_ablation_has_four_incremental_rows(self, first_run):
        _, result = first_run
        rows = read_csv(result.out_dir / "calibration_ablation.csv")
        assert rows[0] == ["groups", "spearman_rile", "spearman_ches"]
        assert [r[0] for r in rows[1:]] == ["coal", "+esim", "+ploc", "+temp"]
        for row in rows[1:]:
            for cell in row[1:]:
                if cell:
                    assert -1.0 <= float(cell) <= 1.0

    def test_manifest_hashes_match_files(self, first_run):
        _, result = first_run
        manifest = json.loads((result.out_dir / "run_manifest.json").read_text())
        assert manifest["seed"] == 4
        for name, digest in manifest["outputs"].items():
            actual = hashlib.sha256((result.out_dir / name).read_bytes()).hexdigest()
            assert actual == digest

    def test_rerun_is_byte_identical(self, first_run, experiment_files):
        root, _, _ = experiment_files
        cfg, result = first_run
        again = run_experiment(cfg, root / "run1b")
        for name in ("sentence_f.csv", "document_corr.csv", "calibration_ablation.csv"):
            assert (result.out_dir / name).read_bytes() == (
                again.out_dir / name
            ).read_bytes()
        assert result.manifest["outputs"] == again.manifest["outputs"]

    def test_worker_count_does_not_change_results(
        self, experiment_files, monkeypatch
    ):
        root, corpus_path, graph_path = experiment_files
        cfg = experiment_config(
            corpus_path,
            graph_path,
            split={"kind": "random_stratified", "test_fraction": 0.25},
            repeats=2,
        )
        monkeypatch.setenv("POLYSCALE_THREADS", "1")
        serial = run_experiment(cfg, root / "serial")
        monkeypatch.setenv("POLYSCALE_THREADS", "2")
        parallel = run_experiment(cfg, root / "parallel")
        assert serial.manifest["outputs"] == parallel.manifest["outputs"]

    def test_grounds_once_and_writes_what_grounding_each_prefix_writes(
        self, experiment_files, monkeypatch
    ):
        root, corpus_path, graph_path = experiment_files
        cfg = experiment_config(corpus_path, graph_path, calibration={"prior_weight": 1.0})
        grounded = []
        real_ground = calibration.ground

        def counting_ground(program, db):
            grounded.append(len(program.rules))
            return real_ground(program, db)

        monkeypatch.setattr(calibration, "ground", counting_ground)
        once = run_experiment(cfg, root / "ground_once")
        assert grounded == [14]

        # the per-prefix path: calibrate drops the cut and grounds its program
        real_calibrate = evaluation.calibrate

        def ground_each_prefix(db, program, network=None, **kwargs):
            return real_calibrate(db, program, **kwargs)

        monkeypatch.setattr(evaluation, "calibrate", ground_each_prefix)
        grounded.clear()
        each = run_experiment(cfg, root / "ground_each")
        assert grounded == [14, 8, 10, 12, 14]
        for name in ("sentence_f.csv", "document_corr.csv", "calibration_ablation.csv",
                     "run_manifest.json"):
            assert (once.out_dir / name).read_bytes() == (each.out_dir / name).read_bytes()

    def test_missing_corpus_key_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="corpus"):
            run_experiment({"party_graph": "g.tsv"}, tmp_path)

    def test_bad_repeats_rejected(self, experiment_files, tmp_path):
        _, corpus_path, graph_path = experiment_files
        cfg = experiment_config(corpus_path, graph_path, repeats=0)
        with pytest.raises(ValueError, match="repeats"):
            run_experiment(cfg, tmp_path)

    def test_config_from_json_file(self, experiment_files):
        root, corpus_path, graph_path = experiment_files
        cfg = experiment_config(corpus_path, graph_path)
        cfg_path = root / "experiment.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        result = run_experiment(cfg_path, root / "from_file")
        assert (result.out_dir / "run_manifest.json").exists()
