"""End-to-end tests for the command-line interface.

Each test drives ``main`` in process and checks exit codes and artifacts.
A tiny model checkpoint is trained once per module and shared.
"""

import json

import numpy as np
import pytest

from polyscale import pslengine
from polyscale.calibration import save_party_graph
from polyscale.cli import main
from polyscale.corpus import save_corpus
from polyscale.embedalign import EmbeddingTable, load_embeddings, save_embeddings
from polyscale.synthetic import make_planted_corpus
from reference_grounder import reference_ground


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    pc = make_planted_corpus(
        seed=3,
        parties_per_country=4,
        n_elections=3,
        annotated_fraction=0.5,
        sentences_per_doc=(3, 6),
    )
    save_corpus(pc.corpus, root / "corpus.jsonl")
    save_party_graph(pc.party_graph, root / "graph.tsv")
    config = {
        "embed_dim": 8,
        "word_hidden": 6,
        "sentence_hidden": 6,
        "epochs": 2,
        "seed": 1,
    }
    (root / "model.json").write_text(json.dumps(config), encoding="utf-8")
    code = main([
        "train",
        "--corpus", str(root / "corpus.jsonl"),
        "--output", str(root / "model.pscl"),
        "--config", str(root / "model.json"),
    ])
    assert code == 0
    return root, pc


ATOMS = """\
# two friends, one anchored
obs Friend a b 1.0
obs Anchor a 0.9
target pos a
target pos b init=0.5
"""

RULES = """\
open pos/1
1.0 : Friend(x, y) & pos(x) -> pos(y)
1.0 : Anchor(x) -> pos(x)
"""


@pytest.fixture(scope="module")
def logic_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("logic")
    (root / "rules.psl").write_text(RULES, encoding="utf-8")
    (root / "atoms.txt").write_text(ATOMS, encoding="utf-8")
    return root


class TestAlign:
    def test_recovers_planted_rotation(self, tmp_path):
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        base = rng.normal(size=(15, 6))
        english = EmbeddingTable([f"en{i}" for i in range(15)], base)
        other = EmbeddingTable([f"xx{i}" for i in range(15)], base @ q.T)
        save_embeddings(english, tmp_path / "en.txt")
        save_embeddings(other, tmp_path / "xx.txt")
        (tmp_path / "lex.tsv").write_text(
            "".join(f"xx{i}\ten{i}\n" for i in range(15)), encoding="utf-8"
        )
        code = main([
            "align",
            "--other", str(tmp_path / "xx.txt"),
            "--english", str(tmp_path / "en.txt"),
            "--lexicon", str(tmp_path / "lex.tsv"),
            "--output", str(tmp_path / "proj.npz"),
            "--apply", str(tmp_path / "projected.txt"),
        ])
        assert code == 0
        stored = np.load(tmp_path / "proj.npz")
        np.testing.assert_allclose(stored["matrix"], q, atol=1e-8)
        assert int(stored["n_pairs_used"]) == 15
        projected = load_embeddings(tmp_path / "projected.txt")
        np.testing.assert_allclose(projected.matrix, base, atol=1e-6)

    def test_missing_table_is_usage_error(self, tmp_path):
        code = main([
            "align",
            "--other", str(tmp_path / "absent.txt"),
            "--english", str(tmp_path / "absent.txt"),
            "--lexicon", str(tmp_path / "absent.tsv"),
            "--output", str(tmp_path / "p.npz"),
        ])
        assert code == 2


class TestTrainPredict:
    def test_checkpoint_written(self, workdir):
        root, _ = workdir
        assert (root / "model.pscl").stat().st_size > 0

    def test_predict_writes_records(self, workdir, tmp_path):
        root, pc = workdir
        out = tmp_path / "preds.json"
        code = main([
            "predict",
            "--model", str(root / "model.pscl"),
            "--corpus", str(root / "corpus.jsonl"),
            "--output", str(out),
        ])
        assert code == 0
        records = json.loads(out.read_text())
        assert len(records) == len(pc.corpus)
        first = records[0]
        assert set(first) == {
            "manifesto_id", "rile", "rile_scaled", "codes", "polarities",
        }
        assert first["rile_scaled"] == round(first["rile"] * 100.0, 9)
        assert all(p in ("left", "right", "neutral") for p in first["polarities"])

    def test_vectors_flag_adds_doc_vector(self, workdir, tmp_path):
        root, _ = workdir
        out = tmp_path / "preds.json"
        code = main([
            "predict",
            "--model", str(root / "model.pscl"),
            "--corpus", str(root / "corpus.jsonl"),
            "--output", str(out),
            "--vectors",
        ])
        assert code == 0
        records = json.loads(out.read_text())
        assert "doc_vector" in records[0]
        assert len(records[0]["doc_vector"]) == 57 + 2 * 6

    def test_invalid_config_value_is_usage_error(self, workdir, tmp_path):
        root, _ = workdir
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"alpha": 2.0}), encoding="utf-8")
        code = main([
            "train",
            "--corpus", str(root / "corpus.jsonl"),
            "--output", str(tmp_path / "m.pscl"),
            "--config", str(bad),
        ])
        assert code == 2


class TestGroundInfer:
    def test_ground_lists_instantiated_rules(self, logic_files, capsys):
        code = main([
            "ground",
            "--rules", str(logic_files / "rules.psl"),
            "--atoms", str(logic_files / "atoms.txt"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "# ground rules: 2" in out
        assert "Friend(a, b) & pos(a) -> pos(b)" in out

    def test_negated_literals_print_like_the_program(self, tmp_path, capsys):
        (tmp_path / "rules.psl").write_text(
            "open pos/1\n0.5 : Grudge(x, y) & !Calm(x) & pos(x) -> !pos(y) ^1\n",
            encoding="utf-8")
        (tmp_path / "atoms.txt").write_text(
            "obs Grudge a b 1.0\nobs Calm a 0.25\ntarget pos a\ntarget pos b\n",
            encoding="utf-8")
        code = main(["ground", "--rules", str(tmp_path / "rules.psl"),
                     "--atoms", str(tmp_path / "atoms.txt")])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[2:] == [
            "0.5 ^1 : Grudge(a, b) & !Calm(a) & pos(a) -> !pos(b)"]

    def test_ground_output_writes_what_stdout_shows(self, logic_files, tmp_path, capsys):
        argv = ["ground", "--rules", str(logic_files / "rules.psl"),
                "--atoms", str(logic_files / "atoms.txt")]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "ground.txt"
        assert main(argv + ["--output", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == printed
        assert capsys.readouterr().out == f"2 ground rules over 2 free atoms -> {out}\n"

    def test_infer_reaches_the_anchored_fixpoint(self, logic_files, tmp_path):
        out = tmp_path / "values.tsv"
        code = main([
            "infer",
            "--rules", str(logic_files / "rules.psl"),
            "--atoms", str(logic_files / "atoms.txt"),
            "--output", str(out),
        ])
        assert code == 0
        values = {}
        for line in out.read_text().splitlines():
            if line.startswith("#"):
                continue
            atom, value = line.split("\t")
            values[atom] = float(value)
        assert values["pos(a)"] == pytest.approx(0.9, abs=1e-3)
        assert values["pos(b)"] == pytest.approx(0.9, abs=1e-3)

    @pytest.mark.parametrize("command", ["ground", "infer"])
    def test_output_matches_reference_grounder(self, logic_files, capsys, monkeypatch,
                                               command):
        argv = [
            command,
            "--rules", str(logic_files / "rules.psl"),
            "--atoms", str(logic_files / "atoms.txt"),
        ]
        assert main(argv) == 0
        got = capsys.readouterr().out
        monkeypatch.setattr(pslengine, "ground", reference_ground)
        assert main(argv) == 0
        assert capsys.readouterr().out == got

    def test_bad_atom_line_reports_location(self, logic_files, tmp_path, capsys):
        atoms = tmp_path / "broken.txt"
        atoms.write_text("obs Friend a b notanumber\n", encoding="utf-8")
        code = main([
            "infer",
            "--rules", str(logic_files / "rules.psl"),
            "--atoms", str(atoms),
        ])
        assert code == 2
        assert ":1" in capsys.readouterr().err

    @pytest.mark.parametrize("lines, named", [
        ("obs Friend a b 1.0\nobs Friend a b 0.5\n", "('Friend', ('a', 'b')) observed twice"),
        # obs lines are stored after the whole file is read, so the target
        # comes first and the obs line is the one refused
        ("obs pos a 0.5\ntarget pos a\n", "('pos', ('a',)) is already a target"),
        ("target pos a\nobs pos a 0.5\n", "('pos', ('a',)) is already a target"),
        ("obs Anchor a 1.5\n", "got 1.5"),
        ("obs Anchor a nan\n", "got nan"),
    ], ids=["twice", "obs-then-target", "target-then-obs", "above-one", "nan"])
    def test_refused_atoms_are_usage_errors(self, logic_files, tmp_path, capsys, lines,
                                            named):
        atoms = tmp_path / "refused.txt"
        atoms.write_text(lines, encoding="utf-8")
        code = main(["infer", "--rules", str(logic_files / "rules.psl"),
                     "--atoms", str(atoms)])
        assert code == 2
        assert named in capsys.readouterr().err

    def test_unknown_line_kind_rejected(self, logic_files, tmp_path):
        atoms = tmp_path / "broken.txt"
        atoms.write_text("fact Friend a b 1.0\n", encoding="utf-8")
        code = main([
            "ground",
            "--rules", str(logic_files / "rules.psl"),
            "--atoms", str(atoms),
        ])
        assert code == 2


class TestCalibrate:
    def test_writes_scores_for_non_context_docs(self, workdir, tmp_path):
        root, pc = workdir
        context_ids = [m.id for m in pc.corpus if m.election_date.year < 2009]
        n_test = len(pc.corpus) - len(context_ids)
        ctx = tmp_path / "ctx.tsv"
        ctx.write_text(
            "".join(f"{mid}\t0.5\n" for mid in context_ids), encoding="utf-8"
        )
        out = tmp_path / "calibrated.tsv"
        code = main([
            "calibrate",
            "--model", str(root / "model.pscl"),
            "--corpus", str(root / "corpus.jsonl"),
            "--party-graph", str(root / "graph.tsv"),
            "--context", str(ctx),
            "--output", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "manifesto_id\tmodel_rile\tcalibrated_rile\tposition"
        assert len(lines) == 1 + n_test
        for line in lines[1:]:
            _, model_rile, calibrated, position = line.split("\t")
            assert -100.0 <= float(calibrated) <= 100.0
            assert 0.0 <= float(position) <= 1.0

    def test_group_subset_runs(self, workdir, tmp_path):
        root, _ = workdir
        out = tmp_path / "calibrated.tsv"
        code = main([
            "calibrate",
            "--model", str(root / "model.pscl"),
            "--corpus", str(root / "corpus.jsonl"),
            "--party-graph", str(root / "graph.tsv"),
            "--groups", "coal,ploc",
            "--output", str(out),
        ])
        assert code == 0
        assert out.exists()

    def test_summary_counts_ground_rules_without_prior_rows(self, workdir, tmp_path,
                                                              capsys):
        root, _ = workdir
        counts = []
        for prior in ("0", "1"):
            code = main([
                "calibrate",
                "--model", str(root / "model.pscl"),
                "--corpus", str(root / "corpus.jsonl"),
                "--party-graph", str(root / "graph.tsv"),
                "--prior-weight", prior,
                "--output", str(tmp_path / f"c{prior}.tsv"),
            ])
            assert code == 0
            summary = capsys.readouterr().out
            counts.append(int(summary.split("(", 1)[1].split(" ground rules")[0]))
        assert counts[0] > 0
        assert counts[1] == counts[0]

    def test_unknown_group_is_usage_error(self, workdir, tmp_path):
        root, _ = workdir
        code = main([
            "calibrate",
            "--model", str(root / "model.pscl"),
            "--corpus", str(root / "corpus.jsonl"),
            "--party-graph", str(root / "graph.tsv"),
            "--groups", "coal,bogus",
            "--output", str(tmp_path / "c.tsv"),
        ])
        assert code == 2

    def test_groups_are_checked_before_the_model_is_loaded(self, workdir, tmp_path, capsys):
        root, _ = workdir
        code = main([
            "calibrate",
            "--model", str(tmp_path / "missing.pscl"),
            "--corpus", str(root / "corpus.jsonl"),
            "--party-graph", str(root / "graph.tsv"),
            "--groups", "coal,bogus",
            "--output", str(tmp_path / "c.tsv"),
        ])
        assert code == 2
        assert "'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,field", [("--prior-weight", "prior_weight"),
                                            ("--recency-years", "recency_window_years")])
    def test_nan_setting_is_a_usage_error(self, workdir, tmp_path, capsys, flag, field):
        root, _ = workdir
        code = main([
            "calibrate",
            "--model", str(tmp_path / "missing.pscl"),
            "--corpus", str(root / "corpus.jsonl"),
            "--party-graph", str(root / "graph.tsv"),
            "--output", str(tmp_path / "c.tsv"),
            flag, "nan",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{field} must be" in err and "got nan" in err
        assert not (tmp_path / "c.tsv").exists()

    def test_group_past_a_custom_program_is_usage_error(self, workdir, tmp_path, capsys):
        root, _ = workdir
        rules = tmp_path / "short.psl"
        rules.write_text("open pos/1\n1.0 : A(x) -> pos(x)\n", encoding="utf-8")
        code = main([
            "calibrate",
            "--model", str(root / "model.pscl"),
            "--corpus", str(root / "corpus.jsonl"),
            "--party-graph", str(root / "graph.tsv"),
            "--rules", str(rules),
            "--groups", "esim",
            "--output", str(tmp_path / "c.tsv"),
        ])
        assert code == 2
        assert "'esim' index past the program's 1 rule(s)" in capsys.readouterr().err


@pytest.fixture(scope="module")
def run_dir(workdir, tmp_path_factory):
    root, _ = workdir
    out_dir = tmp_path_factory.mktemp("run")
    config = {
        "corpus": str(root / "corpus.jsonl"),
        "party_graph": str(root / "graph.tsv"),
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
    cfg = out_dir / "experiment.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    code = main([
        "evaluate", "--config", str(cfg), "--out-dir", str(out_dir / "run"),
    ])
    assert code == 0
    return out_dir / "run"


class TestEvaluateReport:
    def test_artifacts_exist(self, run_dir):
        for name in (
            "sentence_f.csv",
            "document_corr.csv",
            "calibration_ablation.csv",
            "run_manifest.json",
        ):
            assert (run_dir / name).exists()

    def test_report_prints_tables(self, run_dir, capsys):
        code = main(["report", "--run-dir", str(run_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "document_corr.csv" in out
        assert "calibrated" in out

    def test_gnuplot_script_written(self, run_dir, capsys):
        code = main(["report", "--run-dir", str(run_dir), "--gnuplot"])
        assert code == 0
        script = run_dir / "ablation.gp"
        assert script.exists()
        assert "plot" in script.read_text()

    def test_report_on_empty_dir_is_usage_error(self, tmp_path):
        assert main(["report", "--run-dir", str(tmp_path)]) == 2


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_version_flag_exits_zero(self, capsys):
        assert main(["--version"]) == 0
        assert "polyscale" in capsys.readouterr().out

    def test_missing_model_file_is_usage_error(self, workdir, tmp_path, capsys):
        root, _ = workdir
        code = main([
            "predict",
            "--model", str(tmp_path / "absent.pscl"),
            "--corpus", str(root / "corpus.jsonl"),
            "--output", str(tmp_path / "p.json"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_gold_score_is_usage_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        record = {"id": "m1", "party_id": "p1", "country": "XA", "language": "en",
                  "election_date": "2006-05-01", "ches": float("nan"),
                  "sentences": [{"text": "Taxes shall be lowered."}]}
        corpus.write_text(json.dumps(record) + "\n", encoding="utf-8")
        code = main(["train", "--corpus", str(corpus), "--output", str(tmp_path / "m.pscl")])
        assert code == 2
        assert "line 1: ches must be a finite number" in capsys.readouterr().err
