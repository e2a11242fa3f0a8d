"""Tests for relational calibration: atoms, database assembly, inference."""

import datetime
import logging
import math

import numpy as np
import pytest

from polyscale.calibration import (
    ABLATION_ORDER,
    CalibrationConfig,
    PartyGraph,
    StackedEstimate,
    build_database,
    calibrate,
    default_program,
    lw_right_left_ratio,
    program_for_groups,
    squash,
    stacked_estimates,
)
from polyscale.corpus import Corpus, LabelScheme, Manifesto, Sentence
from polyscale.hiermodel import DocPrediction, ModelConfig
from polyscale.pslengine import RelationalDatabase, ground, parse_program
from polyscale.synthetic import make_planted_corpus
from reference_database import reference_database
from reference_grounder import reference_ground

SCHEME = LabelScheme.default()


def make_doc(mid, party, country, date, lang="aa", texts=("one two", "three four"),
             codes=None, rile=None):
    codes = codes or [None] * len(texts)
    sentences = tuple(
        Sentence(text=t, tokens=tuple(t.split()), position_index=i + 1, gold_code=c)
        for i, (t, c) in enumerate(zip(texts, codes))
    )
    return Manifesto(
        id=mid, party_id=party, country=country, language=lang,
        election_date=date, sentences=sentences, rile_gold=rile, ches_gold=None,
    )


def make_pred(mid, rile_hat, codes, doc_vector):
    return DocPrediction(
        manifesto_id=mid, rile_hat=rile_hat, codes=tuple(codes),
        polarities=(), doc_vector=np.asarray(doc_vector, dtype=np.float64),
    )


def fixture_db(context_positions=None, prior=None):
    docs = (
        make_doc("t1", "pa", "AA", datetime.date(2012, 6, 1)),
        make_doc("t2", "pb", "AA", datetime.date(2012, 6, 1)),
        make_doc("t3", "pc", "BB", datetime.date(2013, 5, 1)),
        make_doc("c1", "pa", "AA", datetime.date(2008, 6, 1)),
    )
    corpus = Corpus(manifestos=docs, scheme=SCHEME)
    preds = [
        make_pred("t1", 0.4, ("104", "104"), [1.0, 0.2, 0.0]),
        make_pred("t2", 0.0, ("104", "103"), [0.9, 0.3, 0.1]),
        make_pred("t3", -0.2, ("000", "103"), [0.0, 0.1, 1.0]),
    ]
    graph = PartyGraph.from_pairs(
        [("pa", "pb", 3, "REGIONAL"), ("pa", "pc", 2, "EU")]
    )
    context = {"c1": 0.8} if context_positions is None else context_positions
    db = build_database(corpus, preds, graph, context_positions=context)
    return corpus, preds, graph, db


class TestSquash:
    def test_zero_and_one(self):
        assert squash(0.0) == 0.0
        assert squash(1.0) == pytest.approx(0.4621171572600098, abs=1e-12)

    def test_matches_half_tanh_identity(self):
        rng = np.random.default_rng(2)
        for v in rng.uniform(0.0, 8.0, size=200):
            assert squash(float(v)) == pytest.approx(math.tanh(v / 2.0), abs=1e-12)

    def test_monotone_and_bounded(self):
        values = [squash(v) for v in (0.0, 0.5, 1.0, 2.0, 5.0, 20.0)]
        assert values == sorted(values)
        assert all(0.0 <= v < 1.0 for v in values)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            squash(-0.1)


class TestLwRightLeftRatio:
    def test_worked_example(self):
        # right sentence at position 1, left at position 2
        ratio = lw_right_left_ratio(["104", "103"], SCHEME)
        expected = math.log(2) / (math.log(2) + math.log(3))
        assert ratio == pytest.approx(expected, rel=1e-12)
        assert ratio == pytest.approx(0.3868528072345416, abs=1e-12)

    def test_all_right_is_one_all_other_zero(self):
        assert lw_right_left_ratio(["104", "104"], SCHEME) == 1.0
        assert lw_right_left_ratio(["103", "000"], SCHEME) == 0.0

    def test_later_positions_weigh_more(self):
        early_right = lw_right_left_ratio(["104", "103"], SCHEME)
        late_right = lw_right_left_ratio(["103", "104"], SCHEME)
        assert late_right > early_right

    def test_neutral_dilutes_denominator(self):
        pure = lw_right_left_ratio(["104"], SCHEME)
        diluted = lw_right_left_ratio(["104", "000"], SCHEME)
        assert pure == 1.0
        assert 0.0 < diluted < 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="without sentences"):
            lw_right_left_ratio([], SCHEME)


class TestPartyGraph:
    def test_symmetric_lookup_and_defaults(self):
        graph = PartyGraph.from_pairs([("pa", "pb", 3, "REGIONAL")])
        assert graph.regional_count("pa", "pb") == 3
        assert graph.regional_count("pb", "pa") == 3
        assert graph.regional_count("pa", "pz") == 0
        assert graph.eu_count("pa", "pb") == 0

    def test_duplicate_pairs_accumulate(self):
        graph = PartyGraph.from_pairs(
            [("pa", "pb", 2, "REGIONAL"), ("pb", "pa", 1, "regional")]
        )
        assert graph.regional_count("pa", "pb") == 3

    def test_bad_kind_and_negative_count(self):
        with pytest.raises(ValueError, match="REGIONAL or EU"):
            PartyGraph.from_pairs([("pa", "pb", 1, "LOCAL")])
        with pytest.raises(ValueError, match="nonnegative"):
            PartyGraph.from_pairs([("pa", "pb", -1, "EU")])

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "graph.tsv"
        path.write_text(
            "# coalition records\npa\tpb\t3\tREGIONAL\npa\tpc\t2\tEU\n",
            encoding="utf-8",
        )
        graph = PartyGraph.from_file(path)
        assert graph.regional_count("pb", "pa") == 3
        assert graph.eu_count("pc", "pa") == 2
        assert graph.parties == {"pa", "pb", "pc"}

    def test_file_errors_name_lines(self, tmp_path):
        path = tmp_path / "graph.tsv"
        path.write_text("pa\tpb\tthree\tREGIONAL\n", encoding="utf-8")
        with pytest.raises(ValueError, match="graph.tsv:1"):
            PartyGraph.from_file(path)
        path.write_text("pa\tpb\t3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="4 tab-separated"):
            PartyGraph.from_file(path)


class TestCalibrationConfig:
    def test_nan_recency_window_rejected(self):
        with pytest.raises(ValueError, match="recency_window_years must be positive, got nan"):
            CalibrationConfig(recency_window_years=float("nan"))

    def test_nan_prior_weight_rejected(self):
        with pytest.raises(ValueError, match="prior_weight must be nonnegative, got nan"):
            CalibrationConfig(prior_weight=float("nan"))


class TestBuildDatabase:
    def test_targets_initialized_from_model_scores(self):
        _, preds, _, db = fixture_db()
        assert db.targets[("pos", ("t1",))] == pytest.approx(0.7)
        assert db.targets[("pos", ("t2",))] == pytest.approx(0.5)
        assert db.targets[("pos", ("t3",))] == pytest.approx(0.4)

    def test_context_positions_become_observed_atoms(self):
        _, _, _, db = fixture_db()
        assert db.observations[("pos", ("c1",))] == 0.8
        assert ("pos", ("c1",)) not in db.targets

    def test_same_election_pairs_are_symmetric_and_test_only(self):
        _, _, _, db = fixture_db()
        assert db.observations[("SameElec", ("t1", "t2"))] == 1.0
        assert db.observations[("SameElec", ("t2", "t1"))] == 1.0
        assert ("SameElec", ("t1", "t3")) not in db.observations
        assert all(
            "c1" not in atom[1]
            for atom in db.observations
            if atom[0] in ("SameElec", "Recent", "Similarity")
        )

    def test_recent_pairs_respect_window(self):
        corpus, preds, graph, db = fixture_db()
        assert ("Recent", ("t1", "t3")) in db.observations
        far = make_doc("t9", "pz", "CC", datetime.date(2030, 1, 1))
        wide = Corpus(manifestos=corpus.manifestos + (far,), scheme=SCHEME)
        preds9 = preds + [make_pred("t9", 0.0, ("000", "000"), [0.5, 0.5, 0.5])]
        db9 = build_database(wide, preds9, graph, context_positions={"c1": 0.8})
        assert all("t9" not in atom[1] for atom in db9.observations if atom[0] == "Recent")

    def test_coalition_atoms_squashed_and_symmetric(self):
        _, _, _, db = fixture_db()
        assert db.observations[("RegCoalition", ("pa", "pb"))] == pytest.approx(squash(3))
        assert db.observations[("RegCoalition", ("pb", "pa"))] == pytest.approx(squash(3))
        assert db.observations[("EUCoalition", ("pa", "pc"))] == pytest.approx(squash(2))
        assert ("RegCoalition", ("pa", "pc")) not in db.observations

    def test_similarity_only_for_recent_pairs_clamped(self):
        _, preds, _, db = fixture_db()
        u = preds[0].doc_vector
        v = preds[1].doc_vector
        expected = float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))
        assert db.observations[("Similarity", ("t1", "t2"))] == pytest.approx(expected)
        for atom, value in db.observations.items():
            if atom[0] == "Similarity":
                assert 0.0 <= value <= 1.0

    def test_similarity_is_the_clamped_cosine_of_each_pair(self):
        rng = np.random.default_rng(3)
        docs = tuple(make_doc(f"t{i}", f"p{i % 3}", "AA", datetime.date(2010 + i % 4, 6, 1))
                     for i in range(9))
        preds = [make_pred(d.id, 0.0, ("104", "103"), rng.normal(size=5)) for d in docs]
        db = build_database(Corpus(manifestos=docs, scheme=SCHEME), preds,
                            PartyGraph.from_pairs([]))
        vectors = {p.manifesto_id: p.doc_vector for p in preds}
        expected = {}
        for x, y in (atom[1] for atom in db.observations if atom[0] == "Recent"):
            u, v = vectors[x], vectors[y]
            cosine = float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))
            if cosine > 0.0:
                expected[x, y] = min(1.0, cosine)
        got = {atom[1]: value for atom, value in db.observations.items()
               if atom[0] == "Similarity"}
        assert 0 < len(got) < 9 * 8
        # bit for bit, in both directions of a pair
        assert {k: np.float64(v).tobytes() for k, v in got.items()} == \
            {k: np.float64(v).tobytes() for k, v in expected.items()}

    def test_ratio_atom_value(self):
        _, preds, _, db = fixture_db()
        expected = squash(lw_right_left_ratio(("104", "104"), SCHEME))
        assert db.observations[("LwRightLeftRatio", ("t1",))] == pytest.approx(expected)

    def test_previous_manifesto_links_to_context(self):
        _, _, _, db = fixture_db()
        assert db.observations[("PreviousManifesto", ("t1", "pa", "c1"))] == 1.0
        assert not any(
            atom[0] == "PreviousManifesto" and atom[1][0] == "t2"
            for atom in db.observations
        )

    def test_previous_manifesto_tie_breaks_by_id(self):
        docs = (
            make_doc("t1", "pa", "AA", datetime.date(2012, 6, 1)),
            make_doc("ca", "pa", "AA", datetime.date(2008, 6, 1)),
            make_doc("cb", "pa", "AA", datetime.date(2008, 6, 1)),
        )
        corpus = Corpus(manifestos=docs, scheme=SCHEME)
        preds = [make_pred("t1", 0.0, ("104", "104"), [1.0, 0.0])]
        graph = PartyGraph.from_pairs([])
        db = build_database(
            corpus, preds, graph, context_positions={"ca": 0.5, "cb": 0.5}
        )
        assert ("PreviousManifesto", ("t1", "pa", "cb")) in db.observations

    def test_uncovered_manifesto_is_an_error(self):
        docs = (
            make_doc("t1", "pa", "AA", datetime.date(2012, 6, 1)),
            make_doc("orphan", "pb", "AA", datetime.date(2012, 6, 1)),
        )
        corpus = Corpus(manifestos=docs, scheme=SCHEME)
        preds = [make_pred("t1", 0.0, ("104", "104"), [1.0])]
        with pytest.raises(ValueError, match="orphan"):
            build_database(corpus, preds, PartyGraph.from_pairs([]))

    def test_context_id_validation(self):
        docs = (make_doc("t1", "pa", "AA", datetime.date(2012, 6, 1)),)
        corpus = Corpus(manifestos=docs, scheme=SCHEME)
        preds = [make_pred("t1", 0.0, ("104", "104"), [1.0])]
        graph = PartyGraph.from_pairs([])
        with pytest.raises(ValueError, match="ghost"):
            build_database(corpus, preds, graph, context_positions={"ghost": 0.5})
        with pytest.raises(ValueError, match="both test and context"):
            build_database(corpus, preds, graph, context_positions={"t1": 0.5})

    def test_unknown_party_warns(self, caplog):
        docs = (
            make_doc("t1", "pa", "AA", datetime.date(2012, 6, 1)),
            make_doc("t2", "px", "AA", datetime.date(2012, 6, 1)),
        )
        corpus = Corpus(manifestos=docs, scheme=SCHEME)
        preds = [
            make_pred("t1", 0.0, ("104", "104"), [1.0]),
            make_pred("t2", 0.0, ("104", "104"), [1.0]),
        ]
        graph = PartyGraph.from_pairs([("pa", "pb", 1, "REGIONAL")])
        with caplog.at_level("WARNING"):
            build_database(corpus, preds, graph)
        assert any("px" in record.message for record in caplog.records)


class TestProgramGroups:
    def test_group_sizes(self):
        program = default_program()
        assert len(program_for_groups(program, ["coal"]).rules) == 8
        assert len(program_for_groups(program, ["coal", "esim"]).rules) == 10
        assert len(program_for_groups(program, ABLATION_ORDER).rules) == 14

    def test_unknown_group_rejected(self):
        with pytest.raises(ValueError, match="unknown rule group"):
            program_for_groups(default_program(), ["coal", "wild"])

    def test_group_past_a_short_program_rejected(self):
        program = parse_program("open pos/1\n1.0 : A(x) -> pos(x)\n")
        with pytest.raises(ValueError, match=r"'esim' index past the program's 1 rule"):
            program_for_groups(program, ["esim"])
        nine = default_program().subset(range(9))
        assert len(program_for_groups(nine, ["coal"]).rules) == 8
        with pytest.raises(ValueError, match=r"'esim', 'temp' index past .* 9 rule"):
            program_for_groups(nine, ["coal", "esim", "temp"])


class TestCalibrate:
    def test_coalition_pulls_partners_together(self):
        corpus, preds, graph, _ = fixture_db()
        preds = [
            make_pred("t1", 0.8, ("104", "104"), [1.0, 0.2, 0.0]),
            make_pred("t2", -0.8, ("104", "103"), [0.9, 0.3, 0.1]),
            make_pred("t3", -0.2, ("000", "103"), [0.0, 0.1, 1.0]),
        ]
        db = build_database(corpus, preds, graph, context_positions={"c1": 0.8})
        program = program_for_groups(default_program(), ["coal"])
        result = calibrate(db, program)
        gap_before = abs(db.targets[("pos", ("t1",))] - db.targets[("pos", ("t2",))])
        gap_after = abs(result.positions["t1"] - result.positions["t2"])
        assert gap_after < gap_before
        # hinge goes slack once the gap drops to 1 - squash(3)
        assert gap_after <= (1.0 - squash(3)) + 1e-3
        assert result.map_result.converged

    def test_full_program_matches_grid_oracle(self):
        """The grid scans the reference grounder's rules, so the oracle does
        not share the array grounder under test."""
        _, _, _, db = fixture_db()
        result = calibrate(db)
        reference = reference_ground(default_program(), db)
        assert reference.free_atoms == result.network.free_atoms
        rules = reference.rules
        n = len(result.network.free_atoms)
        axis = np.linspace(0.0, 1.0, 101)
        grids = np.meshgrid(*([axis] * n), indexing="ij")
        flat = np.stack([g.ravel() for g in grids])
        total = np.zeros(flat.shape[1])
        for rule in rules:
            linear = np.full(flat.shape[1], -(len(rule.body) - 1.0))
            for lit in rule.body:
                v = flat[lit.free_index] if lit.free_index is not None else lit.observed_value
                linear = linear + ((1.0 - v) if lit.negated else v)
            head = rule.head
            hv = flat[head.free_index] if head.free_index is not None else head.observed_value
            linear = linear - ((1.0 - hv) if head.negated else hv)
            total += rule.weight * np.maximum(linear, 0.0) ** rule.exponent
        assert result.map_result.energy <= float(total.min()) + 1e-3

    def test_rile_is_rescaled_positions(self):
        _, _, _, db = fixture_db()
        result = calibrate(db)
        for mid, pos in result.positions.items():
            assert result.rile[mid] == pytest.approx(2.0 * pos - 1.0, abs=1e-12)
            assert 0.0 <= pos <= 1.0

    def test_prior_weight_keeps_solutions_near_initials(self):
        docs = (make_doc("t1", "pa", "AA", datetime.date(2012, 6, 1)),)
        corpus = Corpus(manifestos=docs, scheme=SCHEME)
        preds = [make_pred("t1", 0.8, ("104", "103"), [1.0])]
        graph = PartyGraph.from_pairs([])
        db_free = build_database(corpus, preds, graph)
        loose = calibrate(db_free)
        db_anchored = build_database(corpus, preds, graph)
        tight = calibrate(
            db_anchored, config=CalibrationConfig(prior_weight=10.0)
        )
        initial = 0.9
        assert abs(tight.positions["t1"] - initial) < abs(loose.positions["t1"] - initial)

    PROGRAM = ("closed Anchor/1\nclosed Missing/1\nopen pos/1\n\n"
               "1.0 : Anchor(x) -> pos(x)\n2.0 : Missing(x) -> pos(x) ^1\n")

    def anchored_db(self, *observed):
        db = RelationalDatabase()
        for predicate in observed:
            db.observe(predicate, ("a",), 1.0)
        db.add_target("pos", ("a",), 0.2)
        return db

    def warnings_of(self, caplog, db):
        with caplog.at_level(logging.WARNING, logger="polyscale.calibration"):
            calibrate(db, parse_program(self.PROGRAM))
        return [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]

    def test_rule_that_grounds_no_rows_is_reported(self, caplog):
        """``Missing`` is never observed, so rule 1 grounds nothing."""
        assert self.warnings_of(caplog, self.anchored_db("Anchor")) == [
            "rule 1 grounded no rows, so it constrains nothing: "
            "2.0 : Missing(x) -> pos(x) ^1 (RuleStats(rows=0, missing=0, tautology=0, "
            "body_zero=0, constant=0))"]

    def test_rules_that_all_ground_rows_log_nothing(self, caplog):
        assert self.warnings_of(caplog, self.anchored_db("Anchor", "Missing")) == []


class TestStackedEstimates:
    def small_training_corpus(self):
        def doc(mid, texts, codes, rile, party, date):
            sentences = tuple(
                Sentence(text=t, tokens=tuple(t.split()), position_index=i + 1,
                         gold_code=c)
                for i, (t, c) in enumerate(zip(texts, codes))
            )
            return Manifesto(
                id=mid, party_id=party, country="AA", language="aa",
                election_date=date, sentences=sentences, rile_gold=rile,
                ches_gold=None,
            )

        return Corpus(
            manifestos=(
                doc("m1", ["lower taxes now", "markets work"], ["401", "401"], 0.6,
                    "pa", datetime.date(2010, 5, 1)),
                doc("m2", ["expand welfare", "protect services"], ["504", "504"], -0.5,
                    "pb", datetime.date(2010, 5, 1)),
                doc("m3", ["strong borders", "lower taxes"], ["601", "401"], 0.4,
                    "pc", datetime.date(2014, 5, 1)),
                doc("m4", ["more welfare", "public schools"], ["504", "506"], -0.6,
                    "pd", datetime.date(2014, 5, 1)),
            ),
            scheme=SCHEME,
        )

    def config(self):
        return ModelConfig(embed_dim=5, word_hidden=3, sentence_hidden=3,
                           epochs=1, seed=11)

    def test_every_document_scored_out_of_fold(self):
        corpus = self.small_training_corpus()
        estimates = stacked_estimates(corpus, self.config(), k=2)
        assert set(estimates) == {"m1", "m2", "m3", "m4"}
        for mid, est in estimates.items():
            assert isinstance(est, StackedEstimate)
            assert mid not in est.trained_on_ids
            assert 0.0 <= est.position <= 1.0

    def test_folds_are_round_robin(self):
        corpus = self.small_training_corpus()
        estimates = stacked_estimates(corpus, self.config(), k=2)
        assert estimates["m1"].fold == 0
        assert estimates["m2"].fold == 1
        assert estimates["m3"].fold == 0
        assert estimates["m4"].fold == 1

    def test_fold_without_trainable_complement_raises(self):
        docs = self.small_training_corpus().manifestos
        unlabeled = Manifesto(
            id="u1", party_id="pz", country="AA", language="aa",
            election_date=datetime.date(2010, 5, 1),
            sentences=(Sentence("x y", ("x", "y"), 1, None),),
            rile_gold=None, ches_gold=None,
        )
        corpus = Corpus(manifestos=(docs[0], unlabeled), scheme=SCHEME)
        with pytest.raises(ValueError, match="no trainable documents"):
            stacked_estimates(corpus, self.config(), k=2)

    def test_too_few_folds_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            stacked_estimates(self.small_training_corpus(), self.config(), k=1)


def planted_inputs(seed, context=True):
    """An evaluate-shaped corpus with scored test documents: every fourth one
    has only leftward codes (a ratio of 0), earlier documents are context when
    ``context`` holds, and one party's coalition records are dropped."""
    planted = make_planted_corpus(
        seed=seed, n_countries=2, parties_per_country=6, n_elections=8,
        annotated_fraction=0.6, sentences_per_doc=(3, 5),
    )
    rng = np.random.default_rng(seed)
    cutoff = datetime.date(2010, 1, 2) if context else datetime.date(1900, 1, 1)
    docs = planted.corpus.manifestos
    test = [m for m in docs if m.election_date >= cutoff]
    positions = {m.id: float(rng.uniform()) for m in docs if m.election_date < cutoff}
    preds = [
        make_pred(m.id, float(np.clip(m.rile_gold + rng.normal(0.0, 0.3), -1.0, 1.0)),
                  ("103",) * 3 if i % 4 == 0 else
                  tuple(s.gold_code or "000" for s in m.sentences),
                  rng.normal(size=6))
        for i, m in enumerate(test)
    ]
    dropped = test[0].party_id
    graph = PartyGraph(
        {k: v for k, v in planted.party_graph.regional.items() if dropped not in k},
        {k: v for k, v in planted.party_graph.eu.items() if dropped not in k},
    )
    return planted.corpus, preds, graph, positions


def columns_of(db):
    """Each predicate's atoms in stored order, with their values' bytes."""
    out = {}
    for atom, value in db.observations.items():
        out.setdefault(atom[0], []).append((atom[1], np.float64(value).tobytes()))
    return out


class TestEvidenceColumns:
    @pytest.mark.parametrize("seed,context", [(3, True), (11, True), (29, True), (47, False)])
    def test_columns_match_the_atom_by_atom_reference(self, seed, context, caplog):
        corpus, preds, graph, positions = planted_inputs(seed, context)
        config = CalibrationConfig(prior_weight=1.0)
        with caplog.at_level(logging.WARNING, logger="polyscale.calibration"):
            db = build_database(corpus, preds, graph, config, positions)
        assert "no coalition records" in caplog.text
        want = reference_database(corpus, preds, graph, config, positions)
        got = columns_of(db)
        assert got == columns_of(want)
        assert len(db.observations) == len(want.observations)
        assert list(db.targets.items()) == list(want.targets.items())
        assert all(type(v) is float for v in db.targets.values())
        expected = {"Manifesto", "Party", "LwRightLeftRatio", "SameElec", "Recent",
                    "RegCoalition", "EUCoalition", "Similarity", "PreviousManifesto"}
        assert expected | ({"pos"} if context else set()) == set(got)
        assert 0 < len(got["LwRightLeftRatio"]) < len(preds)

    def test_columns_ground_like_the_reference_database(self):
        corpus, preds, graph, positions = planted_inputs(5)
        db = build_database(corpus, preds, graph, context_positions=positions)
        want = reference_database(corpus, preds, graph, context_positions=positions)
        program = default_program()
        got, ref = ground(program, db), ground(program, want)
        for name in ("consts", "weights", "rhos", "entry_rule", "entry_free", "entry_coef"):
            assert getattr(got.compiled, name).tobytes() == getattr(ref.compiled, name).tobytes()
        assert list(got.rules) == list(ref.rules)
