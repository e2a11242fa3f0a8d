"""The array grounder against the dict-per-substitution reference.

``pslengine.ground`` must emit the solver's arrays bitwise equal to
compiling the reference network: the same rows, in the same order, with the
same floating-point constants.  Its rules, prune counts and errors must
match the reference as well.
"""

import datetime
import logging
import runpy
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyscale import pslengine
from polyscale.calibration import (
    ABLATION_ORDER,
    CalibrationConfig,
    build_database,
    calibrate,
    default_program,
    program_for_groups,
)
from polyscale.hiermodel import DocPrediction
from polyscale.pslengine import (
    GroundingError,
    GroundLiteral,
    GroundRule,
    Literal,
    Predicate,
    PslProgram,
    RelationalDatabase,
    Rule,
    SolverConfig,
    _compile,
    ground,
    map_inference,
    parse_program,
)
from polyscale.synthetic import make_planted_corpus
from reference_grounder import reference_ground

ARRAYS = ("consts", "weights", "rhos", "entry_rule", "entry_free", "entry_coef")


def assert_bitwise_equal(network, reference):
    got, want = network.compiled(), _compile(reference)
    for name in ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def assert_matches_reference(program, db):
    """Both grounders raise the same error, or agree on every output."""
    try:
        reference = reference_ground(program, db)
    except GroundingError as exc:
        with pytest.raises(GroundingError) as raised:
            ground(program, db)
        assert str(raised.value) == str(exc)
        return None
    network = ground(program, db)
    assert_bitwise_equal(network, reference)
    assert network.stats == reference.stats
    assert len(network.rules) == len(reference.rules)
    assert list(network.rules) == reference.rules
    assert network.free_atoms == reference.free_atoms
    assert network.initial.tobytes() == reference.initial.tobytes()
    return network


# -- random small programs and databases ------------------------------------

PREDICATES = {
    "p": Predicate("p", 1, closed=False),
    "q": Predicate("q", 2, closed=False),
    "A": Predicate("A", 1, closed=True),
    "L": Predicate("L", 2, closed=True),
    "T": Predicate("T", 3, closed=True),
}
# string order differs from numeric order: "c10" < "c2"
CONSTANTS = ("c1", "c10", "c2", "c3")
VALUES = (0.0, 0.25, 0.5, 0.75, 1.0)


@st.composite
def literals(draw, variables):
    pred = draw(st.sampled_from(sorted(PREDICATES)))
    arity = PREDICATES[pred].arity
    args = tuple(draw(st.lists(st.sampled_from(variables), min_size=arity, max_size=arity)))
    return Literal(pred, args, draw(st.booleans()))


@st.composite
def rules(draw):
    body = tuple(draw(st.lists(literals(("x", "y", "z")), min_size=1, max_size=3)))
    body_vars = sorted({v for lit in body for v in lit.args})
    head = draw(literals(tuple(body_vars)))
    return Rule(draw(st.sampled_from((0.5, 1.0, 2.5))), body, head,
                draw(st.sampled_from((1, 2))))


@st.composite
def databases(draw):
    db = RelationalDatabase()
    for name in sorted(PREDICATES):
        pred = PREDICATES[name]
        atoms = draw(st.lists(st.tuples(*[st.sampled_from(CONSTANTS)] * pred.arity),
                              min_size=1, max_size=10, unique=True))
        # an open predicate mostly has a target; without one, grounding raises
        first_target = 0 if not pred.closed and draw(st.integers(0, 7)) else -1
        for i, args in enumerate(atoms):
            if i == first_target or draw(st.integers(0, 3)) == 0:
                db.add_target(name, args, draw(st.sampled_from((None,) + VALUES)))
            else:
                db.observe(name, args, draw(st.sampled_from(VALUES)))
    return db


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(rules(), min_size=1, max_size=4), databases())
def test_random_programs_match_reference(program_rules, db):
    assert_matches_reference(PslProgram(dict(PREDICATES), program_rules), db)


# -- named cases --------------------------------------------------------------

def db_of(observed=(), targets=()):
    db = RelationalDatabase()
    for pred, args, value in observed:
        db.observe(pred, args, value)
    for pred, args in targets:
        db.add_target(pred, args)
    return db


def test_arities_one_to_three():
    program = parse_program(
        "open pos/1\n"
        "1.0 : T(x, y, z) & L(x, y) & pos(x) -> pos(z)\n"
        "2.0 : A(x) & !L(x, y) -> !pos(y) ^1\n"
    )
    db = db_of(
        [("T", ("a", "b", "c"), 1.0), ("T", ("b", "a", "c"), 0.5),
         ("T", ("a", "b", "a"), 0.8), ("L", ("a", "b"), 0.9),
         ("L", ("b", "a"), 0.7), ("A", ("a",), 1.0), ("A", ("b",), 0.6)],
        [("pos", (c,)) for c in "abc"],
    )
    assert sum(s.rows for s in assert_matches_reference(program, db).stats) > 0


def test_repeated_variable_binds_one_constant():
    program = parse_program("open pos/1\n1.0 : L(x, x) & pos(x) -> pos(x)\n"
                            "1.0 : L(x, x) & L(x, y) -> pos(y)")
    db = db_of([("L", ("a", "a"), 1.0), ("L", ("a", "b"), 1.0), ("L", ("b", "b"), 0.5)],
               [("pos", ("a",)), ("pos", ("b",))])
    network = assert_matches_reference(program, db)
    assert network.stats[0].tautology == 2
    assert (network.stats[1].rows, network.stats[1].body_zero) == (2, 1)


def test_negated_closed_only_variables_range_over_sorted_constants():
    program = parse_program("open pos/1\n1.0 : !Prior(x) & !Seen(y) & pos(x) -> pos(y)")
    db = db_of(
        [("Prior", ("m2",), 0.0), ("Prior", ("m10",), 0.4), ("Seen", ("m1",), 1.0),
         ("Seen", ("m2",), 0.2), ("Prior", ("m1",), 0.3)],
        [("pos", (c,)) for c in ("m1", "m10", "m2")],
    )
    assert len(assert_matches_reference(program, db).rules) > 0


def test_negated_closed_only_variable_without_atoms_raises():
    program = parse_program("open pos/1\n1.0 : !Prior(x) & !Seen(y) & pos(z) -> pos(z)")
    db = db_of([("Seen", ("m",), 1.0)], [("pos", ("m",))])
    assert_matches_reference(program, db)
    with pytest.raises(GroundingError, match=r"\['x'\]"):
        ground(program, db)


def test_observed_and_undeclared_open_atoms():
    program = parse_program("open pos/1\n1.0 : Link(x, y) & pos(x) -> pos(y)")
    db = db_of(
        [("Link", ("a", "b"), 1.0), ("Link", ("b", "c"), 1.0), ("Link", ("c", "d"), 1.0),
         ("pos", ("a",), 0.9)],
        [("pos", ("b",)), ("pos", ("c",))],
    )
    network = assert_matches_reference(program, db)
    assert network.stats[0].missing == 1  # pos(d) is neither target nor observed


def test_head_repeated_in_body_and_zero_valued_closed_atoms():
    program = parse_program(
        "open pos/1\n1.0 : Link(x, y) & pos(x) -> pos(x)\n"
        "1.0 : !Gone(x) & Link(x, y) -> pos(y)\n1.0 : Gone(x) -> pos(x)"
    )
    db = db_of(
        [("Link", ("a", "b"), 1.0), ("Gone", ("a",), 0.0), ("Gone", ("b",), 1.0)],
        [("pos", ("a",)), ("pos", ("b",))],
    )
    network = assert_matches_reference(program, db)
    assert network.stats[0].tautology == 1
    assert network.stats[2].rows == 1  # Gone(a) = 0 cannot bind


def test_wide_predicate_overflowing_int64_keys():
    """A 10-ary predicate over 100 constants: 100**10 exceeds int64."""
    names = [f"v{i}" for i in range(10)]
    args = ", ".join(names)
    program = parse_program(
        f"open pos/1\n1.0 : Wide({args}) & pos(v0) -> pos(v9)\n"
        f"1.0 : Wide({args}) & !Wide({', '.join(reversed(names))}) -> pos(v0)"
    )
    rng = np.random.default_rng(7)
    constants = [f"k{i}" for i in range(100)]
    observed = []
    for _ in range(60):
        row = tuple(constants[i] for i in rng.integers(0, 100, size=10))
        observed.append(("Wide", row, float(rng.choice([0.0, 0.5, 1.0]))))
    palindrome = tuple(constants[i] for i in (1, 2, 3, 4, 5, 5, 4, 3, 2, 1))
    observed.append(("Wide", palindrome, 1.0))
    db = db_of(dict((a[:2], a) for a in observed).values(),
               [("pos", (c,)) for c in constants])
    assert len(constants) ** 10 > np.iinfo(np.int64).max
    network = assert_matches_reference(program, db)
    assert network.stats[0].rows > 0 and network.stats[1].rows > 0


# -- an evaluate-shaped planted database --------------------------------------

@pytest.fixture(scope="module")
def planted_db():
    """run_experiment's database without training: 72 test documents scored
    from their planted positions plus noise, 24 earlier ones as context."""
    planted = make_planted_corpus(
        seed=11, n_countries=2, parties_per_country=6, n_elections=8,
        annotated_fraction=0.6, sentences_per_doc=(3, 5),
    )
    rng = np.random.default_rng(11)
    cutoff = datetime.date(2010, 1, 2)
    docs = planted.corpus.manifestos
    test = [m for m in docs if m.election_date >= cutoff]
    context = {m.id: float(rng.uniform()) for m in docs if m.election_date < cutoff}
    preds = [
        DocPrediction(
            m.id, float(np.clip(m.rile_gold + rng.normal(0.0, 0.3), -1.0, 1.0)),
            tuple(s.gold_code or "000" for s in m.sentences), (), rng.normal(size=6),
        )
        for m in test
    ]
    return build_database(planted.corpus, preds, planted.party_graph,
                          CalibrationConfig(prior_weight=1.0), context)


@pytest.mark.parametrize("prefix", range(len(ABLATION_ORDER)))
def test_ablation_prefixes_match_reference(planted_db, prefix):
    program = program_for_groups(default_program(), ABLATION_ORDER[: prefix + 1])
    network = assert_matches_reference(program, planted_db)
    assert len(network.rules) > 0
    assert sum(s.rows for s in network.stats) == len(network.rules)


@pytest.mark.parametrize("rule", range(14))
def test_each_rule_alone_matches_reference(planted_db, rule):
    assert_matches_reference(default_program().subset([rule]), planted_db)


def test_per_rule_stats_add_up_to_the_full_program(planted_db):
    program = default_program()
    network = ground(program, planted_db)
    assert len(network.stats) == len(program.rules)
    alone = [ground(program.subset([k]), planted_db).stats[0]
             for k in range(len(program.rules))]
    assert tuple(alone) == network.stats
    assert sum(s.rows for s in network.stats) == len(network.rules)


def reference_calibration(db, program, prior_weight):
    """Ground with the reference and append the prior as two ground rules per
    target, each with a fixed literal holding the anchor."""
    network = reference_ground(program, db)
    for atom, initial in db.targets.items():
        anchor = 0.5 if initial is None else float(initial)
        free = GroundLiteral(atom[0], atom[1], False, network.free_index[atom], None)
        fixed = GroundLiteral("prior", atom[1], False, None, anchor)
        network.rules.append(GroundRule(prior_weight, 2, (fixed,), free))
        network.rules.append(GroundRule(prior_weight, 2, (free,), fixed))
    return network, map_inference(network)


def test_calibrate_with_prior_matches_reference_path(planted_db):
    program = default_program()
    result = calibrate(planted_db, program, config=CalibrationConfig(prior_weight=1.0))
    reference, expected = reference_calibration(planted_db, program, 1.0)
    assert_bitwise_equal(result.network, reference)
    assert len(result.network) == len(reference.rules)
    assert len(result.network.rules) == len(reference.rules) - 2 * len(planted_db.targets)
    assert result.map_result.values.tobytes() == expected.values.tobytes()
    assert result.map_result.energy == expected.energy
    assert result.map_result.iterations == expected.iterations


def test_prior_on_an_empty_program_still_pulls():
    db = db_of(targets=[("pos", ("a",))])
    db.add_target("pos", ("b",), 0.8)
    network = ground(PslProgram({"pos": Predicate("pos", 1, False)}, []), db)
    network.add_prior(2.0)
    assert len(network.rules) == 0 and len(network) == 4
    result = map_inference(network)
    assert result.values.tolist() == [0.5, 0.8]
    assert network.energy(np.array([0.0, 0.8])) == pytest.approx(2.0 * 0.5 ** 2)


def test_nonconverged_map_warns(planted_db, caplog):
    with caplog.at_level(logging.WARNING, logger="polyscale.calibration"):
        result = calibrate(planted_db, solver_config=SolverConfig(max_iterations=1))
    assert not result.map_result.converged
    warned = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert any("converg" in m and "1 iteration" in m for m in warned)


# -- the lazy rule sequence ----------------------------------------------------

def test_rule_count_builds_no_rule_objects(planted_db, monkeypatch):
    network = ground(default_program(), planted_db)

    def refuse(self, i):
        raise AssertionError("len() must not build ground rules")

    monkeypatch.setattr(pslengine._RuleRows, "__getitem__", refuse)
    assert len(network.rules) == sum(s.rows for s in network.stats)


def test_rule_sequence_indexing(planted_db):
    program = program_for_groups(default_program(), ABLATION_ORDER[:2])
    network = ground(program, planted_db)
    rules = list(network.rules)
    n = len(rules)
    assert network.rules[0] == rules[0]
    assert network.rules[-1] == rules[-1]
    assert network.rules[n // 2] == rules[n // 2]
    assert network.rules[3:7] == rules[3:7]
    with pytest.raises(IndexError):
        network.rules[n]
    assert not hasattr(network.rules, "append")


def test_demo_04_prints_the_same_with_the_reference_grounder(capsys, monkeypatch):
    demo = Path(__file__).resolve().parents[1] / "demos" / "04_soft_logic.py"
    runpy.run_path(str(demo), run_name="__main__")
    got = capsys.readouterr().out
    monkeypatch.setattr(pslengine, "ground", reference_ground)
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out == got
