"""The array grounder and the MAP solver against their references.

``pslengine.ground`` must emit the solver's arrays bitwise equal to
compiling the reference network: the same rows, in the same order, with the
same floating-point constants.  Its rules, prune counts and errors must
match the reference as well.  A ``GroundNetwork.select`` cut must equal
grounding the selected rules alone, merged rows included.  The merged rows
must keep the energy and its gradient, and ``map_inference`` must converge
wherever the reference loop in ``reference_map`` does, to an energy at
most a relative 1e-9 above the loop's.
"""

import datetime
import logging
import runpy
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polyscale import pslengine
from polyscale.calibration import (
    ABLATION_ORDER,
    CalibrationConfig,
    build_database,
    calibrate,
    default_program,
    group_rules,
    program_for_groups,
)
from polyscale.hiermodel import DocPrediction
from polyscale.pslengine import (
    GroundingError,
    Literal,
    Predicate,
    PslProgram,
    RelationalDatabase,
    Rule,
    SolverConfig,
    ground,
    map_inference,
    parse_program,
)
from polyscale.synthetic import make_planted_corpus
from reference_grounder import GroundLiteral, GroundRule, as_rule, network_of, reference_ground
from reference_hinge import distance_to_satisfaction
from reference_map import reference_map

ARRAYS = ("consts", "weights", "rhos", "entry_rule", "entry_free", "entry_coef")


def assert_bitwise_equal(network, reference):
    got, want = network.compiled, reference.compiled
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
    assert list(network.rules) == [as_rule(rule) for rule in reference.rules]
    assert network.free_atoms == reference.free_atoms
    assert network.initial.tobytes() == reference.initial.tobytes()
    n = len(network.free_atoms)  # each block scores on its own over every free atom
    assert [b.compiled.n_free for b in network.blocks] == [n] * len(program.rules)
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


def ground_or_reject(program, db):
    """The network, or a rejected example when the program cannot ground."""
    try:
        return ground(program, db)
    except GroundingError:
        assume(False)


def assert_same_rows(got, want):
    """Two networks' arrays are equal byte for byte, and so are the merged
    rows the solver runs on."""
    for got_arrays, want_arrays in [(got.compiled, want.compiled),
                                    (got.compiled.merged(), want.compiled.merged())]:
        for name in ARRAYS:
            a, b = getattr(got_arrays, name), getattr(want_arrays, name)
            assert a.dtype == b.dtype, name
            assert a.tobytes() == b.tobytes(), name


def assert_select_matches_ground(network, program, db, indices):
    """A cut of ``network`` equals grounding the selected rules alone, and so
    do the merged rows the solver runs on."""
    cut = network.select(indices)
    want = ground(program.subset(indices), db)
    assert_same_rows(cut, want)
    assert cut.stats == want.stats
    assert list(cut.rules) == list(want.rules)
    assert cut.free_atoms == want.free_atoms
    assert cut.initial.tobytes() == want.initial.tobytes()
    return cut


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(rules(), min_size=1, max_size=4), databases(), st.data())
def test_random_selections_match_grounding_the_subset(program_rules, db, data):
    program = PslProgram(dict(PREDICATES), program_rules)
    network = ground_or_reject(program, db)
    indices = data.draw(st.lists(st.integers(0, len(program_rules) - 1), max_size=5))
    assert_select_matches_ground(network, program, db, indices)


@st.composite
def twinned_rules(draw):
    """A rule, a twin with the negation of some open literals flipped, one
    with a head drawn again, and, when the rule has a closed literal, one
    with that literal's negation flipped.  The first twin shares the rule's
    join in ``ground``, the second only when its head has the rule's
    predicate and arguments, and the third never."""
    rule = draw(rules())
    both = rule.body + (rule.head,)
    flips = draw(st.lists(st.booleans(), min_size=len(both), max_size=len(both)))
    twin = [Literal(lit.predicate, lit.args, lit.negated != flip)
            if not PREDICATES[lit.predicate].closed else lit
            for lit, flip in zip(both, flips)]
    body_vars = tuple(sorted({v for lit in rule.body for v in lit.args}))
    out = [rule, Rule(draw(st.sampled_from((0.5, 1.0, 2.5))), tuple(twin[:-1]), twin[-1],
                      draw(st.sampled_from((1, 2)))),
           Rule(rule.weight, rule.body, draw(literals(body_vars)), rule.exponent)]
    closed = [j for j, lit in enumerate(rule.body) if PREDICATES[lit.predicate].closed]
    if closed:
        j = draw(st.sampled_from(closed))
        lit = rule.body[j]
        body = rule.body[:j] + (Literal(lit.predicate, lit.args, not lit.negated),) \
            + rule.body[j + 1:]
        out.append(Rule(rule.weight, body, rule.head, rule.exponent))
    return out


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(twinned_rules(), min_size=1, max_size=2), databases())
def test_rules_sharing_a_join_ground_like_each_rule_alone(groups, db):
    """Each block of a program whose rules share joins equals grounding its
    rule alone, bitwise, and the whole program matches the reference."""
    program = PslProgram(dict(PREDICATES), [rule for group in groups for rule in group])
    network = ground_or_reject(program, db)
    assert_matches_reference(program, db)
    for k in range(len(program.rules)):
        assert_select_matches_ground(network, program, db, [k])


def with_zero_weight_row(network, exponent):
    """``network`` with one more block after its rule blocks, before any
    prior: one row of weight 0, the given exponent, a constant of 0.5 and no
    free atom, so it adds 0 to every term."""
    n = len(network.free_atoms)
    row = pslengine._Compiled(np.full(1, 0.5), np.zeros(1), np.full(1, exponent),
                              np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0), n)
    block = pslengine.RuleBlock(row, (), pslengine.RuleStats(1, 0, 0, 0, 0))
    return pslengine.GroundNetwork(network.free_atoms, network.initial,
                                   network.blocks + (block,), network.prior)


def float_bits(value):
    return np.float64(value).tobytes()


def assert_same_map(one, other):
    """Two MAP results are equal bit for bit, level by level."""
    assert one.values.tobytes() == other.values.tobytes()
    assert float_bits(one.energy) == float_bits(other.energy)
    assert (one.iterations, one.converged) == (other.iterations, other.converged)
    assert [(level.mu, level.iterations, float_bits(level.energy)) for level in one.levels] \
        == [(level.mu, level.iterations, float_bits(level.energy)) for level in other.levels]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(rules(), min_size=1, max_size=4), databases(),
       st.sampled_from((0.0, 0.5)), st.data())
def test_squared_only_networks_score_like_the_general_path(program_rules, db, prior, data):
    """Without a linear row the energy, its smoothing and gradient skip the
    linear and Huber terms.  A zero-weight linear row sends a squared
    network down the general path; against a zero-weight squared row in its
    place, every value and the whole MAP solve keep their bits."""
    program = PslProgram(dict(PREDICATES), [Rule(r.weight, r.body, r.head, 2)
                                             for r in program_rules])
    network = ground_or_reject(program, db)
    if prior:
        network = network.with_prior(prior)
    fast, general = with_zero_weight_row(network, 2), with_zero_weight_row(network, 1)
    assert fast.compiled._weights_by_exponent[1] is None
    assert general.compiled._weights_by_exponent[1] is not None
    n = len(network.free_atoms)
    x = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    for one, other in [(fast.compiled, general.compiled),
                       (fast.compiled.merged(), general.compiled.merged())]:
        u = one.linear(x)
        assert u.tobytes() == other.linear(x).tobytes()
        assert float_bits(one.energy_at(u)) == float_bits(other.energy_at(u))
        for mu in (0.1, 1e-8):
            assert float_bits(one.smoothed_energy_at(u, mu)) == \
                float_bits(other.smoothed_energy_at(u, mu))
            assert one.smoothed_gradient_at(u, mu).tobytes() == \
                other.smoothed_gradient_at(u, mu).tobytes()
    assert_same_map(map_inference(fast), map_inference(general))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(rules(), min_size=1, max_size=4), databases(), st.data())
def test_energy_is_the_weighted_sum_of_rule_hinges(program_rules, db, data):
    """The array energy against the reference grounder's rules, walked one
    literal at a time: the oracle shares no code with the path under test."""
    program = PslProgram(dict(PREDICATES), program_rules)
    network = ground_or_reject(program, db)
    reference = reference_ground(program, db)
    assert reference.free_atoms == network.free_atoms
    n = len(network.free_atoms)
    x = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    expected = sum(rule.weight * distance_to_satisfaction(rule, x) ** rule.exponent
                   for rule in reference.rules)
    assert network.energy(x) == pytest.approx(expected, rel=0, abs=1e-12)


def rows_by_key(compiled):
    """Each row's weight under its key, the row's exponent, constant and
    sorted (free atom, coefficient) entries, the weights of equal keys
    summed in row order, and the number of rows."""
    entries = [[] for _ in compiled.consts]
    for r, a, c in zip(compiled.entry_rule, compiled.entry_free, compiled.entry_coef):
        entries[r].append((int(a), float(c)))
    weights = {}
    for r, const in enumerate(compiled.consts):
        key = (int(compiled.rhos[r]), float(const), tuple(sorted(entries[r])))
        weights[key] = weights.get(key, 0.0) + float(compiled.weights[r])
    return weights, len(compiled.consts)


def assert_merged_like_a_dict_of_rows(full):
    """``full.merged()`` against a dict keyed by each row's exponent, constant
    and sorted entries: one row per key, in any order, with the weights
    summed in row order."""
    merged = full.merged()
    want, _ = rows_by_key(full)
    got, n_rows = rows_by_key(merged)
    assert n_rows == len(got)
    assert got == want
    return merged


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(rules(), min_size=1, max_size=4), databases(),
       st.sampled_from((0.0, 0.5, 2.0)), st.data())
def test_merged_rows_sum_equal_rows_and_keep_the_energy(program_rules, db, prior, data):
    network = ground_or_reject(PslProgram(dict(PREDICATES), program_rules), db)
    if prior:
        network = network.with_prior(prior)
    full, merged = network.compiled, assert_merged_like_a_dict_of_rows(network.compiled)
    n = len(network.free_atoms)
    x = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    assert merged.energy(x) == pytest.approx(full.energy(x), rel=0, abs=1e-12)
    u, merged_u = full.linear(x), merged.linear(x)
    for mu in (0.1, 1e-8):
        assert merged.smoothed_energy_at(merged_u, mu) == pytest.approx(
            full.smoothed_energy_at(u, mu), rel=0, abs=1e-12)
        np.testing.assert_allclose(merged.smoothed_gradient_at(merged_u, mu),
                                   full.smoothed_gradient_at(u, mu), rtol=0, atol=1e-12)


def assert_map_matches_reference(network, config=None):
    """The reference loop as an energy oracle.  Uncapped, the solver converges
    wherever the loop does, at most a relative 1e-9 above the loop's energy,
    a margin the drawn networks meet but not a bound on every network (see
    ``reference_map``); capped, it stops at the cap exactly when the uncapped
    solve needs more iterations, and never ends above the energy it started
    from."""
    result = map_inference(network, config)
    assert result.energy == pytest.approx(network.energy(result.values), rel=1e-12, abs=1e-12)
    if config is None:
        _, energy, _, converged = reference_map(network)
        assert result.converged or not converged
        assert network.energy(result.values) <= energy + 1e-9 * max(1.0, abs(energy))
        return result
    cap = config.max_iterations
    uncapped = map_inference(network)
    assert result.iterations <= cap
    assert result.converged == (uncapped.iterations <= cap)
    if not result.converged:
        assert result.iterations == cap
    start = network.compiled.merged().energy(np.clip(network.initial, 0.0, 1.0))
    assert result.energy <= start
    return result


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(rules(), min_size=1, max_size=4), databases(),
       st.sampled_from((0.0, 0.5, 2.0)), st.sampled_from((None, 1, 4, 25)))
def test_random_networks_solve_like_the_reference_loop(program_rules, db, prior,
                                                        max_iterations):
    network = ground_or_reject(PslProgram(dict(PREDICATES), program_rules), db)
    if prior:
        network = network.with_prior(prior)
    config = None if max_iterations is None else SolverConfig(max_iterations=max_iterations)
    assert_map_matches_reference(network, config)


def test_a_satisfied_start_ends_every_level_at_once():
    """Every row holds at the initial values, so no step descends.  A restart
    from the iterate itself must end the level, not repeat the same step."""
    program = parse_program(
        "open pos/1\n1.0 : Up(x) -> pos(x)\n2.0 : Down(x) -> !pos(x) ^1\n"
        "1.5 : Link(x, y) & pos(x) -> pos(y)\n1.5 : Link(x, y) & pos(x) -> pos(y) ^1"
    )
    db = db_of([("Up", ("a",), 0.2), ("Down", ("b",), 0.6), ("Link", ("a", "b"), 1.0)])
    db.add_target("pos", ("a",), 0.25)
    db.add_target("pos", ("b",), 0.25)
    network = ground(program, db)
    assert len(network) == 4
    assert network.energy(network.initial) == 0.0
    result = map_inference(network)
    assert result.converged
    assert len(result.levels) == 8
    assert all(level.iterations <= 2 for level in result.levels)
    assert result.values.tolist() == [0.25, 0.25]


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


def without(db, predicate, targets=None):
    """A copy of ``db`` without the observations of one predicate, holding
    the (atom, initial) pairs ``targets`` (by default those of ``db``)."""
    out = RelationalDatabase()
    for (name, args), value in db.observations.items():
        if name != predicate:
            out.observe(name, args, value)
    for (name, args), initial in db.targets.items() if targets is None else targets:
        out.add_target(name, args, initial)
    return out


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


PREFIXES = [group_rules(ABLATION_ORDER[: i + 1]) for i in range(len(ABLATION_ORDER))]


@pytest.mark.parametrize("indices", PREFIXES + [[k] for k in range(14)] + [
    [0, 5, 9, 13], [13, 2, 7], [11, 10, 3], [4, 4], [],
])
def test_selections_match_grounding_the_subset(planted_db, indices):
    program = default_program()
    assert_select_matches_ground(ground(program, planted_db), program, planted_db, indices)


@pytest.mark.parametrize("indices", [[10], [10, 11], [9, 10, 12], PREFIXES[2]])
def test_selections_with_an_empty_block_match(planted_db, indices):
    db = without(planted_db, "LwRightLeftRatio")
    program = default_program()
    network = ground(program, db)
    assert network.stats[10].rows == 0 and network.stats[11].rows > 0
    cut = assert_select_matches_ground(network, program, db, indices)
    assert sum(s.rows for s in cut.stats) == len(cut.rules)


@pytest.mark.parametrize("indices", PREFIXES + [[13, 2, 7], [4, 4], []])
def test_a_cut_with_a_prior_equals_grounding_the_subset_with_it(planted_db, indices):
    """The cut's rows are concatenated once, with the prior's, on the first
    read of ``compiled``, which comes after ``with_prior``."""
    program = default_program()
    cut = ground(program, planted_db).select(indices)
    assert "compiled" not in vars(cut)
    got = cut.with_prior(0.5)
    want = ground(program.subset(indices), planted_db).with_prior(0.5)
    assert_same_rows(got, want)
    assert len(got) == len(want) == len(got.rules) + 2 * len(planted_db.targets)
    assert "compiled" not in vars(cut) and cut.prior is None


def test_a_second_prior_is_refused(planted_db):
    network = ground(default_program(), planted_db).with_prior(1.0)
    with pytest.raises(ValueError, match="prior rows"):
        network.with_prior(1.0)


def test_calibrating_twice_leaves_the_callers_network_as_it_was(planted_db):
    program = default_program()
    network = ground(program, planted_db)
    config = CalibrationConfig(prior_weight=1.0)
    first, second = (calibrate(planted_db, program, network=network, config=config)
                     for _ in range(2))
    assert network.prior is None
    assert_same_map(first.map_result, second.map_result)


@pytest.mark.parametrize("weight", [-1.0, float("nan"), float("inf")])
def test_with_prior_refuses_a_weight_that_is_not_finite_and_nonnegative(planted_db, weight):
    network = ground(default_program(), planted_db)
    with pytest.raises(ValueError, match=f"finite and nonnegative, got {weight}"):
        network.with_prior(weight)


def test_select_refuses_a_network_with_prior_rows(planted_db):
    network = ground(default_program(), planted_db)
    network = network.with_prior(1.0)
    with pytest.raises(ValueError, match="prior"):
        network.select([0])


def test_calibrate_refuses_a_network_of_another_program_or_database(planted_db):
    program = default_program()
    network = ground(program, planted_db)
    with pytest.raises(ValueError, match="not grounded from this program"):
        calibrate(planted_db, program.subset([0, 1]), network=network)
    other = without(planted_db, "Manifesto", list(planted_db.targets.items())[1:])
    with pytest.raises(ValueError, match="not grounded from this program"):
        calibrate(other, program, network=network)
    with pytest.raises(ValueError, match="prior rows"):
        calibrate(planted_db, program, network=network.with_prior(1.0))


@pytest.mark.parametrize("prefix", range(len(ABLATION_ORDER)))
def test_calibrating_a_cut_equals_grounding_the_prefix(planted_db, prefix):
    program = default_program()
    indices = PREFIXES[prefix]
    config = CalibrationConfig(prior_weight=1.0)
    cut = calibrate(planted_db, program.subset(indices), config=config,
                    network=ground(program, planted_db).select(indices))
    alone = calibrate(planted_db, program.subset(indices), config=config)
    assert cut.map_result.values.tobytes() == alone.map_result.values.tobytes()
    assert cut.map_result.energy == alone.map_result.energy
    assert cut.map_result.levels == alone.map_result.levels
    assert cut.rile == alone.rile


@pytest.mark.parametrize("prefix", range(len(ABLATION_ORDER)))
def test_prefix_networks_solve_like_the_reference_loop(planted_db, prefix):
    network = ground(default_program(), planted_db).select(PREFIXES[prefix])
    network = network.with_prior(1.0)
    assert_map_matches_reference(network)


def test_merging_the_planted_network_with_its_prior(planted_db):
    network = ground(default_program(), planted_db)
    network = network.with_prior(1.0)
    merged = assert_merged_like_a_dict_of_rows(network.compiled)
    assert len(merged.consts) < len(network.compiled.consts) / 2


@pytest.fixture(scope="module")
def full_map(planted_db):
    network = ground(default_program(), planted_db)
    network = network.with_prior(1.0)
    return network, map_inference(network)


def test_map_levels_add_up_and_record_the_best_energy(full_map):
    network, result = full_map
    levels = result.levels
    assert sum(level.iterations for level in levels) == result.iterations
    assert all(level.iterations > 0 for level in levels)
    start = network.energy(network.initial)
    assert result.energy == min([start] + [level.energy for level in levels])
    assert levels[-1].energy == pytest.approx(result.energy, rel=0, abs=1e-9)


def test_map_levels_follow_the_smoothing_schedule(full_map):
    network, result = full_map
    config = SolverConfig()
    mus = [level.mu for level in result.levels]
    assert mus[0] == config.smoothing_initial and mus[-1] == config.smoothing_final
    assert all(b == a * config.smoothing_decay for a, b in zip(mus[:-2], mus[1:-1]))
    # binary fractions make every level exact
    exact = SolverConfig(smoothing_initial=0.5, smoothing_decay=0.5, smoothing_final=0.0625)
    assert [level.mu for level in map_inference(network, exact).levels] == [
        0.5, 0.25, 0.125, 0.0625]


def test_default_schedule_ends_at_the_final_width_without_a_near_copy(full_map):
    """0.1 decayed seven times is 1.0000000000000005e-08; that level would
    repeat the final 1e-08 one."""
    _, result = full_map
    mus = [level.mu for level in result.levels]
    assert len(mus) == 8
    assert mus[-1] == 1e-08
    assert all(abs(a - b) > 1e-9 * max(a, b) for i, a in enumerate(mus) for b in mus[i + 1:])


def test_a_run_stopped_by_max_iterations_ends_at_the_level_it_stopped_in(full_map):
    network, result = full_map
    # stop two iterations into the first level with at least three
    j = next(i for i, level in enumerate(result.levels) if level.iterations >= 3)
    done = sum(level.iterations for level in result.levels[:j])
    stopped = map_inference(network, SolverConfig(max_iterations=done + 2))
    assert not stopped.converged
    assert stopped.iterations == done + 2
    assert stopped.levels[:j] == result.levels[:j]
    assert len(stopped.levels) == j + 1
    assert stopped.levels[j][:2] == (result.levels[j].mu, 2)


def reference_calibration(db, program, prior_weight):
    """Ground with the reference and append the prior as two ground rules per
    target, each with a fixed literal holding the anchor."""
    grounded = reference_ground(program, db)
    rules = list(grounded.rules)
    for atom, initial in db.targets.items():
        anchor = 0.5 if initial is None else float(initial)
        free = GroundLiteral(atom[0], atom[1], False, grounded.free_index[atom], None)
        fixed = GroundLiteral("prior", atom[1], False, None, anchor)
        rules.append(GroundRule(prior_weight, 2, (fixed,), free))
        rules.append(GroundRule(prior_weight, 2, (free,), fixed))
    network = network_of(grounded.free_atoms, grounded.initial, rules)
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
    network = network.with_prior(2.0)
    assert len(network.rules) == 0 and len(network) == 4
    result = map_inference(network)
    assert result.values.tolist() == [0.5, 0.8]
    assert network.energy(np.array([0.0, 0.8])) == pytest.approx(2.0 * 0.5 ** 2)


def test_nonconverged_map_warns(planted_db, caplog):
    with caplog.at_level(logging.WARNING, logger="polyscale.calibration"):
        result = calibrate(planted_db, solver_config=SolverConfig(max_iterations=1))
    assert result.map_result.converged is False
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
    assert all(type(rule) is Rule for rule in rules)
    assert network.rules[0] == rules[0]
    assert network.rules[n // 2] == rules[n // 2]
    with pytest.raises(IndexError):
        network.rules[n]
    with pytest.raises(IndexError):
        network.rules[-1]
    assert not hasattr(network.rules, "append")


def test_demo_04_prints_the_same_with_the_reference_grounder(capsys, monkeypatch):
    demo = Path(__file__).resolve().parents[1] / "demos" / "04_soft_logic.py"
    runpy.run_path(str(demo), run_name="__main__")
    got = capsys.readouterr().out
    monkeypatch.setattr(pslengine, "ground", reference_ground)
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out == got
