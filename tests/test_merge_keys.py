"""Merging equal rows by the codes each row carries (``_Compiled.merged``)
against the table-built merge of ``reference_merge``, bitwise: on ground
networks, on ``select`` cuts of them, and on cuts with prior rows."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polyscale.pslengine import (
    GroundingError,
    Literal,
    Predicate,
    PslProgram,
    RelationalDatabase,
    Rule,
    ground,
    parse_program,
)
from reference_merge import reference_merged

ARRAYS = ("consts", "weights", "rhos", "entry_rule", "entry_free", "entry_coef")
PREDICATES = {
    "p": Predicate("p", 1, closed=False),
    "q": Predicate("q", 2, closed=False),
    "A": Predicate("A", 1, closed=True),
    "L": Predicate("L", 2, closed=True),
}
CONSTANTS = ("c1", "c10", "c2", "c3")
VALUES = (0.0, 0.5, 1.0)  # few values, so constants often tie across rows
WEIGHTS = (0.5, 1.0, 2.5)


def assert_merges_alike(compiled):
    got, want = compiled.merged(), reference_merged(compiled)
    for name in ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    return got


@st.composite
def rules(draw, one_sign):
    """A rule; with ``one_sign`` each open literal enters its rows with a
    coefficient of +1 (positive in the body, negated in the head)."""
    def literal(variables, negated):
        pred = PREDICATES[draw(st.sampled_from(sorted(PREDICATES)))]
        args = draw(st.lists(st.sampled_from(variables), min_size=pred.arity,
                             max_size=pred.arity))
        if negated is None or pred.closed:
            negated = draw(st.booleans())
        return Literal(pred.name, tuple(args), negated)

    body = tuple(literal(("x", "y"), False if one_sign else None)
                 for _ in range(draw(st.integers(1, 3))))
    head = literal(sorted({v for lit in body for v in lit.args}), True if one_sign else None)
    return Rule(draw(st.sampled_from(WEIGHTS)), body, head, draw(st.sampled_from((1, 2))))


@st.composite
def programs(draw):
    """Drawn rules, then some of them again under new weights: the copies'
    rows tie on exponent, codes and constant with rows of another block."""
    one_sign = draw(st.booleans())
    drawn = draw(st.lists(rules(one_sign), min_size=1, max_size=3))
    again = [Rule(draw(st.sampled_from(WEIGHTS)), r.body, r.head, r.exponent)
             for r in drawn if draw(st.booleans())]
    return one_sign, PslProgram(dict(PREDICATES), drawn + again)


@st.composite
def databases(draw):
    db = RelationalDatabase()
    for name in sorted(PREDICATES):
        pred = PREDICATES[name]
        atoms = draw(st.lists(st.tuples(*[st.sampled_from(CONSTANTS)] * pred.arity),
                              min_size=1, max_size=8, unique=True))
        for i, args in enumerate(atoms):
            if not pred.closed and (i == 0 or draw(st.booleans())):
                db.add_target(name, args, draw(st.sampled_from((None,) + VALUES)))
            else:
                db.observe(name, args, draw(st.sampled_from(VALUES)))
    return db


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(programs(), databases(), st.sampled_from((0.0, 0.5, 2.0)), st.data())
def test_carried_codes_merge_like_the_table(drawn, db, prior, data):
    one_sign, program = drawn
    try:
        network = ground(program, db)
    except GroundingError:
        assume(False)
    if one_sign:
        assert np.all(network.compiled.entry_coef == 1.0)
    assert_merges_alike(network.compiled)
    indices = data.draw(st.lists(st.integers(0, len(program.rules) - 1), max_size=6))
    cut = network.select(indices)
    assert_merges_alike(cut.compiled)
    if prior:
        cut.add_prior(prior)
        assert_merges_alike(cut.compiled)


def test_rows_tying_across_blocks_and_with_the_prior_merge_like_the_table():
    """A rule twice under two weights, and a row ``0.5 - pos(a)`` that equals
    the prior's pull of pos(a) toward its default 0.5, cut in both orders."""
    program = parse_program(
        "open pos/1\n1.0 : A(x) -> pos(x)\n1.0 : Link(x, y) & pos(x) -> pos(y) ^1\n"
        "2.5 : A(x) -> pos(x)\n0.5 : Link(x, y) & pos(x) -> pos(y) ^1"
    )
    db = RelationalDatabase()
    db.observe_many("A", ["a", "b"], [[0], [1]], [0.5, 1.0])
    db.observe_many("Link", ["a", "b"], [[0, 1], [1, 0]], 1.0)
    db.add_target("pos", ("a",))
    db.add_target("pos", ("b",), 0.25)
    network = ground(program, db)
    # rows after merging, without and with the 4 prior rows
    for indices, rows in [([0, 1, 2, 3], (4, 7)), ([3, 2, 1, 0], (4, 7)),
                          ([2, 0], (2, 5)), ([1, 1], (2, 6))]:
        cut = network.select(indices)
        assert len(assert_merges_alike(cut.compiled).consts) == rows[0]
        cut.add_prior(1.0)
        assert len(assert_merges_alike(cut.compiled).consts) == rows[1]
