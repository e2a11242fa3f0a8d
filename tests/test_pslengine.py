"""Tests for the soft-logic engine: parsing, grounding, energies, MAP."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyscale.pslengine import (
    GroundingError,
    Literal,
    MapResult,
    Predicate,
    PslProgram,
    RelationalDatabase,
    Rule,
    RuleSyntaxError,
    SolverConfig,
    ground,
    load_program,
    map_inference,
    parse_program,
    print_program,
)
from reference_grounder import GroundLiteral, GroundRule, network_of
from reference_hinge import distance_to_satisfaction


def free_lit(idx, negated=False):
    return GroundLiteral("pos", (f"m{idx}",), negated, idx, None)


def obs_lit(value, negated=False, tag="o"):
    return GroundLiteral("obs", (f"{tag}{value!r}",), negated, None, float(value))


def make_network(rules, n_free):
    atoms = [("pos", (f"m{i}",)) for i in range(n_free)]
    return network_of(atoms, np.full(n_free, 0.5), rules)


def reference_energy(rules, x):
    """Independent energy route: per-rule literal walk, no compiled arrays."""
    total = 0.0
    for rule in rules:
        body = -(len(rule.body) - 1.0)
        for lit in rule.body:
            v = x[lit.free_index] if lit.free_index is not None else lit.observed_value
            body += (1.0 - v) if lit.negated else v
        hv = (
            x[rule.head.free_index]
            if rule.head.free_index is not None
            else rule.head.observed_value
        )
        body -= (1.0 - hv) if rule.head.negated else hv
        total += rule.weight * max(body, 0.0) ** rule.exponent
    return total


def grid_minimum(rules, n_free, step=0.01):
    """Vectorized exhaustive scan of [0, 1]^n on a regular grid."""
    axis = np.linspace(0.0, 1.0, round(1.0 / step) + 1)
    grids = np.meshgrid(*([axis] * n_free), indexing="ij")
    flat = np.stack([g.ravel() for g in grids])
    total = np.zeros(flat.shape[1])
    for rule in rules:
        linear = np.full(flat.shape[1], -(len(rule.body) - 1.0))
        for lit in rule.body:
            v = flat[lit.free_index] if lit.free_index is not None else lit.observed_value
            linear = linear + ((1.0 - v) if lit.negated else v)
        hv = (
            flat[rule.head.free_index]
            if rule.head.free_index is not None
            else rule.head.observed_value
        )
        linear = linear - ((1.0 - hv) if rule.head.negated else hv)
        total += rule.weight * np.maximum(linear, 0.0) ** rule.exponent
    return float(total.min())


def random_rule(rng, n_free):
    while True:
        n_body = int(rng.integers(1, 4))
        body = []
        for _ in range(n_body):
            negated = bool(rng.random() < 0.3)
            if rng.random() < 0.5:
                body.append(free_lit(int(rng.integers(n_free)), negated))
            else:
                v = float(rng.uniform(0.0, 1.0))
                body.append(GroundLiteral("obs", (repr(v),), negated, None, v))
        if rng.random() < 0.7:
            head = free_lit(int(rng.integers(n_free)), bool(rng.random() < 0.3))
        else:
            v = float(rng.uniform(0.0, 1.0))
            head = GroundLiteral("obs", (repr(v),), bool(rng.random() < 0.3), None, v)
        if head.free_index is None and all(l.free_index is None for l in body):
            continue
        return GroundRule(
            weight=float(rng.uniform(0.1, 2.0)),
            exponent=int(rng.choice([1, 2])),
            body=tuple(body),
            head=head,
        )


class TestParser:
    def test_minimal_rule_defaults(self):
        program = parse_program("Friend(x, y) & pos(x) -> pos(y)")
        assert len(program.rules) == 1
        rule = program.rules[0]
        assert rule.weight == 1.0
        assert rule.exponent == 2
        assert rule.body == (
            Literal("Friend", ("x", "y")),
            Literal("pos", ("x",)),
        )
        assert rule.head == Literal("pos", ("y",))

    def test_weight_exponent_and_negation(self):
        program = parse_program("0.75 : !Foo(x) -> !Bar(x) ^1")
        rule = program.rules[0]
        assert rule.weight == 0.75
        assert rule.exponent == 1
        assert rule.body[0].negated and rule.head.negated

    def test_unicode_connectives_equal_ascii(self):
        a = parse_program("2.0 : Foo(x) ∧ ¬Bar(x) → Baz(x)")
        b = parse_program("2.0 : Foo(x) & !Bar(x) -> Baz(x)")
        assert a == b

    def test_declarations_comments_blanks(self):
        text = """
        # position predicate
        open pos/1
        closed Friend/2

        1.0 : Friend(x, y) & pos(x) -> pos(y)  # pull together
        """
        program = parse_program(text)
        assert program.predicates["pos"] == Predicate("pos", 1, closed=False)
        assert program.predicates["Friend"] == Predicate("Friend", 2, closed=True)

    def test_auto_declared_predicates_are_closed(self):
        program = parse_program("Foo(x) -> Bar(x)")
        assert program.predicates["Foo"].closed
        assert program.predicates["Bar"].closed

    def test_unexpected_character_names_line_and_column(self):
        with pytest.raises(RuleSyntaxError, match=r"line 1, column 12"):
            parse_program("Foo(x) -> B@r(x)")

    def test_truncated_rule_reports_end(self):
        with pytest.raises(RuleSyntaxError, match=r"line 1, end"):
            parse_program("Foo(x) ->")

    def test_trailing_input_rejected(self):
        with pytest.raises(RuleSyntaxError, match=r"column 18"):
            parse_program("Foo(x) -> Bar(x) Baz(y)")

    def test_negative_weight_rejected(self):
        with pytest.raises(RuleSyntaxError, match="negative weight"):
            parse_program("-2 : Foo(x) -> Bar(x)")

    def test_head_variable_must_appear_in_body(self):
        with pytest.raises(RuleSyntaxError, match="head variable"):
            parse_program("Foo(x) -> Bar(y)")

    def test_arity_conflict_names_line(self):
        with pytest.raises(RuleSyntaxError, match="line 2"):
            parse_program("Foo(x) -> Bar(x)\nFoo(x, y) -> Bar(x)")

    def test_conflicting_declaration(self):
        with pytest.raises(RuleSyntaxError, match="conflicting declaration"):
            parse_program("open Foo/1\nclosed Foo/1")

    def test_bad_exponent(self):
        with pytest.raises(RuleSyntaxError, match="exponent must be 1 or 2"):
            parse_program("Foo(x) -> Bar(x) ^3")

    def test_print_parse_round_trip(self):
        text = """
        open pos/1
        closed Friend/2
        0.5 : Friend(x, y) & pos(x) -> pos(y)
        1.5 : !Friend(x, y) -> !pos(x) ^1
        """
        program = parse_program(text)
        again = parse_program(print_program(program))
        assert again == program
        assert print_program(again) == print_program(program)


NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True)


@st.composite
def programs(draw):
    names = draw(st.lists(NAMES, min_size=1, max_size=5, unique=True))
    predicates = {name: Predicate(name, draw(st.integers(1, 3)), draw(st.booleans()))
                  for name in names}
    variables = draw(st.lists(NAMES, min_size=1, max_size=4, unique=True))

    def literal(pool):
        pred = predicates[draw(st.sampled_from(names))]
        args = draw(st.lists(st.sampled_from(pool), min_size=pred.arity, max_size=pred.arity))
        return Literal(pred.name, tuple(args), draw(st.booleans()))

    rules = []
    for _ in range(draw(st.integers(0, 4))):
        body = tuple(literal(variables) for _ in range(draw(st.integers(1, 3))))
        head = literal(sorted({v for lit in body for v in lit.args}))
        weight = draw(st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False))
        rules.append(Rule(weight, body, head, draw(st.sampled_from((1, 2)))))
    return PslProgram(predicates, rules)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(programs())
def test_printed_programs_parse_back(program):
    assert parse_program(print_program(program)) == program


class TestShippedProgram:
    def setup_method(self):
        from importlib import resources

        with resources.as_file(
            resources.files("polyscale").joinpath("assets/position_rules.psl")
        ) as path:
            self.program = load_program(path)

    def test_exactly_fourteen_rules(self):
        assert len(self.program.rules) == 14

    def test_only_pos_is_open(self):
        open_preds = [p.name for p in self.program.predicates.values() if not p.closed]
        assert open_preds == ["pos"]

    def test_group_layout(self):
        def body_preds(rule):
            return {lit.predicate for lit in rule.body}

        for rule in self.program.rules[0:8]:
            assert {"RegCoalition", "EUCoalition"} & body_preds(rule)
        for rule in self.program.rules[4:8]:
            assert sum(lit.predicate == "Party" for lit in rule.body) == 3
        for rule in self.program.rules[8:10]:
            assert "Similarity" in body_preds(rule)
        for rule in self.program.rules[10:12]:
            assert "LwRightLeftRatio" in body_preds(rule)
        for rule in self.program.rules[12:14]:
            assert "PreviousManifesto" in body_preds(rule)

    def test_round_trip(self):
        assert parse_program(print_program(self.program)) == self.program


class TestDistance:
    def test_two_body_closed_form_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            p, q, r = (float(v) for v in rng.uniform(0.0, 1.0, size=3))
            rule = GroundRule(
                1.0, 2, (free_lit(0), obs_lit(q)), GroundLiteral("pos", ("m1",), False, 1, None)
            )
            got = distance_to_satisfaction(rule, np.array([p, r]))
            expected = max(p + q - r - 1, 0)
            assert got == expected

    def test_negated_literals_use_one_minus_value(self):
        rule = GroundRule(1.0, 2, (free_lit(0, negated=True),), free_lit(1, negated=True))
        x = np.array([0.2, 0.3])
        # body 0.8, head 0.7, n=1: distance 0.8 - 0.7
        assert distance_to_satisfaction(rule, x) == (1.0 - 0.2) - (1.0 - 0.3) - 0

    def test_distance_range_and_monotonicity(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            rule = random_rule(rng, 3)
            x = rng.uniform(0.0, 1.0, size=3)
            d = distance_to_satisfaction(rule, x)
            assert 0.0 <= d <= 1.0
            for lit in rule.body:
                if lit.free_index is None or lit.negated:
                    continue
                higher = x.copy()
                higher[lit.free_index] = min(1.0, higher[lit.free_index] + 0.1)
                assert distance_to_satisfaction(rule, higher) >= d - 1e-12
            if rule.head.free_index is not None and not rule.head.negated:
                higher = x.copy()
                higher[rule.head.free_index] = min(1.0, higher[rule.head.free_index] + 0.1)
                assert distance_to_satisfaction(rule, higher) <= d + 1e-12

    def test_out_of_range_assignment_rejected(self):
        rule = GroundRule(1.0, 2, (free_lit(0),), free_lit(1))
        with pytest.raises(ValueError, match="outside"):
            distance_to_satisfaction(rule, np.array([1.2, 0.0]))


class TestEnergy:
    def test_worked_value(self):
        # body 1.0 and 0.9, head 0.6: distance 0.3, squared, weight 2 -> 0.18
        rule = GroundRule(2.0, 2, (obs_lit(1.0), free_lit(0)), free_lit(1))
        network = make_network([rule], 2)
        assert network.energy(np.array([0.9, 0.6])) == pytest.approx(0.18, rel=1e-12)

    def test_compiled_matches_reference_route(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n_free = int(rng.integers(1, 4))
            rules = [random_rule(rng, n_free) for _ in range(int(rng.integers(1, 7)))]
            network = make_network(rules, n_free)
            for _ in range(5):
                x = rng.uniform(0.0, 1.0, size=n_free)
                assert network.energy(x) == pytest.approx(
                    reference_energy(rules, x), rel=1e-12, abs=1e-12
                )

    def test_jensen_convexity(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n_free = int(rng.integers(1, 4))
            rules = [random_rule(rng, n_free) for _ in range(int(rng.integers(1, 7)))]
            network = make_network(rules, n_free)
            x = rng.uniform(0.0, 1.0, size=n_free)
            y = rng.uniform(0.0, 1.0, size=n_free)
            lam = float(rng.uniform(0.0, 1.0))
            mid = lam * x + (1.0 - lam) * y
            bound = lam * network.energy(x) + (1.0 - lam) * network.energy(y)
            assert network.energy(mid) <= bound + 1e-12

    @pytest.mark.parametrize("mu", [0.1, 1e-2, 1e-3])
    def test_smoothed_gradient_matches_finite_differences(self, mu):
        """The gradient MAP descends, against central differences of the
        smoothed energy; that energy is C^1, so no point near a kink is skipped."""
        rng = np.random.default_rng(37)
        eps = 1e-7
        for _ in range(100):
            n_free = int(rng.integers(1, 4))
            rules = [random_rule(rng, n_free) for _ in range(int(rng.integers(1, 5)))]
            comp = make_network(rules, n_free).compiled
            x = rng.uniform(0.05, 0.95, size=n_free)
            g = comp.smoothed_gradient_at(comp.linear(x), mu)
            for i in range(n_free):
                xp, xm = x.copy(), x.copy()
                xp[i] += eps
                xm[i] -= eps
                fd = (comp.smoothed_energy_at(comp.linear(xp), mu)
                      - comp.smoothed_energy_at(comp.linear(xm), mu)) / (2 * eps)
                assert g[i] == pytest.approx(fd, rel=0, abs=1e-6)

    def test_energy_validates_shape_and_range(self):
        rule = GroundRule(1.0, 2, (free_lit(0),), free_lit(1))
        network = make_network([rule], 2)
        with pytest.raises(ValueError, match="shape"):
            network.energy(np.array([0.5]))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            network.energy(np.array([0.5, 1.5]))


class TestDatabase:
    def test_double_observation_rejected(self):
        db = RelationalDatabase()
        db.observe("A", ("m1",), 0.5)
        with pytest.raises(ValueError, match="observed twice"):
            db.observe("A", ("m1",), 0.6)

    def test_target_observation_conflicts(self):
        db = RelationalDatabase()
        db.add_target("pos", ("m1",))
        with pytest.raises(ValueError, match="already a target"):
            db.observe("pos", ("m1",), 0.5)
        db.observe("A", ("m2",), 1.0)
        with pytest.raises(ValueError, match="already observed"):
            db.add_target("A", ("m2",))

    def test_value_range_checked(self):
        db = RelationalDatabase()
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            db.observe("A", ("m1",), 1.2)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            db.add_target("pos", ("m1",), initial=-0.1)

    def test_batches_are_checked_like_single_atoms_and_stored_whole_or_not_at_all(self):
        db = RelationalDatabase()
        db.add_target("pos", ("m3",))
        db.observe("L", ("m1", "m2"), 0.5)
        names = ["m1", "m2", "m3"]
        for predicate, args, values, match in [
            ("L", [[1, 0], [1, 0]], 1.0, "observed twice"),  # twice in the batch
            ("L", [[1, 0], [0, 1]], 1.0, "observed twice"),  # already observed
            ("pos", [[0], [2]], 1.0, "already a target"),
            ("L", [[1, 0], [2, 0]], [1.0, float("nan")], r"\[0, 1\]"),
            ("L", [[1, 3]], 1.0, "index the 3 constant"),
            ("L", [1, 0], 1.0, r"\(atoms, arity\)"),
        ]:
            with pytest.raises(ValueError, match=match):
                db.observe_many(predicate, names, args, values)
        assert len(db.observations) == 1
        db.observe_many("L", names, [[1, 0], [2, 1]], [0.25, 1.0])
        assert list(db.observations.items()) == [
            (("L", ("m1", "m2")), 0.5), (("L", ("m2", "m1")), 0.25), (("L", ("m3", "m2")), 1.0)]
        with pytest.raises(ValueError, match="observed twice"):
            db.observe("L", ("m3", "m2"), 0.5)
        with pytest.raises(ValueError, match="already observed"):
            db.add_target("L", ("m2", "m1"))

    def test_reads_see_each_write_to_a_column_they_have_read(self):
        db = RelationalDatabase()
        names = ["a", "b", "c"]
        db.observe_many("L", names, [[0, 1]], 0.5)
        assert ("A", ("a",)) not in db.observations
        db.observe("A", ("a",), 1.0)
        assert db.observations["L", ("a", "b")] == 0.5
        assert db.observations["A", ("a",)] == 1.0
        db.observe_many("L", names, [[1, 2]], 0.25)
        assert db.observations["L", ("b", "c")] == 0.25
        assert ("L", ("b", "c")) in db.observations
        assert len(db.observations) == 3
        db.observe("L", ("c", "a"), 1.0)
        assert db.observations["L", ("c", "a")] == 1.0
        assert ("L", ("c", "a")) in db.observations
        assert len(db.observations) == 4
        assert db.observations["L", ("a", "b")] == 0.5
        assert db.observations["A", ("a",)] == 1.0
        assert ("A", ("b",)) not in db.observations
        assert ("L", ("a", "c")) not in db.observations
        assert dict(db.observations) == {("L", ("a", "b")): 0.5, ("L", ("b", "c")): 0.25,
                                         ("L", ("c", "a")): 1.0, ("A", ("a",)): 1.0}


class TestGrounding:
    def pairwise_program(self):
        return parse_program(
            """
            open pos/1
            1.0 : Link(x, y) & pos(x) -> pos(y)
            """
        )

    def test_simple_pairwise_count(self):
        db = RelationalDatabase()
        db.observe("Link", ("a", "b"), 1.0)
        db.observe("Link", ("b", "a"), 1.0)
        db.add_target("pos", ("a",))
        db.add_target("pos", ("b",))
        network = ground(self.pairwise_program(), db)
        assert len(network) == 2

    def test_transitivity_count_matches_enumeration_oracle(self):
        program = parse_program(
            """
            open pos/1
            1.0 : Manifesto(x) & Party(x, a) & Manifesto(y) & Party(y, b)
                  & Manifesto(z) & Party(z, c) & SameElec(x, y) & SameElec(y, z)
                  & RegCoalition(a, b) & RegCoalition(b, c) & pos(x) -> pos(z)
            """.replace("\n                  ", " ")
        )
        db = RelationalDatabase()
        manifestos = ["m1", "m2", "m3"]
        party_of = {"m1": "p1", "m2": "p2", "m3": "p3"}
        for m in manifestos:
            db.observe("Manifesto", (m,), 1.0)
            db.observe("Party", (m, party_of[m]), 1.0)
            db.add_target("pos", (m,))
        for x, y in itertools.permutations(manifestos, 2):
            db.observe("SameElec", (x, y), 1.0)
            db.observe("RegCoalition", (party_of[x], party_of[y]), 0.62)
        network = ground(program, db)

        count = 0
        for x, y, z in itertools.product(manifestos, repeat=3):
            a, b, c = party_of[x], party_of[y], party_of[z]
            joins = [
                ("SameElec", (x, y)),
                ("SameElec", (y, z)),
                ("RegCoalition", (a, b)),
                ("RegCoalition", (b, c)),
            ]
            if any(atom not in db.observations for atom in joins):
                continue
            if x == z:  # head pos(z) appears in the body as pos(x)
                continue
            count += 1
        assert count == 6
        assert len(network) == count

    def test_tautology_pruned(self):
        program = parse_program("open pos/1\n1.0 : Link(x, y) & pos(x) -> pos(x)")
        db = RelationalDatabase()
        db.observe("Link", ("a", "b"), 1.0)
        db.add_target("pos", ("a",))
        assert len(ground(program, db)) == 0

    def test_provably_zero_body_pruned(self):
        program = parse_program("open pos/1\n1.0 : A(x) & B(x) -> pos(x)")
        db = RelationalDatabase()
        db.observe("A", ("m",), 0.4)
        db.observe("B", ("m",), 0.6)
        db.add_target("pos", ("m",))
        assert len(ground(program, db)) == 0
        db2 = RelationalDatabase()
        db2.observe("A", ("m",), 0.5)
        db2.observe("B", ("m",), 0.6)
        db2.add_target("pos", ("m",))
        assert len(ground(program, db2)) == 1

    def test_constant_rules_dropped(self):
        program = parse_program("open pos/1\n1.0 : A(x) -> B(x)\n1.0 : A(x) -> pos(x)")
        db = RelationalDatabase()
        db.observe("A", ("m",), 1.0)
        db.observe("B", ("m",), 0.2)
        db.add_target("pos", ("m",))
        network = ground(program, db)
        assert len(network) == 1
        assert network.rules[0].head.predicate == "pos"

    def test_open_predicate_without_targets_raises(self):
        program = self.pairwise_program()
        db = RelationalDatabase()
        db.observe("Link", ("a", "b"), 1.0)
        db.observe("pos", ("a",), 0.5)
        with pytest.raises(GroundingError, match="pos"):
            ground(program, db)

    def test_observed_open_atoms_join_as_context(self):
        db = RelationalDatabase()
        db.observe("Link", ("a", "b"), 1.0)
        db.observe("pos", ("a",), 0.9)
        db.add_target("pos", ("b",))
        network = ground(self.pairwise_program(), db)
        assert len(network) == 1
        result = map_inference(network)
        assert result.values[0] == pytest.approx(0.9, abs=1e-4)

    def test_undeclared_open_atom_substitution_skipped(self):
        db = RelationalDatabase()
        db.observe("Link", ("a", "b"), 1.0)
        db.add_target("pos", ("a",))
        network = ground(self.pairwise_program(), db)
        assert len(network) == 0

    def test_negated_only_variable_uses_observed_constants(self):
        program = parse_program("open pos/1\n1.0 : !Prior(x) -> !pos(x)")
        db = RelationalDatabase()
        db.observe("Prior", ("m",), 0.0)
        db.add_target("pos", ("m",))
        network = ground(program, db)
        assert len(network) == 1
        result = map_inference(network)
        assert result.values[0] == pytest.approx(0.0, abs=1e-4)

    def test_negated_only_variable_without_atoms_raises(self):
        program = parse_program("open pos/1\n1.0 : !Prior(x) -> !pos(x)")
        db = RelationalDatabase()
        db.add_target("pos", ("m",))
        with pytest.raises(GroundingError, match="Prior|observed"):
            ground(program, db)

    def test_arity_mismatch_between_atom_and_declaration(self):
        program = self.pairwise_program()
        db = RelationalDatabase()
        db.observe("Link", ("a", "b", "c"), 1.0)
        db.add_target("pos", ("a",))
        with pytest.raises(GroundingError, match="arity"):
            ground(program, db)

    def test_zero_valued_observation_grounds_nothing_positive(self):
        program = parse_program("open pos/1\n1.0 : A(x) -> pos(x)")
        db = RelationalDatabase()
        db.observe("A", ("m",), 0.0)
        db.add_target("pos", ("m",))
        assert len(ground(program, db)) == 0


class TestMapInference:
    def solve_text(self, text, observations, targets, initial=None, **solver_kwargs):
        program = parse_program(text)
        db = RelationalDatabase()
        for pred, args, value in observations:
            db.observe(pred, args, value)
        for pred, args in targets:
            db.add_target(pred, args, initial)
        network = ground(program, db)
        config = SolverConfig(**solver_kwargs) if solver_kwargs else None
        return network, map_inference(network, config)

    def test_opposing_anchors_balance_at_half(self):
        network, result = self.solve_text(
            "open pos/1\n1.0 : Up(x) -> pos(x)\n1.0 : Down(x) -> !pos(x)",
            [("Up", ("m",), 1.0), ("Down", ("m",), 1.0)],
            [("pos", ("m",))],
        )
        assert result.converged
        assert result.values[0] == pytest.approx(0.5, abs=1e-4)
        assert result.energy == pytest.approx(0.5, abs=1e-6)

    def test_weighted_anchors_closed_form(self):
        # 3(1-p)^2 + p^2 minimized at p = 0.75
        network, result = self.solve_text(
            "open pos/1\n3.0 : Up(x) -> pos(x)\n1.0 : Down(x) -> !pos(x)",
            [("Up", ("m",), 1.0), ("Down", ("m",), 1.0)],
            [("pos", ("m",))],
        )
        assert result.values[0] == pytest.approx(0.75, abs=1e-4)

    def test_linear_rules_drive_to_boundary(self):
        network, result = self.solve_text(
            "open pos/1\n2.0 : Up(x) -> pos(x) ^1\n1.0 : Down(x) -> !pos(x) ^1",
            [("Up", ("m",), 1.0), ("Down", ("m",), 1.0)],
            [("pos", ("m",))],
        )
        assert result.converged
        assert result.values[0] == pytest.approx(1.0, abs=1e-6)
        assert result.energy == pytest.approx(1.0, abs=1e-6)

    def test_warm_start_reaches_same_optimum(self):
        for start in (0.0, 0.37, 1.0):
            network, result = self.solve_text(
                "open pos/1\n1.0 : Up(x) -> pos(x)\n1.0 : Down(x) -> !pos(x)",
                [("Up", ("m",), 1.0), ("Down", ("m",), 1.0)],
                [("pos", ("m",))],
                initial=start,
            )
            assert network.initial.tolist() == [start]
            assert result.values[0] == pytest.approx(0.5, abs=1e-4)

    def test_warm_start_from_a_target_initial_value(self):
        network, result = self.solve_text(
            "open pos/1\n1.0 : Up(x) -> pos(x)",
            [("Up", ("m",), 1.0)],
            [("pos", ("m",))],
            initial=0.1,
        )
        assert network.initial.tolist() == [0.1]
        assert result.values[0] == pytest.approx(1.0, abs=1e-4)

    def test_empty_network_is_trivially_converged(self):
        network = make_network([], 0)
        result = map_inference(network)
        assert result.converged
        assert result.energy == 0.0
        assert result.iterations == 0

    def test_unconstrained_target_keeps_initial(self):
        network = make_network([], 2)
        result = map_inference(network)
        assert np.all(result.values == 0.5)

    def test_random_networks_match_grid_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(25):
            n_free = int(rng.integers(1, 4))
            rules = [random_rule(rng, n_free) for _ in range(int(rng.integers(1, 7)))]
            network = make_network(rules, n_free)
            result = map_inference(network)
            oracle = grid_minimum(rules, n_free)
            assert result.energy <= oracle + 1e-3

    def test_values_by_atom_round_trip(self):
        network, result = self.solve_text(
            "open pos/1\n1.0 : Up(x) -> pos(x)",
            [("Up", ("m",), 1.0)],
            [("pos", ("m",))],
        )
        by_atom = network.values_by_atom(result.values)
        assert by_atom[("pos", ("m",))] == pytest.approx(1.0, abs=1e-4)

    def test_result_reports_iterations(self):
        network, result = self.solve_text(
            "open pos/1\n1.0 : Up(x) -> pos(x)",
            [("Up", ("m",), 1.0)],
            [("pos", ("m",))],
        )
        assert isinstance(result, MapResult)
        assert result.iterations >= 1
