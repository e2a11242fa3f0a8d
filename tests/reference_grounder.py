"""Dict-per-substitution grounder: the reference for ``pslengine.ground``.

It extends one dict per substitution and builds a ``GroundLiteral`` for every
literal of every candidate row.  Each literal carries where its value comes
from, a free-atom index or an observed value, which ``pslengine`` keeps only
in its compiled arrays.  Tests compare the array grounder's compiled arrays,
rules (through ``as_rule``) and prune counts against the network this builds.
``compile_rules`` is the reference for the arrays: it compiles a list of
``GroundRule`` objects one literal at a time, and ``network_of`` builds a
``GroundNetwork`` from hand-built rules with it, one rule block per source
rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from polyscale.pslengine import (
    Atom,
    GroundingError,
    GroundNetwork,
    Literal,
    PslProgram,
    RelationalDatabase,
    Rule,
    RuleBlock,
    RuleStats,
    _check_arities,
    _Compiled,
)


@dataclass(frozen=True)
class GroundLiteral:
    predicate: str
    args: tuple[str, ...]
    negated: bool
    free_index: int | None  # index into the network's free atoms, or None
    observed_value: float | None  # fixed value when not free

    def __str__(self):
        return str(Literal(self.predicate, self.args, self.negated))


@dataclass(frozen=True)
class GroundRule:
    weight: float
    exponent: int
    body: tuple[GroundLiteral, ...]
    head: GroundLiteral


def as_rule(rule: GroundRule) -> Rule:
    """``rule`` as ``pslengine.GroundNetwork.rules`` holds it: a ``Rule`` over
    constants, without the literals' free indices and observed values."""
    def literal(lit: GroundLiteral) -> Literal:
        return Literal(lit.predicate, lit.args, lit.negated)

    return Rule(rule.weight, tuple(literal(lit) for lit in rule.body), literal(rule.head),
                rule.exponent)


def compile_rules(rules: Sequence[GroundRule], n_free: int) -> _Compiled:
    """The energy arrays of ``rules``, one hinge row per rule."""
    consts, weights, rhos = [], [], []
    entry_rule, entry_free, entry_coef = [], [], []
    for r, rule in enumerate(rules):
        const = -(len(rule.body) - 1.0)
        for lit, head in [(l, False) for l in rule.body] + [(rule.head, True)]:
            sign = -1.0 if head else 1.0
            if lit.negated:
                const += sign * 1.0
                coef = -sign
            else:
                coef = sign
            if lit.free_index is not None:
                entry_rule.append(r)
                entry_free.append(lit.free_index)
                entry_coef.append(coef)
            else:
                const += coef * lit.observed_value
        consts.append(const)
        weights.append(rule.weight)
        rhos.append(rule.exponent)
    return _Compiled(
        np.asarray(consts, dtype=np.float64),
        np.asarray(weights, dtype=np.float64),
        np.asarray(rhos, dtype=np.int64),
        np.asarray(entry_rule, dtype=np.intp),
        np.asarray(entry_free, dtype=np.intp),
        np.asarray(entry_coef, dtype=np.float64),
        n_free,
    )


def network_of(free_atoms: Sequence[Atom], initial, rules: Sequence[GroundRule],
               stats: Sequence[RuleStats] = ()) -> GroundNetwork:
    """A network of hand-built ground rules, compiled by ``compile_rules``:
    one block per entry of ``stats``, holding the next ``rows`` rules, or
    without ``stats`` one block of every rule with nothing pruned."""
    blocks, start = [], 0
    for block_stats in stats or [RuleStats(len(rules), 0, 0, 0, 0)]:
        block = rules[start : start + block_stats.rows]
        blocks.append(RuleBlock(compile_rules(block, len(free_atoms)), block, block_stats))
        start += block_stats.rows
    return GroundNetwork(free_atoms, initial, blocks)


def _binder_pools(program: PslProgram, db: RelationalDatabase):
    """Candidate ground atoms per predicate, split by role."""
    observed_by_pred: dict[str, list[Atom]] = {}
    for atom, value in db.observations.items():
        observed_by_pred.setdefault(atom[0], []).append(atom)
    targets_by_pred: dict[str, list[Atom]] = {}
    for atom in db.targets:
        targets_by_pred.setdefault(atom[0], []).append(atom)
    pools: dict[str, list[Atom]] = {}
    for name, pred in program.predicates.items():
        if pred.closed:
            # positive closed literals can only hold on observed atoms > 0
            pools[name] = [
                a for a in observed_by_pred.get(name, []) if db.observations[a] > 0.0
            ]
        else:
            pools[name] = targets_by_pred.get(name, []) + observed_by_pred.get(name, [])
    return pools


def reference_ground(program: PslProgram, db: RelationalDatabase) -> GroundNetwork:
    """Instantiate every rule against the database, one dict per substitution.

    Same contract as ``pslengine.ground``; the returned network is built from
    ``GroundRule`` objects and carries the same per-rule ``stats``.
    """
    _check_arities(program, db)
    for name, pred in program.predicates.items():
        if not pred.closed:
            used = any(
                lit.predicate == name
                for rule in program.rules
                for lit in rule.body + (rule.head,)
            )
            if used and not any(a[0] == name for a in db.targets):
                raise GroundingError(
                    f"open predicate {name} has no target declaration in the database"
                )
    pools = _binder_pools(program, db)
    all_observed: dict[str, list[Atom]] = {}
    for atom in db.observations:
        all_observed.setdefault(atom[0], []).append(atom)

    free_atoms = list(db.targets)
    free_index = {a: i for i, a in enumerate(free_atoms)}
    initial = np.array(
        [0.5 if v is None else v for v in db.targets.values()], dtype=np.float64
    )

    def ground_literal(lit: Literal, sub: dict[str, str]) -> GroundLiteral | None:
        atom = (lit.predicate, tuple(sub[v] for v in lit.args))
        if atom in free_index:
            return GroundLiteral(atom[0], atom[1], lit.negated, free_index[atom], None)
        if atom in db.observations:
            return GroundLiteral(atom[0], atom[1], lit.negated, None, db.observations[atom])
        if program.predicates[lit.predicate].closed:
            return GroundLiteral(atom[0], atom[1], lit.negated, None, 0.0)
        return None  # open atom that was never declared

    ground_rules: list[GroundRule] = []
    per_rule = []
    for rule in program.rules:
        stats = {"missing": 0, "tautology": 0, "body_zero": 0, "constant": 0}
        kept = len(ground_rules)
        binders = [
            lit
            for lit in rule.body
            if not (program.predicates[lit.predicate].closed and lit.negated)
        ]
        rule_vars = {v for lit in rule.body for v in lit.args}
        bindable = {v for lit in binders for v in lit.args}
        unbindable = sorted(rule_vars - bindable)
        substitutions: list[dict[str, str]] = [dict()]
        bound: set[str] = set()
        if unbindable:
            var_pools: dict[str, set[str]] = {v: set() for v in unbindable}
            for lit in rule.body:
                for i, v in enumerate(lit.args):
                    if v in var_pools:
                        for atom in all_observed.get(lit.predicate, []):
                            var_pools[v].add(atom[1][i])
            empty = [v for v in unbindable if not var_pools[v]]
            if empty:
                raise GroundingError(
                    f"variable(s) {empty} appear only in negated literals of "
                    f"predicates with no observed atoms: {rule}"
                )
            for v in unbindable:
                substitutions = [
                    dict(sub, **{v: const})
                    for sub in substitutions
                    for const in sorted(var_pools[v])
                ]
            bound.update(unbindable)
        remaining = list(binders)
        while remaining and substitutions:
            # prefer literals that reuse already-bound variables, then small pools
            remaining.sort(
                key=lambda lit: (
                    -sum(1 for v in lit.args if v in bound),
                    len(pools[lit.predicate]),
                )
            )
            lit = remaining.pop(0)
            bound_positions = [i for i, v in enumerate(lit.args) if v in bound]
            index: dict[tuple, list[Atom]] = {}
            for atom in pools[lit.predicate]:
                if len(atom[1]) != len(lit.args):
                    continue
                key = tuple(atom[1][i] for i in bound_positions)
                index.setdefault(key, []).append(atom)
            new_subs = []
            for sub in substitutions:
                key = tuple(sub[lit.args[i]] for i in bound_positions)
                for atom in index.get(key, ()):
                    extended = dict(sub)
                    ok = True
                    for var, const in zip(lit.args, atom[1]):
                        if var in extended and extended[var] != const:
                            ok = False
                            break
                        extended[var] = const
                    if ok:
                        new_subs.append(extended)
            substitutions = new_subs
            bound.update(lit.args)
        for sub in substitutions:
            body = []
            for lit in rule.body:
                gl = ground_literal(lit, sub)
                if gl is None:
                    body = None
                    break
                body.append(gl)
            if body is None:
                stats["missing"] += 1
                continue
            head = ground_literal(rule.head, sub)
            if head is None:
                stats["missing"] += 1
                continue
            if any(
                (gl.predicate, gl.args, gl.negated)
                == (head.predicate, head.args, head.negated)
                for gl in body
            ):
                stats["tautology"] += 1
                continue
            fixed = [gl for gl in body if gl.free_index is None]
            fixed_sum = sum(
                (1.0 - gl.observed_value) if gl.negated else gl.observed_value
                for gl in fixed
            )
            if fixed_sum <= len(fixed) - 1:
                stats["body_zero"] += 1
                continue
            if head.free_index is None and not any(gl.free_index is not None for gl in body):
                stats["constant"] += 1
                continue
            ground_rules.append(
                GroundRule(rule.weight, rule.exponent, tuple(body), head)
            )
        per_rule.append(RuleStats(rows=len(ground_rules) - kept, **stats))
    return network_of(free_atoms, initial, ground_rules, per_rule)
