"""Hinge-loss soft-logic engine: rule DSL, grounding, convex MAP inference.

Rules are weighted implications over first-order literals::

    # comment
    open pos/1
    closed Coalition/2
    1.0 : Coalition(a, b) & pos(a) -> pos(b)

Grammar per rule line: ``[<weight> :] <literal> ('&' <literal>)* '->'
<literal>`` with ``<literal> ::= ['!'] Name '(' var (',' var)* ')'``.
Unicode connectives are accepted for ``&`` (``∧``), ``!`` (``¬``) and ``->``
(``→``).  An optional trailing ``^1`` or ``^2`` overrides the hinge exponent
(default 2).  Undeclared predicates are auto-declared closed with the arity
of first use.

Semantics: atom values live in [0, 1].  A ground rule with body literals
b_1..b_n and head h is scored by its distance to satisfaction

    d = max(b_1 + ... + b_n - h - (n - 1), 0)

(the Lukasiewicz implication residual; a negated literal contributes one
minus its atom value).  This equals clamping the Lukasiewicz AND of the body
first, since h >= 0.  The MAP state minimizes the energy
``sum_r weight_r * d_r ** exponent_r`` over the free atoms, a convex box
problem solved by accelerated projected gradient descent (FISTA) over the
rows with equal rows merged.

Grounding works on arrays, as database joins that produce hinge rows.  The
database stores each predicate's observations as one column of constant ids
and values, in insertion order, written only in checked batches
(``observe_many``; ``observe`` is a batch of one); grounding re-codes the
constants in sorted order and reads each column whole, never an atom at a
time.  A rule's binding literals are joined by sort-and-search equi-joins on
the variables already bound, all literals of all candidate rows are looked up
at once, exact prunes apply as masks, and the kept rows are written straight
into the flat arrays the solver uses (one row per ground rule: a constant, a
weight, an exponent, and (row, free atom, coefficient) entries, plus the
row's merge codes).  Rules whose literals match up to the negation of open
literals, such as a rule and its twin over negated ``pos`` atoms, share one
join and one lookup per literal; each applies its own prunes and writes its
own rows.  A ground rule is a ``Rule`` over constants, built only when a
caller reads ``GroundNetwork.rules``.  The energy, and the smoothed energy
and gradient that MAP descends, are computed from those arrays alone; the
reference that compiles hand-built ground rules into them lives in the tests
(``tests/reference_grounder.py``).

Each source rule grounds independently of the others into one block of
rows, and a network is these blocks plus an optional prior block, which
``GroundNetwork.with_prior`` adds by returning a new network; no network
changes after it is built.  ``GroundNetwork.select`` picks any subset of the
blocks, so ``evaluate`` grounds its database once and calibrates every
ablation prefix on such a cut.  The rows keep their merge codes in their
blocks, so merging a cut's equal rows before its solve is one sort.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import logging
import re
import types
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

log = logging.getLogger(__name__)

Atom = tuple[str, tuple[str, ...]]


class RuleSyntaxError(ValueError):
    """Raised on malformed rule text; names line and column."""


class GroundingError(ValueError):
    """Raised when a program cannot be grounded against a database."""


@dataclass(frozen=True)
class Predicate:
    name: str
    arity: int
    closed: bool


@dataclass(frozen=True)
class Literal:
    predicate: str
    args: tuple[str, ...]
    negated: bool = False

    def __str__(self):
        inner = f"{self.predicate}({', '.join(self.args)})"
        return f"!{inner}" if self.negated else inner


@dataclass(frozen=True)
class Rule:
    weight: float
    body: tuple[Literal, ...]
    head: Literal
    exponent: int = 2

    def __post_init__(self):
        if self.weight < 0:
            raise ValueError(f"rule weight must be nonnegative, got {self.weight}")
        if self.exponent not in (1, 2):
            raise ValueError(f"rule exponent must be 1 or 2, got {self.exponent}")
        if not self.body:
            raise ValueError("rule must have at least one body literal")
        body_vars = {v for lit in self.body for v in lit.args}
        missing = [v for v in self.head.args if v not in body_vars]
        if missing:
            raise ValueError(f"head variable(s) {missing} do not appear in the body")


@dataclass
class PslProgram:
    predicates: dict[str, Predicate]
    rules: list[Rule]

    def subset(self, indices: Iterable[int]) -> "PslProgram":
        """Same predicates, only the selected rules (ablation support)."""
        return PslProgram(dict(self.predicates), [self.rules[i] for i in indices])


_DECL_RE = re.compile(r"^(open|closed)\s+([A-Za-z_]\w*)\s*/\s*(\d+)\s*$")
_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<number>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_]\w*)"
    r"|(?P<arrow>->|→)"
    r"|(?P<amp>&|∧)"
    r"|(?P<bang>!|¬)"
    r"|(?P<colon>:)"
    r"|(?P<lparen>\()"
    r"|(?P<rparen>\))"
    r"|(?P<comma>,)"
    r"|(?P<caret>\^)"
)


def _tokenize(line: str, lineno: int) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(line):
        m = _TOKEN_RE.match(line, pos)
        if m is None:
            raise RuleSyntaxError(
                f"line {lineno}, column {pos + 1}: unexpected character {line[pos]!r}"
            )
        pos = m.end()
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), m.start() + 1))
    return tokens


class _RuleParser:
    """Recursive descent over one rule line's tokens."""

    def __init__(self, tokens, lineno):
        self.tokens = tokens
        self.lineno = lineno
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, "", -1)

    def take(self, kind):
        got_kind, text, col = self.peek()
        if got_kind != kind:
            where = f"line {self.lineno}, column {col}" if col >= 0 else f"line {self.lineno}, end"
            raise RuleSyntaxError(f"{where}: expected {kind}, got {text!r}")
        self.pos += 1
        return text, col

    def parse(self) -> Rule:
        weight = 1.0
        if self.peek()[0] == "number" and self.tokens[self.pos + 1 : self.pos + 2] and \
                self.tokens[self.pos + 1][0] == "colon":
            text, col = self.take("number")
            weight = float(text)
            if weight < 0:
                raise RuleSyntaxError(
                    f"line {self.lineno}, column {col}: negative weight {text}"
                )
            self.take("colon")
        literals = [self.literal()]
        while self.peek()[0] == "amp":
            self.take("amp")
            literals.append(self.literal())
        self.take("arrow")
        head = self.literal()
        exponent = 2
        if self.peek()[0] == "caret":
            self.take("caret")
            text, col = self.take("number")
            if text not in ("1", "2"):
                raise RuleSyntaxError(
                    f"line {self.lineno}, column {col}: exponent must be 1 or 2"
                )
            exponent = int(text)
        if self.pos != len(self.tokens):
            _, text, col = self.peek()
            raise RuleSyntaxError(
                f"line {self.lineno}, column {col}: trailing input {text!r}"
            )
        try:
            return Rule(weight=weight, body=tuple(literals), head=head, exponent=exponent)
        except ValueError as exc:
            raise RuleSyntaxError(f"line {self.lineno}: {exc}") from None

    def literal(self) -> Literal:
        negated = False
        if self.peek()[0] == "bang":
            self.take("bang")
            negated = True
        name, _ = self.take("name")
        self.take("lparen")
        args = [self.take("name")[0]]
        while self.peek()[0] == "comma":
            self.take("comma")
            args.append(self.take("name")[0])
        self.take("rparen")
        return Literal(predicate=name, args=tuple(args), negated=negated)


def parse_program(text: str) -> PslProgram:
    """Parse a full program: declarations, comments and rules."""
    predicates: dict[str, Predicate] = {}
    rules: list[Rule] = []

    def register(name: str, arity: int, lineno: int):
        known = predicates.get(name)
        if known is None:
            predicates[name] = Predicate(name, arity, closed=True)
        elif known.arity != arity:
            raise RuleSyntaxError(
                f"line {lineno}: predicate {name} used with arity {arity}, "
                f"declared with {known.arity}"
            )

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        decl = _DECL_RE.match(line.strip())
        if decl:
            kind, name, arity = decl.group(1), decl.group(2), int(decl.group(3))
            known = predicates.get(name)
            closed = kind == "closed"
            if known is not None and (known.arity != arity or known.closed != closed):
                raise RuleSyntaxError(
                    f"line {lineno}: conflicting declaration for predicate {name}"
                )
            predicates[name] = Predicate(name, arity, closed=closed)
            continue
        rule = _RuleParser(_tokenize(line, lineno), lineno).parse()
        for lit in rule.body + (rule.head,):
            register(lit.predicate, len(lit.args), lineno)
        rules.append(rule)
    return PslProgram(predicates, rules)


def load_program(path) -> PslProgram:
    from pathlib import Path

    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"program file not found: {path}")
    return parse_program(path.read_text(encoding="utf-8"))


def print_program(program: PslProgram) -> str:
    """Canonical text form; ``parse_program`` of it reproduces the program."""
    lines = []
    for pred in program.predicates.values():
        kind = "closed" if pred.closed else "open"
        lines.append(f"{kind} {pred.name}/{pred.arity}")
    if program.rules:
        lines.append("")
    lines += [rule_text(rule) for rule in program.rules]
    return "\n".join(lines) + "\n"


def rule_text(rule: Rule) -> str:
    """One rule's line of ``print_program``."""
    body = " & ".join(str(lit) for lit in rule.body)
    suffix = " ^1" if rule.exponent == 1 else ""
    return f"{rule.weight!r} : {body} -> {rule.head}{suffix}"


class _Observations(Mapping):
    """A database's observed atoms and their values, read-only: predicate by
    predicate, each in insertion order.  A read looks the atom up in its
    column's dict, built on the column's first read since its last write."""

    def __init__(self, db: "RelationalDatabase"):
        self._db = db

    def __len__(self):
        return sum(len(values) for _, values in self._db._columns.values())

    def __iter__(self):
        names = self._db.constants
        for (predicate, _), (ids, _) in self._db._columns.items():
            for row in ids.tolist():
                yield predicate, tuple(names[i] for i in row)

    def __getitem__(self, atom: Atom) -> float:
        predicate, args = atom
        key = (predicate, len(args))
        if key not in self._db._indexes:
            ids, values = self._db.column(*key)
            self._db._indexes[key] = dict(zip(map(tuple, ids.tolist()), values.tolist()))
        value = self._db._indexes[key].get(tuple(self._db._ids.get(a, -1) for a in args))
        if value is None:
            raise KeyError(atom)
        return value


class RelationalDatabase:
    """Observed atom values plus the open atoms to infer.

    Closed-world: an atom that is neither observed nor a target reads as 0.
    Each atom may be observed once, or be a target, never both.

    Observations are stored as one column per predicate (and arity), in
    insertion order: an (atoms, arity) array of each atom's arguments as ids
    into ``constants``, and an array of values.  ``observe_many`` is the one
    write path: it checks a batch of atoms of one predicate with arrays and
    replaces that predicate's column with the longer one; ``observe`` is a
    batch of one.  ``ground`` reads the columns as they are.
    ``observations`` is a read-only mapping from atom to value over the
    columns.  ``targets`` is a read-only mapping from atom to initial value
    (None for the default 0.5), in insertion order; ``add_target`` is its
    one writer.
    """

    def __init__(self):
        self.constants: list[str] = []  # by id
        self._ids: dict[str, int] = {}
        self._columns: dict[tuple[str, int], tuple[np.ndarray, np.ndarray]] = {}
        self._indexes: dict[tuple[str, int], dict[tuple[int, ...], float]] = {}
        self._targets: dict[Atom, float | None] = {}
        # the predicates of the targets, which ``observe_many`` checks each
        # batch against
        self._target_predicates: set[str] = set()

    @property
    def targets(self) -> Mapping[Atom, float | None]:
        return types.MappingProxyType(self._targets)

    @property
    def observations(self) -> Mapping[Atom, float]:
        return _Observations(self)

    def column(self, predicate: str, arity: int) -> tuple[np.ndarray, np.ndarray]:
        """The observed atoms of ``predicate`` with ``arity`` arguments, in
        insertion order: (atoms, arity) ids into ``constants``, and values."""
        return self._columns.get((predicate, arity)) or (
            np.empty((0, arity), dtype=np.int64), np.empty(0))

    def observe(self, predicate: str, args: Sequence[str], value: float) -> None:
        """Observe ``predicate(*args)`` with ``value``.  Each call is a batch of
        one for ``observe_many`` and costs a pass over the predicate's column,
        so bulk loads should call ``observe_many``."""
        self.observe_many(predicate, args, [range(len(args))], value)

    def observe_many(self, predicate: str, constants: Sequence[str], args,
                     values) -> None:
        """Observe ``predicate(constants[args[i, 0]], constants[args[i, 1]], ...)``
        with value ``values[i]`` for each row i of the (atoms, arity) index
        array ``args``, in row order; one value stands for all.  Refuses the
        whole batch before any atom is stored if a value lies outside [0, 1],
        or an atom is observed twice or is already a target."""
        args = np.asarray(args, dtype=np.int64)
        if args.ndim != 2:
            raise ValueError(f"atom arguments must be an (atoms, arity) array, "
                             f"got shape {args.shape}")
        values = np.array(np.broadcast_to(np.asarray(values, dtype=np.float64),
                                          (len(args),)))
        bad = ~((values >= 0.0) & (values <= 1.0))
        if bad.any():
            raise ValueError(f"atom value must be in [0, 1], got {values[bad][0]}")
        if args.size and not 0 <= args.min() <= args.max() < len(constants):
            raise ValueError(f"atom arguments must index the {len(constants)} constant(s)")
        if not len(args):
            return
        names = [str(c) for c in constants]

        def atom(row: int) -> Atom:
            return predicate, tuple(names[i] for i in args[row])

        if predicate in self._target_predicates:
            for row in range(len(args)):
                if atom(row) in self._targets:
                    raise ValueError(f"atom {atom(row)} is already a target")
        # the ids the batch's new constants get once it is accepted
        new: dict[str, int] = {}
        for c in names:
            if c not in self._ids and c not in new:
                new[c] = len(self.constants) + len(new)
        ids = np.array([self._ids.get(c, new.get(c)) for c in names], dtype=np.int64)[args]
        key = (predicate, args.shape[1])
        old, old_values = self.column(*key)
        keys = np.concatenate(_joint_keys(old, ids, max(len(self.constants) + len(new), 1)))
        _, first = np.unique(keys, return_index=True)
        if len(first) < len(keys):
            again = np.ones(len(keys), dtype=bool)
            again[first] = False
            raise ValueError(f"atom {atom(np.flatnonzero(again)[0] - len(old))} observed twice")
        self._ids.update(new)
        self.constants.extend(new)
        self._columns[key] = (np.concatenate([old, ids]), np.concatenate([old_values, values]))
        self._indexes.pop(key, None)

    def add_target(self, predicate: str, args: Sequence[str], initial: float | None = None) -> None:
        atom = (predicate, tuple(str(a) for a in args))
        if atom in self._targets:
            raise ValueError(f"duplicate target {atom}")
        if atom in self.observations:
            raise ValueError(f"atom {atom} is already observed")
        if initial is not None and not 0.0 <= initial <= 1.0:
            raise ValueError(f"initial value must be in [0, 1], got {initial}")
        self._targets[atom] = initial
        self._target_predicates.add(predicate)


@dataclass(frozen=True)
class RuleStats:
    """What grounding one source rule produced: kept rows and exact prunes.

    ``missing`` counts substitutions with a literal on an open atom that is
    neither a target nor observed, ``tautology`` those whose head repeats a
    body literal, ``body_zero`` those whose observed body can never hold,
    and ``constant`` those without a free atom.
    """

    rows: int
    missing: int
    tautology: int
    body_zero: int
    constant: int


class RuleBlock(NamedTuple):
    """One source rule's share of a ground network: its energy rows, its
    ground rules (one per row) and what grounding it produced."""

    compiled: "_Compiled"
    rules: Sequence[Rule]
    stats: RuleStats


class GroundNetwork:
    """Ground rules over indexed free atoms, as blocks of compiled energy rows.

    ``blocks`` holds one ``RuleBlock`` per source rule, in program order, and
    ``prior`` the optional block of prior rows after them (``with_prior``).
    ``rules``, a read-only sequence of ``Rule``s over constants that builds
    each one only when read, and ``stats`` run over the rule blocks;
    ``compiled`` holds every row, the prior's last, and is concatenated on
    first read.  No network changes after it is built: ``select`` and
    ``with_prior`` return new networks that share the blocks, so ``compiled``
    never goes stale.  ``map_inference`` solves on ``compiled.merged()``, the
    same energy with equal rows merged, which it sorts out for each solve from
    the merge codes the rows carry; ``compiled``, ``rules`` and ``stats`` keep
    one row per ground rule.
    """

    def __init__(self, free_atoms: Sequence[Atom], initial: np.ndarray,
                 blocks: Sequence[RuleBlock], prior: "_Compiled | None" = None):
        self.free_atoms = tuple(free_atoms)
        self.free_index = {a: i for i, a in enumerate(self.free_atoms)}
        self.initial = np.asarray(initial, dtype=np.float64)
        self.blocks = tuple(blocks)
        self.prior = prior
        self.rules = _GroundRules([b.rules for b in self.blocks])
        self.stats = tuple(b.stats for b in self.blocks)
        self._parts = [b.compiled for b in self.blocks] + ([] if prior is None else [prior])

    def __len__(self):
        """Number of hinge rows in the energy: the ground rules, then any prior."""
        return sum(len(part.consts) for part in self._parts)

    @functools.cached_property
    def compiled(self) -> "_Compiled":
        return _concat(self._parts, len(self.free_atoms))

    def with_prior(self, weight: float) -> "GroundNetwork":
        """This network plus a prior block that pulls every free atom toward its
        initial value with a squared hinge: two rows of ``weight`` per free
        atom, ``initial - x`` and ``x - initial``, which ``rules`` does not list.
        ``weight`` must be finite and nonnegative, so the energy stays convex.
        """
        if not (np.isfinite(weight) and weight >= 0):
            raise ValueError(f"prior weight must be finite and nonnegative, got {weight}")
        if self.prior is not None:
            raise ValueError("the network already holds prior rows")
        n = len(self.free_atoms)
        consts = np.empty(2 * n)
        consts[0::2] = -0.0 + 1.0 * self.initial
        consts[1::2] = -0.0 + -1.0 * self.initial
        free, coef = np.repeat(np.arange(n, dtype=np.intp), 2), np.tile([-1.0, 1.0], n)
        prior = _Compiled(
            consts,
            np.full(2 * n, weight, dtype=np.float64),
            np.full(2 * n, 2, dtype=np.int64),
            np.arange(2 * n, dtype=np.intp),
            free,
            coef,
            n,
            _entry_codes(free, coef)[:, None],  # one entry per row
        )
        return GroundNetwork(self.free_atoms, self.initial, self.blocks, prior)

    def select(self, rule_indices: Iterable[int]) -> "GroundNetwork":
        """The blocks of the chosen source rules, in the order given.

        The result equals grounding ``program.subset(rule_indices)`` against
        the same database, because each rule's block grounds independently of
        the other rules.
        """
        if self.prior is not None:
            raise ValueError("cannot select rule blocks from a network with prior rows")
        blocks = [self.blocks[k] for k in rule_indices]
        return GroundNetwork(self.free_atoms, self.initial, blocks)

    def energy(self, values: np.ndarray | Sequence[float]) -> float:
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (len(self.free_atoms),):
            raise ValueError(
                f"assignment must have shape ({len(self.free_atoms)},), got {values.shape}"
            )
        if len(values) and (values.min() < 0.0 or values.max() > 1.0):
            raise ValueError("assignment values must lie in [0, 1]")
        return self.compiled.energy(values)

    def values_by_atom(self, values: np.ndarray) -> dict[Atom, float]:
        return {atom: float(values[i]) for atom, i in self.free_index.items()}


class _Compiled:
    """Flat arrays for vectorized energy and gradient.

    ``linear(x)`` gives the hinge rows, one value per row before clamping;
    the ``*_at`` methods take those rows, so a caller that already holds
    them for an assignment does not compute them again.  On arrays without
    a linear row (every rule of the shipped program is squared) they
    compute the squared terms alone: the linear and Huber terms they skip
    would each be an exact zero, and adding a zero keeps every bit.

    ``row_codes`` holds each row's entries as merge codes (``_entry_codes``)
    in ascending order, left-padded with 0; ``merged`` sorts rows by them.
    They are built from the entries unless given, which the prior block of
    ``GroundNetwork.with_prior``, ``_concat`` and ``merged`` do.
    """

    def __init__(self, consts, weights, rhos, entry_rule, entry_free, entry_coef, n_free,
                 row_codes=None):
        self.consts = consts
        self.weights = weights
        self.rhos = rhos
        self.entry_rule = entry_rule
        self.entry_free = entry_free
        self.entry_coef = entry_coef
        self.n_free = n_free
        self.row_codes = (_row_codes(len(consts), entry_rule, entry_free, entry_coef)
                          if row_codes is None else row_codes)

    @functools.cached_property
    def _weights_by_exponent(self) -> tuple[np.ndarray, np.ndarray | None]:
        """Each row's weight in the array of its exponent, squared or linear,
        and 0 in the other: one expression then scores both kinds of row.
        The linear array is None when no row is linear."""
        linear = self.rhos == 1
        if not linear.any():
            return self.weights, None
        return np.where(linear, 0.0, self.weights), np.where(linear, self.weights, 0.0)

    def linear(self, x: np.ndarray) -> np.ndarray:
        return self.consts + np.bincount(
            self.entry_rule,
            weights=self.entry_coef * x[self.entry_free],
            minlength=len(self.consts),
        )

    def energy(self, x: np.ndarray) -> float:
        return self.energy_at(self.linear(x))

    def energy_at(self, u: np.ndarray) -> float:
        d = np.maximum(u, 0.0)
        squared, linear = self._weights_by_exponent
        if linear is None:
            return float(np.sum(squared * (d * d)))
        return float(np.sum(squared * (d * d) + linear * d))

    def smoothed_energy_at(self, u: np.ndarray, mu: float) -> float:
        """Energy with linear hinges replaced by their Huber smoothing.

        max(u, 0) becomes u^2/(2 mu) on (0, mu] and u - mu/2 beyond, which
        is convex, C^1, and underestimates the hinge by at most mu/2 per
        rule.  Squared hinges are already C^1 and stay exact.
        """
        d = np.maximum(u, 0.0)
        squared, linear = self._weights_by_exponent
        if linear is None:
            return float(np.sum(squared * (d * d)))
        huber = np.where(u <= mu, d * d / (2.0 * mu), u - mu / 2.0)
        return float(np.sum(squared * (d * d) + linear * huber))

    def smoothed_gradient_at(self, u: np.ndarray, mu: float) -> np.ndarray:
        d = np.maximum(u, 0.0)
        squared, linear = self._weights_by_exponent
        if linear is None:
            return self._pull_back(2.0 * squared * d)
        return self._pull_back(2.0 * squared * d + linear * np.minimum(d / mu, 1.0))

    def _pull_back(self, slope: np.ndarray) -> np.ndarray:
        """Gradient over the free atoms from the energy's slope per row."""
        return np.bincount(
            self.entry_free,
            weights=self.entry_coef * slope[self.entry_rule],
            minlength=self.n_free,
        )

    def merged(self) -> "_Compiled":
        """The same energy over fewer rows: equal rows become one.

        Rows are equal when they have the same exponent, the same constant
        and the same (free atom, coefficient) entries in any order.  Each
        term of the energy is its row's weight times a function of the row
        alone, so equal rows add up to one row carrying the sum of their
        weights.  The groups come in the order of their sort keys (the
        exponent, then ``row_codes``, then the constant), and each keeps the
        constant and entries of its first row and sums its weights in row
        order, so the result depends only on these arrays, not on how they
        were built.  The row codes are built once, when ``ground`` writes a
        rule block or ``with_prior`` the prior block, and travel with the
        blocks into ``_concat``, so a merge is one stable sort.
        """
        n_rows = len(self.consts)
        table = np.column_stack([self.rhos, self.row_codes])
        key, _ = _joint_keys(table, table[:0], max(2 * self.n_free + 1, 3))
        by_row = np.lexsort((self.consts, key))  # stable: a group's first row leads it
        key, consts = key[by_row], self.consts[by_row]
        starts = np.ones(n_rows, dtype=bool)
        starts[1:] = (key[1:] != key[:-1]) | (consts[1:] != consts[:-1])
        kept = by_row[starts]
        group = np.empty(n_rows, dtype=np.intp)
        group[by_row] = np.cumsum(starts) - 1
        is_kept = np.zeros(n_rows, dtype=bool)
        is_kept[kept] = True
        entries = is_kept[self.entry_rule]
        return _Compiled(
            self.consts[kept],
            np.bincount(group, weights=self.weights, minlength=len(kept)),
            self.rhos[kept],
            group[self.entry_rule[entries]],
            self.entry_free[entries],
            self.entry_coef[entries],
            self.n_free,
            self.row_codes[kept],
        )


def _entry_codes(free: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Merge code of a (free atom, coefficient) entry: ``2 * atom + 1`` for a
    coefficient of -1 and ``2 * atom + 2`` for +1, in the order of (atom,
    coefficient) and never 0, so 0 can pad."""
    return 2 * free + (coef > 0) + 1


def _row_codes(n_rows: int, entry_rule, entry_free, entry_coef) -> np.ndarray:
    """Each row's entry codes in ascending order, left-padded with 0 to the
    longest row: the table ``merged`` sorts rows by."""
    if np.any(np.abs(entry_coef) != 1.0):
        raise ValueError("entry coefficients must be -1 or 1")
    counts = np.bincount(entry_rule, minlength=n_rows)
    width = int(counts.max()) if n_rows else 0
    columns = np.zeros((width, n_rows), dtype=np.int64)  # the table, transposed
    order = np.argsort(entry_rule, kind="stable")
    rows = entry_rule[order]
    slots = np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]
    columns[slots, rows] = _entry_codes(entry_free, entry_coef)[order]
    # odd-even transposition sort: ``width`` rounds of compare-exchanges
    # between neighbouring columns sort every row at once, where a row-wise
    # sort would make one call per row
    for parity in range(width):
        left, right = columns[parity % 2 : width - 1 : 2], columns[parity % 2 + 1 : width : 2]
        low = np.minimum(left, right)
        np.maximum(left, right, out=right)
        left[...] = low
    return np.ascontiguousarray(columns.T)


def _concat(parts: Sequence[_Compiled], n_free: int) -> _Compiled:
    """Rows of ``parts`` one after another."""
    offsets = np.cumsum([0] + [len(p.consts) for p in parts])
    width = max([p.row_codes.shape[1] for p in parts], default=0)
    row_codes = np.zeros((offsets[-1], width), dtype=np.int64)
    for p, o in zip(parts, offsets):
        row_codes[o : o + len(p.consts), width - p.row_codes.shape[1]:] = p.row_codes
    return _Compiled(
        np.concatenate([np.empty(0)] + [p.consts for p in parts]),
        np.concatenate([np.empty(0)] + [p.weights for p in parts]),
        np.concatenate([np.empty(0, np.int64)] + [p.rhos for p in parts]),
        np.concatenate([np.empty(0, np.intp)]
                       + [p.entry_rule + o for p, o in zip(parts, offsets)]),
        np.concatenate([np.empty(0, np.intp)] + [p.entry_free for p in parts]),
        np.concatenate([np.empty(0)] + [p.entry_coef for p in parts]),
        n_free,
        row_codes,
    )


def _check_arities(program: PslProgram, db: RelationalDatabase):
    for (name, arity), (ids, _) in db._columns.items():
        pred = program.predicates.get(name)
        if pred is not None and pred.arity != arity:
            first = tuple(db.constants[i] for i in ids[0])
            raise GroundingError(
                f"atom {(name, first)} does not match declared arity {pred.arity} of {name}"
            )
    for atom in db.targets:
        pred = program.predicates.get(atom[0])
        if pred is not None and pred.arity != len(atom[1]):
            raise GroundingError(
                f"atom {atom} does not match declared arity {pred.arity} of {atom[0]}"
            )


_INT64_MAX = np.iinfo(np.int64).max


def _joint_keys(left: np.ndarray, right: np.ndarray, base: int):
    """One int64 key per row of two code matrices; equal rows, equal keys.

    Columns are packed base-``base``.  When the next column would overflow
    int64, the keys so far are first re-coded densely over both matrices.
    """
    kl = np.zeros(len(left), dtype=np.int64)
    kr = np.zeros(len(right), dtype=np.int64)
    span = 1
    for j in range(left.shape[1]):
        if span * base > _INT64_MAX:
            distinct, inverse = np.unique(np.concatenate([kl, kr]), return_inverse=True)
            kl, kr = inverse[: len(kl)], inverse[len(kl):]
            span = len(distinct)
        kl = kl * base + left[:, j]
        kr = kr * base + right[:, j]
        span *= base
    return kl, kr


def _equijoin(left_keys: np.ndarray, right_keys: np.ndarray):
    """Index pairs (i, j) with equal keys, ordered by i, then by j."""
    order = np.argsort(right_keys, kind="stable")
    sorted_keys = right_keys[order]
    lo = np.searchsorted(sorted_keys, left_keys, side="left")
    counts = np.searchsorted(sorted_keys, left_keys, side="right") - lo
    left = np.repeat(np.arange(len(left_keys)), counts)
    first = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return left, order[first + np.arange(len(left))]


class _Relation:
    """One predicate's atoms as constant codes: targets first, then observations.

    ``free`` holds a target's free-atom index and -1 for an observation;
    ``value`` holds an observation's value and 0 for a target.
    """

    def __init__(self, args: np.ndarray, free: np.ndarray, value: np.ndarray, closed: bool):
        self.args = args
        self.free = free
        self.value = value
        observed = free < 0
        self.observed = np.flatnonzero(observed)
        # positive closed literals can only hold on observed atoms > 0
        self.pool = np.flatnonzero(observed & (value > 0.0)) if closed else np.arange(len(free))


def _relations(program: PslProgram, db: RelationalDatabase):
    """Constant strings in sorted order, and a ``_Relation`` per predicate.

    Reads each predicate's column of observations as it is stored; only the
    targets, a dict of atoms, are walked one by one.
    """
    names = list(db.constants)
    ids = dict(db._ids)

    def id_of(name: str) -> int:  # a target's constant may be in no observation
        if name not in ids:
            ids[name] = len(names)
            names.append(name)
        return ids[name]

    targets: dict[str, tuple[list, list]] = {name: ([], []) for name in program.predicates}
    for i, (pred, args) in enumerate(db.targets):
        if pred in targets:
            targets[pred][0].append([id_of(c) for c in args])
            targets[pred][1].append(i)
    tables = {}
    for name, (target_ids, free) in targets.items():
        arity = program.predicates[name].arity
        observed, values = db.column(name, arity)
        tables[name] = (
            np.concatenate([np.array(target_ids, dtype=np.int64).reshape(len(free), arity),
                            observed]),
            np.concatenate([np.array(free, dtype=np.intp),
                            np.full(len(observed), -1, dtype=np.intp)]),
            np.concatenate([np.zeros(len(free)), values]),
        )
    # codes follow the sorted strings of the constants the program's atoms use
    used = np.unique(np.concatenate([np.empty(0, np.int64)]
                                    + [t[0].ravel() for t in tables.values()]))
    used = used[sorted(range(len(used)), key=lambda k: names[used[k]])]
    code = np.zeros(len(names), dtype=np.int64)
    code[used] = np.arange(len(used))
    relations = {
        name: _Relation(code[args], free, value, program.predicates[name].closed)
        for name, (args, free, value) in tables.items()
    }
    return [names[i] for i in used], relations


class _RuleRows:
    """The kept rows of one source rule, as constant codes per literal: the
    ``kept`` rows of the rule's substitutions, whose codes ``args`` holds."""

    def __init__(self, rule: Rule, constants: list, args: list, kept: np.ndarray):
        self.rule = rule
        self.constants = constants
        self.args = args  # per literal (body, then head): (substitutions, arity) codes
        self.kept = kept

    def __len__(self):
        return len(self.kept)

    def __getitem__(self, i: int) -> Rule:
        row = self.kept[i]
        literals = [Literal(lit.predicate, tuple(self.constants[c] for c in self.args[j][row]),
                            lit.negated)
                    for j, lit in enumerate(self.rule.body + (self.rule.head,))]
        return Rule(self.rule.weight, tuple(literals[:-1]), literals[-1], self.rule.exponent)


class _GroundRules(Sequence):
    """Read-only ground rules of a network, one sequence per rule block;
    each rule is built when read."""

    def __init__(self, parts: Sequence[Sequence[Rule]]):
        self._parts = parts  # one per block, empty ones included
        self._ends = list(itertools.accumulate(len(p) for p in parts))

    def __len__(self):
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, index: int) -> Rule:
        if not 0 <= index < len(self):
            raise IndexError("ground rule index out of range")
        b = bisect.bisect_right(self._ends, index)  # skips empty blocks
        return self._parts[b][index - (self._ends[b - 1] if b else 0)]


def _substitutions(rule: Rule, program: PslProgram, relations: dict, base: int):
    """Join the rule's binding literals: (rows, variables) codes and column map.

    Rows come out in the order of nested loops: variables bound only by
    negated closed literals first (sorted by name, constants sorted), then
    the binding literals in join order, each over its pool in atom order.
    """
    predicates = program.predicates
    binders = [lit for lit in rule.body
               if not (predicates[lit.predicate].closed and lit.negated)]
    bindable = {v for lit in binders for v in lit.args}
    unbindable = sorted({v for lit in rule.body for v in lit.args} - bindable)
    var_pools = {
        v: np.unique(np.concatenate([
            relations[lit.predicate].args[relations[lit.predicate].observed, i]
            for lit in rule.body for i, arg in enumerate(lit.args) if arg == v
        ]))
        for v in unbindable
    }
    empty = [v for v in unbindable if not len(var_pools[v])]
    if empty:
        raise GroundingError(
            f"variable(s) {empty} appear only in negated literals of "
            f"predicates with no observed atoms: {rule}"
        )
    subs = np.zeros((1, 0), dtype=np.int64)
    columns: dict[str, int] = {}
    for v in unbindable:  # codes follow the sorted constant strings
        consts = var_pools[v]
        subs = np.column_stack([np.repeat(subs, len(consts), axis=0),
                                np.tile(consts, len(subs))])
        columns[v] = len(columns)
    remaining = list(binders)
    while remaining:
        # prefer literals that reuse already-bound variables, then small pools
        remaining.sort(key=lambda lit: (
            -sum(1 for v in lit.args if v in columns),
            len(relations[lit.predicate].pool),
        ))
        lit = remaining.pop(0)
        relation = relations[lit.predicate]
        pool = relation.args[relation.pool]
        bound = [i for i, v in enumerate(lit.args) if v in columns]
        left, right = _equijoin(*_joint_keys(
            subs[:, [columns[lit.args[i]] for i in bound]], pool[:, bound], base
        ))
        first: dict[str, int] = {}
        keep = np.ones(len(left), dtype=bool)
        for i, v in enumerate(lit.args):
            if v in columns:
                continue
            if v in first:  # a repeated new variable binds one constant
                keep &= pool[right, i] == pool[right, first[v]]
            else:
                first[v] = i
        left, right = left[keep], right[keep]
        subs = np.column_stack([subs[left]] + [pool[right, i] for i in first.values()])
        for v in first:
            columns[v] = len(columns)
    return subs, columns


def _join_key(rule: Rule, program: PslProgram):
    """Rules with equal keys have the same substitutions and atom lookups:
    their literals match up to the negation of open literals.  A negated
    closed literal binds no variable, so its negation stays in the key."""
    predicates = program.predicates
    body = tuple((lit.predicate, lit.args, predicates[lit.predicate].closed and lit.negated)
                 for lit in rule.body)
    return body, (rule.head.predicate, rule.head.args)


def _lookups(rule: Rule, program: PslProgram, relations: dict, base: int) -> tuple:
    """Each literal's atom under every substitution of the rule: the
    (substitutions, literals) free-atom indices (-1 when observed or absent)
    and observed values (0 otherwise), head last; a mask of substitutions
    with an open atom that is neither; and each literal's (substitutions,
    arity) constant codes."""
    subs, columns = _substitutions(rule, program, relations, base)
    literals = rule.body + (rule.head,)
    n = len(subs)
    args = []
    free = np.full((n, len(literals)), -1, dtype=np.intp)
    value = np.zeros((n, len(literals)))
    missing = np.zeros(n, dtype=bool)
    for j, lit in enumerate(literals):
        relation = relations[lit.predicate]
        query = subs[:, [columns[v] for v in lit.args]]
        kq, ka = _joint_keys(query, relation.args, base)
        order = np.argsort(ka)
        pos = np.searchsorted(ka[order], kq)
        found = pos < len(ka)
        found[found] = ka[order[pos[found]]] == kq[found]
        atom = order[pos[found]]
        free[found, j] = relation.free[atom]
        value[found, j] = relation.value[atom]
        if not program.predicates[lit.predicate].closed:
            missing |= ~found  # an open atom never declared
        args.append(query)
    return free, value, missing, args


def _ground_rule(rule: Rule, lookups: tuple, constants: list, n_free: int) -> RuleBlock:
    """The block of one source rule: compiled rows, kept rows and prune
    counts; reads ``lookups`` and writes nothing into it, so rules can share
    it."""
    free, value, missing, args = lookups
    literals = rule.body + (rule.head,)
    n = len(missing)
    # the four exact prunes, in order: each counts only rows not yet pruned
    head = len(literals) - 1
    tautology = np.zeros(n, dtype=bool)
    for j, lit in enumerate(rule.body):
        if lit.predicate == rule.head.predicate and lit.negated == rule.head.negated:
            tautology |= np.all(args[j] == args[head], axis=1)
    tautology &= ~missing
    fixed = free < 0
    fixed_sum = np.zeros(n)
    for j, lit in enumerate(rule.body):
        effective = 1.0 - value[:, j] if lit.negated else value[:, j]
        np.add(fixed_sum, effective, out=fixed_sum, where=fixed[:, j])
    live = ~(missing | tautology)
    body_zero = live & (fixed_sum <= fixed[:, :head].sum(axis=1) - 1)
    live &= ~body_zero
    constant = live & fixed.all(axis=1)
    keep = live & ~constant
    stats = RuleStats(int(keep.sum()), int(missing.sum()), int(tautology.sum()),
                      int(body_zero.sum()), int(constant.sum()))

    free, value = free[keep], value[keep]
    rows = _RuleRows(rule, constants, args, np.flatnonzero(keep))
    # the arithmetic of tests/reference_grounder.compile_rules, one literal at a time
    const = np.full(len(free), -(len(rule.body) - 1.0))
    coefs = np.empty(len(literals))
    for j, lit in enumerate(literals):
        sign = -1.0 if j == head else 1.0
        if lit.negated:
            const += sign * 1.0
            coefs[j] = -sign
        else:
            coefs[j] = sign
        np.add(const, coefs[j] * value[:, j], out=const, where=free[:, j] < 0)
    entry_row, entry_lit = np.nonzero(free >= 0)
    compiled = _Compiled(
        const,
        np.full(len(free), rule.weight, dtype=np.float64),
        np.full(len(free), rule.exponent, dtype=np.int64),
        entry_row.astype(np.intp),
        free[entry_row, entry_lit],
        coefs[entry_lit],
        n_free,
    )
    return RuleBlock(compiled, rows, stats)


def ground(program: PslProgram, db: RelationalDatabase) -> GroundNetwork:
    """Instantiate every rule against the database, as array joins (see the
    module docstring); one block of rows per rule, in program order.

    One ground rule per satisfiable substitution.  Exact prunes, all cases
    where the rule's distance is identically zero over the free atoms:
    provably-zero bodies, heads repeated in the body (tautologies), and
    fully observed rules (constants).  Variables bind through positive
    closed literals or open literals; a variable appearing only in negated
    closed literals ranges over the constants its predicates were observed
    with at that argument position, and raises if there are none.

    Rules with equal ``_join_key``s (the same literals up to the negation of
    open ones) share their substitutions and atom lookups, which are dropped
    after the last rule that reads them, all but the literals' constant codes
    that ``rules`` reads back.  The rows do not depend on it.
    """
    _check_arities(program, db)
    constants, relations = _relations(program, db)
    for name, pred in program.predicates.items():
        if not pred.closed:
            used = any(
                lit.predicate == name
                for rule in program.rules
                for lit in rule.body + (rule.head,)
            )
            if used and not np.any(relations[name].free >= 0):
                raise GroundingError(
                    f"open predicate {name} has no target declaration in the database"
                )
    free_atoms = list(db.targets)
    initial = np.array(
        [0.5 if v is None else v for v in db.targets.values()], dtype=np.float64
    )
    base = len(constants) or 1
    keys = [_join_key(rule, program) for rule in program.rules]
    last_use = {key: k for k, key in enumerate(keys)}
    joins: dict = {}  # lookups shared by rules with equal keys, until the last one
    blocks = []
    for k, (rule, key) in enumerate(zip(program.rules, keys)):
        if key not in joins:
            joins[key] = _lookups(rule, program, relations, base)
        lookups = joins[key] if last_use[key] > k else joins.pop(key)
        blocks.append(_ground_rule(rule, lookups, constants, len(free_atoms)))
    network = GroundNetwork(free_atoms, initial, blocks)
    pruned = {k: sum(getattr(s, k) for s in network.stats)
              for k in ("missing", "tautology", "body_zero", "constant")}
    log.info("grounded %d rules over %d free atoms (pruned: %s)",
             len(network.rules), len(free_atoms), pruned)
    return network


@dataclass
class SolverConfig:
    max_iterations: int = 50_000
    tolerance: float = 1e-9
    initial_step: float = 0.25
    smoothing_initial: float = 0.1
    smoothing_final: float = 1e-8
    smoothing_decay: float = 0.1


class MapLevel(NamedTuple):
    """What one smoothing level of ``map_inference`` did."""

    mu: float  # Huber width of the level's linear hinges
    iterations: int  # gradient evaluations spent in the level
    energy: float  # exact (unsmoothed) energy where the level ended


@dataclass
class MapResult:
    values: np.ndarray
    energy: float
    iterations: int
    converged: bool
    levels: tuple[MapLevel, ...] = ()  # in solving order; the last is where it stopped


def map_inference(network: GroundNetwork, config: SolverConfig | None = None) -> MapResult:
    """Minimize the network energy over [0, 1]^n by accelerated projected gradient.

    Plain (sub)gradient steps stall on this energy: at a kink where a
    high-weight hinge is exactly tight, the negative subgradient crosses
    the hinge plane and every step raises the energy.  The solver instead
    minimizes a sequence of smoothed energies (linear hinges Huberized
    with width mu), shrinking mu geometrically and warm-starting each
    level.  The smoothed energy underestimates the true one by at most
    mu/2 per linear rule, so the final level pins the gap well below any
    reported tolerance.  Without a linear rule every level solves the exact
    energy again, and computes only the squared terms (see ``_Compiled``).

    It solves on the network's rows with equal rows merged
    (``_Compiled.merged``), the same energy over fewer rows.  Each level
    runs FISTA (Beck & Teboulle 2009) from the level's starting point: a
    projected gradient step from an extrapolated point, backtracking on a
    Lipschitz estimate that starts at ``1 / initial_step``, doubles until
    the step's quadratic bound holds and shrinks after every accepted step.
    The extrapolation stops at the first kink where a row that the new
    iterate pays for, and that alone holds one of its atoms, comes free:
    past it the energy is flat along that atom, and momentum would carry
    the atom across a set of equal minima, away from the one that plain
    descent reaches.
    A step that does not lower the smoothed energy is dropped and the
    momentum restarts from the last iterate (O'Donoghue & Candes 2015);
    when the step already came from that iterate, the level ends.  A level
    also ends after three improvements in a row below the tolerance.
    ``iterations`` counts gradient evaluations.  The result reports the
    exact (unsmoothed) energy of the best iterate, and one ``MapLevel`` per
    level run.  Descent starts from ``network.initial``, the targets'
    initial values.
    """
    config = config or SolverConfig()
    x = np.clip(network.initial, 0.0, 1.0)
    if len(network.free_atoms) == 0 or len(network) == 0:
        return MapResult(x, network.energy(x), 0, True)
    if not (0.0 < config.smoothing_decay < 1.0):
        raise ValueError("smoothing_decay must lie in (0, 1)")

    # a level within a relative 1e-9 of the final width would repeat it: the
    # default decay, multiplied into 0.1 seven times, reaches 1.0000000000000005e-08
    mus = []
    mu = config.smoothing_initial
    while mu > config.smoothing_final * (1.0 + 1e-9):
        mus.append(mu)
        mu *= config.smoothing_decay
    mus.append(config.smoothing_final)

    comp = network.compiled.merged()
    # rows holding an atom that no other row holds
    held = np.bincount(comp.entry_free, minlength=comp.n_free)
    sole = np.bincount(comp.entry_rule, weights=held[comp.entry_free] == 1,
                       minlength=len(comp.consts)) > 0
    any_sole = sole.any()
    u = comp.linear(x)
    best_x, best_f = x.copy(), comp.energy_at(u)
    iterations = 0
    converged = True
    levels = []
    for mu in mus:
        f = comp.smoothed_energy_at(u, mu)
        lipschitz = 1.0 / config.initial_step
        # the extrapolated point y, its hinge rows and smoothed energy, and
        # the momentum t; y is x itself after a restart
        y, uy, fy, t = x, u, f, 1.0
        stall_count = 0
        start = iterations
        while True:
            if iterations >= config.max_iterations:
                converged = False
                break
            g = comp.smoothed_gradient_at(uy, mu)
            iterations += 1
            descended = False
            for _ in range(40):
                xn = np.clip(y - g / lipschitz, 0.0, 1.0)
                step = xn - y
                if not np.any(step):
                    break
                un = comp.linear(xn)
                fn = comp.smoothed_energy_at(un, mu)
                if fn <= fy + g @ step + 0.5 * lipschitz * (step @ step):
                    descended = fn < f
                    break
                lipschitz *= 2.0
            if not descended:
                if y is x:
                    break  # projected stationary point of the smoothed energy
                y, uy, fy, t = x, u, f, 1.0
                continue
            delta = f - fn
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_next
            if any_sole:
                freed = sole & (un > 0.0) & (beta * (un - u) <= -un)
                if freed.any():
                    # stop at the first kink where such a row, paid for at xn,
                    # comes free: past it the energy is flat along its sole
                    # atom, and momentum carried there meets nothing that stops it
                    beta = float(np.min(un[freed] / (u - un)[freed]))
            if beta:
                y, uy = xn + beta * (xn - x), un + beta * (un - u)  # rows are affine in x
                fy = comp.smoothed_energy_at(uy, mu)
            else:  # no momentum yet: y is the new iterate itself
                y, uy, fy = xn, un, fn
            x, u, f, t = xn, un, fn, t_next
            lipschitz *= 0.8
            if delta < config.tolerance:
                stall_count += 1
                if stall_count >= 3:
                    break
            else:
                stall_count = 0
        exact = comp.energy_at(u)
        levels.append(MapLevel(mu, iterations - start, exact))
        if exact < best_f:
            best_f, best_x = exact, x.copy()
        if not converged:
            break
    return MapResult(best_x, best_f, iterations, converged, tuple(levels))
