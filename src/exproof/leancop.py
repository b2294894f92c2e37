"""Import of connection-calculus proof traces.

A trace has three parts: named input formulas, the clauses produced by the
prover's disjunctive normal form transformation, and the proof steps with
their bindings.  We regenerate the DNF ourselves without renaming variables,
match our clauses against the trace clauses, translate Skolem terms to
eigenvariables, and compose each step binding with its clause matcher to
recover the instance terms of the original problem.
"""
from __future__ import annotations

import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import partial
from itertools import count
from operator import add
from typing import Optional, Sequence

from .core import (
    EQ,
    And,
    App,
    Atom,
    ExproofError,
    Formula,
    Imp,
    InvariantError,
    Literal,
    Neg,
    Or,
    Polarity,
    Sequent,
    Strength,
    Subst,
    Term,
    Var,
    apply_subst,
    fold,
    free_vars,
    quantifier_strengths,
    rectify,
    same_formula,
)
from .expansion import (
    VACUOUS_TERM,
    ExpansionSequent,
    ExpansionTree,
    expand_formula,
    shallow,
    shallow_sequent,
)
from .notation import FormulaParser, ParseError, Token, tokenize, unexpected
from .verit import AxiomSchema, Clause, SchemaKind, _schema_tree, _show, make_schema, match_literals


class LeanCoPImportError(ExproofError):
    pass


ROLES = ("axiom", "conjecture")


@dataclass(frozen=True)
class InputFormula:
    name: str
    role: str
    formula: Formula


@dataclass(frozen=True)
class TraceClause:
    number: int
    literals: Clause
    origin_kind: str  # "clausify" | "theory"
    origin_name: str  # formula name, or "equality"


@dataclass(frozen=True)
class TraceStep:
    id: str
    kind: str  # "start" | "extension" | "reduction"
    clause: Optional[int]
    binding: Subst
    literals: Clause


@dataclass(frozen=True)
class LeanCoPTrace:
    inputs: tuple[InputFormula, ...]
    clauses: tuple[TraceClause, ...]
    steps: tuple[TraceStep, ...]


@dataclass(frozen=True)
class ImportConfig:
    skolem_prefix: str = "sk"
    definitional_threshold: int = 4


# ---------------------------------------------------------------------------
# parsing


class _TraceParser(FormulaParser):
    def parse_name(self) -> str:
        tok = self.tokens[self.pos]
        if tok[0] not in ("name", "quoted", "num"):
            raise unexpected(tok, "a name")
        self.pos += 1
        return tok[1]

    def parse_literal(self) -> Literal:
        start = self.tokens[self.pos]
        f = self._parse_unary()  # covers ~, parentheses and disequations
        positive = True
        while isinstance(f, Neg):
            positive = not positive
            f = f.sub
        if not isinstance(f, Atom):
            raise ParseError("expected a literal", start[2], start[3])
        return Literal(f, positive)

    def parse_list(self, item) -> list:
        """`[item, ...]`, possibly empty."""
        self.expect("[")
        items = []
        if self.tokens[self.pos][0] not in ("]", ""):  # at the end, expect("]") fails
            items.append(item())
            while self.tokens[self.pos][0] == ",":
                self.pos += 1
                items.append(item())
        self.expect("]")
        return items

    def parse_bind(self) -> Subst:
        tok = self.next()
        if tok[1] != "bind":
            raise ParseError(f"expected 'bind', found {tok[1]!r}", tok[2], tok[3])
        self.expect("(")
        names = self.parse_list(self._var_name)
        self.expect(",")
        terms = self.parse_list(self.parse_term)
        self.expect(")")
        if len(names) != len(terms):
            raise ParseError(
                f"bind lists differ in length ({len(names)} vs {len(terms)})", tok[2], tok[3]
            )
        return Subst(dict(zip(names, terms)))

    def skip_balanced(self) -> None:
        """Consume a balanced parenthesised argument list."""
        depth = 0
        while True:
            kind = self.next()[0]
            if kind in ("(", "["):
                depth += 1
            elif kind in (")", "]"):
                depth -= 1
                if depth == 0:
                    return


def _clause_number(tok: Token) -> int:
    """The value of a clause-number token.  A `num` token may hold digits,
    like '²', that `int` does not read."""
    if tok[0] != "num" or not tok[1].isdecimal():
        raise ParseError(f"clause number must be numeric, found {tok[1]!r}", tok[2], tok[3])
    return int(tok[1])


def parse_leancop(text: str) -> LeanCoPTrace:
    """Parse the three-part trace: `fof(name, role, formula).` input lines,
    `cnf(N, plain, [...], origin).` clause lines and proof-step lines."""
    parser = _TraceParser(tokenize(text))
    tokens = parser.tokens
    inputs: list[InputFormula] = []
    clauses: list[TraceClause] = []
    steps: list[TraceStep] = []
    clause_numbers: set[int] = set()
    input_names: set[str] = set()
    while (head := tokens[parser.pos])[0]:
        parser.pos += 1
        if head[1] == "fof":
            parser.expect("(")
            name = parser.parse_name()
            if name in input_names:
                raise ParseError(f"duplicate input formula name {name!r}", head[2], head[3])
            input_names.add(name)
            parser.expect(",")
            _kind, role, line, col = parser.next()
            if role not in ROLES:
                raise ParseError(f"unknown role {role!r}", line, col)
            parser.expect(",")
            formula = parser.parse_formula()
            parser.expect(")")
            parser.expect(".")
            inputs.append(InputFormula(name, role, formula))
        elif head[1] == "cnf":
            parser.expect("(")
            id_tok = parser.next()
            if id_tok[0] not in ("num", "name", "quoted"):
                raise ParseError(f"bad clause identifier {id_tok[1]!r}", id_tok[2], id_tok[3])
            parser.expect(",")
            parser.parse_name()  # the "plain" marker
            parser.expect(",")
            lits = tuple(parser.parse_list(parser.parse_literal))
            parser.expect(",")
            _kind, tail, line, col = parser.next()
            if tail in ("clausify", "theory"):
                number = _clause_number(id_tok)
                if number in clause_numbers:
                    raise ParseError(f"duplicate clause number {number}", id_tok[2], id_tok[3])
                clause_numbers.add(number)
                parser.expect("(")
                origin_name = parser.parse_name()
                parser.expect(")")
                clauses.append(TraceClause(number, lits, tail, origin_name))
            elif tail in ("start", "extension"):
                parser.expect("(")
                num_tok = parser.expect("num")
                clause_num = _clause_number(num_tok)
                if clause_num not in clause_numbers:
                    raise ParseError(
                        f"step references unknown clause {clause_num}", num_tok[2], num_tok[3]
                    )
                binding = Subst()
                if tokens[parser.pos][0] == ",":
                    parser.pos += 1
                    binding = parser.parse_bind()
                parser.expect(")")
                steps.append(TraceStep(id_tok[1], tail, clause_num, binding, lits))
            elif tail == "reduction":
                if tokens[parser.pos][0] == "(":
                    parser.skip_balanced()
                steps.append(TraceStep(id_tok[1], "reduction", None, Subst(), lits))
            else:
                raise ParseError(f"unknown clause origin or step {tail!r}", line, col)
            parser.expect(")")
            parser.expect(".")
        else:
            raise ParseError(f"expected 'fof' or 'cnf', found {head[1]!r}", head[2], head[3])
    return LeanCoPTrace(tuple(inputs), tuple(clauses), tuple(steps))


# ---------------------------------------------------------------------------
# Skolem terms -> eigenvariables


class SkolemRegistry:
    """One fresh eigenvariable per Skolem head symbol, applied consistently.

    A head seen with two different argument lists means the trace bound a
    strong quantifier more than once, which the expansion-tree construction
    cannot represent.
    """

    def __init__(self, prefix: str = "sk"):
        self.pattern = re.compile(re.escape(prefix) + r"[A-Za-z0-9_]+\Z")
        self.args_seen: dict[str, tuple[Term, ...]] = {}

    def is_skolem_head(self, name: str) -> bool:
        return bool(self.pattern.match(name))

    def eigen_name(self, head: str) -> str:
        return f"v_{head}"

    @property
    def eigens(self) -> dict[str, str]:
        return {head: self.eigen_name(head) for head in sorted(self.args_seen)}

    def scan_term(self, term: Term) -> None:
        if isinstance(term, Var):
            return
        if self.is_skolem_head(term.head):
            seen = self.args_seen.get(term.head)
            if seen is None:
                self.args_seen[term.head] = term.args
            elif seen != term.args:
                raise LeanCoPImportError(
                    f"skolem head {term.head!r} used with two different argument lists "
                    f"({App(term.head, seen)} vs {term}): strong quantifier bound more than once"
                )
        for a in term.args:
            self.scan_term(a)

    def collapse_term(self, term: Term) -> Term:
        if isinstance(term, Var):
            return term
        if self.is_skolem_head(term.head):
            self.scan_term(term)
            return Var(self.eigen_name(term.head))
        return App(term.head, tuple(self.collapse_term(a) for a in term.args))

    def collapse_literal(self, lit: Literal) -> Literal:
        atom = Atom(lit.atom.pred, tuple(self.collapse_term(a) for a in lit.atom.args))
        return Literal(atom, lit.positive)


# ---------------------------------------------------------------------------
# definitional DNF without variable renaming


@dataclass(frozen=True)
class GenClause:
    literals: Clause
    source: str  # name of the input formula
    is_definition: bool = False

    @property
    def variables(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for lit in self.literals:
            out |= free_vars(lit)
        return out


def definitional_dnf(inputs: Sequence[tuple[str, str, Formula]], threshold: int = 4) -> list[GenClause]:
    """Generate the prover-style DNF clauses of (negated axioms, positive
    conjectures), keeping the original bound-variable names.

    Quantifiers are dropped: weak variables stay as clause variables and
    strong variables act as placeholders that matching later sends to
    eigenvariables.  When distributing a conjunction would multiply clause
    counts beyond `threshold`, a definition predicate over the subformula's
    free variables is introduced instead.
    """
    out: list[GenClause] = []
    def_ids = count(1)

    def product(lf: Formula, rf: Formula, left, right) -> list[tuple[Literal, ...]]:
        if len(left) * len(right) > threshold:
            if len(left) >= len(right) and len(left) > 1:
                left = _define(lf, left)
            if len(left) * len(right) > threshold and len(right) > 1:
                right = _define(rf, right)
        return [a + b for a in left for b in right]

    def _define(subf: Formula, sub_clauses) -> list[tuple[Literal, ...]]:
        datom = Atom(f"d{next(def_ids)}", tuple(Var(v) for v in sorted(free_vars(subf))))
        for c in sub_clauses:
            defs.append(c + (Literal(datom, False),))
        return [(Literal(datom, True),)]

    # items are (subformula, sign); the sign is the polarity, and a clause
    # list is built from the children's lists after both are done, so the
    # definitions are numbered in post-order
    def step(item):
        f, sign = item
        while not isinstance(f, (Atom, And, Or, Imp)):
            f, sign = (f.sub, not sign) if isinstance(f, Neg) else (f.body, sign)
        if isinstance(f, Atom):
            return None, [(Literal(f, sign),)]
        # the left side of an implication flips the sign; a positive
        # conjunction, a negative disjunction and a negative implication
        # distribute, the others join their children's clause lists
        parts = ((f.left, not sign if isinstance(f, Imp) else sign), (f.right, sign))
        if isinstance(f, And) == sign:
            return parts, partial(product, f.left, f.right)
        return parts, add

    for name, role, formula in inputs:
        defs: list[tuple[Literal, ...]] = []  # `_define` appends to the current input's list
        sign = role == "conjecture"  # axioms enter negated
        main = fold((formula, sign), step)
        out.extend(GenClause(c, name) for c in main)
        out.extend(GenClause(c, name, is_definition=True) for c in defs)
    return out


# ---------------------------------------------------------------------------
# clause matching


@dataclass(frozen=True)
class ClauseMatch:
    clause_number: int
    generated: Optional[GenClause]  # None for equality-theory clauses
    schema: Optional[AxiomSchema]
    permutation: tuple[int, ...]
    matcher: Subst
    flips: tuple[int, ...] = ()


def _signature(lits: Clause) -> tuple:
    return tuple(sorted(Counter((l.positive, l.atom.pred, len(l.atom.args)) for l in lits).items()))


def _signature_distance(a: Clause, b: Clause) -> int:
    ca = Counter((l.positive, l.atom.pred, len(l.atom.args)) for l in a)
    cb = Counter((l.positive, l.atom.pred, len(l.atom.args)) for l in b)
    return sum(((ca - cb) + (cb - ca)).values())


def _eq_schema_candidates(clause: Clause) -> list[AxiomSchema]:
    """Schemas whose negated matrix could match a DNF equality-theory clause."""
    positives = [l for l in clause if l.positive]
    negatives = [l for l in clause if not l.positive]
    pos_eq = [l for l in positives if l.atom.pred == EQ]
    neg_eq = [l for l in negatives if l.atom.pred == EQ]
    candidates: list[AxiomSchema] = []
    # reflexivity, negated: [~(x = x)]
    if len(clause) == 1 and len(neg_eq) == 1:
        candidates.append(make_schema(SchemaKind.REFLEXIVITY))
    # symmetry / transitivity / function congruence, negated:
    # k positive equalities plus one negative equality
    if len(neg_eq) == 1 and len(pos_eq) >= 1 and len(clause) == len(pos_eq) + 1:
        k = len(pos_eq)
        if k == 1:
            candidates.append(make_schema(SchemaKind.SYMMETRY))
        else:
            candidates.append(make_schema(SchemaKind.TRANSITIVITY, k))
        lhs = neg_eq[0].atom.args[0]
        if isinstance(lhs, App) and len(lhs.args) == k:
            candidates.append(make_schema(SchemaKind.FN_CONGRUENCE, lhs.head, k))
    # predicate congruence, negated: k positive equalities, p positive, p negative
    non_eq_pos = [l for l in positives if l.atom.pred != EQ]
    non_eq_neg = [l for l in negatives if l.atom.pred != EQ]
    if (
        len(non_eq_pos) == 1
        and len(non_eq_neg) == 1
        and non_eq_pos[0].atom.pred == non_eq_neg[0].atom.pred
        and len(pos_eq) == len(non_eq_pos[0].atom.args) >= 1
        and len(clause) == len(pos_eq) + 2
    ):
        candidates.append(
            make_schema(SchemaKind.PRED_CONGRUENCE, non_eq_pos[0].atom.pred, len(pos_eq))
        )
    return candidates


def _negated_matrix(schema: AxiomSchema) -> Clause:
    return tuple(l.negated() for l in schema.matrix)


def match_clauses(generated: Sequence[GenClause], trace_clauses: Sequence[TraceClause]) -> dict[int, ClauseMatch]:
    """Find, for every trace clause, a generated clause from the same input
    formula equal to it up to literal reordering, or an equality axiom schema
    for theory clauses.  Unmatched clauses raise with nearest-miss hints."""
    by_source: dict[str, list[GenClause]] = defaultdict(list)
    for g in generated:
        by_source[g.source].append(g)
    matches: dict[int, ClauseMatch] = {}
    for tc in trace_clauses:
        if tc.origin_kind == "clausify":
            pool = by_source.get(tc.origin_name)
            if pool is None:
                raise LeanCoPImportError(
                    f"clause {tc.number} refers to unknown input formula {tc.origin_name!r}"
                )
            sig = _signature(tc.literals)
            found = None
            for g in pool:
                if _signature(g.literals) != sig:
                    continue
                result = match_literals(g.literals, tc.literals, allow_flips=False)
                if result is not None:
                    matcher, perm, flips = result
                    found = ClauseMatch(tc.number, g, None, perm, matcher, flips)
                    break
            if found is None:
                ranked = sorted(pool, key=lambda g: _signature_distance(g.literals, tc.literals))
                hints = "; ".join(_show(g.literals) for g in ranked[:3])
                raise LeanCoPImportError(
                    f"trace clause {tc.number} {_show(tc.literals)} does not match any "
                    f"generated clause of {tc.origin_name!r}; nearest candidates: {hints}"
                )
            matches[tc.number] = found
        else:  # theory(equality)
            found = None
            for schema in _eq_schema_candidates(tc.literals):
                result = match_literals(_negated_matrix(schema), tc.literals, allow_flips=True)
                if result is not None:
                    matcher, perm, flips = result
                    found = ClauseMatch(tc.number, None, schema, perm, matcher, flips)
                    break
            if found is None:
                raise LeanCoPImportError(
                    f"equality-theory clause {tc.number} {_show(tc.literals)} matches no "
                    f"known axiom schema"
                )
            matches[tc.number] = found
    return matches


# ---------------------------------------------------------------------------
# import


def _compose_instance(
    variables: frozenset[str], matcher: Subst, binding: Subst, registry: SkolemRegistry
) -> Subst:
    """Instance of the pattern clause's `variables`: the matcher takes them
    to trace clause terms, the step binding instantiates those.  A variable
    the matcher sends to the trace variable of the same name has no binding
    in `matcher` (Subst drops identities) and is composed all the same."""
    out = {}
    for v in variables:
        out[v] = registry.collapse_term(apply_subst(matcher.get(v, Var(v)), binding))
    return Subst(out)


def _fallback_subst(formula: Formula, polarity: Polarity, covered: set[str]) -> Optional[Subst]:
    """Instances for quantified variables no proof step ever bound: weak ones
    get the vacuous dummy constant, strong ones a fresh eigenvariable."""
    strengths = quantifier_strengths(formula, polarity)
    missing = {v: s for v, s in strengths.items() if v not in covered}
    if not missing:
        return None
    bindings: dict[str, Term] = {}
    for v, s in missing.items():
        bindings[v] = VACUOUS_TERM if s is Strength.WEAK else Var(f"v_vac_{v}")
    return Subst(bindings)


def import_leancop(trace: LeanCoPTrace, config: ImportConfig = ImportConfig()) -> tuple[ExpansionSequent, dict]:
    """Build the expansion sequent of the original (unskolemized) problem:
    axioms on the left, conjectures on the right, plus one antecedent tree per
    equality axiom schema the proof used."""
    if not trace.inputs:
        raise LeanCoPImportError("trace has no input formulas")

    axioms = [f for f in trace.inputs if f.role == "axiom"]
    conjectures = [f for f in trace.inputs if f.role == "conjecture"]
    sequent0 = Sequent(
        tuple(f.formula for f in axioms), tuple(f.formula for f in conjectures)
    )
    sequent, _renaming = rectify(sequent0)
    positions: dict[str, tuple[str, int, Formula, Polarity]] = {}
    for i, f in enumerate(axioms):
        positions[f.name] = ("ant", i, sequent.antecedent[i], Polarity.NEG)
    for i, f in enumerate(conjectures):
        positions[f.name] = ("suc", i, sequent.succedent[i], Polarity.POS)

    registry = SkolemRegistry(config.skolem_prefix)
    for tc in trace.clauses:
        for lit in tc.literals:
            for a in lit.atom.args:
                registry.scan_term(a)
    for step in trace.steps:
        for _v, t in step.binding.items():
            registry.scan_term(t)

    collapsed = [
        TraceClause(tc.number, tuple(registry.collapse_literal(l) for l in tc.literals),
                    tc.origin_kind, tc.origin_name)
        for tc in trace.clauses
    ]
    raw_by_number = {tc.number: tc for tc in trace.clauses}

    generated = definitional_dnf(
        [(f.name, f.role, positions[f.name][2]) for f in trace.inputs],
        config.definitional_threshold,
    )
    matches = match_clauses(generated, collapsed)

    # dicts as insertion-ordered sets of instances, in first-use order
    per_formula: dict[str, dict[Subst, None]] = {f.name: {} for f in trace.inputs}
    eq_groups: dict[tuple, tuple[AxiomSchema, dict[Subst, None]]] = {}
    for step in trace.steps:
        if step.clause is None:
            continue  # reductions close branches without new instances
        raw = raw_by_number[step.clause]
        clause_vars: set[str] = set()
        for lit in raw.literals:
            clause_vars |= free_vars(lit)
        extra = step.binding.domain - clause_vars
        if extra:
            names = ", ".join(sorted(extra))
            raise LeanCoPImportError(
                f"step {step.id!r}: binding domain not covered by clause "
                f"{step.clause} variables: {names}"
            )
        cm = matches[step.clause]
        if cm.generated is not None:
            sigma = _compose_instance(cm.generated.variables, cm.matcher, step.binding, registry)
            subs = per_formula[cm.generated.source]
        else:
            variables = frozenset(v for l in cm.schema.matrix for v in free_vars(l))
            sigma = _compose_instance(variables, cm.matcher, step.binding, registry)
            key = (cm.schema.kind, cm.schema.param)
            _schema, subs = eq_groups.setdefault(key, (cm.schema, {}))
        if sigma:
            subs[sigma] = None

    # variables never bound by any step still need instances for the trees
    for f in trace.inputs:
        _side, _i, rect_formula, pol = positions[f.name]
        covered: set[str] = set()
        for s in per_formula[f.name]:
            covered |= s.domain
        fallback = _fallback_subst(rect_formula, pol, covered)
        if fallback is not None:
            per_formula[f.name][fallback] = None

    ant_trees: list[ExpansionTree] = []
    suc_trees: list[ExpansionTree] = []
    for f in trace.inputs:
        side, _i, rect_formula, pol = positions[f.name]
        tree = expand_formula(rect_formula, per_formula[f.name], pol)
        if not same_formula(shallow(tree, pol), rect_formula):
            raise InvariantError(f"the tree of {f.name!r} does not read back as the rectified input")
        (ant_trees if side == "ant" else suc_trees).append(tree)
    for (_kind, _param), (schema, subs) in eq_groups.items():
        ant_trees.append(_schema_tree(schema, subs))

    es = ExpansionSequent(tuple(ant_trees), tuple(suc_trees))
    base = shallow_sequent(ExpansionSequent(tuple(ant_trees[: len(axioms)]), es.succedent))
    if not (
        len(base.antecedent) == len(sequent.antecedent)
        and len(base.succedent) == len(sequent.succedent)
        and all(map(same_formula, base.formulas, sequent.formulas))
    ):
        raise InvariantError("shallow sequent drifted from the rectified input")

    report = {
        "matched_clauses": len(matches),
        "unmatched": [],
        "instances_per_formula": {f.name: len(per_formula[f.name]) for f in trace.inputs},
        "skolem_map": registry.eigens,
    }
    return es, report
