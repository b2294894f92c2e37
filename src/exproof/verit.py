"""Import of SMT resolution-refutation traces.

Only the leaves of the refutation matter: input clauses are propositional and
expand with no substitutions, while equality-axiom leaves are matched against
internally built quantified axiom schemas to recover the instantiations.
Everything lands on the left side of the expansion sequent.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .core import (
    EQ,
    And,
    App,
    Atom,
    ExproofError,
    Forall,
    Formula,
    Imp,
    InvariantError,
    Literal,
    Polarity,
    Subst,
    Term,
    Var,
    apply_subst,
    clause_to_formula,
    match_under,
    same_formula,
)
from .expansion import ExpansionSequent, ExpansionTree, expand_formula, shallow

Clause = tuple[Literal, ...]


class TraceSyntaxError(ExproofError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


class VeritImportError(ExproofError):
    pass


# ---------------------------------------------------------------------------
# trace structure


@dataclass(frozen=True)
class VeritStep:
    id: str
    rule: str
    premises: tuple[str, ...]
    conclusion: Clause


@dataclass(frozen=True)
class VeritTrace:
    steps: tuple[VeritStep, ...]


AXIOM_RULES = {
    "eq_transitive": "transitivity",
    "eq_congruent": "fn_congruence",
    "eq_congruent_pred": "pred_congruence",
    "eq_reflexive": "reflexivity",
}
LEAF_RULES = {"input"} | set(AXIOM_RULES)


# ---------------------------------------------------------------------------
# parsing (s-expression trace grammar)


def _tokenize(text: str):
    tokens = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i, line, col = i + 1, line + 1, 1
        elif c.isspace():
            i, col = i + 1, col + 1
        elif c in "()":
            tokens.append((c, line, col))
            i, col = i + 1, col + 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "()":
                j += 1
            tokens.append((text[i:j], line, col))
            col += j - i
            i = j
    return tokens


class _SexpParser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else ("", 1, 1)
            raise TraceSyntaxError("unexpected end of input", last[1], last[2])
        self.pos += 1
        return tok

    def expect(self, text: str):
        tok = self.next()
        if tok[0] != text:
            raise TraceSyntaxError(f"expected {text!r}, found {tok[0]!r}", tok[1], tok[2])
        return tok

    def parse_sexp(self):
        tok = self.next()
        if tok[0] == "(":
            items = []
            while True:
                nxt = self.peek()
                if nxt is None:
                    raise TraceSyntaxError("unbalanced parenthesis", tok[1], tok[2])
                if nxt[0] == ")":
                    self.next()
                    return items
                items.append(self.parse_sexp())
        if tok[0] == ")":
            raise TraceSyntaxError("unexpected ')'", tok[1], tok[2])
        return tok[0]


def _sterm_to_term(sexp) -> Term:
    if isinstance(sexp, str):
        return App(sexp, ())
    if not sexp or not isinstance(sexp[0], str):
        raise VeritImportError(f"malformed term {sexp!r}")
    return App(sexp[0], tuple(_sterm_to_term(a) for a in sexp[1:]))


def _sterm_to_literal(sexp) -> Literal:
    if isinstance(sexp, list) and sexp and sexp[0] == "not":
        if len(sexp) != 2:
            raise VeritImportError("'not' takes exactly one argument")
        inner = _sterm_to_atom(sexp[1])
        return Literal(inner, False)
    return Literal(_sterm_to_atom(sexp), True)


def _sterm_to_atom(sexp) -> Atom:
    if isinstance(sexp, str):
        return Atom(sexp, ())
    if not sexp or not isinstance(sexp[0], str) or sexp[0] == "not":
        raise VeritImportError(f"malformed atom {sexp!r}")
    if sexp[0] == EQ:
        if len(sexp) != 3:
            raise VeritImportError("'=' takes exactly two arguments")
        return Atom(EQ, (_sterm_to_term(sexp[1]), _sterm_to_term(sexp[2])))
    return Atom(sexp[0], tuple(_sterm_to_term(a) for a in sexp[1:]))


def parse_verit(text: str) -> VeritTrace:
    """Parse a trace of `(set .id (rule [:clauses (...)] :conclusion (...)))`
    steps; premise references must point at earlier steps."""
    parser = _SexpParser(text)
    steps: list[VeritStep] = []
    seen: set[str] = set()
    while not parser.at_end():
        tok = parser.peek()
        sexp = parser.parse_sexp()
        if not isinstance(sexp, list) or len(sexp) != 3 or sexp[0] != "set":
            raise TraceSyntaxError("expected a (set .id (...)) step", tok[1], tok[2])
        raw_id = sexp[1]
        if not isinstance(raw_id, str) or not raw_id.startswith("."):
            raise TraceSyntaxError(f"step id must start with '.', found {raw_id!r}", tok[1], tok[2])
        step_id = raw_id[1:]
        if step_id in seen:
            raise TraceSyntaxError(f"duplicate step id {step_id!r}", tok[1], tok[2])
        body = sexp[2]
        if not isinstance(body, list) or not body or not isinstance(body[0], str):
            raise TraceSyntaxError("step body must be (rule ...)", tok[1], tok[2])
        rule = body[0]
        premises: tuple[str, ...] = ()
        conclusion: Optional[Clause] = None
        i = 1
        while i < len(body):
            key = body[i]
            if key == ":clauses":
                refs = body[i + 1] if i + 1 < len(body) else None
                if not isinstance(refs, list):
                    raise TraceSyntaxError(":clauses needs a parenthesised list", tok[1], tok[2])
                ids = []
                for r in refs:
                    if not isinstance(r, str) or not r.startswith("."):
                        raise TraceSyntaxError(f"bad premise reference {r!r}", tok[1], tok[2])
                    rid = r[1:]
                    if rid not in seen:
                        raise TraceSyntaxError(f"dangling premise reference .{rid}", tok[1], tok[2])
                    ids.append(rid)
                premises = tuple(ids)
                i += 2
            elif key == ":conclusion":
                lits = body[i + 1] if i + 1 < len(body) else None
                if not isinstance(lits, list):
                    raise TraceSyntaxError(":conclusion needs a parenthesised list", tok[1], tok[2])
                conclusion = tuple(_sterm_to_literal(l) for l in lits)
                i += 2
            else:
                raise TraceSyntaxError(f"unknown step attribute {key!r}", tok[1], tok[2])
        if conclusion is None:
            raise TraceSyntaxError(f"step {step_id!r} has no :conclusion", tok[1], tok[2])
        seen.add(step_id)
        steps.append(VeritStep(step_id, rule, premises, conclusion))
    return VeritTrace(tuple(steps))


# ---------------------------------------------------------------------------
# leaf collection


def leaf_clauses(trace: VeritTrace) -> tuple[list[Clause], list[tuple[str, Clause]]]:
    """Split leaf steps into input clauses and (kind, clause) axiom instances;
    inner steps are discarded, unknown leaf rules are errors."""
    inputs: list[Clause] = []
    axioms: list[tuple[str, Clause]] = []
    for step in trace.steps:
        if step.premises:
            continue  # inner inference, irrelevant for the expansion sequent
        if step.rule == "input":
            inputs.append(step.conclusion)
        elif step.rule in AXIOM_RULES:
            axioms.append((AXIOM_RULES[step.rule], step.conclusion))
        else:
            raise VeritImportError(f"unknown leaf rule {step.rule!r} in step {step.id!r}")
    return inputs, axioms


# ---------------------------------------------------------------------------
# equality axiom schemas


class SchemaKind(Enum):
    TRANSITIVITY = "transitivity"
    FN_CONGRUENCE = "fn_congruence"
    PRED_CONGRUENCE = "pred_congruence"
    SYMMETRY = "symmetry"
    REFLEXIVITY = "reflexivity"


@dataclass(frozen=True)
class AxiomSchema:
    kind: SchemaKind
    param: tuple
    formula: Formula
    matrix: Clause  # quantifier-free clause form of the axiom
    variables: tuple[str, ...]


def _conj(parts: Sequence[Formula]) -> Formula:
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def _close(variables: Sequence[str], matrix: Formula) -> Formula:
    out = matrix
    for v in reversed(variables):
        out = Forall(v, out)
    return out


def make_schema(kind: SchemaKind, *param) -> AxiomSchema:
    """Build a quantified equality axiom: a transitivity chain, a function or
    predicate congruence, symmetry, or reflexivity."""
    if kind is SchemaKind.TRANSITIVITY:
        (n,) = param
        if n < 2:
            raise VeritImportError(f"transitivity chain length must be >= 2, got {n}")
        xs = [f"x{i}" for i in range(n + 1)]
        eqs = [Atom(EQ, (Var(xs[i]), Var(xs[i + 1]))) for i in range(n)]
        head = Atom(EQ, (Var(xs[0]), Var(xs[n])))
        formula = _close(xs, Imp(_conj(eqs), head))
        matrix = tuple(Literal(e, False) for e in eqs) + (Literal(head, True),)
        return AxiomSchema(kind, (n,), formula, matrix, tuple(xs))
    if kind in (SchemaKind.FN_CONGRUENCE, SchemaKind.PRED_CONGRUENCE):
        symbol, arity = param
        if arity < 1:
            raise VeritImportError(f"congruence arity must be >= 1, got {arity}")
        xs = [f"x{i}" for i in range(arity)]
        ys = [f"y{i}" for i in range(arity)]
        eqs = [Atom(EQ, (Var(x), Var(y))) for x, y in zip(xs, ys)]
        if kind is SchemaKind.FN_CONGRUENCE:
            head = Atom(
                EQ,
                (App(symbol, tuple(Var(x) for x in xs)), App(symbol, tuple(Var(y) for y in ys))),
            )
            formula = _close(xs + ys, Imp(_conj(eqs), head))
            matrix = tuple(Literal(e, False) for e in eqs) + (Literal(head, True),)
        else:
            px = Atom(symbol, tuple(Var(x) for x in xs))
            py = Atom(symbol, tuple(Var(y) for y in ys))
            formula = _close(xs + ys, Imp(_conj(eqs + [px]), py))
            matrix = tuple(Literal(e, False) for e in eqs) + (
                Literal(px, False),
                Literal(py, True),
            )
        return AxiomSchema(kind, tuple(param), formula, matrix, tuple(xs + ys))
    if kind is SchemaKind.SYMMETRY:
        x, y = Var("x0"), Var("y0")
        formula = _close(["x0", "y0"], Imp(Atom(EQ, (x, y)), Atom(EQ, (y, x))))
        matrix = (Literal(Atom(EQ, (x, y)), False), Literal(Atom(EQ, (y, x)), True))
        return AxiomSchema(kind, (), formula, matrix, ("x0", "y0"))
    if kind is SchemaKind.REFLEXIVITY:
        x = Var("x0")
        formula = Forall("x0", Atom(EQ, (x, x)))
        matrix = (Literal(Atom(EQ, (x, x)), True),)
        return AxiomSchema(kind, (), formula, matrix, ("x0",))
    raise VeritImportError(f"unknown schema kind {kind!r}")


# ---------------------------------------------------------------------------
# matching leaf clauses against schema matrices


@dataclass(frozen=True)
class AxiomInstance:
    schema: AxiomSchema
    subst: Subst
    permutation: tuple[int, ...]  # pattern position -> clause index
    flips: tuple[int, ...]  # clause indices whose equality was reoriented


def _flip_atom(atom: Atom) -> Atom:
    return Atom(EQ, (atom.args[1], atom.args[0]))


# clauses up to this many literals get an exhaustive permutation search;
# longer ones are only matched position by position
PERMUTATION_LIMIT = 8


def match_literals(
    pattern: Clause, clause: Clause, allow_flips: bool
) -> Optional[tuple[Subst, tuple[int, ...], tuple[int, ...]]]:
    """Match a literal pattern against a clause up to literal reordering and,
    optionally, reorientation of equality literals."""
    n = len(pattern)
    if len(clause) != n:
        return None
    positional_only = n > PERMUTATION_LIMIT

    def candidates(i: int):
        return (i,) if positional_only else range(n)

    used = [False] * n
    perm: list[int] = [0] * n
    flips: set[int] = set()

    def solve(i: int, bindings: dict) -> Optional[dict]:
        if i == n:
            return bindings
        pat = pattern[i]
        for j in candidates(i):
            if used[j]:
                continue
            lit = clause[j]
            if lit.positive != pat.positive:
                continue
            options = [(lit.atom, False)]
            if allow_flips and pat.atom.pred == EQ and lit.atom.pred == EQ:
                options.append((_flip_atom(lit.atom), True))
            for atom, flipped in options:
                extended = match_under(pat.atom, atom, bindings)
                if extended is None:
                    continue
                used[j] = True
                perm[i] = j
                if flipped:
                    flips.add(j)
                result = solve(i + 1, extended)
                if result is not None:
                    return result
                used[j] = False
                flips.discard(j)
        return None

    bindings = solve(0, {})
    if bindings is None:
        return None
    return Subst(bindings), tuple(perm), tuple(sorted(flips))


def _derive_kind(kind: str, clause: Clause) -> tuple[SchemaKind, tuple]:
    positives = [l for l in clause if l.positive]
    negatives = [l for l in clause if not l.positive]
    if kind == "transitivity":
        if len(positives) != 1 or len(negatives) < 2:
            raise VeritImportError(f"eq_transitive clause has the wrong shape: {_show(clause)}")
        return SchemaKind.TRANSITIVITY, (len(negatives),)
    if kind == "fn_congruence":
        if len(positives) != 1 or positives[0].atom.pred != EQ:
            raise VeritImportError(f"eq_congruent clause has the wrong shape: {_show(clause)}")
        lhs = positives[0].atom.args[0]
        if not isinstance(lhs, App) or not lhs.args:
            raise VeritImportError(f"eq_congruent conclusion is not a function equality: {_show(clause)}")
        return SchemaKind.FN_CONGRUENCE, (lhs.head, len(lhs.args))
    if kind == "pred_congruence":
        non_eq_pos = [l for l in positives if l.atom.pred != EQ]
        if len(non_eq_pos) != 1 or not non_eq_pos[0].atom.args:
            raise VeritImportError(f"eq_congruent_pred clause has the wrong shape: {_show(clause)}")
        atom = non_eq_pos[0].atom
        return SchemaKind.PRED_CONGRUENCE, (atom.pred, len(atom.args))
    if kind == "reflexivity":
        if len(clause) != 1 or not clause[0].positive or clause[0].atom.pred != EQ:
            raise VeritImportError(f"eq_reflexive clause has the wrong shape: {_show(clause)}")
        return SchemaKind.REFLEXIVITY, ()
    raise VeritImportError(f"unknown axiom kind {kind!r}")


def _show(clause: Clause) -> str:
    return "[" + ", ".join(str(l) for l in clause) + "]"


def match_axiom_instance(kind: str, clause: Clause) -> AxiomInstance:
    """Recover the substitution instantiating an equality axiom schema from a
    leaf clause, searching literal permutations and orientation flips."""
    schema_kind, param = _derive_kind(kind, clause)
    schema = make_schema(schema_kind, *param)
    result = match_literals(schema.matrix, clause, allow_flips=True)
    if result is None:
        raise VeritImportError(f"cannot match {kind} axiom against clause {_show(clause)}")
    subst, perm, flips = result
    _verify_instance(schema, subst, perm, flips, clause)
    return AxiomInstance(schema, subst, perm, flips)


def _verify_instance(schema, subst, perm, flips, clause) -> None:
    for i, pat in enumerate(schema.matrix):
        target = clause[perm[i]]
        atom = _flip_atom(target.atom) if perm[i] in flips else target.atom
        got = apply_subst(pat.atom, subst)
        if got != atom or pat.positive != target.positive:
            raise InvariantError(
                f"axiom instance verification failed: {pat} under {subst} is {got}, wanted {atom}"
            )


# ---------------------------------------------------------------------------
# import


def _reflexivity_instances(inputs: list[Clause], axioms: list[tuple[str, Clause]]) -> list[Term]:
    """Terms to instantiate reflexivity with: every t with a t=t literal in a
    leaf clause, plus all top-level argument terms of leaf atoms whenever an
    eq_reflexive leaf exists.  Extra instances only add true conjuncts."""
    leaf_clauses_all = inputs + [c for _, c in axioms]
    terms: dict[str, Term] = {}
    for clause in leaf_clauses_all:
        for lit in clause:
            if lit.atom.pred == EQ and lit.atom.args[0] == lit.atom.args[1]:
                t = lit.atom.args[0]
                terms.setdefault(str(t), t)
    if any(kind == "reflexivity" for kind, _ in axioms):
        for clause in leaf_clauses_all:
            for lit in clause:
                for t in lit.atom.args:
                    terms.setdefault(str(t), t)
    return [terms[k] for k in sorted(terms)]


def _schema_tree(schema: AxiomSchema, instances) -> ExpansionTree:
    tree = expand_formula(schema.formula, instances, Polarity.NEG)
    if not same_formula(shallow(tree, Polarity.NEG), schema.formula):
        raise InvariantError(f"the {schema.kind.value} tree does not read back as its schema")
    return tree


def import_verit(trace: VeritTrace) -> tuple[ExpansionSequent, dict]:
    """Build the left-side-only expansion sequent of a refutation trace.

    The antecedent holds one propositional tree per input clause, one tree
    per equality axiom schema carrying all its collected instances, and a
    reflexivity tree computed separately (reflexivity is implicit in the
    trace); the succedent is empty.
    """
    if not trace.steps:
        raise VeritImportError("empty trace")
    inputs, axioms = leaf_clauses(trace)

    antecedent: list[ExpansionTree] = []
    for clause in inputs:
        if not clause:
            raise VeritImportError("input step with an empty clause")
        antecedent.append(expand_formula(clause_to_formula(clause), (), Polarity.NEG))

    # group axiom instances by schema, keeping first-use order
    groups: dict[tuple, tuple[AxiomSchema, dict[Subst, None]]] = {}
    flips_total = 0
    instance_counts: dict[str, int] = {}
    for kind, clause in axioms:
        inst = match_axiom_instance(kind, clause)
        flips_total += len(inst.flips)
        instance_counts[kind] = instance_counts.get(kind, 0) + 1
        key = (inst.schema.kind, inst.schema.param)
        schema, subs = groups.setdefault(key, (inst.schema, {}))
        subs[inst.subst] = None  # a dict keeps first-use order

    refl_terms = _reflexivity_instances(inputs, axioms)

    for (kind, _param), (schema, subs) in groups.items():
        if kind is SchemaKind.REFLEXIVITY:
            continue  # folded into the separately computed reflexivity tree
        antecedent.append(_schema_tree(schema, subs))

    if refl_terms:
        schema = make_schema(SchemaKind.REFLEXIVITY)
        subs = [Subst({"x0": t}) for t in refl_terms]
        antecedent.append(_schema_tree(schema, subs))

    report = {
        "schema_instances": instance_counts,
        "flips": flips_total,
        "reflexivity_terms": [str(t) for t in refl_terms],
    }
    return ExpansionSequent(tuple(antecedent), ()), report
