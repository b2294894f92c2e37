"""Import of SMT resolution-refutation traces.

Only the leaves of the refutation matter: input clauses are propositional and
expand with no substitutions, while each equality-axiom leaf is read, by
construction, as an instance of an internally built quantified axiom schema.
Everything lands on the left side of the expansion sequent.
"""
from __future__ import annotations

import re
from collections import Counter, defaultdict
from enum import Enum
from functools import cache, partial, reduce
from typing import Iterable, NamedTuple, Optional, Sequence

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
    Neg,
    Or,
    Polarity,
    Sequent,
    Subst,
    Term,
    Var,
    app,
    fold,
    subst_atom,
)
from .expansion import ExpansionTree, expand_formula, subtrees
from .notation import ParseError, locate, words

Clause = tuple[Formula, ...]  # literals: atoms and negated atoms


class TraceSyntaxError(ParseError):
    """A syntax error in an s-expression trace."""


class VeritImportError(ExproofError):
    pass


# ---------------------------------------------------------------------------
# trace structure


class VeritTrace(NamedTuple):
    steps: tuple[tuple[str, str, tuple[str, ...], Clause], ...]  # (id, rule, premises, conclusion)


class SchemaKind(Enum):
    TRANSITIVITY = "transitivity"
    FN_CONGRUENCE = "fn_congruence"
    PRED_CONGRUENCE = "pred_congruence"
    SYMMETRY = "symmetry"
    REFLEXIVITY = "reflexivity"


AXIOM_RULES = {
    "eq_transitive": SchemaKind.TRANSITIVITY,
    "eq_congruent": SchemaKind.FN_CONGRUENCE,
    "eq_congruent_pred": SchemaKind.PRED_CONGRUENCE,
    "eq_reflexive": SchemaKind.REFLEXIVITY,
}


# ---------------------------------------------------------------------------
# parsing (s-expression trace grammar)


# Blanks, and at the start of the text the `%` comment lines that format
# detection skips, then a parenthesis, an atom, a quoted symbol `|...|`, a
# string literal `"..."` (in which `""` stands for a quote), or the end of
# input.  A `|` or `"` left open takes the rest of the text with it.
_SEXP = re.compile(r'(?:\A(?:\s|%.*)*)?\s*([()]|[^\s()|"]+|\|[^|]*\||"(?:[^"]|"")*"(?!")|[|"](?s:.*)|\Z)')


def _sexp_tokens(text: str) -> list[str]:
    """The tokens of `text` under `_SEXP`.  A quoted symbol or a string
    literal holds an even number of its quote characters, and one left
    open, which can only be the last token, an odd number."""
    tokens = words(_SEXP, text)
    if tokens and tokens[-1][0] in '|"' and tokens[-1].count(tokens[-1][0]) % 2:
        what = "quoted symbol" if tokens[-1][0] == "|" else "string literal"
        raise TraceSyntaxError(f"unterminated {what}", *locate(_SEXP, text, tokens, len(tokens) - 1))
    return tokens


def _sexps(text: str, tokens: list[str]):
    """Each top-level s-expression of `tokens`, the tokens of `text`, with the
    index of its first token: an atom's text or a list of s-expressions.  A
    quoted symbol is read as the text between its bars, as SMT-LIB reads
    `|abc|` and `abc` as one symbol, unless that text starts with ':': it
    is then a symbol, not the keyword it would read as, and keeps its bars.
    A string literal keeps its quotes."""
    open_lists: list[tuple[int, list]] = []  # innermost last, with the index of its "("
    for i, tok in enumerate(tokens):
        if tok == "(":
            open_lists.append((i, []))
            continue
        if tok != ")":
            sexp = tok[1:-1] if tok[0] == "|" and tok[1:2] != ":" else tok
        elif open_lists:
            i, sexp = open_lists.pop()
        else:
            raise TraceSyntaxError("unexpected ')'", *locate(_SEXP, text, tokens, i))
        if open_lists:
            open_lists[-1][1].append(sexp)
        else:
            yield i, sexp
    if open_lists:
        raise TraceSyntaxError("unbalanced parenthesis", *locate(_SEXP, text, tokens, open_lists[-1][0]))


def _shown(sexp) -> str:
    """An s-expression for a message: a symbol quoted, a list written back
    as trace text, on an explicit stack as lists nest as deep as terms."""
    if isinstance(sexp, str):
        return repr(sexp)
    pieces, stack = [], [sexp]
    while stack:
        item = stack.pop()
        if isinstance(item, str):  # a symbol, a space or a parenthesis
            pieces.append(item)
        else:
            pieces.append("(")
            stack += [")", *reversed([p for x in item for p in (" ", x)][1:])]
    return "".join(pieces)


def _symbol(sexp: str) -> str:
    """`sexp` as the name of a term or an atom, which SMT-LIB does not let a
    keyword be; a quoted `|:x|` keeps its bars and is a symbol."""
    if sexp.startswith(":"):
        raise VeritImportError(f"keyword {sexp!r} used as a term or an atom")
    return sexp


def _sterm_step(sexp):
    if isinstance(sexp, str):
        return None, App(_symbol(sexp), ())
    if not sexp or not isinstance(sexp[0], str):
        raise VeritImportError(f"malformed term {_shown(sexp)}")
    return sexp[1:], partial(app, _symbol(sexp[0]))


def _sterm_to_term(sexp) -> Term:
    return fold(sexp, _sterm_step)


def _sterm_to_literal(sexp) -> Formula:
    if isinstance(sexp, list) and sexp and sexp[0] == "not":
        if len(sexp) != 2:
            raise VeritImportError("'not' takes exactly one argument")
        return Neg(_sterm_to_atom(sexp[1]))
    return _sterm_to_atom(sexp)


def _sterm_to_atom(sexp) -> Atom:
    if sexp == EQ:
        raise VeritImportError("'=' takes exactly two arguments")
    if isinstance(sexp, str):
        return Atom(_symbol(sexp), ())
    if not sexp or not isinstance(sexp[0], str) or sexp[0] == "not":
        raise VeritImportError(f"malformed atom {_shown(sexp)}")
    if sexp[0] == EQ:
        if len(sexp) != 3:
            raise VeritImportError("'=' takes exactly two arguments")
        return Atom(EQ, (_sterm_to_term(sexp[1]), _sterm_to_term(sexp[2])))
    return Atom(_symbol(sexp[0]), tuple(_sterm_to_term(a) for a in sexp[1:]))


def parse_verit(text: str) -> VeritTrace:
    """Parse a trace of `(set .id (rule [:clauses (...)] :conclusion (...)))`
    steps; premise references must point at earlier steps."""
    tokens = _sexp_tokens(text)

    def error(message: str) -> TraceSyntaxError:  # at the step being read
        return TraceSyntaxError(message, *locate(_SEXP, text, tokens, index))

    steps = []
    seen: set[str] = set()
    for index, sexp in _sexps(text, tokens):
        if not isinstance(sexp, list) or len(sexp) != 3 or sexp[0] != "set":
            raise error("expected a (set .id (...)) step")
        raw_id = sexp[1]
        if not isinstance(raw_id, str) or not raw_id.startswith("."):
            raise error(f"step id must start with '.', found {_shown(raw_id)}")
        step_id = raw_id[1:]
        if step_id in seen:
            raise error(f"duplicate step id {step_id!r}")
        body = sexp[2]
        if not isinstance(body, list) or not body or not isinstance(body[0], str):
            raise error("step body must be (rule ...)")
        rule = body[0]
        premises: tuple[str, ...] = ()
        conclusion: Optional[Clause] = None
        given: set[str] = set()  # were an attribute given twice, the last would win in silence
        i = 1
        while i < len(body):
            key = body[i]
            if key != ":clauses" and key != ":conclusion":
                raise error(f"unknown step attribute {_shown(key)}")
            if key in given:
                raise error(f"{key} given twice in step {step_id!r}")
            given.add(key)
            items = body[i + 1] if i + 1 < len(body) else None
            if not isinstance(items, list):
                raise error(f"{key} needs a parenthesised list")
            if key == ":clauses":
                ids = []
                for r in items:
                    if not isinstance(r, str) or not r.startswith("."):
                        raise error(f"bad premise reference {_shown(r)}")
                    rid = r[1:]
                    if rid not in seen:
                        raise error(f"dangling premise reference .{rid}")
                    ids.append(rid)
                premises = tuple(ids)
            else:
                try:
                    conclusion = tuple(_sterm_to_literal(l) for l in items)
                except VeritImportError as e:  # located at the step, as a syntax error is
                    line, col = locate(_SEXP, text, tokens, index)
                    raise VeritImportError(f"{e} at line {line}, column {col}") from None
            i += 2
        if conclusion is None:
            raise error(f"step {step_id!r} has no :conclusion")
        seen.add(step_id)
        steps.append((step_id, rule, premises, conclusion))
    return VeritTrace(tuple(steps))


# ---------------------------------------------------------------------------
# leaf collection


def leaf_clauses(trace: VeritTrace) -> tuple[list[Clause], list[tuple[SchemaKind, Clause]]]:
    """Split leaf steps into input clauses and (kind, clause) axiom instances;
    inner steps are discarded, unknown leaf rules are errors."""
    inputs: list[Clause] = []
    axioms: list[tuple[SchemaKind, Clause]] = []
    for step_id, rule, premises, conclusion in trace.steps:
        if premises:
            continue  # inner inference, irrelevant for the expansion sequent
        if rule == "input":
            inputs.append(conclusion)
        elif rule in AXIOM_RULES:
            axioms.append((AXIOM_RULES[rule], conclusion))
        else:
            raise VeritImportError(f"unknown leaf rule {rule!r} in step {step_id!r}")
    return inputs, axioms


# ---------------------------------------------------------------------------
# equality axiom schemas


class AxiomSchema(NamedTuple):
    kind: SchemaKind
    param: tuple
    formula: Formula
    matrix: Clause  # quantifier-free clause form of the axiom
    variables: tuple[str, ...]


def _close(variables: Sequence[str], matrix: Formula) -> Formula:
    out = matrix
    for v in reversed(variables):
        out = Forall(v, out)
    return out


@cache
def make_schema(kind: SchemaKind, *param) -> AxiomSchema:
    """Build a quantified equality axiom: a transitivity chain, a function or
    predicate congruence, symmetry, or reflexivity.  Its formula closes
    `premises => conclusion`, and its matrix is that implication as a
    clause, premises first.  Each (kind, param) is built once."""
    if kind is SchemaKind.TRANSITIVITY:
        (n,) = param
        if n < 2:
            raise VeritImportError(f"transitivity chain length must be >= 2, got {n}")
        variables = [Var(f"x{i}") for i in range(n + 1)]
        premises = [Atom(EQ, pair) for pair in zip(variables, variables[1:])]
        conclusion = Atom(EQ, (variables[0], variables[n]))
    elif kind in (SchemaKind.FN_CONGRUENCE, SchemaKind.PRED_CONGRUENCE):
        symbol, arity = param
        if arity < 1:
            raise VeritImportError(f"congruence arity must be >= 1, got {arity}")
        xs = tuple(Var(f"x{i}") for i in range(arity))
        ys = tuple(Var(f"y{i}") for i in range(arity))
        variables = [*xs, *ys]
        premises = [Atom(EQ, pair) for pair in zip(xs, ys)]
        if kind is SchemaKind.FN_CONGRUENCE:
            conclusion = Atom(EQ, (App(symbol, xs), App(symbol, ys)))
        else:
            premises.append(Atom(symbol, xs))
            conclusion = Atom(symbol, ys)
    elif kind is SchemaKind.SYMMETRY:
        x, y = Var("x0"), Var("y0")
        variables, premises, conclusion = [x, y], [Atom(EQ, (x, y))], Atom(EQ, (y, x))
    elif kind is SchemaKind.REFLEXIVITY:
        x = Var("x0")
        variables, premises, conclusion = [x], [], Atom(EQ, (x, x))
    else:
        raise VeritImportError(f"unknown schema kind {kind!r}")
    names = tuple(v.name for v in variables)
    body = Imp(reduce(And, premises), conclusion) if premises else conclusion
    matrix = (*map(Neg, premises), conclusion)
    return AxiomSchema(kind, tuple(param), _close(names, body), matrix, names)


# ---------------------------------------------------------------------------
# reading axiom instances off leaf clauses


# An axiom instance is (schema, subst, flips): the schema, the terms of its
# variables, and how many leaf literals are written opposite to their
# instance literal.
AxiomInstance = tuple[AxiomSchema, Subst, int]


def _flip(lit: Formula) -> Formula:
    """An equality literal with its sides swapped; any other literal as it is."""
    atom = lit.sub if type(lit) is Neg else lit
    if atom.pred != EQ:
        return lit
    flipped = Atom(EQ, atom.args[::-1])
    return flipped if atom is lit else Neg(flipped)


def _walk(edges: Sequence[tuple[Term, ...]], s: Term, t: Term) -> Optional[list[tuple[Term, int]]]:
    """A transitivity chain: a walk x0..xn between s and t that takes each
    equality of `edges` once, as (x_i, index of the equality taken to reach
    it) pairs, or None if there is none.  It starts at the end whose first
    equality comes first; where a term repeats, Hierholzer's algorithm finds
    the walk."""
    number: dict[Term, int] = {}  # the walk runs on term numbers
    ends = [(number.setdefault(u, len(number)), number.setdefault(v, len(number))) for u, v in edges]
    incident: list[list[int]] = [[] for _ in number]  # in clause order
    for k, (u, v) in enumerate(ends):
        incident[u].append(k)
        incident[v].append(k)  # twice for u = v, as it adds 2 to the degree
    a, b = number.get(s), number.get(t)
    odd = [v for v, ks in enumerate(incident) if len(ks) % 2]
    if a is None or b is None or odd != (sorted((a, b)) if a != b else []):
        return None
    unused = [True] * len(ends)
    pending = [iter(ks) for ks in incident]
    stack = [(a if incident[a][0] < incident[b][0] else b, -1)]
    walk = []
    while stack:
        v = stack[-1][0]
        for k in pending[v]:
            if unused[k]:
                unused[k] = False
                u, w = ends[k]
                stack.append((w if u == v else u, k))
                break
        else:
            walk.append(stack.pop())
    if len(walk) != len(ends) + 1:
        return None  # the equalities are not connected
    terms = list(number)
    return [(terms[v], k) for v, k in reversed(walk)]


def _read_instance(kind: SchemaKind, clause: Clause) -> Optional[tuple[tuple, list[Term], list[int]]]:
    """Read a clause as an instance of the `kind` axiom up to literal order
    and equality orientation, with no search: the schema parameter, the
    terms for the schema's variables in their order, and the position in
    the clause of each matrix literal; None if the clause is no instance."""
    heads = [j for j, l in enumerate(clause) if type(l) is Atom]
    premises = [j for j, l in enumerate(clause) if type(l) is Neg]
    eqs = [j for j in premises if clause[j].sub.pred == EQ]
    sides = [clause[j].sub.args for j in eqs]
    if len(heads) != 1:
        return None
    last = heads  # positions of the matrix literals after the equalities
    head = clause[heads[0]]
    if kind is SchemaKind.PRED_CONGRUENCE:
        others = [j for j in premises if clause[j].sub.pred != EQ]
        if len(others) != 1 or clause[others[0]].sub.pred != head.pred or head.pred == EQ:
            return None
        last = others + heads
        symbol, xs, ys = head.pred, clause[others[0]].sub.args, head.args
    else:
        if head.pred != EQ or len(eqs) != len(premises):
            return None
        s, t = head.args
        if kind is SchemaKind.REFLEXIVITY:
            return ((), [s], heads) if not eqs and s == t else None
        if kind is SchemaKind.SYMMETRY:
            ok = len(eqs) == 1 and (s, t) in (sides[0], sides[0][::-1])
            return ((), [*sides[0]], eqs + heads) if ok else None
        if kind is SchemaKind.TRANSITIVITY:
            walk = _walk(sides, s, t) if len(eqs) >= 2 else None
            if walk is None:
                return None
            return (len(eqs),), [v for v, _ in walk], [eqs[k] for _, k in walk[1:]] + heads
        if type(s) is not App or type(t) is not App or s.head != t.head:
            return None
        symbol, xs, ys = s.head, s.args, t.args
    # congruence: argument i changes by the first equality left on the pair
    # {x_i, y_i}
    if not eqs or len(eqs) != len(xs) or len(xs) != len(ys):
        return None
    slots: dict[frozenset, list[int]] = defaultdict(list)
    for j, pair in zip(reversed(eqs), reversed(sides)):  # popped in clause order
        slots[frozenset(pair)].append(j)
    order = []
    for pair in zip(xs, ys):
        slot = slots.get(frozenset(pair))
        if not slot:
            return None
        order.append(slot.pop())
    if kind is SchemaKind.FN_CONGRUENCE:
        # a function equality reads either way: orient the instance like the
        # first equality of the first argument that changes
        i = next((i for i, (x, y) in enumerate(zip(xs, ys)) if x != y), None)
        if i is not None and clause[order[i]].sub.args[0] == ys[i]:
            xs, ys = ys, xs
    return (symbol, len(xs)), [*xs, *ys], order + last


def axiom_instance(kind: SchemaKind, clause: Clause) -> Optional[AxiomInstance]:
    """The instance of the `kind` equality axiom that `clause` states, with
    its premises negative and its conclusion positive, or None if the
    clause states none."""
    read = _read_instance(kind, clause)
    if read is None:
        return None
    param, terms, order = read
    schema = make_schema(kind, *param)
    m = dict(zip(schema.variables, terms))
    literals = tuple(Neg(subst_atom(l.sub, m)) if type(l) is Neg else subst_atom(l, m) for l in schema.matrix)
    # the instance must be the leaf up to literal order and orientation
    flips = [lit is not clause[j] for lit, j in zip(literals, order)]
    if (
        len(literals) != len(clause)
        or sorted(order) != list(range(len(clause)))
        or any(lit is not _flip(clause[j]) for lit, j, flip in zip(literals, order, flips) if flip)
    ):
        raise InvariantError(f"the {kind.value} instance {_show(literals)} is not the leaf {_show(clause)}")
    return schema, Subst(m), sum(flips)


def _show(clause: Clause) -> str:
    """A clause for a message, a negated equality as `~a = b`."""
    return "[" + ", ".join(f"~{l.sub}" if type(l) is Neg else str(l) for l in clause) + "]"


def match_axiom_instance(kind: SchemaKind, clause: Clause) -> AxiomInstance:
    """The instance of an equality axiom schema that a leaf clause of the
    given kind states."""
    inst = axiom_instance(kind, clause)
    if inst is None:
        raise VeritImportError(f"cannot match {kind.value} axiom against clause {_show(clause)}")
    return inst


# ---------------------------------------------------------------------------
# import


def _reflexivity_instances(inputs: list[Clause], axioms: list[tuple[SchemaKind, Clause]]) -> list[Term]:
    """Terms to instantiate reflexivity with: every t with a t=t literal in a
    leaf clause, plus all top-level argument terms of leaf atoms whenever an
    eq_reflexive leaf exists.  Extra instances only add true conjuncts."""
    atoms = [l.sub if type(l) is Neg else l for clause in inputs + [c for _, c in axioms] for l in clause]
    terms = {a.args[0]: None for a in atoms if a.pred == EQ and a.args[0] is a.args[1]}
    if any(kind is SchemaKind.REFLEXIVITY for kind, _ in axioms):
        terms.update((t, None) for a in atoms for t in a.args)
    return sorted(terms, key=str)


def symmetry_trees(trees: Iterable[ExpansionTree]) -> list[ExpansionTree]:
    """The symmetry axiom's tree, tying s = t to t = s for every equality
    the trees' atoms hold in both orientations, as a list of that one tree,
    or an empty list.  Provers connect equalities modulo symmetry, so the
    deep sequent needs these instances."""
    # a dict keeps first-use order
    sides = {node.args: None for tree in trees for node in subtrees(tree) if type(node) is Atom and node.pred == EQ}
    symmetric = [Subst({"x0": s, "y0": t}) for s, t in sides if s != t and (t, s) in sides]
    if not symmetric:
        return []
    return [expand_formula(make_schema(SchemaKind.SYMMETRY).formula, symmetric, Polarity.NEG)]


def import_verit(trace: VeritTrace) -> tuple[Sequent, dict]:
    """Build the left-side-only expansion sequent of a refutation trace.

    The antecedent holds one propositional tree per input clause, one tree
    per equality axiom schema carrying all its collected instances, a
    symmetry tree for the equalities that occur in both orientations, and a
    reflexivity tree computed separately (symmetry and reflexivity are
    implicit in the trace); the succedent is empty.
    """
    if not trace.steps:
        raise VeritImportError("empty trace")
    inputs, axioms = leaf_clauses(trace)

    antecedent: list[ExpansionTree] = []
    for clause in inputs:
        if not clause:
            raise VeritImportError("input step with an empty clause")
        antecedent.append(reduce(Or, clause))  # a quantifier-free tree

    # one tree per schema, its instances in first-use order; reflexivity
    # goes into the separately computed reflexivity tree
    groups: dict[AxiomSchema, dict[Subst, None]] = {}
    flips = 0
    for kind, clause in axioms:
        schema, subst, leaf_flips = match_axiom_instance(kind, clause)
        flips += leaf_flips
        if schema.kind is not SchemaKind.REFLEXIVITY:
            groups.setdefault(schema, {})[subst] = None  # a dict keeps first-use order
    antecedent += [expand_formula(schema.formula, subs, Polarity.NEG) for schema, subs in groups.items()]
    antecedent += symmetry_trees(antecedent)

    refl_terms = _reflexivity_instances(inputs, axioms)
    if refl_terms:
        subs = [Subst({"x0": t}) for t in refl_terms]
        antecedent.append(expand_formula(make_schema(SchemaKind.REFLEXIVITY).formula, subs, Polarity.NEG))

    report = {
        "schema_instances": dict(Counter(kind.value for kind, _ in axioms)),
        "flips": flips,
        "reflexivity_terms": [str(t) for t in refl_terms],
    }
    return Sequent(tuple(antecedent), ()), report
