"""Import of connection-calculus proof traces.

A trace has three parts: named input formulas, the clauses produced by the
prover's disjunctive normal form transformation, and the proof steps with
their bindings.  We regenerate the DNF ourselves without renaming variables,
match our clauses against the trace clauses as written, and compose each
step binding with its clause matcher to recover the instance terms of the
original problem, in which Skolem terms are translated to eigenvariables.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from functools import partial
from itertools import count
from operator import add
from typing import Iterable, NamedTuple, Optional, Sequence

from .core import (
    BINARY,
    EQ,
    And,
    App,
    Atom,
    ExproofError,
    Formula,
    Neg,
    Polarity,
    Sequent,
    Subst,
    Term,
    Var,
    apply_subst,
    fold,
    free_vars,
    match_under,
    polar_parts,
    rebuilt,
    rectify,
    subformulas,
)
from .expansion import ExpansionTree, expand_formula
from .notation import PUNCTUATION, FormulaParser, token_kind, tokenize, unquoted
from .verit import AxiomSchema, Clause, SchemaKind, _show, axiom_instance, symmetry_trees


class LeanCoPImportError(ExproofError):
    pass


ROLES = ("axiom", "conjecture")


class LeanCoPTrace(NamedTuple):
    inputs: tuple[tuple[str, str, Formula], ...]  # (name, role, formula)
    # (number, literals, origin kind "clausify" or "theory", formula name or "equality")
    clauses: tuple[tuple[int, Clause, str, str], ...]
    # (id, clause number, binding) of each start and extension step;
    # reductions add no instances and are not kept
    steps: tuple[tuple[str, int, Subst], ...]


# ---------------------------------------------------------------------------
# parsing


class _TraceParser(FormulaParser):
    def parse_name(self) -> str:
        tok = self.tokens[self.pos]
        if tok in PUNCTUATION:
            raise self.unexpected("a name")
        self.pos += 1
        return unquoted(tok)

    def parse_literal(self) -> Formula:
        start = self.pos
        f = self.parse_formula(unary=True)  # covers ~, parentheses and disequations
        while type(f) is Neg and type(f.sub) is Neg:
            f = f.sub.sub
        if type(f.sub if type(f) is Neg else f) is not Atom:
            raise self.error("expected a literal", start)
        return f

    def parse_list(self, item) -> list:
        """`[item, ...]`, possibly empty."""
        self.expect("[")
        items = []
        if self.tokens[self.pos] not in ("]", ""):  # at the end, expect("]") fails
            items.append(item())
            while self.tokens[self.pos] == ",":
                self.pos += 1
                items.append(item())
        self.expect("]")
        return items

    def parse_bind(self) -> Subst:
        start = self.pos
        tok = unquoted(self.next())
        if tok != "bind":
            raise self.error(f"expected 'bind', found {tok!r}", start)
        self.expect("(")
        names = self.parse_list(partial(self._bound_name, set()))
        self.expect(",")
        terms = self.parse_list(self.parse_term)
        self.expect(")")
        if len(names) != len(terms):
            raise self.error(f"bind lists differ in length ({len(names)} vs {len(terms)})", start)
        return Subst(dict(zip(names, terms)))

    def _bound_name(self, seen: set) -> str:
        """A variable of a bind list, which names it once: were one named
        twice, the last of its terms would win in silence."""
        start = self.pos
        name = self._var_name()
        if name in seen:
            raise self.error(f"variable {name!r} bound twice", start)
        seen.add(name)
        return name

    def skip_balanced(self) -> None:
        """Consume a balanced parenthesised argument list."""
        depth = 0
        while True:
            tok = self.next()
            if tok in ("(", "["):
                depth += 1
            elif tok in (")", "]"):
                depth -= 1
                if depth == 0:
                    return

    def clause_number(self, index: int) -> int:
        """The value of the clause number at token `index`; `int` reads no digit like '²'."""
        tok = self.tokens[index]
        if not tok.isdecimal():
            raise self.error(f"clause number must be numeric, found {unquoted(tok)!r}", index)
        return int(tok)


def parse_leancop(text: str) -> LeanCoPTrace:
    """Parse the three-part trace: `fof(name, role, formula).` input lines,
    `cnf(N, plain, [...], origin).` clause lines and proof-step lines."""
    parser = _TraceParser(text, tokenize(text))
    tokens = parser.tokens
    inputs, clauses, steps = [], [], []
    clause_numbers: set[int] = set()
    input_names: set[str] = set()
    while head := tokens[parser.pos]:
        start = parser.pos
        parser.pos += 1
        if unquoted(head) == "fof":
            parser.expect("(")
            name = parser.parse_name()
            if name in input_names:
                raise parser.error(f"duplicate input formula name {name!r}", start)
            input_names.add(name)
            parser.expect(",")
            role = unquoted(parser.next())
            if role not in ROLES:
                raise parser.error(f"unknown role {role!r}", parser.pos - 1)
            parser.expect(",")
            formula = parser.parse_formula()
            parser.expect(")")
            parser.expect(".")
            inputs.append((name, role, formula))
        elif unquoted(head) == "cnf":
            parser.expect("(")
            id_index = parser.pos
            clause_id = parser.next()
            if clause_id in PUNCTUATION:
                raise parser.error(f"bad clause identifier {clause_id!r}", id_index)
            parser.expect(",")
            parser.parse_name()  # the "plain" marker
            parser.expect(",")
            lits = tuple(parser.parse_list(parser.parse_literal))
            parser.expect(",")
            tail = unquoted(parser.next())
            if tail in ("clausify", "theory"):
                number = parser.clause_number(id_index)
                if number in clause_numbers:
                    raise parser.error(f"duplicate clause number {number}", id_index)
                clause_numbers.add(number)
                parser.expect("(")
                origin_name = parser.parse_name()
                if tail == "theory" and origin_name != "equality":
                    raise parser.error(f"unknown theory {origin_name!r}", parser.pos - 1)
                parser.expect(")")
                clauses.append((number, lits, tail, origin_name))
            elif tail in ("start", "extension"):
                parser.expect("(")
                if token_kind(tokens[parser.pos]) != "num":
                    raise parser.unexpected("'num'")
                clause_num = parser.clause_number(parser.pos)
                if clause_num not in clause_numbers:
                    raise parser.error(f"step references unknown clause {clause_num}", parser.pos)
                parser.pos += 1
                binding = Subst()
                if tokens[parser.pos] == ",":
                    parser.pos += 1
                    binding = parser.parse_bind()
                parser.expect(")")
                steps.append((unquoted(clause_id), clause_num, binding))
            elif tail == "reduction":
                if tokens[parser.pos] == "(":
                    parser.skip_balanced()
            else:
                raise parser.error(f"unknown clause origin or step {tail!r}", parser.pos - 1)
            parser.expect(")")
            parser.expect(".")
        else:
            raise parser.error(f"expected 'fof' or 'cnf', found {unquoted(head)!r}", start)
    return LeanCoPTrace(tuple(inputs), tuple(clauses), tuple(steps))


# ---------------------------------------------------------------------------
# Skolem terms -> eigenvariables


class SkolemRegistry:
    """One fresh eigenvariable per Skolem head symbol, applied consistently.

    A head seen with two different argument lists means the trace bound a
    strong quantifier more than once, which the expansion-tree construction
    cannot represent.
    """

    def __init__(self, heads: Iterable[str]):
        self.heads = frozenset(heads)
        self.args_seen: dict[str, tuple[Term, ...]] = {}

    def eigen_name(self, head: str) -> str:
        return f"v_{head}"

    @property
    def eigens(self) -> dict[str, str]:
        return {head: self.eigen_name(head) for head in sorted(self.args_seen)}

    def scan(self, terms: Iterable[Term]) -> None:
        """Check the argument list of each Skolem term among `terms`; their subterms are not walked."""
        heads, args_seen = self.heads, self.args_seen
        for t in terms:
            if type(t) is App and t.head in heads:
                seen = args_seen.setdefault(t.head, t.args)
                if seen != t.args:
                    raise LeanCoPImportError(
                        f"skolem head {t.head!r} used with two different argument lists "
                        f"({App(t.head, seen)} vs {t}): strong quantifier bound more than once"
                    )

    def _collapse_step(self, t: Term):
        if type(t) is Var:
            return None, t
        if t.head in self.heads:
            return None, Var(self.eigen_name(t.head))
        return t.args, partial(rebuilt, t)

    def collapse_term(self, term: Term) -> Term:
        """`term` with each outermost Skolem term replaced by its head's
        eigenvariable.  `import_leancop` collapses only the instance terms
        it composes; their Skolem terms come from the clause and binding
        terms it scans first, so they are not scanned again."""
        return fold(term, self._collapse_step)


def _new_subterms(terms: Iterable[Term], seen: set) -> list[Term]:
    """The subterms of `terms` not in `seen`, once each in preorder of first use,
    added to `seen`; the walk does not go below a term already there."""
    out = []
    stack = list(dict.fromkeys(terms))[::-1]
    while stack:
        t = stack.pop()
        if t not in seen:
            seen.add(t)
            out.append(t)
            if type(t) is App:
                stack += reversed(t.args)
    return out


# ---------------------------------------------------------------------------
# definitional DNF without variable renaming


def definitional_dnf(inputs: Sequence[tuple[str, str, Formula]], threshold: int = 4) -> list[tuple[Clause, str]]:
    """Generate the prover-style DNF clauses of (negated axioms, positive
    conjectures), keeping the original bound-variable names, each with the
    name of its input formula.

    Quantifiers are dropped: weak variables stay as clause variables and
    strong variables act as placeholders that matching later sends to
    eigenvariables.  When distributing a conjunction would multiply clause
    counts beyond `threshold`, a definition predicate over the subformula's
    free variables is introduced instead.
    """
    out: list[tuple[Clause, str]] = []
    def_ids = count(1)

    def product(lf: Formula, rf: Formula, left, right) -> list[Clause]:
        if len(left) * len(right) > threshold:
            if len(left) >= len(right) and len(left) > 1:
                left = _define(lf, left)
            if len(left) * len(right) > threshold and len(right) > 1:
                right = _define(rf, right)
        return [a + b for a in left for b in right]

    def _define(subf: Formula, sub_clauses) -> list[Clause]:
        datom = Atom(f"d{next(def_ids)}", tuple(Var(v) for v in sorted(free_vars(subf))))
        for c in sub_clauses:
            defs.append(c + (Neg(datom),))
        return [(datom,)]

    # items are (subformula, polarity), and a clause list is built from the
    # children's lists after both are done, so the definitions are numbered
    # in post-order
    def step(item):
        f, pol = item
        kind = type(f)
        while kind is not Atom and kind not in BINARY:  # a negation or a quantifier
            ((f, pol),) = polar_parts(f, pol)
            kind = type(f)
        if kind is Atom:
            return None, [(f if pol is Polarity.POS else Neg(f),)]
        # a positive conjunction, a negative disjunction and a negative
        # implication distribute, the others join their children's clause
        # lists
        if (kind is And) == (pol is Polarity.POS):
            return polar_parts(f, pol), partial(product, f.left, f.right)
        return polar_parts(f, pol), add

    for name, role, formula in inputs:
        defs: list[Clause] = []  # `_define` appends to the current input's list
        pol = Polarity.POS if role == "conjecture" else Polarity.NEG  # axioms enter negated
        main = fold((formula, pol), step)
        out.extend((c, name) for c in main + defs)
    return out


# ---------------------------------------------------------------------------
# clause matching


def _signature(clause: Clause) -> tuple:
    """The sign, predicate and arity of each literal of `clause`, sorted."""
    out = []
    for lit in clause:
        atom = lit.sub if type(lit) is Neg else lit
        out.append((atom is lit, atom.pred, len(atom.args)))
    return tuple(sorted(out))


def _signature_distance(a: Clause, b: Clause) -> int:
    ca, cb = Counter(_signature(a)), Counter(_signature(b))
    return sum(((ca - cb) + (cb - ca)).values())


def match_literals(pattern: Clause, clause: Clause) -> Optional[Subst]:
    """The first matcher, depth first, that takes the literals of `pattern`
    one to one onto those of `clause`, in any order.  Pattern literal i
    tries the clause's unused literals in order, extending the bindings of
    literals 0..i-1."""
    n = len(pattern)
    if len(clause) != n:
        return None
    used = [False] * n
    # one entry per pattern literal matched so far, and one for the next:
    # the clause positions left to try for it, the bindings so far, and the
    # position the previous literal took
    stack = [(iter(range(n)), {}, -1)]
    while len(stack) <= n:
        tries, bindings, _ = stack[-1]
        pat = pattern[len(stack) - 1]
        for j in tries:
            if not used[j] and type(clause[j]) is type(pat):  # the same sign
                extended = match_under(pat, clause[j], bindings)
                if extended is not None:
                    used[j] = True
                    stack.append((iter(range(n)), extended, j))
                    break
        else:
            j = stack.pop()[2]
            if not stack:
                return None
            used[j] = False
    return Subst(stack[-1][1])


def match_clauses(
    generated: Sequence[tuple[Clause, str]],
    trace_clauses: Sequence[tuple[int, Clause, str, str]],
    skolem_heads: frozenset[str],
) -> dict[int, tuple]:
    """Find, for every trace clause, a generated clause from the same input
    formula equal to it up to literal reordering, or an equality axiom schema
    for theory clauses, as (that clause or schema, matcher) by clause
    number; a congruence of one of `skolem_heads` is no axiom of the problem.
    Unmatched clauses raise with nearest-miss hints."""
    sources = {g[1] for g in generated}
    by_signature: dict[tuple[str, tuple], list[tuple[Clause, str]]] = defaultdict(list)
    for g in generated:
        by_signature[g[1], _signature(g[0])].append(g)
    matches: dict[int, tuple] = {}
    for number, literals, origin_kind, origin_name in trace_clauses:
        if origin_kind == "clausify":
            if origin_name not in sources:
                raise LeanCoPImportError(
                    f"clause {number} refers to unknown input formula {origin_name!r}"
                )
            for g in by_signature.get((origin_name, _signature(literals)), ()):
                if (matcher := match_literals(g[0], literals)) is not None:
                    matches[number] = (g, matcher)
                    break
            else:
                pool = [g for g in generated if g[1] == origin_name]
                ranked = sorted(pool, key=lambda g: _signature_distance(g[0], literals))
                hints = "; ".join(_show(g[0]) for g in ranked[:3])
                raise LeanCoPImportError(
                    f"trace clause {number} {_show(literals)} does not match any "
                    f"generated clause of {origin_name!r}; nearest candidates: {hints}"
                )
        else:  # theory(equality): the negation of an equality axiom instance
            leaf = tuple(l.sub if type(l) is Neg else Neg(l) for l in literals)
            inst = next(filter(None, (axiom_instance(kind, leaf) for kind in SchemaKind)), None)
            if inst is None or inst[0].kind is SchemaKind.FN_CONGRUENCE and inst[0].param[0] in skolem_heads:
                raise LeanCoPImportError(
                    f"equality-theory clause {number} {_show(literals)} matches no "
                    f"known axiom schema"
                )
            schema, matcher, _flips = inst
            matches[number] = (schema, matcher)
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
        out[v] = registry.collapse_term(apply_subst(matcher.get(v) or Var(v), binding))
    return Subst(out)


def _clause_vars(clause: Clause) -> frozenset[str]:
    return frozenset().union(*map(free_vars, clause))


def import_leancop(trace: LeanCoPTrace) -> tuple[Sequent, dict]:
    """Build the expansion sequent of the original (unskolemized) problem:
    axioms on the left, conjectures on the right, plus one antecedent tree per
    equality axiom schema the proof used."""
    if not trace.inputs:
        raise LeanCoPImportError("trace has no input formulas")

    axioms = [f for f in trace.inputs if f[1] == "axiom"]
    conjectures = [f for f in trace.inputs if f[1] == "conjecture"]
    sequent0 = Sequent(tuple(f for _, _, f in axioms), tuple(f for _, _, f in conjectures))
    sequent, _renaming = rectify(sequent0)
    positions: dict[str, tuple[str, int, Formula, Polarity]] = {}
    for i, (name, _, _) in enumerate(axioms):
        positions[name] = ("ant", i, sequent.antecedent[i], Polarity.NEG)
    for i, (name, _, _) in enumerate(conjectures):
        positions[name] = ("suc", i, sequent.succedent[i], Polarity.POS)
    names = [name for name, _, _ in trace.inputs]

    # the Skolem heads are the function symbols the prover's clauses add to
    # the input; a constant that only bindings carry stays a constant.  Each
    # distinct subterm is walked once: an input's holds no Skolem term.
    input_atoms = [g for _, _, f in trace.inputs for g, _ in subformulas(f, Polarity.POS) if type(g) is Atom]
    walked: set[Term] = set()
    symbols = {t.head for t in _new_subterms((t for a in input_atoms for t in a.args), walked) if type(t) is App}
    clause_terms = _new_subterms(
        (t for _, lits, _, _ in trace.clauses for l in lits for t in (l.sub if type(l) is Neg else l).args), walked
    )
    registry = SkolemRegistry({t.head for t in clause_terms if type(t) is App} - symbols)
    registry.scan(clause_terms)
    registry.scan(_new_subterms((t for _, _, binding in trace.steps for _, t in binding.items()), walked))
    lits_by_number = {number: lits for number, lits, _, _ in trace.clauses}

    generated = definitional_dnf([(name, role, positions[name][2]) for name, role, _ in trace.inputs])
    matches = match_clauses(generated, trace.clauses, registry.heads)

    # dicts as insertion-ordered sets of instances, in first-use order
    per_formula: dict[str, dict[Subst, None]] = {name: {} for name in names}
    eq_groups: dict[tuple, tuple[AxiomSchema, dict[Subst, None]]] = {}
    # per trace clause, from the first step that uses it on: its variables,
    # those of the clause or schema it matched, the matcher, and the
    # instances the steps add to
    used: dict[int, tuple] = {}
    for step_id, number, binding in trace.steps:
        if number not in used:
            pattern, matcher = matches[number]
            if type(pattern) is AxiomSchema:
                variables = frozenset(pattern.variables)
                _schema, subs = eq_groups.setdefault((pattern.kind, pattern.param), (pattern, {}))
            else:
                variables = _clause_vars(pattern[0])
                subs = per_formula[pattern[1]]
            used[number] = (_clause_vars(lits_by_number[number]), variables, matcher, subs)
        clause_vars, variables, matcher, subs = used[number]
        extra = binding.domain - clause_vars
        if extra:
            raise LeanCoPImportError(
                f"step {step_id!r}: binding domain not covered by clause "
                f"{number} variables: {', '.join(sorted(extra))}"
            )
        sigma = _compose_instance(variables, matcher, binding, registry)
        if sigma:
            subs[sigma] = None

    ant_trees: list[ExpansionTree] = []
    suc_trees: list[ExpansionTree] = []
    for name in names:
        side, _i, rect_formula, pol = positions[name]
        tree = expand_formula(rect_formula, per_formula[name], pol)
        (ant_trees if side == "ant" else suc_trees).append(tree)
    for schema, subs in eq_groups.values():
        ant_trees.append(expand_formula(schema.formula, subs, Polarity.NEG))
    # an equality reaches the trees only from an input atom or a used schema
    if eq_groups or any(a.pred == EQ for a in input_atoms):
        ant_trees += symmetry_trees(ant_trees + suc_trees)

    report = {
        "matched_clauses": len(matches),
        "unmatched": [],
        "instances_per_formula": {name: len(per_formula[name]) for name in names},
        "skolem_map": registry.eigens,
    }
    return Sequent(tuple(ant_trees), tuple(suc_trees)), report
