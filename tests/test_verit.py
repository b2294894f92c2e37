import random
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import FIXTURES
from exproof.check import verdict
from exproof.core import App, Atom, InvariantError, Neg, Sequent, Subst, apply_subst
from exproof.expansion import shallow_sequent
from exproof.notation import parse_formula
from exproof.verit import (
    AXIOM_RULES,
    SchemaKind,
    TraceSyntaxError,
    VeritImportError,
    axiom_instance,
    import_verit,
    leaf_clauses,
    make_schema,
    match_axiom_instance,
    parse_verit,
)
from oracles import ref_match_literals
from randgen import const, eq

a, b, c = const("a"), const("b"), const("c")


def load(name: str):
    return parse_verit((FIXTURES / name).read_text())


# --- parsing ---


def test_parse_input_step():
    trace = parse_verit("(set .c1 (input :conclusion ((= a b))))")
    assert trace.steps == (("c1", "input", (), (eq(a, b),)),)


def test_parse_string_literal_is_one_constant_with_its_quotes():
    trace = parse_verit('(set .c1 (input :conclusion ((p "s t" """" "a""b"))))')
    assert trace.steps[0][3] == (Atom("p", (const('"s t"'), const('""""'), const('"a""b"'))),)


def test_parse_transitivity_leaf():
    trace = parse_verit(
        "(set .c3 (eq_transitive :conclusion ((not (= a b)) (not (= b c)) (= a c))))"
    )
    assert trace.steps[0][3] == (
        Neg(eq(a, b)),
        Neg(eq(b, c)),
        eq(a, c),
    )


def test_parse_resolution_step():
    text = """
    (set .c1 (input :conclusion ((= a b))))
    (set .c3 (input :conclusion ((not (= a b)))))
    (set .c9 (resolution :clauses (.c1 .c3) :conclusion ()))
    """
    trace = parse_verit(text)
    assert trace.steps[2][2:] == (("c1", "c3"), ())


def test_parse_nested_terms():
    trace = parse_verit("(set .c1 (input :conclusion ((p a (f b)))))")
    assert trace.steps[0][3] == (
        Atom("p", (a, App("f", (b,)))),
    )


def test_parse_errors():
    with pytest.raises(TraceSyntaxError):
        parse_verit("(set .c1 (input :conclusion ((= a b)))")  # unbalanced
    with pytest.raises(TraceSyntaxError, match="duplicate"):
        parse_verit(
            "(set .c1 (input :conclusion (p)))(set .c1 (input :conclusion (q)))"
        )
    with pytest.raises(TraceSyntaxError, match="dangling"):
        parse_verit("(set .c2 (resolution :clauses (.c1) :conclusion ()))")
    with pytest.raises(TraceSyntaxError, match="no :conclusion"):
        parse_verit("(set .c1 (input))")


# p and ~p refuted, where a step names an attribute twice: were the last to
# win, the first trace would be a proof although with its first :conclusion
# its inputs are satisfiable, and the second would read other premises
REPEATED_ATTRIBUTE_TRACES = [
    "(set .c1 (input :conclusion ((not p)) :conclusion (p)))\n"
    "(set .c2 (input :conclusion ((not p))))\n"
    "(set .c3 (resolution :clauses (.c1 .c2) :conclusion ()))\n",
    "(set .c1 (input :conclusion (p)))\n"
    "(set .c2 (input :conclusion ((not p))))\n"
    "(set .c3 (resolution :clauses (.c1) :clauses (.c1 .c2) :conclusion ()))\n",
]
REPEATED_ATTRIBUTE_ERRORS = [
    ":conclusion given twice in step 'c1' at line 1, column 1",
    ":clauses given twice in step 'c3' at line 3, column 1",
]


@pytest.mark.parametrize(
    "text, message", zip(REPEATED_ATTRIBUTE_TRACES, REPEATED_ATTRIBUTE_ERRORS), ids=["conclusion", "clauses"]
)
def test_parse_rejects_a_step_attribute_given_twice(text, message):
    with pytest.raises(TraceSyntaxError) as exc:
        parse_verit(text)
    assert str(exc.value) == message


def test_parse_error_location():
    with pytest.raises(TraceSyntaxError) as exc:
        parse_verit("(set .c1 (input :conclusion (p)))\n(boom)")
    assert exc.value.line == 2


def test_comment_lines_are_skipped_and_counted():
    # the `%` comment lines that format detection skips, before the first
    # step, are skipped; a `%` anywhere else starts an atom, so a literal
    # on a line of its own that starts with `%` is not dropped
    text = "% a comment\n  %% another\n(set .c1 (input :conclusion (p)))\n(set .c2 (input :conclusion (p\n  %q\n)))"
    assert parse_verit(text).steps[1][3] == (Atom("p", ()), Atom("%q", ()))
    with pytest.raises(TraceSyntaxError) as exc:
        parse_verit(text + "\n\n\t(boom)\n")
    assert str(exc.value) == "expected a (set .id (...)) step at line 8, column 2"
    with pytest.raises(TraceSyntaxError) as exc:
        parse_verit(text + "\n% (set\n")
    assert str(exc.value) == "expected a (set .id (...)) step at line 7, column 1"


# --- leaf collection ---


def test_leaf_partition():
    trace = load("verit_transitivity.proof")
    inputs, axioms = leaf_clauses(trace)
    assert len(inputs) == 3
    assert [kind for kind, _ in axioms] == [SchemaKind.TRANSITIVITY]


def test_only_input_leaves():
    trace = load("verit_propositional.proof")
    inputs, axioms = leaf_clauses(trace)
    assert len(inputs) == 2 and axioms == []


def test_congruence_kind():
    trace = load("verit_congruence.proof")
    _, axioms = leaf_clauses(trace)
    assert axioms[0][0] is SchemaKind.FN_CONGRUENCE


def test_unknown_leaf_rule_is_error():
    trace = parse_verit("(set .c1 (mystery :conclusion (p)))")
    with pytest.raises(VeritImportError, match="unknown leaf rule"):
        leaf_clauses(trace)


# --- schemas ---


def test_transitivity_schema():
    schema = make_schema(SchemaKind.TRANSITIVITY, 2)
    assert schema.formula == parse_formula(
        "![x0]: ![x1]: ![x2]: ((x0 = x1 & x1 = x2) => x0 = x2)"
    )
    assert len(schema.matrix) == 3


def test_fn_congruence_schema():
    schema = make_schema(SchemaKind.FN_CONGRUENCE, "f", 1)
    assert schema.formula == parse_formula("![x0]: ![y0]: (x0 = y0 => f(x0) = f(y0))")


def test_pred_congruence_schema():
    schema = make_schema(SchemaKind.PRED_CONGRUENCE, "p", 1)
    assert schema.formula == parse_formula("![x0]: ![y0]: ((x0 = y0 & p(x0)) => p(y0))")


def test_reflexivity_and_symmetry_schemas():
    assert make_schema(SchemaKind.REFLEXIVITY).formula == parse_formula("![x0]: x0 = x0")
    assert make_schema(SchemaKind.SYMMETRY).formula == parse_formula(
        "![x0]: ![y0]: (x0 = y0 => y0 = x0)"
    )


def test_each_schema_is_built_once():
    for kind, param in [
        (SchemaKind.TRANSITIVITY, (3,)),
        (SchemaKind.FN_CONGRUENCE, ("f", 2)),
        (SchemaKind.PRED_CONGRUENCE, ("p", 1)),
        (SchemaKind.SYMMETRY, ()),
        (SchemaKind.REFLEXIVITY, ()),
    ]:
        assert make_schema(kind, *param) is make_schema(kind, *param)
    assert make_schema(SchemaKind.TRANSITIVITY, 2) is not make_schema(SchemaKind.TRANSITIVITY, 3)


def test_schema_size_validation():
    with pytest.raises(VeritImportError):
        make_schema(SchemaKind.TRANSITIVITY, 1)
    with pytest.raises(VeritImportError):
        make_schema(SchemaKind.FN_CONGRUENCE, "f", 0)


# --- axiom instance matching ---


def test_match_transitivity_positional():
    clause = (Neg(eq(a, b)), Neg(eq(b, c)), eq(a, c))
    _schema, subst, flips = match_axiom_instance(SchemaKind.TRANSITIVITY, clause)
    assert dict(subst.items()) == {"x0": a, "x1": b, "x2": c}
    assert flips == 0


def test_match_congruence():
    clause = (Neg(eq(a, b)), eq(App("f", (a,)), App("f", (b,))),)
    _schema, subst, _flips = match_axiom_instance(SchemaKind.FN_CONGRUENCE, clause)
    assert dict(subst.items()) == {"x0": a, "y0": b}


def test_match_with_orientation_flip():
    clause = (Neg(eq(b, a)), Neg(eq(b, c)), eq(a, c))
    _schema, subst, flips = match_axiom_instance(SchemaKind.TRANSITIVITY, clause)
    assert dict(subst.items()) == {"x0": a, "x1": b, "x2": c}
    assert flips == 1


def test_match_with_literal_permutation():
    clause = (eq(a, c), Neg(eq(a, b)), Neg(eq(b, c)))
    schema, subst, _flips = match_axiom_instance(SchemaKind.TRANSITIVITY, clause)
    assert dict(subst.items()) == {"x0": a, "x1": b, "x2": c}
    # the matcher reproduces the leaf clause as a multiset
    assert Counter(apply_subst(l, subst) for l in schema.matrix) == Counter(clause)


def test_match_failure_is_import_error():
    clause = (Neg(eq(a, b)), Neg(eq(c, c)), eq(a, c))
    with pytest.raises(VeritImportError, match="cannot match"):
        match_axiom_instance(SchemaKind.TRANSITIVITY, clause)


def test_messages_write_a_negated_equality_without_parentheses(monkeypatch):
    # a clause in a message reads `~a = b`, where a formula reads `~(a = b)`
    with pytest.raises(VeritImportError) as error:
        match_axiom_instance(SchemaKind.TRANSITIVITY, (Neg(eq(a, b)), Neg(eq(c, c)), eq(a, c)))
    assert str(error.value) == "cannot match transitivity axiom against clause [~a = b, ~c = c, a = c]"
    monkeypatch.setattr("exproof.verit._walk", lambda edges, s, t: [(t, -1), (s, 0), (s, 1)])
    with pytest.raises(InvariantError) as error:
        match_axiom_instance(SchemaKind.TRANSITIVITY, (Neg(eq(a, b)), Neg(eq(b, c)), eq(a, c)))
    assert str(error.value) == (
        "the transitivity instance [~c = a, ~a = a, c = a] is not the leaf [~a = b, ~b = c, a = c]"
    )


def _signed(lit) -> tuple:
    """(whether it is positive, its atom) of a literal."""
    return (False, lit.sub) if isinstance(lit, Neg) else (True, lit)


def _unoriented(lit) -> tuple:
    positive, atom = _signed(lit)
    args = frozenset(atom.args) if atom.pred == "=" else atom.args
    return positive, atom.pred, args


def _instance_literals(inst) -> tuple:
    """The schema matrix under the instance's substitution."""
    schema, subst, _flips = inst
    return tuple(apply_subst(lit, subst) for lit in schema.matrix)


def _chain(n: int, prefix: str = "t"):
    """The terms t0..tn and the transitivity leaf from t0 to tn, in order."""
    names = [const(f"{prefix}{i}") for i in range(n + 1)]
    clause = tuple(Neg(eq(names[i], names[i + 1])) for i in range(n)) + (
        eq(names[0], names[n]),
    )
    return names, clause


def test_shuffled_ten_literal_leaf_matches():
    names, clause = _chain(9)
    shuffled = clause[::-1]
    rng = random.Random(10)
    for leaf in (clause, shuffled, tuple(rng.sample(clause, len(clause)))):
        inst = match_axiom_instance(SchemaKind.TRANSITIVITY, leaf)
        assert Counter(map(_unoriented, _instance_literals(inst))) == Counter(map(_unoriented, leaf))
        # the walk starts at the end whose first equality comes first
        ends = (names[0], names[9])
        start = min(ends, key=lambda e: next(j for j, l in enumerate(leaf) if isinstance(l, Neg) and e in l.sub.args))
        _schema, subst, flips = inst
        assert subst["x0"] == start
        assert flips == (0 if start == names[0] else 10)


@pytest.mark.parametrize("kind, clause", [
    ("transitivity", (Neg(eq(a, b)), Neg(eq(b, a)), eq(a, a))),
    ("transitivity", (Neg(eq(a, b)), Neg(eq(c, c)), Neg(eq(b, c)), eq(a, c))),
    ("fn_congruence", (Neg(eq(b, a)), Neg(eq(a, b)),
                       eq(App("f", (a, b)), App("f", (b, a))))),
    ("pred_congruence", (Neg(eq(a, b)), Neg(eq(a, b)), Atom("p", (a, b)),
                         Neg(Atom("p", (b, a))))),
])
def test_match_through_repeated_terms(kind, clause):
    inst = match_axiom_instance(SchemaKind(kind), clause)
    assert Counter(map(_unoriented, _instance_literals(inst))) == Counter(map(_unoriented, clause))


@pytest.mark.parametrize("kind, clause", [
    ("transitivity", (Neg(eq(a, b)), Neg(eq(c, c)), eq(a, b))),
    ("transitivity", (Neg(eq(a, b)), Neg(eq(b, c)), Neg(eq(a, c)),
                      eq(a, c))),
    ("transitivity", (Neg(eq(a, b)), Neg(eq(b, c)))),
    ("transitivity", (Neg(eq(a, b)), Neg(eq(b, a)), eq(a, c))),
    ("transitivity", (Neg(eq(a, b)), Neg(eq(b, a)), eq(c, a))),
    ("fn_congruence", (Neg(eq(a, b)), eq(App("f", (a, a)), App("f", (b, b))))),
    ("fn_congruence", (Neg(eq(a, b)), eq(App("f", (a,)), App("g", (b,))))),
    ("pred_congruence", (Neg(eq(a, c)), Neg(Atom("p", (a,))), Atom("p", (b,)))),
    ("reflexivity", (eq(a, b),)),
])
def test_non_instances_are_import_errors(kind, clause):
    with pytest.raises(VeritImportError, match="cannot match"):
        match_axiom_instance(SchemaKind(kind), clause)


def test_instance_that_is_not_the_leaf_is_an_invariant_error(monkeypatch):
    monkeypatch.setattr("exproof.verit._walk", lambda edges, s, t: [(t, -1), (s, 0), (s, 1)])
    clause = (Neg(eq(a, b)), Neg(eq(b, c)), eq(a, c))
    with pytest.raises(InvariantError, match="is not the leaf"):
        match_axiom_instance(SchemaKind.TRANSITIVITY, clause)


def test_ten_thousand_link_leaf_is_read_in_one_pass():
    names, clause = _chain(10_000)
    leaf = tuple(random.Random(4).sample(clause, len(clause)))
    inst = match_axiom_instance(SchemaKind.TRANSITIVITY, leaf)
    assert {inst[1]["x0"], inst[1]["x10000"]} == {names[0], names[-1]}
    assert Counter(map(_unoriented, _instance_literals(inst))) == Counter(map(_unoriented, leaf))


# --- instances read off disguised leaves ---

POOL = [const(f"c{i}") for i in range(4)] + [App("g", (const("c0"),)), App("g", (App("g", (const("c1"),)),))]
RULES = {kind: rule for rule, kind in AXIOM_RULES.items()}


@st.composite
def instances(draw, max_literals: int = 30, simple_chains: bool = False):
    """A leaf kind and an instance of its axiom, premises first, over terms
    that repeat; with `simple_chains` a transitivity chain repeats none."""
    kind = draw(st.sampled_from(list(RULES)))
    term = st.sampled_from(POOL)
    if kind is SchemaKind.REFLEXIVITY:
        t = draw(term)
        return kind, (eq(t, t),)
    if kind is SchemaKind.TRANSITIVITY:
        chain = st.permutations(POOL + [const(f"d{i}") for i in range(3)]) if simple_chains else st.lists(term, min_size=30)
        xs = draw(chain)[: draw(st.integers(3, max_literals))]
        return kind, tuple(Neg(eq(x, y)) for x, y in zip(xs, xs[1:])) + (eq(xs[0], xs[-1]),)
    k = draw(st.integers(1, max_literals - (1 if kind is SchemaKind.FN_CONGRUENCE else 2)))
    xs, ys = (tuple(draw(st.lists(term, min_size=k, max_size=k))) for _ in range(2))
    premises = tuple(Neg(eq(x, y)) for x, y in zip(xs, ys))
    if kind is SchemaKind.FN_CONGRUENCE:
        return kind, premises + (eq(App("f", xs), App("f", ys)),)
    return kind, premises + (Neg(Atom("p", xs)), Atom("p", ys))


def _disguise(draw, literals):
    """The literals shuffled, each equality written either way round."""
    out = []
    for lit in draw(st.permutations(literals)):
        positive, atom = _signed(lit)
        if atom.pred == "=" and draw(st.booleans()):
            lit = eq(*atom.args[::-1]) if positive else Neg(eq(*atom.args[::-1]))
        out.append(lit)
    return tuple(out)


def _sexp(t) -> str:
    return f"({t.head} {' '.join(map(_sexp, t.args))})" if t.args else t.head


def _literal_sexp(lit) -> str:
    positive, atom = _signed(lit)
    text = _sexp(App(atom.pred, atom.args))
    return text if positive else f"(not {text})"


@settings(max_examples=150)
@given(instances(), st.data())
def test_disguised_instances_import_as_proofs(instance, data):
    # the inputs refute the instance, and are themselves written either way
    kind, literals = instance
    inputs = _disguise(data.draw, tuple(l.sub if isinstance(l, Neg) else Neg(l) for l in literals))
    lines = [f"(set .i{k} (input :conclusion ({_literal_sexp(l)})))" for k, l in enumerate(inputs)]
    leaf = " ".join(map(_literal_sexp, _disguise(data.draw, literals)))
    lines.append(f"(set .t ({RULES[kind]} :conclusion ({leaf})))")
    es, report = import_verit(parse_verit("\n".join(lines)))
    assert report["schema_instances"] == {kind.value: 1}
    assert verdict(es).is_proof


@settings(max_examples=200)
@given(instances(max_literals=6, simple_chains=True), st.data())
def test_instances_agree_with_the_search_they_replace(instance, data):
    # the permutation-and-flip search finds the same instance and flips the
    # same literals, except that it may walk another way through a chain
    # whose terms repeat; on congruences it tries up to k! 2^k assignments,
    # so k stays small
    kind, literals = instance
    leaf = _disguise(data.draw, literals)
    schema, subst, flips = match_axiom_instance(kind, leaf)
    found = ref_match_literals(schema.matrix, leaf, allow_flips=True)
    assert found is not None
    assert subst == Subst(found[0])
    assert flips == len(found[2])


def _candidate_schema(kind: SchemaKind, clause):
    """The one schema of `kind` that the clause could instantiate, if any."""
    heads = [l for l in clause if not isinstance(l, Neg)]
    if len(heads) != 1 or not heads[0].args:
        return None
    if kind is SchemaKind.TRANSITIVITY:
        return make_schema(kind, len(clause) - 1) if len(clause) >= 3 else None
    if kind is SchemaKind.FN_CONGRUENCE:
        lhs = heads[0].args[0]
        return make_schema(kind, lhs.head, len(lhs.args)) if heads[0].pred == "=" and lhs.args else None
    if kind is SchemaKind.PRED_CONGRUENCE:
        return make_schema(kind, heads[0].pred, len(heads[0].args)) if heads[0].pred != "=" else None
    return make_schema(kind)


@st.composite
def equality_clauses(draw):
    """Up to 6 literals: half the time a disguised instance with one term
    perhaps replaced, else mostly equalities over a few terms."""
    if draw(st.booleans()):
        clause = list(_disguise(draw, draw(instances(max_literals=6))[1]))
        i = draw(st.integers(0, len(clause) - 1))
        positive, atom = _signed(clause[i])
        if atom.args and draw(st.booleans()):
            args = list(atom.args)
            args[draw(st.integers(0, len(args) - 1))] = draw(st.sampled_from(POOL))
            atom = Atom(atom.pred, tuple(args))
            clause[i] = atom if positive else Neg(atom)
        return tuple(clause)
    terms = st.sampled_from([a, b, c, App("f", (a,)), App("f", (b,)), App("f", (a, b)), App("f", (b, a))])
    def literal():
        if draw(st.integers(0, 4)):
            atom = eq(draw(terms), draw(terms))
        else:
            atom = Atom("p", tuple(draw(terms) for _ in range(draw(st.integers(1, 2)))))
        return atom if draw(st.booleans()) else Neg(atom)
    return tuple(literal() for _ in range(draw(st.integers(1, 6))))


@settings(max_examples=300)
@given(equality_clauses())
def test_a_clause_is_read_as_an_instance_exactly_when_the_search_finds_one(clause):
    for kind in SchemaKind:
        inst = axiom_instance(kind, clause)
        schema = _candidate_schema(kind, clause)
        found = schema is not None and ref_match_literals(schema.matrix, clause, allow_flips=True) is not None
        assert (inst is not None) == found, kind


# --- import ---


def test_import_transitivity_fixture():
    es, report = import_verit(load("verit_transitivity.proof"))
    assert es.succedent == ()
    assert len(es.antecedent) == 4  # three inputs + one axiom tree
    assert verdict(es).is_proof
    assert report["schema_instances"] == {"transitivity": 1}
    assert report["flips"] == 0


def test_transitivity_leaf_in_another_order_is_a_proof():
    # read from its other end, the instance is c = b, b = a => c = a: the
    # three pairs occur in both orientations and a symmetry tree ties them
    text = (FIXTURES / "verit_transitivity.proof").read_text()
    text = text.replace("((not (= a b)) (not (= b c)) (= a c))", "((not (= b c)) (not (= a b)) (= a c))")
    es, report = import_verit(parse_verit(text))
    assert verdict(es).is_proof
    assert report["flips"] == 3
    assert shallow_sequent(es).antecedent[-1] == make_schema(SchemaKind.SYMMETRY).formula
    assert len(es.antecedent[-1].instances) == 3  # x0 ranges over a, b and c


def test_import_minimality():
    # dropping the axiom-instance tree must break the tautology
    for name in ("verit_transitivity.proof", "verit_congruence.proof", "verit_reflexivity.proof"):
        es, _ = import_verit(load(name))
        pruned = Sequent(es.antecedent[:-1], ())
        v = verdict(pruned)
        assert not v.tautology and not v.is_proof, name


def test_import_congruence_fixture():
    es, report = import_verit(load("verit_congruence.proof"))
    assert verdict(es).is_proof
    assert report["schema_instances"] == {"fn_congruence": 1}


def test_import_reflexivity_fixture():
    es, report = import_verit(load("verit_reflexivity.proof"))
    assert verdict(es).is_proof
    assert "a" in report["reflexivity_terms"]


def test_import_propositional_fixture():
    es, _ = import_verit(load("verit_propositional.proof"))
    assert verdict(es).is_proof
    assert len(es.antecedent) == 2


def test_import_not_proof_fixture():
    es, _ = import_verit(load("verit_not_proof.proof"))
    v = verdict(es)
    assert not v.is_proof and v.counterexample is not None


def test_import_empty_trace():
    with pytest.raises(VeritImportError, match="empty trace"):
        import_verit(parse_verit(""))


def test_import_shallow_formulas_are_the_schemas():
    es, _ = import_verit(load("verit_transitivity.proof"))
    s = shallow_sequent(es)
    assert s.antecedent[3] == make_schema(SchemaKind.TRANSITIVITY, 2).formula


def test_axiom_groups_share_one_tree():
    text = """
    (set .c1 (eq_transitive :conclusion ((not (= a b)) (not (= b c)) (= a c))))
    (set .c2 (eq_transitive :conclusion ((not (= b c)) (not (= c a)) (= b a))))
    """
    es, report = import_verit(parse_verit(text))
    tree = es.antecedent[0]
    assert len(tree.instances) == 2  # two x0-instances under one schema tree
    assert report["schema_instances"] == {"transitivity": 2}
    # a = b, a = c and their reversals all occur: the only other tree is the
    # symmetry tree
    assert len(es.antecedent) == 2
    assert shallow_sequent(es).antecedent[1] == make_schema(SchemaKind.SYMMETRY).formula
