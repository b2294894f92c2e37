import random
import sys
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import FIXTURES, load_bench_gen, nested_term_trace
from exproof import leancop
from exproof.check import dependency_relation, verdict
from exproof.core import (
    EQ,
    App,
    Atom,
    Neg,
    Polarity,
    Sequent,
    Subst,
    Var,
    apply_subst,
    free_vars,
    subformulas,
)
from exproof.expansion import ETStrong, ETWeak, expand_formula, shallow_sequent
from exproof.leancop import (
    LeanCoPImportError,
    _new_subterms,
    check_skolem_arguments,
    collapse_term,
    definitional_dnf,
    eigenvariable_names,
    import_leancop,
    match_clauses,
    parse_leancop,
)
from exproof.notation import ParseError, parse_formula, sequent_text
from exproof.verit import AxiomSchema, SchemaKind, make_schema, symmetry_trees
from oracles import ref_collapse_term, ref_match_literals
from randgen import const, eq

a, b, c = const("a"), const("b"), const("c")


def load(name: str):
    return parse_leancop((FIXTURES / name).read_text())


# --- parsing ---


def test_parse_input_line():
    trace = parse_leancop("fof(ax1, axiom, ![X]: p(X)).")
    assert trace.inputs == (("ax1", "axiom", parse_formula("![X]: p(X)")),)


def test_parse_clause_line():
    trace = parse_leancop(
        "fof(ax1, axiom, ![X]: p(X)).\ncnf(1, plain, [p(X1)], clausify(ax1))."
    )
    assert trace.clauses == ((1, (Atom("p", (Var("X1"),)),), "clausify", "ax1"),)


def test_parse_step_with_binding():
    trace = parse_leancop(
        "cnf(1, plain, [p(X1)], theory(equality)).\n"
        "cnf('s1', plain, [p(a)], start(1, bind([X1], [a])))."
    )
    assert trace.steps == (("s1", 1, Subst({"X1": a})),)


def test_parse_reduction_step():
    # a reduction closes a branch with no new instance: it parses and adds no step
    trace = parse_leancop("cnf('r1', plain, [~p(a)], reduction('1')).")
    assert trace.steps == ()
    with pytest.raises(ParseError, match="expected '\\)'"):
        parse_leancop("cnf('r1', plain, [~p(a)], reduction('1').")


def test_parse_negated_and_disequation_literals():
    trace = parse_leancop("cnf(1, plain, [~p(X1), a != b], theory(equality)).")
    assert trace.clauses[0][1] == (Neg(Atom("p", (Var("X1"),))), Neg(eq(a, b)))


def test_parse_errors():
    with pytest.raises(ParseError, match="unknown role"):
        parse_leancop("fof(ax1, lemma, p).")
    with pytest.raises(ParseError, match="unknown clause"):
        parse_leancop("cnf('s1', plain, [p(a)], start(7)).")
    with pytest.raises(ParseError, match="duplicate clause"):
        parse_leancop(
            "cnf(1, plain, [p], theory(equality)).\ncnf(1, plain, [q], theory(equality))."
        )
    with pytest.raises(ParseError):
        parse_leancop("fof(ax1, axiom, p)")  # missing final dot
    with pytest.raises(ParseError, match="duplicate input") as excinfo:
        parse_leancop("fof(ax, axiom, p).\nfof(bx, axiom, p).\nfof(ax, axiom, q).")
    assert (excinfo.value.line, excinfo.value.col) == (3, 1)
    with pytest.raises(ParseError, match="'=' takes exactly two arguments") as excinfo:
        parse_leancop("fof(a, axiom, '='(b,c,d)).")
    assert (excinfo.value.line, excinfo.value.col) == (1, 15)


# ![X]: p(X) |- p(c), with X bound twice by one step: were the last term to
# win, the first trace would be a proof and the second would not
DUPLICATE_BIND = """\
fof(ax, axiom, ![X]: p(X)).
fof(goal, conjecture, p(c)).
cnf(1, plain, [~p(X)], clausify(ax)).
cnf(2, plain, [p(c)], clausify(goal)).
cnf('s1', plain, [p(c)], start(2)).
cnf('e1', plain, [~p(c)], extension(1, bind([X, X], [{terms}]))).
"""
DUPLICATE_BIND_TRACES = [DUPLICATE_BIND.format(terms=terms) for terms in ("d, c", "c, d")]


@pytest.mark.parametrize("text", DUPLICATE_BIND_TRACES, ids=["last-is-c", "last-is-d"])
def test_parse_rejects_a_variable_bound_twice(text):
    with pytest.raises(ParseError, match="variable 'X' bound twice") as excinfo:
        parse_leancop(text)
    assert (excinfo.value.line, excinfo.value.col) == (6, 49)  # the second X


# --- skolem handling ---


def test_skolem_collapse():
    names = {"skC1": "v_skC1"}
    t = App("skC1", (Var("X"),))
    assert collapse_term(t, names) == Var("v_skC1")
    assert collapse_term(App("f", (a,)), names) == App("f", (a,))
    g = App("g", (App("skC1", (Var("X"),)), App("skC1", (Var("X"),))))
    assert collapse_term(g, names) == App("g", (Var("v_skC1"), Var("v_skC1")))


def test_skolem_single_binding_violation():
    heads = frozenset({"sk1"})
    check_skolem_arguments([App("sk1", (Var("X1"),)), App("sk1", (Var("X1"),))], heads)
    with pytest.raises(LeanCoPImportError, match="different argument lists"):
        check_skolem_arguments([App("sk1", (Var("X1"),)), App("sk1", (a,))], heads)


def test_skolem_scan_does_not_recurse_on_term_depth():
    t = App("g", (App("sk1", (a,)), App("sk1", (b,))))
    for _ in range(5000):
        t = App("f", (t,))
    with pytest.raises(LeanCoPImportError, match="different argument lists"):
        check_skolem_arguments(_new_subterms([t], set()), frozenset({"sk1"}))


def test_eigenvariable_names_are_plain_and_clash_with_nothing():
    # `v_sk1` and `v_sk1_1` are taken; `s!k` would be `v_s_k`, which the
    # plain head `s_k` keeps
    names = eigenvariable_names(frozenset({"s!k", "s_k", "sk1", "sk2"}), {"v_sk1", "v_sk1_1"})
    assert names == {"s!k": "v_s_k_1", "s_k": "v_s_k", "sk1": "v_sk1_2", "sk2": "v_sk2"}


def test_new_subterms_walks_each_distinct_subterm_once():
    fa = App("f", (a,))
    g = App("g", (fa, fa, b))
    seen = set()
    assert _new_subterms([g, fa, g], seen) == [g, fa, a, b]
    # a term seen before is not walked again, nor are its subterms
    assert _new_subterms([App("h", (g, c))], seen) == [App("h", (g, c)), c]


def test_skolem_heads_are_the_symbols_only_clauses_have():
    # `sk1` is named in the input, so it is a constant whatever its name;
    # `f1` is only in the clauses, so it is a Skolem head whatever its name
    text = """
fof(ax, axiom, ![X]: ?[Y]: r(X, Y, sk1)).
fof(conj, conjecture, ?[Z]: r(a, Z, sk1)).
cnf(1, plain, [~r(X1, f1(X1), sk1)], clausify(ax)).
cnf(2, plain, [r(a, Z1, sk1)], clausify(conj)).
cnf('s1', plain, [r(a, f1(X1), sk1)], start(2, bind([Z1], [f1(X1)]))).
cnf('e1', plain, [~r(a, f1(a), sk1)], extension(1, bind([X1], [a]))).
"""
    es, report = import_leancop(parse_leancop(text))
    assert verdict(es).is_proof
    assert report["skolem_map"] == {"f1": "v_f1"}


def test_constant_only_bindings_carry_is_a_constant():
    text = """
fof(ax, axiom, ![X]: p(X)).
fof(conj, conjecture, ?[Y]: p(Y)).
cnf(1, plain, [~p(X1)], clausify(ax)).
cnf(2, plain, [p(Y1)], clausify(conj)).
cnf('s1', plain, [p(c)], start(2, bind([Y1], [c]))).
cnf('e1', plain, [~p(c)], extension(1, bind([X1], [c]))).
"""
    es, report = import_leancop(parse_leancop(text))
    assert verdict(es).is_proof
    assert report["skolem_map"] == {}
    assert [t for t, _ in es.antecedent[0].instances] == [c]


def test_inputs_go_to_their_sides_in_trace_order_with_each_instance_once():
    # the roles alternate, and clause 2 is used by three steps, two of them
    # with the same binding
    text = """
fof(c1, conjecture, ?[Y]: q(Y)).
fof(a1, axiom, ![X]: p(X)).
fof(c2, conjecture, ?[Z]: r(Z)).
fof(a2, axiom, ![W]: (p(W) => q(W))).
cnf(1, plain, [q(Y1)], clausify(c1)).
cnf(2, plain, [~p(X1)], clausify(a1)).
cnf(3, plain, [r(Z1)], clausify(c2)).
cnf(4, plain, [p(W1), ~q(W1)], clausify(a2)).
cnf('s1', plain, [q(a)], start(1, bind([Y1], [a]))).
cnf('e1', plain, [p(a), ~q(a)], extension(4, bind([W1], [a]))).
cnf('e2', plain, [~p(a)], extension(2, bind([X1], [a]))).
cnf('e3', plain, [~p(a)], extension(2, bind([X1], [a]))).
cnf('e4', plain, [~p(b)], extension(2, bind([X1], [b]))).
cnf('e5', plain, [r(b)], extension(3, bind([Z1], [b]))).
"""
    es, report = import_leancop(parse_leancop(text))
    assert sequent_text(shallow_sequent(es)) == "![X]: p(X), ![W]: (p(W) => q(W)) ⊢ ?[Y]: q(Y), ?[Z]: r(Z)"
    assert [[t for t, _ in tree.instances] for tree in es.formulas] == [[a, b], [a], [a], [b]]
    assert list(report["instances_per_formula"].items()) == [("c1", 1), ("a1", 2), ("c2", 1), ("a2", 1)]
    assert verdict(es).is_proof


# --- definitional DNF ---


def test_dnf_negates_axioms_keeps_conjecture():
    out = definitional_dnf(
        [("ax", "axiom", parse_formula("![X]: p(X)")), ("conj", "conjecture", Atom("p", (a,)))]
    )
    assert out == [
        ((Neg(Atom("p", (Var("X"),))),), "ax"),
        ((Atom("p", (a,)),), "conj"),
    ]


def test_dnf_conjunction_in_conjecture_is_one_clause():
    out = definitional_dnf([("conj", "conjecture", parse_formula("?[Y]: (q(Y) & r(Y))"))])
    assert out[0][0] == (Atom("q", (Var("Y"),)), Atom("r", (Var("Y"),)))


def test_dnf_distribution_naive():
    out = definitional_dnf([("ax", "axiom", parse_formula("![X]: (p(X) | (q(X) & r(X)))"))])
    lits = [literals for literals, _source in out]
    X = Var("X")
    assert lits == [
        (Neg(Atom("p", (X,))), Neg(Atom("q", (X,)))),
        (Neg(Atom("p", (X,))), Neg(Atom("r", (X,)))),
    ]


def test_dnf_definitional_mode_introduces_predicate(monkeypatch):
    # (a1 & a2 & a3) | (b1 & b2 & b3) negated gives 3x3 = 9 clauses naively
    f = parse_formula("(a1 & a2 & a3) | (b1 & b2 & b3)")
    defd = definitional_dnf([("ax", "axiom", f)])
    monkeypatch.setattr(leancop, "DEF_THRESHOLD", 100)
    naive = definitional_dnf([("ax", "axiom", f)])
    assert len(naive) == 9
    assert len(defd) < 9
    def_preds = {l.pred for literals, _ in defd for l in literals if isinstance(l, Atom) and l.pred.startswith("d")}
    assert def_preds  # fresh definition predicates were used
    # a definition clause carries its predicate negated
    assert any(isinstance(l, Neg) and l.sub.pred in def_preds for literals, _ in defd for l in literals)


def test_dnf_definition_predicates_carry_free_variables():
    f = parse_formula("![X]: ((p1(X) & p2(X) & p3(X)) | (q1(X) & q2(X) & q3(X)))")
    out = definitional_dnf([("ax", "axiom", f)])
    atoms = [l.sub if isinstance(l, Neg) else l for literals, _ in out for l in literals]
    datoms = [atom for atom in atoms if atom.pred.startswith("d")]
    assert datoms and all(atom.args == (Var("X"),) for atom in datoms)


@pytest.mark.parametrize(
    "conjecture, clauses",
    [
        # 1 x 5 clauses: the left operand has one clause, so the right one is defined
        ("p & (q | r | s | t | u)", ["p d1", "q ~d1", "r ~d1", "s ~d1", "t ~d1", "u ~d1"]),
        # 2 x 3 clauses: the right operand has more clauses, so it is the one defined
        ("(a | b) & (q | r | s)", ["a d1", "b d1", "q ~d1", "r ~d1", "s ~d1"]),
    ],
)
def test_dnf_defines_the_right_operand(conjecture, clauses):
    def literal(text):
        return Neg(Atom(text[1:], ())) if text[0] == "~" else Atom(text, ())

    out = definitional_dnf([("conj", "conjecture", parse_formula(conjecture))])
    assert out == [(tuple(map(literal, c.split())), "conj") for c in clauses]


# --- clause matching ---


def test_match_forced():
    gen = [((Neg(Atom("p", (Var("X"),))),), "ax")]
    trace = parse_leancop("cnf(1, plain, [~p(X1)], clausify(ax)).")
    matches = match_clauses(gen, trace.clauses, frozenset())
    assert matches[1] == (gen[0], Subst({"X": Var("X1")}))


def test_match_reordering_tolerance():
    gen = [((Atom("q", (Var("Y"),)), Atom("r", (Var("Y"),))), "conj")]
    trace = parse_leancop("cnf(1, plain, [r(Y2), q(Y2)], clausify(conj)).")
    _generated, matcher = match_clauses(gen, trace.clauses, frozenset())[1]
    assert matcher == Subst({"Y": Var("Y2")})
    # reapplying the matcher reproduces the trace clause as a multiset
    assert Counter(apply_subst(l, matcher) for l in gen[0][0]) == Counter(trace.clauses[0][1])


PATTERN_TERMS = [Var("X"), Var("Y"), Var("Z"), a, b, App("f", (Var("X"),))]
TRACE_TERMS = [Var("X1"), Var("Y1"), a, b, App("f", (Var("X1"),))]


@st.composite
def clause_pairs(draw):
    """A pattern clause of up to 8 literals and a trace clause: the pattern
    under a substitution, shuffled, and half the time with one literal
    replaced."""
    def literal():
        pred, arity = draw(st.sampled_from([("p", 1), ("q", 2), ("r", 1)]))
        args = tuple(draw(st.sampled_from(PATTERN_TERMS)) for _ in range(arity))
        atom = Atom(pred, args)
        return atom if draw(st.booleans()) else Neg(atom)

    pattern = tuple(literal() for _ in range(draw(st.integers(0, 8))))
    sigma = Subst({v: draw(st.sampled_from(TRACE_TERMS)) for v in "XYZ"})
    clause = draw(st.permutations([apply_subst(l, sigma) for l in pattern]))
    if clause and draw(st.booleans()):
        clause[draw(st.integers(0, len(clause) - 1))] = literal()
    return pattern, tuple(clause)


@settings(max_examples=300)
@given(clause_pairs())
def test_clause_matching_agrees_with_the_reference_search(pair):
    pattern, clause = pair
    expected = ref_match_literals(pattern, clause, allow_flips=False)
    try:
        _generated, got = match_clauses([(pattern, "ax")], [(1, clause, "clausify", "ax")], frozenset())[1]
    except LeanCoPImportError:
        got = None
    assert got == (None if expected is None else Subst(expected[0]))


def test_match_signature_mismatch_reports_candidates():
    gen = [((Atom("p", (Var("X"),)),), "ax")]
    trace = parse_leancop("cnf(1, plain, [q(X1)], clausify(ax)).")
    with pytest.raises(LeanCoPImportError, match="nearest candidates"):
        match_clauses(gen, trace.clauses, frozenset())


def test_nearest_candidates_write_a_negated_equality_without_parentheses():
    trace = parse_leancop("fof(ax, axiom, a = b).\ncnf(1, plain, [~(b = a)], clausify(ax)).")
    generated = definitional_dnf([("ax", "axiom", eq(a, b))])
    with pytest.raises(LeanCoPImportError) as error:
        match_clauses(generated, trace.clauses, frozenset())
    assert str(error.value) == (
        "trace clause 1 [~b = a] does not match any generated clause of 'ax'; nearest candidates: [~a = b]"
    )


def test_match_equality_theory_clause():
    # negated transitivity in DNF form: positives chained, conclusion negative
    trace = parse_leancop(
        "cnf(1, plain, [X1 = X2, X2 = X3, ~(X1 = X3)], theory(equality))."
    )
    schema, _matcher = match_clauses([], trace.clauses, frozenset())[1]
    assert schema.kind is SchemaKind.TRANSITIVITY
    trace2 = parse_leancop("cnf(2, plain, [X1 = X2, ~(X2 = X1)], theory(equality)).")
    schema2, matcher2 = match_clauses([], trace2.clauses, frozenset())[2]
    assert schema2.kind is SchemaKind.SYMMETRY
    assert matcher2 == Subst({"x0": Var("X1"), "y0": Var("X2")})
    # ten literals, shuffled and flipped: past the old search's reach
    lits = [f"X{i + 1} = X{i}" if i % 2 else f"X{i} = X{i + 1}" for i in range(1, 10)] + ["~(X10 = X1)"]
    random.Random(9).shuffle(lits)
    trace3 = parse_leancop(f"cnf(3, plain, [{', '.join(lits)}], theory(equality)).")
    schema3, matcher3 = match_clauses([], trace3.clauses, frozenset())[3]
    assert (schema3.kind, schema3.param) == (SchemaKind.TRANSITIVITY, (9,))
    assert {matcher3["x0"], matcher3["x9"]} == {Var("X1"), Var("X10")}


def test_match_unknown_equality_shape():
    trace = parse_leancop("cnf(1, plain, [p(X1), q(X1)], theory(equality)).")
    with pytest.raises(LeanCoPImportError, match="no\\b.*schema|schema"):
        match_clauses([], trace.clauses, frozenset())


# --- import ---


def test_import_simple():
    es, report = import_leancop(load("leancop_simple.proof"))
    assert sequent_text(shallow_sequent(es)) == "![X]: p(X) ⊢ p(a)"
    assert verdict(es).is_proof
    assert report["matched_clauses"] == 2
    assert report["instances_per_formula"] == {"ax1": 1, "conj": 0}


def test_import_clause_variable_named_like_bound_variable():
    # the matcher binds X to the trace variable X, an identity that Subst
    # drops; the step binding must still reach X
    text = (FIXTURES / "leancop_simple.proof").read_text().replace("X1", "X")
    es, report = import_leancop(parse_leancop(text))
    assert verdict(es).is_proof
    assert [t for t, _ in es.antecedent[0].instances] == [a]
    assert report["instances_per_formula"] == {"ax1": 1, "conj": 0}


def test_import_deduplicates_repeated_instances():
    text = """
fof(ax1, axiom, ![X]: p(X)).
fof(conj, conjecture, (p(b) & p(a))).
cnf(1, plain, [~p(X1)], clausify(ax1)).
cnf(2, plain, [p(b), p(a)], clausify(conj)).
cnf('s1', plain, [p(b), p(a)], start(2)).
cnf('e1', plain, [~p(b)], extension(1, bind([X1], [b]))).
cnf('e2', plain, [~p(a)], extension(1, bind([X1], [a]))).
cnf('e3', plain, [~p(b)], extension(1, bind([X1], [b]))).
"""
    es, report = import_leancop(parse_leancop(text))
    assert verdict(es).is_proof
    assert report["instances_per_formula"]["ax1"] == 2
    assert [t for t, _ in es.antecedent[0].instances] == [a, b]


def test_import_existential_conjecture():
    es, _ = import_leancop(load("leancop_exists.proof"))
    tree = es.succedent[0]
    assert isinstance(tree, ETWeak)
    assert [t for t, _ in tree.instances] == [c]
    assert verdict(es).is_proof


def test_import_skolem_fixture():
    es, report = import_leancop(load("leancop_skolem.proof"))
    v = verdict(es)
    assert v.is_proof
    assert report["skolem_map"] == {"sk1": "v_sk1"}
    # exactly one eigenvariable per strong quantifier
    ax_tree = es.antecedent[0]
    strong = ax_tree.instances[0][1]
    assert isinstance(strong, ETStrong) and strong.eigenvariable == "v_sk1"
    g = dependency_relation(es)
    assert g.edges == frozenset({(0, 1)})  # a -> v_sk1, acyclic


EQUALITY_THEORY_TRACE = """
fof(ax1, axiom, a = b).
fof(ax2, axiom, b = c).
fof(conj, conjecture, a = c).
cnf(1, plain, [~(a = b)], clausify(ax1)).
cnf(2, plain, [~(b = c)], clausify(ax2)).
cnf(3, plain, [a = c], clausify(conj)).
cnf(4, plain, [X1 = X2, X2 = X3, ~(X1 = X3)], theory(equality)).
cnf('s1', plain, [a = c], start(3)).
cnf('e1', plain, [a = b, b = c], extension(4, bind([X1, X2, X3], [a, b, c]))).
cnf('e2', plain, [~(a = b)], extension(1)).
cnf('e3', plain, [~(b = c)], extension(2)).
"""


def test_import_equality_theory_contributes_axiom_tree():
    es, _report = import_leancop(parse_leancop(EQUALITY_THEORY_TRACE))
    assert len(es.antecedent) == 3  # ax1, ax2, transitivity tree
    assert verdict(es).is_proof


# the clause reads as the instance a = b, b = c => a = c, while ax1 says
# b = a: a symmetry tree ties the two orientations
FLIPPED_THEORY_TRACE = """
fof(ax1, axiom, b = a).
fof(ax2, axiom, b = c).
fof(goal, conjecture, a = c).
cnf(1, plain, [~(b = a)], clausify(ax1)).
cnf(2, plain, [~(b = c)], clausify(ax2)).
cnf(3, plain, [a = c], clausify(goal)).
cnf(4, plain, [X2 = X1, X2 = X3, ~(X1 = X3)], theory(equality)).
cnf('s1', plain, [a = c], start(3)).
cnf('e1', plain, [b = a, b = c, ~(a = c)], extension(4, bind([X1, X2, X3], [a, b, c]))).
cnf('e2', plain, [~(b = a)], extension(1)).
cnf('e3', plain, [~(b = c)], extension(2)).
"""


def test_theory_clause_in_another_orientation_is_a_proof():
    es, _report = import_leancop(parse_leancop(FLIPPED_THEORY_TRACE))
    assert verdict(es).is_proof
    assert len(es.antecedent) == 4  # ax1, ax2, transitivity and symmetry trees
    assert shallow_sequent(es).antecedent[-1] == make_schema(SchemaKind.SYMMETRY).formula


def test_import_binding_domain_check():
    text = """
fof(ax1, axiom, ![X]: p(X)).
fof(conj, conjecture, p(a)).
cnf(1, plain, [~p(X1)], clausify(ax1)).
cnf(2, plain, [p(a)], clausify(conj)).
cnf('s1', plain, [p(a)], start(2)).
cnf('e1', plain, [~p(a)], extension(1, bind([Z9], [a]))).
"""
    with pytest.raises(LeanCoPImportError, match="binding domain"):
        import_leancop(parse_leancop(text))


def test_import_unused_axiom_gets_fallback_instances():
    text = """
fof(ax1, axiom, ![X]: p(X)).
fof(ax2, axiom, ![W]: w(W)).
fof(conj, conjecture, p(a)).
cnf(1, plain, [~p(X1)], clausify(ax1)).
cnf(2, plain, [~w(W1)], clausify(ax2)).
cnf(3, plain, [p(a)], clausify(conj)).
cnf('s1', plain, [p(a)], start(3)).
cnf('e1', plain, [~p(a)], extension(1, bind([X1], [a]))).
"""
    es, report = import_leancop(parse_leancop(text))
    assert verdict(es).is_proof
    assert report["instances_per_formula"]["ax2"] == 0  # counts the steps' instances


# an axiom instance used only for its part outside the inner quantifier: the
# branch X = a has no instance for Y, weak in the first trace, strong (the
# Skolem term sk1(X)) in the second
BRANCH_WITHOUT_WEAK_INSTANCE = """
fof(ax, axiom, ![X]: (p(X) & ![Y]: q(X,Y))).
fof(c, conjecture, (p(a) & q(b,b))).
cnf(1, plain, [~p(X)], clausify(ax)).
cnf(2, plain, [~q(X,Y)], clausify(ax)).
cnf(3, plain, [p(a), q(b,b)], clausify(c)).
cnf('s1', plain, [p(a), q(b,b)], start(3)).
cnf('e1', plain, [~p(a)], extension(1, bind([X], [a]))).
cnf('e2', plain, [~q(b,b)], extension(2, bind([X, Y], [b, b]))).
"""

BRANCH_WITHOUT_STRONG_INSTANCE = """
fof(ax, axiom, ![X]: (p(X) & ?[Y]: q(X,Y))).
fof(c, conjecture, (p(a) & ?[Z]: q(b,Z))).
cnf(1, plain, [~p(X)], clausify(ax)).
cnf(2, plain, [~q(X,sk1(X))], clausify(ax)).
cnf(3, plain, [p(a), q(b,Z)], clausify(c)).
cnf('s1', plain, [p(a), q(b,sk1(X))], start(3, bind([Z], [sk1(X)]))).
cnf('e1', plain, [~p(a)], extension(1, bind([X], [a]))).
cnf('e2', plain, [~q(b,sk1(b))], extension(2, bind([X], [b]))).
"""


@pytest.mark.parametrize(
    "text", [BRANCH_WITHOUT_WEAK_INSTANCE, BRANCH_WITHOUT_STRONG_INSTANCE], ids=["weak", "strong"]
)
def test_import_completes_a_branch_without_instances(text):
    es, report = import_leancop(parse_leancop(text))
    assert verdict(es).is_proof
    assert report["instances_per_formula"]["ax"] == 2


def test_import_matches_definitional_clauses():
    # the trace uses the definition predicates our transformation introduces
    text = """
fof(ax, axiom, (a1 & a2 & a3) | (b1 & b2 & b3)).
fof(conj, conjecture, a1 | b1).
cnf(1, plain, [d1, ~b1], clausify(ax)).
cnf(2, plain, [~a1, ~d1], clausify(ax)).
cnf(3, plain, [a1], clausify(conj)).
cnf(4, plain, [b1], clausify(conj)).
cnf('s1', plain, [a1], start(3)).
cnf('e1', plain, [~a1, ~d1], extension(2)).
cnf('e2', plain, [d1, ~b1], extension(1)).
cnf('e3', plain, [b1], extension(4)).
"""
    es, report = import_leancop(parse_leancop(text))
    assert report["matched_clauses"] == 4
    assert verdict(es).is_proof


def test_import_rejects_missing_inputs():
    with pytest.raises(LeanCoPImportError, match="no input formulas"):
        import_leancop(parse_leancop("cnf(1, plain, [p], theory(equality))."))


def test_import_shallow_equals_rectified_inputs():
    es, _ = import_leancop(load("leancop_skolem.proof"))
    s = shallow_sequent(es)
    assert s.antecedent[0] == parse_formula("![X]: ?[Y]: r(X,Y)")
    assert s.succedent[0] == parse_formula("?[Z]: r(a,Z)")


def test_skolem_heads_need_no_prefix():
    text = """
fof(ax1, axiom, ![X]: ?[Y]: r(X,Y)).
fof(conj, conjecture, ?[Z]: r(a,Z)).
cnf(1, plain, [~r(X1, esk1(X1))], clausify(ax1)).
cnf(2, plain, [r(a, Z1)], clausify(conj)).
cnf('s1', plain, [r(a, esk1(X1))], start(2, bind([Z1], [esk1(X1)]))).
cnf('e1', plain, [~r(a, esk1(a))], extension(1, bind([X1], [a]))).
"""
    es, report = import_leancop(parse_leancop(text))
    assert verdict(es).is_proof
    assert report["skolem_map"] == {"esk1": "v_esk1"}


# --- clauses matched as written, Skolem terms collapsed in the instances ---


def test_theory_other_than_equality_is_a_parse_error_at_its_name():
    text = "fof(ax, axiom, p).\ncnf(1, plain, [X1 = X2, ~(X2 = X1)], theory(arithmetic))."
    with pytest.raises(ParseError, match="unknown theory 'arithmetic'") as excinfo:
        parse_leancop(text)
    assert (excinfo.value.line, excinfo.value.col) == (2, 45)  # at `arithmetic`


def test_unmatched_clause_is_shown_as_the_trace_writes_it():
    text = """
fof(ax, axiom, ![X]: ?[Y]: r(X, Y)).
cnf(1, plain, [r(X1, sk1(X1))], clausify(ax)).
"""
    with pytest.raises(LeanCoPImportError) as error:
        import_leancop(parse_leancop(text))
    assert str(error.value) == (
        "trace clause 1 [r(X1, sk1(X1))] does not match any generated clause of 'ax'; "
        "nearest candidates: [~r(X, Y)]"
    )


def test_skolem_conflict_is_reported_at_its_first_term_among_repeats():
    text = """
fof(ax, axiom, ![X]: ?[Y]: (p(g(Y)) & q(g(Y), X))).
cnf(1, plain, [~p(g(sk1(X1))), ~p(g(sk1(X1)))], clausify(ax)).
cnf(2, plain, [~q(g(sk1(X1)), sk1(c)), ~q(g(sk1(X1)), sk1(a))], clausify(ax)).
cnf(3, plain, [~p(g(sk1(b)))], clausify(ax)).
"""
    with pytest.raises(LeanCoPImportError) as error:
        import_leancop(parse_leancop(text))
    assert str(error.value).startswith(
        "skolem head 'sk1' used with two different argument lists (sk1(X1) vs sk1(c))"
    )


def test_congruence_of_a_skolem_function_is_no_equality_axiom():
    # read as written, the clause states congruence of `sk1`, a function the
    # problem does not have; collapsed, it states no axiom at all
    text = """
fof(ax, axiom, ![X]: ?[Y]: r(X, Y)).
fof(goal, conjecture, ?[Z]: r(a, Z)).
cnf(1, plain, [~r(a, sk1(a))], clausify(ax)).
cnf(2, plain, [r(a, Z1)], clausify(goal)).
cnf(3, plain, [a = a, ~(sk1(a) = sk1(a))], theory(equality)).
"""
    with pytest.raises(LeanCoPImportError) as error:
        import_leancop(parse_leancop(text))
    assert str(error.value) == (
        "equality-theory clause 3 [a = a, ~sk1(a) = sk1(a)] matches no known axiom schema"
    )


SYMMETRIC_INPUTS_TRACE = """
fof(ax, axiom, a = b).
fof(goal, conjecture, b = a).
cnf(1, plain, [~(a = b)], clausify(ax)).
cnf(2, plain, [b = a], clausify(goal)).
cnf('s1', plain, [b = a], start(2)).
cnf('e1', plain, [~(a = b)], extension(1)).
"""

_gen = load_bench_gen()
# the connection-trace fixtures, generated chains of every variant at sizes
# 2 to 50, quantifier shifts, a term nested past the recursion limit, and
# traces with equalities
DIFFERENTIAL_TRACES = {
    **{path.name: path.read_text() for path in sorted(FIXTURES.glob("leancop_*.proof"))},
    **{
        f"chain-{variant}-{seed}": _gen.leancop_chain(
            random.Random(seed), 2 + 48 * seed // 9, "chain.proof", variant
        ).text
        for variant in ("proof", "broken", "loop")
        for seed in range(10)
    },
    **{f"shift-{seed}": _gen.quantifier_shift(random.Random(seed), "shift.proof").text for seed in range(3)},
    "nested-1500": nested_term_trace("leancop", 1500),
    "equality-theory": EQUALITY_THEORY_TRACE,
    "flipped-theory": FLIPPED_THEORY_TRACE,
    "symmetric-inputs": SYMMETRIC_INPUTS_TRACE,
}


def _collapse_literal(lit, names):
    atom = lit.sub if type(lit) is Neg else lit
    collapsed = Atom(atom.pred, tuple(ref_collapse_term(t, names) for t in atom.args))
    return collapsed if atom is lit else Neg(collapsed)


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_TRACES))
def test_import_agrees_with_matching_collapsed_clauses(name):
    """Each trace clause matches the same generated clause or schema as
    written as after collapsing its Skolem terms, with the same matcher
    after collapsing; and the import's sequent is the one built from the
    collapsed matches, with a symmetry tree only where an equality occurs."""
    trace = parse_leancop(DIFFERENTIAL_TRACES[name])
    es, report = import_leancop(trace)
    names = report["skolem_map"]
    heads = frozenset(names)
    axioms = [n for n, role, _ in trace.inputs if role == "axiom"]
    conjectures = [n for n, role, _ in trace.inputs if role == "conjecture"]
    shallow = shallow_sequent(es)
    formulas = dict(zip(axioms + conjectures, shallow.antecedent[: len(axioms)] + shallow.succedent))
    generated = definitional_dnf([(n, role, formulas[n]) for n, role, _ in trace.inputs])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 4000))  # the reference collapse recurses on term depth
    try:
        collapsed = [
            (number, tuple(_collapse_literal(l, names) for l in lits), kind, origin)
            for number, lits, kind, origin in trace.clauses
        ]
        as_written = match_clauses(generated, trace.clauses, heads)
        after = match_clauses(generated, collapsed, frozenset())
        assert as_written.keys() == after.keys()
        for number, (pattern, matcher) in as_written.items():
            assert after[number][0] is pattern
            assert Subst({v: ref_collapse_term(t, names) for v, t in matcher.items()}) == after[number][1]
        # compose each step's instance from the collapsed matcher
        instances = {n: {} for n in formulas}
        schemas = {}
        for _id, number, binding in trace.steps:
            pattern, matcher = after[number]
            if type(pattern) is AxiomSchema:
                variables = pattern.variables
                subs = schemas.setdefault((pattern.kind, pattern.param), (pattern, {}))[1]
            else:
                variables = frozenset().union(*map(free_vars, pattern[0]))
                subs = instances[pattern[1]]
            sigma = Subst(
                {v: ref_collapse_term(apply_subst(matcher.get(v, Var(v)), binding), names) for v in variables}
            )
            if sigma:
                subs[sigma] = None
    finally:
        sys.setrecursionlimit(limit)
    ant = [expand_formula(formulas[n], instances[n], Polarity.NEG) for n in axioms]
    ant += [expand_formula(schema.formula, subs, Polarity.NEG) for schema, subs in schemas.values()]
    suc = [expand_formula(formulas[n], instances[n], Polarity.POS) for n in conjectures]
    symmetry = symmetry_trees(ant + suc)
    input_atoms = [g for f in formulas.values() for g, _ in subformulas(f, Polarity.POS) if type(g) is Atom]
    if not schemas and all(g.pred != EQ for g in input_atoms):  # where the import skips the search
        assert symmetry == []
    assert es == Sequent(tuple(ant + symmetry), tuple(suc))
