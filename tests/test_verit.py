import pytest

from conftest import FIXTURES
from exproof.check import verdict
from exproof.core import App, Atom, Literal, Var, const, eq
from exproof.expansion import ExpansionSequent, shallow_sequent
from exproof.notation import parse_formula
from exproof.verit import (
    SchemaKind,
    TraceSyntaxError,
    VeritImportError,
    import_verit,
    leaf_clauses,
    make_schema,
    match_axiom_instance,
    match_literals,
    parse_verit,
)

a, b, c = const("a"), const("b"), const("c")


def load(name: str):
    return parse_verit((FIXTURES / name).read_text())


# --- parsing ---


def test_parse_input_step():
    trace = parse_verit("(set .c1 (input :conclusion ((= a b))))")
    step = trace.steps[0]
    assert step.id == "c1"
    assert step.rule == "input"
    assert step.premises == ()
    assert step.conclusion == (Literal(eq(a, b)),)


def test_parse_transitivity_leaf():
    trace = parse_verit(
        "(set .c3 (eq_transitive :conclusion ((not (= a b)) (not (= b c)) (= a c))))"
    )
    assert trace.steps[0].conclusion == (
        Literal(eq(a, b), False),
        Literal(eq(b, c), False),
        Literal(eq(a, c)),
    )


def test_parse_resolution_step():
    text = """
    (set .c1 (input :conclusion ((= a b))))
    (set .c3 (input :conclusion ((not (= a b)))))
    (set .c9 (resolution :clauses (.c1 .c3) :conclusion ()))
    """
    trace = parse_verit(text)
    assert trace.steps[2].premises == ("c1", "c3")
    assert trace.steps[2].conclusion == ()


def test_parse_nested_terms():
    trace = parse_verit("(set .c1 (input :conclusion ((p a (f b)))))")
    assert trace.steps[0].conclusion == (
        Literal(Atom("p", (a, App("f", (b,))))),
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


def test_parse_error_location():
    with pytest.raises(TraceSyntaxError) as exc:
        parse_verit("(set .c1 (input :conclusion (p)))\n(boom)")
    assert exc.value.line == 2


# --- leaf collection ---


def test_leaf_partition():
    trace = load("verit_transitivity.proof")
    inputs, axioms = leaf_clauses(trace)
    assert len(inputs) == 3
    assert [kind for kind, _ in axioms] == ["transitivity"]


def test_only_input_leaves():
    trace = load("verit_propositional.proof")
    inputs, axioms = leaf_clauses(trace)
    assert len(inputs) == 2 and axioms == []


def test_congruence_kind():
    trace = load("verit_congruence.proof")
    _, axioms = leaf_clauses(trace)
    assert axioms[0][0] == "fn_congruence"


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


def test_schema_size_validation():
    with pytest.raises(VeritImportError):
        make_schema(SchemaKind.TRANSITIVITY, 1)
    with pytest.raises(VeritImportError):
        make_schema(SchemaKind.FN_CONGRUENCE, "f", 0)


# --- axiom instance matching ---


def test_match_transitivity_positional():
    clause = (Literal(eq(a, b), False), Literal(eq(b, c), False), Literal(eq(a, c)))
    inst = match_axiom_instance("transitivity", clause)
    assert dict(inst.subst.items()) == {"x0": a, "x1": b, "x2": c}
    assert inst.flips == ()


def test_match_congruence():
    clause = (Literal(eq(a, b), False), Literal(eq(App("f", (a,)), App("f", (b,)))),)
    inst = match_axiom_instance("fn_congruence", clause)
    assert dict(inst.subst.items()) == {"x0": a, "y0": b}


def test_match_with_orientation_flip():
    clause = (Literal(eq(b, a), False), Literal(eq(b, c), False), Literal(eq(a, c)))
    inst = match_axiom_instance("transitivity", clause)
    assert dict(inst.subst.items()) == {"x0": a, "x1": b, "x2": c}
    assert inst.flips == (0,)


def test_match_with_literal_permutation():
    clause = (Literal(eq(a, c)), Literal(eq(a, b), False), Literal(eq(b, c), False))
    inst = match_axiom_instance("transitivity", clause)
    assert dict(inst.subst.items()) == {"x0": a, "x1": b, "x2": c}
    assert inst.permutation == (1, 2, 0)


def test_match_failure_is_import_error():
    clause = (Literal(eq(a, b), False), Literal(eq(c, c), False), Literal(eq(a, c)))
    with pytest.raises(VeritImportError, match="cannot match"):
        match_axiom_instance("transitivity", clause)


def test_match_literals_greedy_beyond_bound():
    pattern = tuple(Literal(eq(Var(f"x{i}"), Var(f"x{i+1}")), False) for i in range(9)) + (
        Literal(eq(Var("x0"), Var("x9"))),
    )
    names = [const(f"t{i}") for i in range(10)]
    clause = tuple(Literal(eq(names[i], names[i + 1]), False) for i in range(9)) + (
        Literal(eq(names[0], names[9])),
    )
    result = match_literals(pattern, clause, allow_flips=True)
    assert result is not None
    # same clause shuffled is out of reach for the positional fallback
    shuffled = clause[::-1]
    assert match_literals(pattern, shuffled, allow_flips=True) is None


# --- import ---


def test_import_transitivity_fixture():
    es, report = import_verit(load("verit_transitivity.proof"))
    assert es.succedent == ()
    assert len(es.antecedent) == 4  # three inputs + one axiom tree
    assert verdict(es).is_proof
    assert report["schema_instances"] == {"transitivity": 1}
    assert report["flips"] == 0


@pytest.mark.xfail(
    strict=True,
    reason="the leaf is matched from its wrong end (x0 = c, x2 = a, every equality "
    "flipped), and the deep sequent treats s = t and t = s as different atoms, so a "
    "valid refutation is judged not a proof",
)
def test_transitivity_leaf_in_another_order_is_a_proof():
    text = (FIXTURES / "verit_transitivity.proof").read_text()
    text = text.replace("((not (= a b)) (not (= b c)) (= a c))", "((not (= b c)) (not (= a b)) (= a c))")
    es, _ = import_verit(parse_verit(text))
    assert verdict(es).is_proof


def test_import_minimality():
    # dropping the axiom-instance tree must break the tautology
    for name in ("verit_transitivity.proof", "verit_congruence.proof", "verit_reflexivity.proof"):
        es, _ = import_verit(load(name))
        pruned = ExpansionSequent(es.antecedent[:-1], ())
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
    assert len(es.antecedent) == 1
    tree = es.antecedent[0]
    assert len(tree.instances) == 2  # two x0-instances under one schema tree
    assert report["schema_instances"] == {"transitivity": 2}
