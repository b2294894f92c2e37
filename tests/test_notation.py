import hypothesis.strategies as st
import pytest
from hypothesis import given

from exproof.core import (
    And,
    App,
    Atom,
    Exists,
    Forall,
    Imp,
    Neg,
    Or,
    Sequent,
    Var,
    const,
    eq,
)
from exproof.notation import (
    ParseError,
    formula_text,
    parse_formula,
    parse_term,
    sequent_text,
)
from test_core import formulas  # reuse the strategy


def test_parse_quantified_implication():
    f = parse_formula("![X]: (p(X) => ?[Y]: q(X,Y))")
    assert f == Forall(
        "X",
        Imp(Atom("p", (Var("X"),)), Exists("Y", Atom("q", (Var("X"), Var("Y"))))),
    )


def test_parse_connective_precedence():
    # & binds tighter than |, => is weakest and right-associative
    assert parse_formula("a & b | c") == Or(And(Atom("a"), Atom("b")), Atom("c"))
    assert parse_formula("a => b => c") == Imp(Atom("a"), Imp(Atom("b"), Atom("c")))


def test_parse_equality_and_disequality():
    assert parse_formula("a = b") == eq(const("a"), const("b"))
    assert parse_formula("a != b") == Neg(eq(const("a"), const("b")))


def test_parse_multi_variable_binder():
    f = parse_formula("![X, Y]: q(X, Y)")
    assert f == Forall("X", Forall("Y", Atom("q", (Var("X"), Var("Y")))))


def test_lowercase_binders_are_variables_in_scope():
    f = parse_formula("![x0]: x0 = x0")
    assert f == Forall("x0", eq(Var("x0"), Var("x0")))
    # out of scope the same name is a constant
    assert parse_formula("x0 = x0") == eq(const("x0"), const("x0"))


def test_extra_vars_force_variable_reading():
    assert parse_term("v_sk1", extra_vars={"v_sk1"}) == Var("v_sk1")
    assert parse_term("v_sk1") == const("v_sk1")


def test_parse_errors_have_location():
    with pytest.raises(ParseError) as exc:
        parse_formula("p(X) &")
    assert exc.value.line == 1
    with pytest.raises(ParseError):
        parse_formula("![X] p(X)")  # missing colon
    with pytest.raises(ParseError):
        parse_formula("X")  # bare variable is not a formula
    with pytest.raises(ParseError):
        parse_formula("p(X)) ")


def test_comments_are_skipped():
    assert parse_formula("p(a) % trailing comment\n & q") == And(
        Atom("p", (const("a"),)), Atom("q")
    )


def test_term_text():
    assert str(App("f", (const("a"), Var("X")))) == "f(a, X)"
    assert str(const("c")) == "c"


def test_sequent_text_empty_succedent_ends_with_turnstile():
    s = Sequent((Atom("p", ()),), ())
    assert sequent_text(s) == "p ⊢"
    assert sequent_text(Sequent((), ())) == "⊢"
    assert sequent_text(Sequent((), (Atom("p"),))) == "⊢ p"


@given(formulas)
def test_print_parse_roundtrip(f):
    assert parse_formula(formula_text(f)) == f
