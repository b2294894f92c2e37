import re
import string

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given

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
    scan,
    sequent_text,
    tokenize,
)
from exproof.verit import _SEXP
from oracles import ref_sexp_tokenize, ref_tokenize
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


def test_end_of_input_is_after_the_last_quoted_name():
    # the column after the closing quote, not after the name's text
    with pytest.raises(ParseError) as exc:
        parse_formula("p('ab'")
    assert str(exc.value) == "unexpected end of input at line 1, column 7"
    with pytest.raises(ParseError) as exc:
        parse_formula("p('a\nbc'")
    assert (exc.value.line, exc.value.col) == (2, 4)
    with pytest.raises(ParseError) as exc:
        parse_formula("")
    assert str(exc.value) == "expected a formula at line 1, column 1"


def test_newline_in_quoted_name_counts_as_a_line():
    with pytest.raises(ParseError) as exc:
        parse_formula("p('a\nb') &\n  )")
    assert str(exc.value) == "expected a term, found ')' at line 3, column 3"
    assert tokenize("'a\nb' c") == [("quoted", "a\nb", 1, 1), ("name", "c", 2, 4)]


def test_unicode_digits_and_letters():
    # `str.isdigit`, not the regex `\d`, decides what a number is
    assert tokenize("p(²)") == [("name", "p", 1, 1), ("(", "(", 1, 2), ("num", "²", 1, 3), (")", ")", 1, 4)]
    assert parse_term("f(²)") == App("f", (const("²"),))
    assert tokenize("12²٣x ªb") == [("num", "12²٣", 1, 1), ("name", "x", 1, 5), ("name", "ªb", 1, 7)]
    with pytest.raises(ParseError) as exc:
        tokenize("a ½")
    assert str(exc.value) == "unexpected character '½' at line 1, column 3"


# every punctuation character, quotes, comments and all kinds of space,
# letters and digits that `str.isalpha`/`str.isdigit` and the regex classes
# see differently, and a number that is no digit
ALPHABET = string.punctuation + "\n\t\r \xa0²٣ª½é_" + string.ascii_letters + string.digits
PIECES = ["fof", "cnf", "(", ")", "[", "]", ",", ".", ":", "=>", "!=", "~", "'a b'", "''", "%c\n",
          "X", "f", "12", "²", "٣", "ª", " ", "\n", "\t", "set", ".c1", ":conclusion", "not", "="]
texts = st.text(ALPHABET, max_size=40) | st.lists(st.sampled_from(PIECES), max_size=30).map("".join)

# quoted names and comments as the reference tokenizer reads them
_QUOTED_OR_COMMENT = re.compile(r"%[^\n]*|'[^']*'")


def _outcome(tokenizer, text):
    try:
        return tokenizer(text)
    except ParseError as e:
        return str(e), e.line, e.col


@given(texts)
def test_tokenize_matches_reference(text):
    # the reference counts no line inside a quoted name
    assume(not any(m[0][0] == "'" and "\n" in m[0] for m in _QUOTED_OR_COMMENT.finditer(text)))
    assert _outcome(tokenize, text) == _outcome(ref_tokenize, text)


@given(texts)
def test_sexp_scan_matches_reference(text):
    tokens = list(scan(_SEXP, text))
    assert [(t, line, col) for _kind, t, line, col in tokens] == ref_sexp_tokenize(text)
    assert all(kind == (t if t in "()" else "atom") for kind, t, _l, _c in tokens)
