import string

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
)
from exproof.notation import (
    _TPTP,
    ParseError,
    formula_text,
    locate,
    parse_formula,
    parse_term,
    sequent_text,
    token_kind,
    tokenize,
)
from exproof.verit import _SEXP, _sexp_tokens
from oracles import ref_parse_formula, ref_sexp_tokenize, ref_tokenize
from randgen import const, eq
from test_core import formulas  # reuse the strategy


def test_parse_quantified_implication():
    f = parse_formula("![X]: (p(X) => ?[Y]: q(X,Y))")
    assert f == Forall(
        "X",
        Imp(Atom("p", (Var("X"),)), Exists("Y", Atom("q", (Var("X"), Var("Y"))))),
    )


def test_parse_connective_precedence():
    # & binds tighter than |, => is weakest and right-associative
    assert parse_formula("a & b | c") == Or(And(Atom("a", ()), Atom("b", ())), Atom("c", ()))
    assert parse_formula("a => b => c") == Imp(Atom("a", ()), Imp(Atom("b", ()), Atom("c", ())))


def test_parse_equality_and_disequality():
    assert parse_formula("a = b") == eq(const("a"), const("b"))
    assert parse_formula("a != b") == Neg(eq(const("a"), const("b")))


def test_quoted_equality_is_the_equality_atom():
    assert parse_formula("'='(b, c)") == parse_formula("b = c")
    for text, col in (("'='(b, c, d)", 1), ("'='", 1), ("p & '='(a)", 5)):
        with pytest.raises(ParseError, match="'=' takes exactly two arguments") as exc:
            parse_formula(text)
        assert (exc.value.line, exc.value.col) == (1, col)


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
        Atom("p", (const("a"),)), Atom("q", ())
    )


def test_term_text():
    assert str(App("f", (const("a"), Var("X")))) == "f(a, X)"
    assert str(const("c")) == "c"


def test_sequent_text_empty_succedent_ends_with_turnstile():
    s = Sequent((Atom("p", ()),), ())
    assert sequent_text(s) == "p ⊢"
    assert sequent_text(Sequent((), ())) == "⊢"
    assert sequent_text(Sequent((), (Atom("p", ()),))) == "⊢ p"


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


def _read(text):
    """Each token of `text` and the end of input, with its kind and the line
    and column `locate` gives it."""
    tokens = [*tokenize(text), ""]
    return [(tok, token_kind(tok), *locate(_TPTP, text, tokens, i)) for i, tok in enumerate(tokens)]


def test_newline_in_quoted_name_counts_as_a_line():
    with pytest.raises(ParseError) as exc:
        parse_formula("p('a\nb') &\n  )")
    assert str(exc.value) == "expected a term, found ')' at line 3, column 3"
    assert _read("'a\nb' c") == [("'a\nb'", "quoted", 1, 1), ("c", "name", 2, 4), ("", "", 2, 5)]


def test_unicode_digits_and_letters():
    # `str.isdigit`, not the regex `\d`, decides what a number is
    assert _read("p(²)") == [
        ("p", "name", 1, 1), ("(", "(", 1, 2), ("²", "num", 1, 3), (")", ")", 1, 4), ("", "", 1, 5)
    ]
    assert parse_term("f(²)") == App("f", (const("²"),))
    assert _read("12²٣x ªb") == [
        ("12²٣", "num", 1, 1), ("x", "name", 1, 5), ("ªb", "name", 1, 7), ("", "", 1, 9)
    ]
    with pytest.raises(ParseError) as exc:
        tokenize("a ½")
    assert str(exc.value) == "unexpected character '½' at line 1, column 3"


# every punctuation character, quotes, comments and all kinds of space,
# letters and digits that `str.isalpha`/`str.isdigit` and the regex classes
# see differently, and a number that is no digit
ALPHABET = string.punctuation + "\n\t\r \xa0²٣ª½é_" + string.ascii_letters + string.digits
PIECES = ["fof", "cnf", "(", ")", "[", "]", ",", ".", ":", "=>", "!=", "~", "'a b'", "''", "%c\n",
          "X", "f", "12", "²", "٣", "ª", " ", "\n", "\t", "set", ".c1", ":conclusion", "not", "=",
          "|a b|", '"s t"', "|", '"']
texts = st.text(ALPHABET, max_size=40) | st.lists(st.sampled_from(PIECES), max_size=30).map("".join)


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as e:
        return str(e)


def _ref_read(text):
    """`ref_tokenize`'s tokens in the form of `_read`."""
    return [(f"'{t}'" if k == "quoted" else t, k, line, col) for k, t, line, col in ref_tokenize(text)]


@given(texts)
def test_tokenize_matches_reference(text):
    assert _outcome(_read, text) == _outcome(_ref_read, text)


def _sexp_read(text):
    tokens = [*_sexp_tokens(text), ""]
    return [(t, *locate(_SEXP, text, tokens, i)) for i, t in enumerate(tokens)]


@given(texts)
def test_sexp_scan_matches_reference(text):
    assert _outcome(_sexp_read, text) == _outcome(ref_sexp_tokenize, text)


@given(formulas, st.sampled_from(["keep", "delete", "duplicate", "swap"]), st.integers(0, 99), st.integers(0, 99))
def test_formula_parser_matches_recursive_reference(f, op, i, j):
    # the text of a formula, perhaps with a token deleted, duplicated or
    # swapped with another: the same formula or the same error
    tokens = tokenize(formula_text(f))
    i, j = i % len(tokens), j % len(tokens)
    if op == "delete":
        del tokens[i]
    elif op == "duplicate":
        tokens.insert(i, tokens[i])
    elif op == "swap":
        tokens[i], tokens[j] = tokens[j], tokens[i]
    text = " ".join(tokens)
    assert _outcome(parse_formula, text) == _outcome(ref_parse_formula, text)


def test_parentheses_deeper_than_the_recursion_limit():
    depth = 10_000
    p_x = Atom("p", (Var("X"),))
    assert parse_formula("(" * depth + "p(X)" + ")" * depth) is p_x
    nested = p_x
    for _ in range(depth):
        nested = Forall("X", Neg(And(p_x, nested)))
    assert parse_formula(formula_text(nested)) is nested
    with pytest.raises(ParseError, match="expected '\\)', found ']'"):
        parse_formula("(" * depth + "p(X)" + ")" * (depth - 1) + "]")
