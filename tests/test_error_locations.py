"""The exact message, line and column of malformed inputs to both trace
parsers, the formula notation and the JSON import."""
import pytest

from exproof.expansion import sequent_from_json
from exproof.leancop import parse_leancop
from exproof.notation import ParseError, parse_formula
from exproof.verit import parse_verit

STEP = "(set .c1 (input :conclusion ((p a))))\n"
AXIOM = "fof(ax, axiom, ![X]: p(X)).\n"
CLAUSE = "cnf(1, plain, [~p(X1)], clausify(ax)).\n"


def _atom_sequent(formula: str) -> dict:
    return {"antecedent": [{"kind": "atom", "formula": formula}], "succedent": []}


CASES = [
    (parse_verit, STEP + "  )\n", "unexpected ')' at line 2, column 3"),
    (parse_verit, STEP + "(set .c2\n  (input :conclusion ((q b)))\n", "unbalanced parenthesis at line 2, column 1"),
    (
        parse_verit,
        STEP + "(set .c2 (input :conclusion ((q b))))\n  (set .c3 (resolution :clauses (.c1 .c9) :conclusion ()))\n",
        "dangling premise reference .c9 at line 3, column 3",
    ),
    (parse_verit, STEP + "\n\n   foo\n", "expected a (set .id (...)) step at line 4, column 4"),
    (parse_verit, STEP + "(set .c1 (input :conclusion ()))", "duplicate step id 'c1' at line 2, column 1"),
    (
        parse_leancop,
        AXIOM + CLAUSE + "cnf('s1', plain, [~p(a)],\n   start(1, bind([X1, X1], [a, b]))).\n",
        "variable 'X1' bound twice at line 4, column 23",
    ),
    (parse_leancop, AXIOM + "fof('conj\n, conjecture, p(a)).\n", "unterminated quoted name at line 2, column 5"),
    (parse_leancop, AXIOM + "fof(c, conjecture,\n\tp(a) & ½).\n", "unexpected character '½' at line 3, column 9"),
    (parse_leancop, AXIOM + "fof(c, conjecture, p(12²½x)).\n", "unexpected character '½' at line 2, column 25"),
    (
        parse_leancop,
        AXIOM + "fof('con\njec\nture', conjecture, p('a\nb'",
        "unexpected end of input at line 5, column 3",
    ),
    (parse_leancop, AXIOM + "fof(c, lemma, p(a)).\n", "unknown role 'lemma' at line 2, column 8"),
    (
        parse_leancop,
        AXIOM + CLAUSE + "cnf(2, plain, [p(a)], extension(7)).\n",
        "step references unknown clause 7 at line 3, column 33",
    ),
    (parse_leancop, AXIOM + "% fof(c)\n  ax(c).\n", "expected 'fof' or 'cnf', found 'ax' at line 3, column 3"),
    (parse_formula, "p('a\nb') &\n  )", "expected a term, found ')' at line 3, column 3"),
    (parse_formula, "p(a) $ q", "unexpected character '$' at line 1, column 6"),
    (sequent_from_json, _atom_sequent("p(a"), "unexpected end of input at line 1, column 4"),
    (sequent_from_json, _atom_sequent("p('x\ny') )"), "trailing input ')' at line 2, column 5"),
    (
        parse_verit,
        STEP + "\n  (set .c2 (input\n    :conclusion ((q b)) :conclusion ((q a))))\n",
        ":conclusion given twice in step 'c2' at line 3, column 3",
    ),
    (
        parse_leancop,
        AXIOM + "cnf(1, plain, [~p(X1),\n  (p(a) & q(a))], clausify(ax)).\n",
        "expected a literal at line 3, column 3",
    ),
    (
        parse_leancop,
        AXIOM + CLAUSE + "cnf(s1, plain, [~p(a)], start(1, bnd([X1], [a]))).\n",
        "expected 'bind', found 'bnd' at line 3, column 34",
    ),
    (
        parse_leancop,
        AXIOM + CLAUSE + "cnf(s1, plain, [~p(a)],\n  start(1, bind([X1], [a, b]))).\n",
        "bind lists differ in length (1 vs 2) at line 4, column 12",
    ),
    (
        parse_leancop,
        AXIOM + "cnf(c1, plain, [~p(X1)], clausify(ax)).\n",
        "clause number must be numeric, found 'c1' at line 2, column 5",
    ),
    (
        parse_leancop,
        AXIOM + CLAUSE + "cnf(s1, plain, [~p(a)], start(one)).\n",
        "expected 'num', found 'one' at line 3, column 31",
    ),
    (
        parse_leancop,
        AXIOM + CLAUSE + "cnf(s1, plain, [~p(a)], restart(1)).\n",
        "unknown clause origin or step 'restart' at line 3, column 25",
    ),
    (
        parse_verit,
        STEP + "(set c2 (input :conclusion ((q b))))\n",
        "step id must start with '.', found 'c2' at line 2, column 1",
    ),
    (parse_verit, STEP + "  (set .c2 input)\n", "step body must be (rule ...) at line 2, column 3"),
    (
        parse_verit,
        STEP + "(set .c2 (resolution :clauses .c1 :conclusion ()))\n",
        ":clauses needs a parenthesised list at line 2, column 1",
    ),
]


@pytest.mark.parametrize(
    "parse, text, message", CASES, ids=[f"{parse.__name__}-{i}" for i, (parse, _, _) in enumerate(CASES)]
)
def test_error_message_and_location(parse, text, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == message
