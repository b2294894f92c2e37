"""Textual formula notation: `!`/`?` quantifiers, `&`, `|`, `~`, `=>`, infix `=`.

Example: ``![X]: (p(X) => ?[Y]: q(X,Y))``.  Identifiers starting with an
uppercase letter or underscore are variables (TPTP convention); lowercase
identifiers are variables only while bound by an enclosing quantifier or when
listed in `extra_vars`.
"""
from __future__ import annotations

import re
from functools import partial
from typing import Iterable, Iterator

from .core import (
    EQ,
    And,
    App,
    Atom,
    Exists,
    ExproofError,
    Forall,
    Formula,
    Imp,
    Neg,
    Or,
    Sequent,
    Term,
    Var,
    discard,
    fold,
)


class ParseError(ExproofError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


# A token is a plain tuple (kind, text, line, col).  The kind is "name",
# "num", "quoted" or, for punctuation, the text itself; a quoted name's text
# is what stands between its quotes.
Token = tuple[str, str, int, int]

# One alternative per token kind, tried in order at each position; a group's
# name is the kind of the token it matches.  `name` and `num` take words that
# start with an ASCII letter or digit (`num` none that a non-ASCII character
# may continue); `other` takes the words they leave, for `_split_word`, and
# single characters that start no token.
_TPTP = re.compile(
    r"""(?P<punct>=>|!=|[()\[\]:,.~&|!?=])
    |(?P<name>[A-Za-z_]\w*)
    |(?P<nl>\n)
    |(?P<num>[0-9]+(?![0-9]|[^\x00-\x7f]))
    |'(?P<quoted>[^']*)'
    |%[^\n]*
    |(?P<unterminated>')
    |(?P<other>\w+|\S)""",
    re.VERBOSE,
)


def scan(pattern: re.Pattern, text: str) -> Iterator[Token]:
    """The tokens of `text`, one by one, under a master pattern whose named
    groups are token kinds (`punct` for punctuation, whose kind is its
    text).  The `nl` group counts lines; text that no named group matches is
    skipped, as is text that matches no alternative at all, so a pattern
    that must reject a character needs an alternative for it."""
    line, line_start = 1, 0
    for m in pattern.finditer(text):
        kind = m.lastgroup
        if kind == "punct":
            word = m.group()
            yield (word, word, line, m.start() - line_start + 1)
        elif kind == "name" or kind == "num" or kind == "atom":
            yield (kind, m.group(), line, m.start() - line_start + 1)
        elif kind == "nl":
            line += 1
            line_start = m.end()
        elif kind == "quoted":
            word = m.group(kind)
            yield (kind, word, line, m.start() - line_start + 1)
            if "\n" in word:
                line += word.count("\n")
                line_start = m.start(kind) + word.rfind("\n") + 1
        elif kind is not None:
            col = m.start() - line_start + 1
            if kind == "unterminated":
                raise ParseError("unterminated quoted name", line, col)
            yield from _split_word(m.group(), line, col)


def _split_word(word: str, line: int, col: int) -> list[Token]:
    """The tokens of a word, by the rules for any character: a name starts
    with a letter or `_` and runs to the word's end, a number is a run of
    digits, where letters and digits are what `str.isalpha` and
    `str.isdigit` say (the regex classes differ); nothing else starts a
    token."""
    out: list[Token] = []
    i = 0
    while i < len(word):
        c = word[i]
        if c.isalpha() or c == "_":
            out.append(("name", word[i:], line, col + i))
            break
        if not c.isdigit():
            raise ParseError(f"unexpected character {c!r}", line, col + i)
        j = i + 1
        while j < len(word) and word[j].isdigit():
            j += 1
        out.append(("num", word[i:j], line, col + i))
        i = j
    return out


def tokenize(text: str) -> list[Token]:
    return list(scan(_TPTP, text))


def end_token(tokens: list[Token]) -> Token:
    """The parsers' sentinel: kind "", placed where the last token's source
    text ends (quotes and newlines of a quoted name included)."""
    if not tokens:
        return ("", "", 1, 1)
    kind, text, line, col = tokens[-1]
    if kind == "quoted":
        text = f"'{text}'"
    nl = text.rfind("\n")
    if nl < 0:
        return ("", "", line, col + len(text))
    return ("", "", line + text.count("\n"), len(text) - nl)


def unexpected(tok: Token, wanted: str) -> ParseError:
    """The error for finding `tok` where `wanted` should be."""
    kind, text, line, col = tok
    if not kind:
        return ParseError("unexpected end of input", line, col)
    return ParseError(f"expected {wanted}, found {text!r}", line, col)


class FormulaParser:
    """Recursive-descent parser over a token list; reusable mid-stream so the
    trace parsers can embed formulas and terms in larger statements.  The
    list ends in `end_token`, so reading the current token never fails."""

    def __init__(self, tokens: list[Token], extra_vars: Iterable[str] = ()):
        self.tokens = [*tokens, end_token(tokens)]
        self.pos = 0
        self.extra_vars = frozenset(extra_vars)
        self.bound: list[str] = []

    # --- token plumbing ---

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if not tok[0]:
            raise ParseError("unexpected end of input", tok[2], tok[3])
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise unexpected(tok, repr(kind))
        self.pos += 1
        return tok

    def expect_end(self) -> None:
        """Fail unless every token has been read."""
        kind, text, line, col = self.tokens[self.pos]
        if kind:
            raise ParseError(f"trailing input {text!r}", line, col)

    # --- grammar ---

    def parse_formula(self, unary: bool = False) -> Formula:
        """A formula, or with `unary` one negation, quantification,
        parenthesised formula or atom.  `=>` binds loosest and associates
        to the right, then come `|` and `&`, to the left.  An open
        parenthesis pushes the state of the formula around it, so nesting
        takes no recursion."""
        tokens = self.tokens
        # per open parenthesis: the finished `=>` operands, disjunction and
        # conjunction of the formula around it, and the prefixes and
        # bound-variable scope of the unary formula it opens
        enclosing: list = []
        parts, disj, conj = [], None, None
        while True:
            # prefix negations and quantifier blocks, outermost first, as
            # the constructors that wrap the formula they prefix
            prefixes, scope = [], len(self.bound)
            while True:
                kind, _text, line, col = tokens[self.pos]
                if kind == "~":
                    self.pos += 1
                    prefixes.append(Neg)
                elif kind == "!" or kind == "?":
                    self.pos += 1
                    cls = Forall if kind == "!" else Exists
                    self.expect("[")
                    names = [self._var_name()]
                    while tokens[self.pos][0] == ",":
                        self.pos += 1
                        names.append(self._var_name())
                    self.expect("]")
                    self.expect(":")
                    self.bound.extend(names)
                    prefixes += (partial(cls, name) for name in names)
                elif kind == "(":
                    self.pos += 1
                    enclosing.append((parts, disj, conj, prefixes, scope))
                    parts, disj, conj, prefixes, scope = [], None, None, [], len(self.bound)
                elif kind:
                    out = self._parse_atom()
                    break
                else:
                    raise ParseError("expected a formula", line, col)
            # `out` ends a unary formula, which may end the formula of a
            # parenthesis, which ends a unary formula around it
            while True:
                del self.bound[scope:]
                for wrap in reversed(prefixes):
                    out = wrap(out)
                if unary and not enclosing:
                    return out
                conj = out if conj is None else And(conj, out)
                kind = tokens[self.pos][0]
                if kind == "&":
                    break
                disj = conj if disj is None else Or(disj, conj)
                conj = None
                if kind == "|":
                    break
                parts.append(disj)
                disj = None
                if kind == "=>":
                    break
                out = parts.pop()
                while parts:
                    out = Imp(parts.pop(), out)
                if not enclosing:
                    return out
                self.expect(")")
                parts, disj, conj, prefixes, scope = enclosing.pop()
            self.pos += 1  # the connective

    def _var_name(self) -> str:
        tok = self.tokens[self.pos]
        if tok[0] != "name":
            raise unexpected(tok, "a variable name")
        self.pos += 1
        return tok[1]

    def _parse_atom(self) -> Formula:
        start = self.tokens[self.pos]
        is_var, name, args = self._read_term()
        kind = self.tokens[self.pos][0]
        if kind == "=" or kind == "!=":
            self.pos += 1
            left = Var(name) if is_var else App(name, args)
            atom = Atom(EQ, (left, self.parse_term()))
            return atom if kind == "=" else Neg(atom)
        if is_var:
            raise ParseError(f"variable {name!r} used as a formula", start[2], start[3])
        if name == EQ and len(args) != 2:  # a quoted '='
            raise ParseError("'=' takes exactly two arguments", start[2], start[3])
        return Atom(name, args)

    def parse_term(self) -> Term:
        is_var, name, args = self._read_term()
        return Var(name) if is_var else App(name, args)

    def _read_term(self) -> tuple[bool, str, tuple[Term, ...]]:
        """The next term as (whether it is a variable, its symbol, its
        arguments): the arguments are built and the term is not, so that
        an atom is read without building a term first.  Nested
        applications are kept on a stack, not in recursive calls."""
        tokens = self.tokens
        opened: list[tuple[str, list[Term]]] = []  # applications being read, innermost last
        while True:
            kind, name, line, col = tokens[self.pos]
            if kind != "name" and kind != "quoted" and kind != "num":
                raise unexpected(tokens[self.pos], "a term")
            self.pos += 1
            is_var = kind == "name" and (
                name[0].isupper() or name[0] == "_" or name in self.bound or name in self.extra_vars
            )
            if kind != "num" and tokens[self.pos][0] == "(":
                if is_var:
                    raise ParseError(f"variable {name!r} cannot take arguments", line, col)
                self.pos += 1
                opened.append((name, []))
                continue
            if not opened:
                return is_var, name, ()
            term = Var(name) if is_var else App(name, ())
            # close every application whose last argument this is
            while True:
                head, args = opened[-1]
                args.append(term)
                if tokens[self.pos][0] == ",":
                    self.pos += 1
                    break
                self.expect(")")
                opened.pop()
                if not opened:
                    return False, head, tuple(args)
                term = App(head, tuple(args))


def parse_formula(text: str, extra_vars: Iterable[str] = ()) -> Formula:
    parser = FormulaParser(tokenize(text), extra_vars)
    out = parser.parse_formula()
    parser.expect_end()
    return out


def parse_term(text: str, extra_vars: Iterable[str] = ()) -> Term:
    parser = FormulaParser(tokenize(text), extra_vars)
    out = parser.parse_term()
    parser.expect_end()
    return out


# ---------------------------------------------------------------------------
# printing


_CONNECTIVE = {And: " & ", Or: " | ", Imp: " => "}


def formula_text(f: Formula) -> str:
    # binary connectives always parenthesise themselves, so negation and
    # quantifier bodies never need extra wrapping; the walk emits the text's
    # pieces in order, and the strings among its items are pieces as they are
    pieces: list[str] = []

    def step(g):
        kind = type(g)
        if kind is str or kind is Atom:
            pieces.append(str(g))
            return None, None
        if kind is Neg:
            if type(g.sub) is Atom and g.sub.pred == EQ:
                pieces.append(f"~({g.sub})")
                return None, None
            pieces.append("~")
            return (g.sub,), discard
        if kind is Forall or kind is Exists:
            pieces.append(f"{'!' if kind is Forall else '?'}[{g.var}]: ")
            return (g.body,), discard
        pieces.append("(")
        return (g.left, _CONNECTIVE[kind], g.right, ")"), discard

    fold(f, step)
    return "".join(pieces)


def sequent_text(sequent: Sequent) -> str:
    ant = ", ".join(formula_text(f) for f in sequent.antecedent)
    suc = ", ".join(formula_text(f) for f in sequent.succedent)
    if not suc:
        return f"{ant} ⊢" if ant else "⊢"
    return f"{ant} ⊢ {suc}" if ant else f"⊢ {suc}"
