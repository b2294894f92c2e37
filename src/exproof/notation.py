"""Textual formula notation: `!`/`?` quantifiers, `&`, `|`, `~`, `=>`, infix `=`.

Example: ``![X]: (p(X) => ?[Y]: q(X,Y))``.  Identifiers starting with an
uppercase letter or underscore are variables (TPTP convention); lowercase
identifiers are variables only while bound by an enclosing quantifier or when
listed in `extra_vars`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterable, Optional

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


@dataclass(frozen=True)
class Token:
    kind: str  # "name", "num", "quoted", or the punctuation itself
    text: str
    line: int
    col: int


_PUNCT2 = ("=>", "!=")
_PUNCT1 = "()[]:,.~&|!?="


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if c.isspace():
            i, col = i + 1, col + 1
            continue
        if c == "%":  # comment to end of line
            while i < n and text[i] != "\n":
                i += 1
            continue
        two = text[i : i + 2]
        if two in _PUNCT2:
            tokens.append(Token(two, two, line, col))
            i, col = i + 2, col + 2
            continue
        if c in _PUNCT1:
            tokens.append(Token(c, c, line, col))
            i, col = i + 1, col + 1
            continue
        if c == "'":
            j = text.find("'", i + 1)
            if j < 0:
                raise ParseError("unterminated quoted name", line, col)
            tokens.append(Token("quoted", text[i + 1 : j], line, col))
            col += j + 1 - i
            i = j + 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("num", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    return tokens


class FormulaParser:
    """Recursive-descent parser over a token list; reusable mid-stream so the
    trace parsers can embed formulas and terms in larger statements."""

    def __init__(self, tokens: list[Token], pos: int = 0, extra_vars: Iterable[str] = ()):
        self.tokens = tokens
        self.pos = pos
        self.extra_vars = frozenset(extra_vars)
        self.bound: list[str] = []

    # --- token plumbing ---

    def peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else Token("", "", 1, 1)
            raise ParseError("unexpected end of input", last.line, last.col + len(last.text))
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def _fail(self, message: str) -> ParseError:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else Token("", "", 1, 1)
            return ParseError(message, last.line, last.col + len(last.text))
        return ParseError(f"{message}, found {tok.text!r}", tok.line, tok.col)

    # --- grammar ---

    def parse_formula(self) -> Formula:
        parts = [self._parse_disj()]
        while (tok := self.peek()) is not None and tok.kind == "=>":
            self.next()
            parts.append(self._parse_disj())
        out = parts.pop()
        while parts:
            out = Imp(parts.pop(), out)  # right-associative
        return out

    def _parse_disj(self) -> Formula:
        out = self._parse_conj()
        while (tok := self.peek()) is not None and tok.kind == "|":
            self.next()
            out = Or(out, self._parse_conj())
        return out

    def _parse_conj(self) -> Formula:
        out = self._parse_unary()
        while (tok := self.peek()) is not None and tok.kind == "&":
            self.next()
            out = And(out, self._parse_unary())
        return out

    def _parse_unary(self) -> Formula:
        # prefix negations and quantifier blocks, outermost first, as the
        # constructors that wrap the formula they prefix
        prefixes: list = []
        scope = len(self.bound)
        while True:
            tok = self.peek()
            if tok is None:
                raise self._fail("expected a formula")
            if tok.kind == "~":
                self.next()
                prefixes.append(Neg)
            elif tok.kind in ("!", "?"):
                self.next()
                cls = Forall if tok.kind == "!" else Exists
                self.expect("[")
                names = [self._var_name()]
                while self.peek() is not None and self.peek().kind == ",":
                    self.next()
                    names.append(self._var_name())
                self.expect("]")
                self.expect(":")
                self.bound.extend(names)
                prefixes += (partial(cls, name) for name in names)
            else:
                break
        if tok.kind == "(":
            self.next()
            out = self.parse_formula()
            self.expect(")")
        else:
            out = self._parse_atom()
        del self.bound[scope:]
        for wrap in reversed(prefixes):
            out = wrap(out)
        return out

    def _var_name(self) -> str:
        tok = self.next()
        if tok.kind != "name":
            raise ParseError(f"expected a variable name, found {tok.text!r}", tok.line, tok.col)
        return tok.text

    def _parse_atom(self) -> Formula:
        start = self.peek()
        term = self.parse_term()
        tok = self.peek()
        if tok is not None and tok.kind in ("=", "!="):
            self.next()
            right = self.parse_term()
            atom = Atom(EQ, (term, right))
            return atom if tok.kind == "=" else Neg(atom)
        if isinstance(term, Var):
            raise ParseError(f"variable {term.name!r} used as a formula", start.line, start.col)
        return Atom(term.head, term.args)

    def _is_var(self, name: str) -> bool:
        return name[0].isupper() or name[0] == "_" or name in self.bound or name in self.extra_vars

    def parse_term(self) -> Term:
        tok = self.next()
        if tok.kind == "num":
            return App(tok.text, ())
        if tok.kind == "quoted":
            name = tok.text
        elif tok.kind == "name":
            name = tok.text
        else:
            raise ParseError(f"expected a term, found {tok.text!r}", tok.line, tok.col)
        nxt = self.peek()
        if nxt is not None and nxt.kind == "(":
            if tok.kind == "name" and self._is_var(name):
                raise ParseError(f"variable {name!r} cannot take arguments", tok.line, tok.col)
            self.next()
            args = [self.parse_term()]
            while self.peek() is not None and self.peek().kind == ",":
                self.next()
                args.append(self.parse_term())
            self.expect(")")
            return App(name, tuple(args))
        if tok.kind == "name" and self._is_var(name):
            return Var(name)
        return App(name, ())


def parse_formula(text: str, extra_vars: Iterable[str] = ()) -> Formula:
    parser = FormulaParser(tokenize(text), extra_vars=extra_vars)
    out = parser.parse_formula()
    if parser.peek() is not None:
        tok = parser.peek()
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return out


def parse_term(text: str, extra_vars: Iterable[str] = ()) -> Term:
    parser = FormulaParser(tokenize(text), extra_vars=extra_vars)
    out = parser.parse_term()
    if parser.peek() is not None:
        tok = parser.peek()
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
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
