"""Textual formula notation: `!`/`?` quantifiers, `&`, `|`, `~`, `=>`, infix `=`.

Example: ``![X]: (p(X) => ?[Y]: q(X,Y))``.  Identifiers starting with an
uppercase letter or underscore are variables (TPTP convention); lowercase
identifiers are variables only while bound by an enclosing quantifier or when
listed in `extra_vars`.
"""
from __future__ import annotations

import re
from functools import partial
from typing import Iterable

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


PUNCTUATION = frozenset(["=>", "!=", *"()[]:,.~&|!?=", ""])  # and "", which ends a token list


def token_kind(tok: str) -> str:
    """A token is the string it matches.  Punctuation is its own kind; any other
    is "quoted" (a quoted name with its quotes), "num" (digit first) or "name"."""
    if tok in PUNCTUATION:
        return tok
    return "quoted" if tok[0] == "'" else "num" if tok[0].isdigit() else "name"

# Blanks and `%` comments, then a token, or the end of input so that no token
# starts in a trailing comment.  Names and numbers start with an ASCII letter
# or digit (numbers none that a non-ASCII character may continue); the words
# they leave are for `_split_word`, and a character that starts no token
# takes the rest of the text with it, which ends the scan.
_TPTP = re.compile(
    r"""(?:\s|%[^\n]*)*
    (=>|!=|[()\[\]:,.~&|!?=]
    |[A-Za-z_]\w*
    |[0-9]+(?![0-9]|[^\x00-\x7f])
    |'[^']*'
    |\w+
    |\S(?s:.*)
    |\Z)""",
    re.VERBOSE,
)


def unquoted(tok: str) -> str:
    """A token's text: a quoted name's without its quotes."""
    return tok[1:-1] if tok[:1] == "'" else tok


def words(pattern: re.Pattern, text: str) -> list[str]:
    """Group 1 of each match of `pattern` in `text`, less the one or two empty ones at the end."""
    out = pattern.findall(text)
    while out and not out[-1]:
        out.pop()
    return out


def locate(pattern: re.Pattern, text: str, tokens: list[str], index: int) -> tuple[int, int]:
    """The line and column where token `index` starts, or where the last token
    ends if token `index` is "".  `tokens` are those of `text` under `pattern`,
    whose group may hold a word that splits into several tokens."""
    offset = end = 0
    matches = pattern.finditer(text)
    for tok in tokens[:index]:
        if offset == end:
            offset, end = next(matches).span(1)
        offset += len(tok)
    if offset == end and tokens[index]:
        offset = next(matches).start(1)
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _split_word(word: str) -> list[str]:
    """The tokens of a word of `_TPTP`, up to a character that starts none.
    Punctuation and a quoted name are one token.  Otherwise a number, a run
    of digits, may come first, and a name starts with a letter or `_` and
    runs to the word's end, where letters and digits are what `str.isalpha`
    and `str.isdigit` say (the regex classes differ)."""
    if word[0] in PUNCTUATION or len(word) > 1 and word[0] == word[-1] == "'":
        return [word]
    i = 0
    while i < len(word) and word[i].isdigit():
        i += 1
    out = [word[:i]] if i else []
    if i < len(word) and (word[i].isalpha() or word[i] == "_"):
        out.append(word[i:])
    return out


def tokenize(text: str) -> list[str]:
    found = words(_TPTP, text)
    # in ASCII text every word is one token, and only the last may start none
    if not found or text.isascii() and _split_word(found[-1]) == found[-1:]:
        return found
    tokens = []
    for i, word in enumerate(found):
        pieces = _split_word(word)
        n = sum(map(len, pieces))
        if n < len(word):
            line, col = locate(_TPTP, text, found, i)
            message = "unterminated quoted name" if word[n] == "'" else f"unexpected character {word[n]!r}"
            raise ParseError(message, line, col + n)
        tokens += pieces
    return tokens


class FormulaParser:
    """Recursive-descent parser over the tokens of a text; reusable mid-stream
    so the trace parsers can embed formulas and terms in larger statements.
    The list ends in "", so reading the current token never fails."""

    def __init__(self, text: str, tokens: list[str], extra_vars: Iterable[str] = ()):
        self.text = text
        self.tokens = [*tokens, ""]
        self.pos = 0
        self.extra_vars = frozenset(extra_vars)
        self.bound: list[str] = []

    # --- token plumbing ---

    def error(self, message: str, index: int) -> ParseError:
        """The error `message` at token `index`."""
        return ParseError(message, *locate(_TPTP, self.text, self.tokens, index))

    def unexpected(self, wanted: str) -> ParseError:
        """The error for finding the current token where `wanted` should be."""
        tok = self.tokens[self.pos]
        message = f"expected {wanted}, found {unquoted(tok)!r}" if tok else "unexpected end of input"
        return self.error(message, self.pos)

    def next(self) -> str:
        tok = self.tokens[self.pos]
        if not tok:
            raise self.error("unexpected end of input", self.pos)
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        if self.tokens[self.pos] != tok:
            raise self.unexpected(repr(tok))
        self.pos += 1

    def expect_end(self) -> None:
        """Fail unless every token has been read."""
        if self.tokens[self.pos]:
            raise self.error(f"trailing input {unquoted(self.tokens[self.pos])!r}", self.pos)

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
                tok = tokens[self.pos]
                if tok == "~":
                    self.pos += 1
                    prefixes.append(Neg)
                elif tok == "!" or tok == "?":
                    self.pos += 1
                    cls = Forall if tok == "!" else Exists
                    self.expect("[")
                    names = [self._var_name()]
                    while tokens[self.pos] == ",":
                        self.pos += 1
                        names.append(self._var_name())
                    self.expect("]")
                    self.expect(":")
                    self.bound.extend(names)
                    prefixes += (partial(cls, name) for name in names)
                elif tok == "(":
                    self.pos += 1
                    enclosing.append((parts, disj, conj, prefixes, scope))
                    parts, disj, conj, prefixes, scope = [], None, None, [], len(self.bound)
                elif tok:
                    out = self._parse_atom()
                    break
                else:
                    raise self.error("expected a formula", self.pos)
            # `out` ends a unary formula, which may end the formula of a
            # parenthesis, which ends a unary formula around it
            while True:
                del self.bound[scope:]
                for wrap in reversed(prefixes):
                    out = wrap(out)
                if unary and not enclosing:
                    return out
                conj = out if conj is None else And(conj, out)
                tok = tokens[self.pos]
                if tok == "&":
                    break
                disj = conj if disj is None else Or(disj, conj)
                conj = None
                if tok == "|":
                    break
                parts.append(disj)
                disj = None
                if tok == "=>":
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
        if token_kind(tok) != "name":
            raise self.unexpected("a variable name")
        self.pos += 1
        return tok

    def _parse_atom(self) -> Formula:
        start = self.pos
        is_var, name, args = self._read_term()
        tok = self.tokens[self.pos]
        if tok == "=" or tok == "!=":
            self.pos += 1
            left = Var(name) if is_var else App(name, args)
            atom = Atom(EQ, (left, self.parse_term()))
            return atom if tok == "=" else Neg(atom)
        if is_var:
            raise self.error(f"variable {name!r} used as a formula", start)
        if name == EQ and len(args) != 2:  # a quoted '='
            raise self.error("'=' takes exactly two arguments", start)
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
            name = tokens[self.pos]
            if name in PUNCTUATION:
                raise self.unexpected("a term")
            self.pos += 1
            first = name[0]
            is_var = first.isupper() or first == "_" or (
                (name in self.bound or name in self.extra_vars) and first != "'" and not first.isdigit()
            )
            if first == "'":
                name = name[1:-1]
            if tokens[self.pos] == "(" and not first.isdigit():
                if is_var:
                    raise self.error(f"variable {name!r} cannot take arguments", self.pos - 1)
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
                if tokens[self.pos] == ",":
                    self.pos += 1
                    break
                self.expect(")")
                opened.pop()
                if not opened:
                    return False, head, tuple(args)
                term = App(head, tuple(args))


def parse_formula(text: str, extra_vars: Iterable[str] = ()) -> Formula:
    parser = FormulaParser(text, tokenize(text), extra_vars)
    out = parser.parse_formula()
    parser.expect_end()
    return out


def parse_term(text: str, extra_vars: Iterable[str] = ()) -> Term:
    parser = FormulaParser(text, tokenize(text), extra_vars)
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
