"""Expansion trees and sequents: construction from instance sets, and the
shallow/deep readings.

Weak quantifier nodes carry one child per distinct instance term; strong
quantifier nodes carry a single eigenvariable.  Antecedent trees are read at
negative polarity, succedent trees at positive polarity.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from .core import (
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
    Polarity,
    Sequent,
    Strength,
    Subst,
    Term,
    Var,
    apply_subst,
    free_vars,
    quantifier_strengths,
)
from .notation import formula_text, parse_formula, parse_term, term_text

# instance term used for a weak quantifier whose variable does not occur in
# its body and for which no instance was supplied
VACUOUS_TERM = App("vac", ())


class ExpansionError(ExproofError):
    pass


class MultiplicityError(ExpansionError):
    """A strong quantifier variable was bound to more than one term."""


class MissingInstanceError(ExpansionError):
    """A quantifier variable that occurs in its body received no instance."""


class EigenvariableFormError(ExpansionError):
    """A strong quantifier variable was bound to a non-variable term."""


# ---------------------------------------------------------------------------
# tree nodes


@dataclass(frozen=True)
class ETAtom:
    atom: Atom


@dataclass(frozen=True)
class ETNeg:
    child: "ExpansionTree"


@dataclass(frozen=True)
class ETBin:
    conn: str  # "and" | "or" | "imp"
    left: "ExpansionTree"
    right: "ExpansionTree"


@dataclass(frozen=True)
class ETWeak:
    var: str
    body: Formula  # shallow body with `var` free
    instances: tuple[tuple[Term, "ExpansionTree"], ...]


@dataclass(frozen=True)
class ETStrong:
    var: str
    body: Formula
    eigenvariable: str
    child: "ExpansionTree"


ExpansionTree = Union[ETAtom, ETNeg, ETBin, ETWeak, ETStrong]

_CONN = {"and": And, "or": Or, "imp": Imp}


@dataclass(frozen=True)
class ExpansionSequent:
    antecedent: tuple[ExpansionTree, ...] = ()
    succedent: tuple[ExpansionTree, ...] = ()


@dataclass(frozen=True)
class InstanceSet:
    """Per-formula substitution sets, aligned with a sequent's positions."""

    antecedent: tuple[tuple[Subst, ...], ...] = ()
    succedent: tuple[tuple[Subst, ...], ...] = ()

    @classmethod
    def empty(cls, sequent: Sequent) -> "InstanceSet":
        return cls(
            tuple(() for _ in sequent.antecedent),
            tuple(() for _ in sequent.succedent),
        )


# ---------------------------------------------------------------------------
# readings


def shallow(tree: ExpansionTree, polarity: Polarity) -> Formula:
    """The original formula an expansion tree stands for."""
    if isinstance(tree, ETAtom):
        return tree.atom
    if isinstance(tree, ETNeg):
        return Neg(shallow(tree.child, polarity.flip()))
    if isinstance(tree, ETBin):
        if tree.conn == "imp":
            return Imp(shallow(tree.left, polarity.flip()), shallow(tree.right, polarity))
        return _CONN[tree.conn](shallow(tree.left, polarity), shallow(tree.right, polarity))
    if isinstance(tree, ETWeak):
        cls = Forall if polarity is Polarity.NEG else Exists
        return cls(tree.var, tree.body)
    cls = Exists if polarity is Polarity.NEG else Forall
    return cls(tree.var, tree.body)


def deep(tree: ExpansionTree, polarity: Polarity) -> Formula:
    """The quantifier-free reading: weak nodes become conjunctions (negative
    polarity) or disjunctions (positive), strong nodes are transparent."""
    if isinstance(tree, ETAtom):
        return tree.atom
    if isinstance(tree, ETNeg):
        return Neg(deep(tree.child, polarity.flip()))
    if isinstance(tree, ETBin):
        if tree.conn == "imp":
            return Imp(deep(tree.left, polarity.flip()), deep(tree.right, polarity))
        return _CONN[tree.conn](deep(tree.left, polarity), deep(tree.right, polarity))
    if isinstance(tree, ETWeak):
        conn = And if polarity is Polarity.NEG else Or
        parts = [deep(child, polarity) for _, child in tree.instances]
        out = parts[0]
        for part in parts[1:]:
            out = conn(out, part)
        return out
    return deep(tree.child, polarity)


def shallow_sequent(es: ExpansionSequent) -> Sequent:
    return Sequent(
        tuple(shallow(t, Polarity.NEG) for t in es.antecedent),
        tuple(shallow(t, Polarity.POS) for t in es.succedent),
    )


# ---------------------------------------------------------------------------
# construction (the Et / EtS translation)


def expand_formula(formula: Formula, instances: Iterable[Subst], polarity: Polarity) -> ExpansionTree:
    """Build the expansion tree of a rectified formula from a set of
    substitutions for its bound variables.

    At a weak quantifier the substitution set is partitioned by the term
    assigned to the bound variable, one child per distinct term; substitutions
    that do not mention the variable flow through to every child.  A strong
    quantifier must be bound to exactly one term across the whole instance
    set, a plain variable (its eigenvariable).
    """
    sigmas = tuple(instances)
    for var, strength in quantifier_strengths(formula, polarity).items():
        if strength is not Strength.STRONG:
            continue
        values = sorted({s[var] for s in sigmas if var in s}, key=term_text)
        if len(values) > 1:
            shown = ", ".join(term_text(t) for t in values)
            raise MultiplicityError(f"strong variable {var!r} bound to several terms: {shown}")
        if values and not isinstance(values[0], Var):
            raise EigenvariableFormError(
                f"strong variable {var!r} bound to non-variable term {term_text(values[0])}"
            )
    return _expand(formula, sigmas, polarity)


def _expand(f: Formula, sigmas: tuple[Subst, ...], p: Polarity) -> ExpansionTree:
    if isinstance(f, Atom):
        return ETAtom(f)
    if isinstance(f, Neg):
        return ETNeg(_expand(f.sub, sigmas, p.flip()))
    if isinstance(f, And):
        return ETBin("and", _expand(f.left, sigmas, p), _expand(f.right, sigmas, p))
    if isinstance(f, Or):
        return ETBin("or", _expand(f.left, sigmas, p), _expand(f.right, sigmas, p))
    if isinstance(f, Imp):
        return ETBin("imp", _expand(f.left, sigmas, p.flip()), _expand(f.right, sigmas, p))
    weak = (isinstance(f, Forall) and p is Polarity.NEG) or (
        isinstance(f, Exists) and p is Polarity.POS
    )
    if weak:
        return _expand_weak(f.var, f.body, sigmas, p)
    return _expand_strong(f.var, f.body, sigmas, p)


def _expand_weak(var: str, body: Formula, sigmas: tuple[Subst, ...], p: Polarity) -> ETWeak:
    relevant = [s for s in sigmas if var in s]
    passthrough = tuple(s for s in sigmas if var not in s)
    if not relevant:
        if var in free_vars(body):
            raise MissingInstanceError(f"weak variable {var!r} has no instances")
        return ETWeak(var, body, ((VACUOUS_TERM, _expand(body, passthrough, p)),))
    by_term: dict[Term, list[Subst]] = {}
    for s in relevant:
        by_term.setdefault(s[var], []).append(s)
    instances = []
    for t in sorted(by_term, key=term_text):
        child = _expand(apply_subst(body, Subst({var: t})), tuple(by_term[t]) + passthrough, p)
        instances.append((t, child))
    return ETWeak(var, body, tuple(instances))


def _expand_strong(var: str, body: Formula, sigmas: tuple[Subst, ...], p: Polarity) -> ETStrong:
    values = sorted({s[var] for s in sigmas if var in s}, key=term_text)
    if not values:
        if var in free_vars(body):
            raise MissingInstanceError(f"strong variable {var!r} has no instance")
        return ETStrong(var, body, f"v_vac_{var}", _expand(body, sigmas, p))
    if len(values) > 1:
        shown = ", ".join(term_text(t) for t in values)
        raise MultiplicityError(f"strong variable {var!r} bound to several terms: {shown}")
    term = values[0]
    if not isinstance(term, Var):
        raise EigenvariableFormError(
            f"strong variable {var!r} bound to non-variable term {term_text(term)}"
        )
    child = _expand(apply_subst(body, Subst({var: term})), sigmas, p)
    return ETStrong(var, body, term.name, child)


def expand_sequent(sequent: Sequent, instances: InstanceSet) -> ExpansionSequent:
    """Expand every antecedent formula at negative polarity and every
    succedent formula at positive polarity."""
    if len(instances.antecedent) != len(sequent.antecedent) or len(instances.succedent) != len(
        sequent.succedent
    ):
        raise ExpansionError("instance set does not line up with the sequent")

    def build(f: Formula, sig: tuple[Subst, ...], p: Polarity, side: str, i: int) -> ExpansionTree:
        try:
            return expand_formula(f, sig, p)
        except ExpansionError as e:
            raise type(e)(f"{side} formula {i}: {e}") from e

    ant = tuple(
        build(f, s, Polarity.NEG, "antecedent", i)
        for i, (f, s) in enumerate(zip(sequent.antecedent, instances.antecedent))
    )
    suc = tuple(
        build(f, s, Polarity.POS, "succedent", i)
        for i, (f, s) in enumerate(zip(sequent.succedent, instances.succedent))
    )
    return ExpansionSequent(ant, suc)


# ---------------------------------------------------------------------------
# JSON (schema documented in the README; field names are a stable contract)


def tree_to_json(tree: ExpansionTree) -> dict:
    if isinstance(tree, ETAtom):
        return {"kind": "atom", "formula": formula_text(tree.atom)}
    if isinstance(tree, ETNeg):
        return {"kind": "neg", "child": tree_to_json(tree.child)}
    if isinstance(tree, ETBin):
        return {"kind": tree.conn, "left": tree_to_json(tree.left), "right": tree_to_json(tree.right)}
    if isinstance(tree, ETWeak):
        return {
            "kind": "weak",
            "var": tree.var,
            "body": formula_text(tree.body),
            "instances": [
                {"term": term_text(t), "child": tree_to_json(c)} for t, c in tree.instances
            ],
        }
    return {
        "kind": "strong",
        "var": tree.var,
        "body": formula_text(tree.body),
        "eigenvariable": tree.eigenvariable,
        "child": tree_to_json(tree.child),
    }


def sequent_to_json(es: ExpansionSequent) -> dict:
    return {
        "antecedent": [tree_to_json(t) for t in es.antecedent],
        "succedent": [tree_to_json(t) for t in es.succedent],
    }


def _collect_eigens(node: dict, out: set[str]) -> None:
    kind = node["kind"]
    if kind == "strong":
        out.add(node["eigenvariable"])
        _collect_eigens(node["child"], out)
    elif kind == "neg":
        _collect_eigens(node["child"], out)
    elif kind in ("and", "or", "imp"):
        _collect_eigens(node["left"], out)
        _collect_eigens(node["right"], out)
    elif kind == "weak":
        for inst in node["instances"]:
            _collect_eigens(inst["child"], out)


def tree_from_json(node: dict, extra_vars: Iterable[str] = ()) -> ExpansionTree:
    eigens: set[str] = set(extra_vars)
    _collect_eigens(node, eigens)
    return _tree_from_json(node, frozenset(eigens))


def _tree_from_json(node: dict, scope: frozenset[str]) -> ExpansionTree:
    kind = node["kind"]
    if kind == "atom":
        atom = parse_formula(node["formula"], extra_vars=scope)
        if not isinstance(atom, Atom):
            raise ExpansionError(f"atom node does not hold an atom: {node['formula']!r}")
        return ETAtom(atom)
    if kind == "neg":
        return ETNeg(_tree_from_json(node["child"], scope))
    if kind in ("and", "or", "imp"):
        return ETBin(kind, _tree_from_json(node["left"], scope), _tree_from_json(node["right"], scope))
    if kind == "weak":
        var = node["var"]
        inner = scope | {var}
        body = parse_formula(node["body"], extra_vars=inner)
        instances = tuple(
            (parse_term(inst["term"], extra_vars=inner), _tree_from_json(inst["child"], scope))
            for inst in node["instances"]
        )
        return ETWeak(var, body, instances)
    if kind == "strong":
        var = node["var"]
        inner = scope | {var}
        body = parse_formula(node["body"], extra_vars=inner)
        return ETStrong(var, body, node["eigenvariable"], _tree_from_json(node["child"], scope))
    raise ExpansionError(f"unknown node kind {kind!r}")


def sequent_from_json(data: dict) -> ExpansionSequent:
    eigens: set[str] = set()
    for node in list(data.get("antecedent", ())) + list(data.get("succedent", ())):
        _collect_eigens(node, eigens)
    scope = frozenset(eigens)
    return ExpansionSequent(
        tuple(_tree_from_json(n, scope) for n in data.get("antecedent", ())),
        tuple(_tree_from_json(n, scope) for n in data.get("succedent", ())),
    )
