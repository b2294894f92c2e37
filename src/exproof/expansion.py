"""Expansion trees and sequents: construction from instance sets, and the
shallow/deep readings.

An expansion tree is a formula whose quantifier occurrences are expanded:
its connectives are the `Atom`, `Neg`, `And`, `Or` and `Imp` nodes of
`core`, and each quantifier becomes an `ETWeak` node with one child per
distinct instance term or an `ETStrong` node with a single eigenvariable.
An expansion sequent is a `core.Sequent` of trees; antecedent trees are read
at negative polarity, succedent trees at positive polarity.
"""
from __future__ import annotations

from functools import partial, reduce
from typing import Iterable, Optional, Union

from .core import (
    And,
    App,
    Atom,
    Exists,
    ExproofError,
    Forall,
    Formula,
    Imp,
    InvariantError,
    Neg,
    Node,
    Or,
    Polarity,
    Sequent,
    Strength,
    Subst,
    Term,
    Var,
    apply_subst,
    discard,
    fold,
    polar_parts,
    quantifier_strengths,
)
from .notation import formula_text, parse_formula, parse_term

# instance term of a weak quantifier for which a branch has no instance
VACUOUS_TERM = App("vac", ())


class ExpansionError(ExproofError):
    pass


class MultiplicityError(ExpansionError):
    """A strong quantifier variable was bound to more than one term."""


class EigenvariableFormError(ExpansionError):
    """A strong quantifier variable was bound to a non-variable term."""


# ---------------------------------------------------------------------------
# quantifier nodes


class ETWeak(Node):
    # the shallow body has `var` free; each instance is (term, child)
    __slots__ = ("var", "body", "instances")


class ETStrong(Node):
    __slots__ = ("var", "body", "eigenvariable", "child")


ExpansionTree = Union[Atom, Neg, And, Or, Imp, ETWeak, ETStrong]


def children(tree: ExpansionTree) -> Optional[tuple]:
    """The subtrees of a node, left to right, or None for an atom."""
    kind = type(tree)
    if kind is ETWeak:
        return tuple(child for _, child in tree.instances)
    if kind is ETStrong:
        return (tree.child,)
    if kind is Atom:
        return None
    if kind is Neg:
        return (tree.sub,)
    return (tree.left, tree.right)


# ---------------------------------------------------------------------------
# readings


def _shallow_step(item):
    tree, polarity = item
    kind = type(tree)
    if kind is Atom:
        return None, tree
    if kind is ETWeak:
        cls = Forall if polarity is Polarity.NEG else Exists
    elif kind is ETStrong:
        cls = Exists if polarity is Polarity.NEG else Forall
    else:
        return polar_parts(tree, polarity), kind
    return None, cls(tree.var, tree.body)


def shallow(tree: ExpansionTree, polarity: Polarity) -> Formula:
    """The original formula an expansion tree stands for."""
    return fold((tree, polarity), _shallow_step)


# weak nodes read as left-nested conjunctions at negative polarity and as
# disjunctions at positive polarity
_DEEP_WEAK = {
    Polarity.NEG: lambda *parts: reduce(And, parts),
    Polarity.POS: lambda *parts: reduce(Or, parts),
}


def _deep_step(item):
    tree, polarity = item
    while type(tree) is ETStrong:
        tree = tree.child
    kind = type(tree)
    if kind is Atom:
        return None, tree
    if kind is ETWeak:
        return tuple((child, polarity) for _, child in tree.instances), _DEEP_WEAK[polarity]
    return polar_parts(tree, polarity), kind


def deep(tree: ExpansionTree, polarity: Polarity) -> Formula:
    """The quantifier-free reading: weak nodes become conjunctions (negative
    polarity) or disjunctions (positive), strong nodes are transparent."""
    return fold((tree, polarity), _deep_step)


def shallow_sequent(es: Sequent) -> Sequent:
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
    set, a plain variable (its eigenvariable).  Any term will do where a
    branch has no instance: a weak quantifier gets the single instance
    `VACUOUS_TERM` and a strong one the eigenvariable `v_vac_<var>`.  The
    tree must read back as `formula`, or `InvariantError` is raised.
    """
    sigmas = tuple(instances)
    for var, strength in quantifier_strengths(formula, polarity).items():
        if strength is Strength.STRONG:
            _eigenvariable(var, sigmas)
    tree = fold((formula, sigmas, polarity), _expand_step)
    if shallow(tree, polarity) is not formula:
        raise InvariantError(f"the expansion tree of {formula_text(formula)} does not read back as it")
    return tree


def _eigenvariable(var: str, sigmas: tuple[Subst, ...]) -> Optional[Var]:
    """The one variable the substitutions bind a strong variable to, or None."""
    values = sorted({s[var] for s in sigmas if var in s}, key=str)
    if len(values) > 1:
        shown = ", ".join(str(t) for t in values)
        raise MultiplicityError(f"strong variable {var!r} bound to several terms: {shown}")
    if values and not isinstance(values[0], Var):
        raise EigenvariableFormError(f"strong variable {var!r} bound to non-variable term {values[0]}")
    return values[0] if values else None


def _weak_node(var: str, body: Formula, terms: tuple[Term, ...], *children: ExpansionTree) -> ETWeak:
    return ETWeak(var, body, tuple(zip(terms, children)))


def _expand_step(item):
    f, sigmas, p = item
    kind = type(f)
    if kind is Atom:
        return None, f
    if kind is not Forall and kind is not Exists:
        return tuple((part, sigmas, q) for part, q in polar_parts(f, p)), kind
    var, body = f.var, f.body
    if (kind is Forall) == (p is Polarity.NEG):  # weak
        by_term: dict[Term, list[Subst]] = {}
        passthrough: list[Subst] = []
        for s in sigmas:
            if var in s:
                by_term.setdefault(s[var], []).append(s)
            else:
                passthrough.append(s)
        terms = tuple(sorted(by_term, key=str)) or (VACUOUS_TERM,)
        kids = tuple(
            (apply_subst(body, Subst({var: t})), (*by_term.get(t, ()), *passthrough), p) for t in terms
        )
        return kids, partial(_weak_node, var, body, terms)
    term = _eigenvariable(var, sigmas) or Var(f"v_vac_{var}")
    child = (apply_subst(body, Subst({var: term})), sigmas, p)
    return (child,), partial(ETStrong, var, body, term.name)


# ---------------------------------------------------------------------------
# JSON (schema documented in the README; field names are a stable contract)

# the kind of each node class, and the fields that hold a node's children
_KIND = {Atom: "atom", Neg: "neg", And: "and", Or: "or", Imp: "imp", ETWeak: "weak", ETStrong: "strong"}
_CLASS = {kind: cls for cls, kind in _KIND.items()}
_CHILD_FIELDS = {
    Neg: ("child",),
    And: ("left", "right"),
    Or: ("left", "right"),
    Imp: ("left", "right"),
    ETStrong: ("child",),
}


def _json_node(node: dict, fields: tuple[str, ...], *children: dict) -> dict:
    node.update(zip(fields, children))
    return node


def _weak_json(node: dict, terms: list[str], *children: dict) -> dict:
    node["instances"] = [{"term": t, "child": c} for t, c in zip(terms, children)]
    return node


def _to_json_step(tree):
    kind = type(tree)
    node = {"kind": _KIND[kind]}
    if kind is Atom:
        node["formula"] = formula_text(tree)
        return None, node
    if kind is ETWeak:
        node.update(var=tree.var, body=formula_text(tree.body))
        return children(tree), partial(_weak_json, node, [str(t) for t, _ in tree.instances])
    if kind is ETStrong:
        node.update(var=tree.var, body=formula_text(tree.body), eigenvariable=tree.eigenvariable)
    return children(tree), partial(_json_node, node, _CHILD_FIELDS[kind])


def tree_to_json(tree: ExpansionTree) -> dict:
    return fold(tree, _to_json_step)


def sequent_to_json(es: Sequent) -> dict:
    return {
        "antecedent": [tree_to_json(t) for t in es.antecedent],
        "succedent": [tree_to_json(t) for t in es.succedent],
    }


def _node_class(node: dict) -> Optional[type]:
    """The class of a JSON node's kind, or None for an unknown kind."""
    kind = node["kind"]
    return _CLASS.get(kind) if isinstance(kind, str) else None


def _json_children(node: dict) -> Optional[tuple]:
    cls = _node_class(node)
    if cls is ETWeak:
        return tuple(inst["child"] for inst in node["instances"])
    fields = _CHILD_FIELDS.get(cls)
    if fields is None:
        return None  # an atom, or a kind `_tree_from_json` rejects
    return tuple(node[f] for f in fields)


def _collect_eigens(node: dict, out: set[str]) -> None:
    def step(node):
        if node["kind"] == "strong":
            out.add(node["eigenvariable"])
        return _json_children(node), discard

    fold(node, step)


def _from_json_step(scope: frozenset[str], node: dict):
    cls = _node_class(node)
    if cls is Atom:
        atom = parse_formula(node["formula"], extra_vars=scope)
        if not isinstance(atom, Atom):
            raise ExpansionError(f"atom node does not hold an atom: {node['formula']!r}")
        return None, atom
    if cls is None:
        raise ExpansionError(f"unknown node kind {node['kind']!r}")
    if cls is not ETWeak and cls is not ETStrong:
        return _json_children(node), cls
    var = node["var"]
    inner = scope | {var}
    body = parse_formula(node["body"], extra_vars=inner)
    if cls is ETWeak:
        terms = tuple(parse_term(inst["term"], extra_vars=inner) for inst in node["instances"])
        return _json_children(node), partial(_weak_node, var, body, terms)
    return _json_children(node), partial(ETStrong, var, body, node["eigenvariable"])


def _tree_from_json(node: dict, scope: frozenset[str]) -> ExpansionTree:
    return fold(node, partial(_from_json_step, scope))


def sequent_from_json(data: dict) -> Sequent:
    eigens: set[str] = set()
    for node in list(data.get("antecedent", ())) + list(data.get("succedent", ())):
        _collect_eigens(node, eigens)
    scope = frozenset(eigens)
    return Sequent(
        tuple(_tree_from_json(n, scope) for n in data.get("antecedent", ())),
        tuple(_tree_from_json(n, scope) for n in data.get("succedent", ())),
    )
