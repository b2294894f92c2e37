"""Expansion trees and sequents: construction from instance sets, and the
shallow/deep readings.

An expansion tree is a formula whose quantifier occurrences are expanded:
its connectives are the `Atom`, `Neg`, `And`, `Or` and `Imp` nodes of
`core`, and each quantifier becomes an `ETWeak` node with one child per
distinct instance term or an `ETStrong` node with a single eigenvariable.
A quantifier node keeps its body as written in the formula the tree was
built from; the instances of the quantifiers above it are put in only at
the atoms below it.  An expansion sequent is a `core.Sequent` of trees;
antecedent trees are read at negative polarity, succedent trees at
positive polarity.
"""
from __future__ import annotations

from functools import partial, reduce
from typing import Iterable, Iterator, NamedTuple, Optional, Union

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
    env_step,
    fold,
    free_vars,
    polar_parts,
    quantifier,
    quantifier_strengths,
    subformulas,
    subst_atom,
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
    # `body` is the body as written in the formula the tree was built from,
    # with `var` free; each instance is (term, child)
    __slots__ = ("var", "body", "instances")
    strength = Strength.WEAK


class ETStrong(Node):
    __slots__ = ("var", "body", "eigenvariable", "child")
    strength = Strength.STRONG


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


def subtrees(tree: ExpansionTree) -> Iterator[ExpansionTree]:
    """Every node of an expansion tree, in preorder, left to right."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if type(node) is not Atom:
            stack += reversed(children(node))


# ---------------------------------------------------------------------------
# readings


def _shallow_step(item):
    tree, polarity = item
    kind = type(tree)
    if kind is Atom:
        return None, tree
    if kind is ETWeak or kind is ETStrong:
        return None, quantifier(tree.strength, polarity)(tree.var, tree.body)
    return polar_parts(tree, polarity), kind


def shallow(tree: ExpansionTree, polarity: Polarity) -> Formula:
    """The original formula an expansion tree stands for.  Below a
    quantifier node that is the part of the formula as written there, with
    no instance of the quantifiers above it put in."""
    return fold((tree, polarity), _shallow_step)


def deep_step(builds: dict, leaf, item):
    """The step of a `fold` that reads an expansion tree deep (Miller 1987)
    from an item (tree, polarity).  A strong node, and a weak node of one
    instance, stands for its child; any other weak node joins its instances,
    and a connective is read through `polar_parts`.  An atom's value is
    `leaf(atom)`, any other node's `builds[polarity][kind]` of its parts'
    values."""
    tree, polarity = item
    kind = type(tree)
    while kind is ETStrong or kind is ETWeak and len(tree.instances) == 1:
        tree = tree.child if kind is ETStrong else tree.instances[0][1]
        kind = type(tree)
    if kind is Atom:
        return None, leaf(tree)
    if kind is ETWeak:
        return tuple((child, polarity) for _, child in tree.instances), builds[polarity][kind]
    return polar_parts(tree, polarity), builds[polarity][kind]


# the deep reading builds each connective as itself and joins a weak node's
# instances left-nested, by conjunction at negative polarity and by
# disjunction at positive polarity
_DEEP_BUILDS = {
    Polarity.NEG: {Neg: Neg, And: And, Or: Or, Imp: Imp, ETWeak: lambda *parts: reduce(And, parts)},
    Polarity.POS: {Neg: Neg, And: And, Or: Or, Imp: Imp, ETWeak: lambda *parts: reduce(Or, parts)},
}


def deep(tree: ExpansionTree, polarity: Polarity) -> Formula:
    """The quantifier-free reading: weak nodes become conjunctions (negative
    polarity) or disjunctions (positive), strong nodes are transparent."""
    return fold((tree, polarity), partial(deep_step, _DEEP_BUILDS, lambda atom: atom))


def shallow_sequent(es: Sequent) -> Sequent:
    return es.read(shallow)


# ---------------------------------------------------------------------------
# construction (the Et / EtS translation)


class _Scope(NamedTuple):
    """What a walk below a quantifier knows: `env` binds the variables of
    the quantifiers on the path to their instance terms, and `bound` holds
    every name bound in the formula the path started in.

    One dict serves a whole walk: `_instances` sets a child's binding as
    `fold` takes the child, and puts back what the bindings hid after the
    last child.  `fold` finishes a subtree before it takes the next
    sibling, so `env` holds exactly the bindings of the path being walked,
    also where a binder shadows another of its name, as it may in a body
    substituted with fresh names.
    """

    env: dict
    bound: frozenset


def _binders(f: Formula) -> frozenset[str]:
    return frozenset(g.var for g, _ in subformulas(f, Polarity.POS) if type(g) is Forall or type(g) is Exists)


def _instances(scope: Optional[_Scope], var: str, body: Formula, pairs: Iterable[tuple]) -> Iterator[tuple]:
    """The items `(*prefix, formula, scope)` of the children of a quantifier
    `var` with body `body`, one for each (prefix, term) of `pairs`, where
    `term` is the child's instance.  A quantifier with no quantifier above
    it, whose `scope` is None, opens a scope.

    The child expands the body itself, with `var` bound to `term` in the
    environment.  Where `term` mentions a name bound in the scope's formula,
    substituting it could capture that name: the child's formula is then
    the body substituted as `apply_subst` does it, fresh names included,
    and starts a scope of its own.  The binding of `var` is set as `fold`
    takes each child, and the binding it hid is put back after the last
    (see `_Scope`)."""
    if scope is None:
        scope = _Scope({}, _binders(body) | {var})
    env = scope.env
    hidden = env.get(var)
    for prefix, term in pairs:
        if scope.bound.isdisjoint(free_vars(term)):
            env[var] = term
            yield (*prefix, body, scope)
        else:
            child = apply_subst(_instantiated(var, body, env), Subst({var: term}))
            yield (*prefix, child, _Scope({}, _binders(child)))
    if hidden is None:
        env.pop(var, None)
    else:
        env[var] = hidden


def _hiding(var: str, env: dict) -> tuple[str, dict]:
    """The binder `var` and the environment below it, which hides its binding."""
    return var, {v: t for v, t in env.items() if v != var} if var in env else env


def _instantiated(var: str, body: Formula, env: dict) -> Formula:
    """The body of a quantifier `var` with the environment's terms put in
    at its atoms.  No term of a scope's environment mentions a name bound
    in its formula, so nothing is captured and no binder is renamed; unlike
    `apply_subst`, this tests no term for capture at each binder, which
    would make the JSON of a long leaf cubic in its length."""
    _, env = _hiding(var, env)
    return fold((body, env), partial(env_step, _hiding)) if env else body


def expand_formula(formula: Formula, instances: Iterable[Subst], polarity: Polarity) -> ExpansionTree:
    """Build the expansion tree of a rectified formula from a set of
    substitutions for its bound variables.

    At a weak quantifier the substitution set is partitioned by the term
    assigned to the bound variable, one child per distinct term; substitutions
    that do not mention the variable flow through to every child.  A strong
    quantifier must be bound to exactly one term across the whole instance
    set, a plain variable (its eigenvariable).  Any term will do where a
    branch has no instance: a weak quantifier gets the single instance
    `VACUOUS_TERM` and a strong one the eigenvariable `v_vac_<var>`.

    The tree is built in one walk.  The instances of the path are kept in
    its environment and put in only at atoms, so a quantifier node keeps
    its body as written in `formula`; where an instance term mentions a
    name bound in the formula, the node's child starts from the body
    substituted with fresh names, as `apply_subst` gives it.  The tree must
    read back as `formula`, or `InvariantError` is raised.
    """
    sigmas = tuple(instances)
    for var, strength in quantifier_strengths(formula, polarity).items():
        if strength is Strength.STRONG:
            _eigenvariable(var, sigmas)
    tree = fold((sigmas, polarity, formula, None), _expand_step)
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


# items are (substitutions, polarity, formula, scope); the scope is None
# above the first quantifier
def _expand_step(item):
    sigmas, p, f, scope = item
    kind = type(f)
    if kind is Atom:
        return None, f if scope is None else subst_atom(f, scope.env)
    if kind is not Forall and kind is not Exists:
        return tuple((sigmas, q, part, scope) for part, q in polar_parts(f, p)), kind
    var, body = f.var, f.body
    if kind is quantifier(Strength.WEAK, p):
        by_term: dict[Term, list[Subst]] = {}
        passthrough: list[Subst] = []
        for s in sigmas:
            if var in s:
                by_term.setdefault(s[var], []).append(s)
            else:
                passthrough.append(s)
        terms = tuple(sorted(by_term, key=str)) or (VACUOUS_TERM,)
        pairs = [(((*by_term.get(t, ()), *passthrough), p), t) for t in terms]
        return _instances(scope, var, body, pairs), partial(_weak_node, var, body, terms)
    term = _eigenvariable(var, sigmas) or Var(f"v_vac_{var}")
    return _instances(scope, var, body, [((sigmas, p), term)]), partial(ETStrong, var, body, term.name)


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


# items are (tree, formula, scope), as `_instances` makes them, and the
# formula is not read; a quantifier's `body` is written with the instances
# of its path put in
def _to_json_step(item):
    tree, _, scope = item
    kind = type(tree)
    node = {"kind": _KIND[kind]}
    if kind is Atom:
        node["formula"] = formula_text(tree)
        return None, node
    if kind is not ETWeak and kind is not ETStrong:
        return tuple((child, None, scope) for child in children(tree)), partial(_json_node, node, _CHILD_FIELDS[kind])
    var, body = tree.var, tree.body
    node.update(var=var, body=formula_text(body if scope is None else _instantiated(var, body, scope.env)))
    if kind is ETWeak:
        pairs = [((child,), t) for t, child in tree.instances]
        return _instances(scope, var, body, pairs), partial(_weak_json, node, [str(t) for t, _ in tree.instances])
    node["eigenvariable"] = tree.eigenvariable
    pairs = [((tree.child,), Var(tree.eigenvariable))]
    return _instances(scope, var, body, pairs), partial(_json_node, node, _CHILD_FIELDS[kind])


def tree_to_json(tree: ExpansionTree) -> dict:
    return fold((tree, None, None), _to_json_step)


def sequent_to_json(es: Sequent) -> dict:
    return {
        "antecedent": [tree_to_json(t) for t in es.antecedent],
        "succedent": [tree_to_json(t) for t in es.succedent],
    }


# the JSON read back is input from outside the program, so each field is
# read through `_field`, and a wrong shape is an `ExpansionError`
_JSON_TYPE_NAMES = {dict: "an object", list: "a list", str: "a string"}


def _field(obj, name: str, kind: type = str):
    """Field `name` of a JSON object, which must be of type `kind`."""
    if not isinstance(obj, dict):
        raise ExpansionError(f"expected an object with the field {name!r}")
    if name not in obj:
        raise ExpansionError(f"missing field {name!r}")
    value = obj[name]
    if not isinstance(value, kind):
        raise ExpansionError(f"field {name!r} is not {_JSON_TYPE_NAMES[kind]}")
    return value


def _node_class(node: dict) -> Optional[type]:
    """The class of a JSON node's kind, or None for an unknown kind."""
    kind = _field(node, "kind", object)
    return _CLASS.get(kind) if isinstance(kind, str) else None


def _json_children(node: dict) -> Optional[tuple]:
    cls = _node_class(node)
    if cls is ETWeak:
        return tuple(_field(inst, "child", dict) for inst in _field(node, "instances", list))
    fields = _CHILD_FIELDS.get(cls)
    if fields is None:
        return None  # an atom, or a kind `_tree_from_json` rejects
    return tuple(_field(node, f, dict) for f in fields)


def _collect_eigens(node: dict, out: set[str]) -> None:
    def step(node):
        kids = _json_children(node)
        if node["kind"] == "strong":
            out.add(_field(node, "eigenvariable"))
        return kids, discard

    fold(node, step)


# the node classes that may stand for a quantifier; any other formula is
# stood for by a node of its own class
_QUANTIFIER_NODES = {Forall: (ETWeak, ETStrong), Exists: (ETWeak, ETStrong)}


# items are (JSON node, formula, scope): below a quantifier the node must
# stand for `formula`, part of a body derived from the body of the topmost
# quantifier above it, which alone is read from its text
def _from_json_step(names: frozenset[str], item):
    node, f, scope = item
    cls = _node_class(node)
    if cls is None:
        raise ExpansionError(f"unknown node kind {node['kind']!r}")
    if f is not None and cls not in _QUANTIFIER_NODES.get(type(f), (type(f),)):
        raise ExpansionError(f"a {node['kind']} node stands for {formula_text(f)}")
    if cls is Atom:
        atom = parse_formula(_field(node, "formula"), extra_vars=names)
        if not isinstance(atom, Atom):
            raise ExpansionError(f"atom node does not hold an atom: {node['formula']!r}")
        if f is not None and atom is not subst_atom(f, scope.env):
            raise ExpansionError(f"atom {node['formula']!r} disagrees with its quantifier's body")
        return None, atom
    if cls is not ETWeak and cls is not ETStrong:
        parts = (None, None) if f is None else [part for part, _ in polar_parts(f, Polarity.POS)]
        return tuple((child, part, scope) for child, part in zip(_json_children(node), parts)), cls
    var = _field(node, "var")
    inner = names | {var}
    written = parse_formula(_field(node, "body"), extra_vars=inner)
    if f is None:
        body = written
    elif f.var != var or written is not _instantiated(var, f.body, scope.env):
        raise ExpansionError(f"quantifier {var!r} with body {node['body']!r} disagrees with the body above it")
    else:
        body = f.body
    if cls is ETWeak:
        instances = _field(node, "instances", list)
        if not instances:
            raise ExpansionError(f"weak node {var!r} has no instances")
        terms = tuple(parse_term(_field(inst, "term"), extra_vars=inner) for inst in instances)
        pairs = [((child,), t) for child, t in zip(_json_children(node), terms)]
        return _instances(scope, var, body, pairs), partial(_weak_node, var, body, terms)
    eigen = _field(node, "eigenvariable")
    pairs = [((_field(node, "child", dict),), Var(eigen))]
    return _instances(scope, var, body, pairs), partial(ETStrong, var, body, eigen)


def _tree_from_json(node: dict, names: frozenset[str]) -> ExpansionTree:
    return fold((node, None, None), partial(_from_json_step, names))


def _json_side(data: dict, name: str) -> list:
    """A side of a sequent's JSON, which may be left out."""
    return [] if isinstance(data, dict) and name not in data else _field(data, name, list)


def sequent_from_json(data: dict) -> Sequent:
    antecedent, succedent = _json_side(data, "antecedent"), _json_side(data, "succedent")
    eigens: set[str] = set()
    for node in antecedent + succedent:
        _collect_eigens(node, eigens)
    names = frozenset(eigens)
    return Sequent(
        tuple(_tree_from_json(n, names) for n in antecedent),
        tuple(_tree_from_json(n, names) for n in succedent),
    )
