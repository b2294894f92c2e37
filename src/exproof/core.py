"""First-order kernel: terms, formulas, sequents, polarity, substitution, matching.

Terms, formulas and expansion-tree nodes are `Node`s, hash-consed: building
a node looks it up by its kind and fields in one intern table, so two
structurally equal nodes are the same object.  Equality is identity, the
hash is the identity hash, and no comparison descends into a term.  The
table holds its nodes weakly, so a node lives only as long as something
else refers to it.  A literal is an `Atom` or the `Neg` of one, and a trace
clause is a tuple of literals, so a literal's sign is its node type.

All values are immutable and every operation is a pure function.  Looking
a node up and inserting it cannot make two equal nodes, even from several
threads, so anything in this module can be shared between threads.

`gc_paused` keeps CPython's cyclic garbage collector out of a call; the CLI
pauses it while a trace is loaded and while its verdict is computed.  No
node or record refers back to itself, so reference counting frees all of
it at the same moment as with the collector on, and a test pins that a
check leaves no cycle behind.  The switch is process-wide: a thread that
leaves a paused call turns the collector back on for a thread still inside
one, which costs speed, not correctness.
"""
from __future__ import annotations

import gc
from _weakref import _remove_dead_weakref
from enum import Enum, IntEnum
from functools import cache, partial, wraps
from itertools import count
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Union
from weakref import KeyedRef, ref

EQ = "="  # reserved equality predicate, always arity 2


class ExproofError(Exception):
    """Base class for every error raised by this package."""


class InvariantError(ExproofError):
    """An importer's internal consistency check failed."""


def gc_paused(func):
    """`func` with the cyclic garbage collector off while it runs, if it was
    on; a caller that turned it off keeps it off."""

    @wraps(func)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return func(*args, **kwargs)
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            gc.enable()

    return paused


# ---------------------------------------------------------------------------
# nodes

# (kind, *fields) -> a weak reference to the one node with those fields.  A
# dead node's callback removes its entry, unless an equal node has taken it.
_nodes: dict[tuple, KeyedRef] = {}
_new_ref = ref.__new__


def _forget(entry: KeyedRef) -> None:
    _remove_dead_weakref(_nodes, entry.key)


def _intern(key: tuple, node: "Node") -> "Node":
    """The node the table holds under `key`, which is `node` unless another
    thread entered an equal one first."""
    # `ref.__new__` skips the Python-level constructor of KeyedRef, which
    # would double the cost of a new node
    entry = _new_ref(KeyedRef, node, _forget)
    entry.key = key
    # setdefault is atomic, so a node another thread made first wins; an
    # entry whose node is dead and not yet forgotten is replaced
    while (found := _nodes.setdefault(key, entry)()) is None:
        _remove_dead_weakref(_nodes, key)
    return found


_MISSING = object()  # a field the caller left out


def _wrong_count(cls: type, *fields) -> TypeError:
    got = sum(field is not _MISSING for field in fields)
    return TypeError(f"{cls.__name__} takes {len(cls._fields)} fields, got {got}")


def _constructor(kind: type) -> staticmethod:
    """The `__new__` of `kind`, whose `_fields` are set.  One-
    and two-field kinds, which are all terms and formulas, take their fields
    as named parameters.  The rest, `ETWeak` and `ETStrong`, pack them: they
    are about one in seventeen of the nodes a leanCoP check makes.  A field
    left out defaults to `_MISSING`, which no node in the table has, so a
    short call misses and is caught where a node would be made; `*more` is
    empty unless a call passes too many."""
    set_fields = tuple(getattr(kind, name).__set__ for name in kind._fields)
    if len(set_fields) == 1:
        (set_a,) = set_fields

        def new(cls, a=_MISSING, /, *more):
            if more:
                raise _wrong_count(cls, a, *more)
            key = (cls, a)
            entry = _nodes.get(key)
            if entry is not None and (node := entry()) is not None:
                return node
            if a is _MISSING:
                raise _wrong_count(cls)
            node = object.__new__(cls)
            set_a(node, a)
            return _intern(key, node)

    elif len(set_fields) == 2:
        set_a, set_b = set_fields

        def new(cls, a=_MISSING, b=_MISSING, /, *more):
            if more:
                raise _wrong_count(cls, a, b, *more)
            key = (cls, a, b)
            entry = _nodes.get(key)
            if entry is not None and (node := entry()) is not None:
                return node
            if b is _MISSING:
                raise _wrong_count(cls, a)
            node = object.__new__(cls)
            set_a(node, a)
            set_b(node, b)
            return _intern(key, node)

    else:

        def new(cls, *fields):
            key = (cls, *fields)
            entry = _nodes.get(key)
            if entry is not None and (node := entry()) is not None:
                return node
            if len(fields) != len(set_fields):
                raise _wrong_count(cls, *fields)
            node = object.__new__(cls)
            for set_field, field in zip(set_fields, fields):
                set_field(node, field)
            return _intern(key, node)

    new.__qualname__ = f"{kind.__name__}.__new__"
    return staticmethod(new)


class Node:
    """A hash-consed immutable value.  Each kind is a subclass that declares
    its fields as `__slots__`, where a slot named with a leading `_` is a
    cache; `Kind(field, ...)` returns the node with those fields if one is
    alive, and makes it otherwise.

    Every node goes through its kind's constructor, so the cost of the call
    itself is paid by every node: a varargs `__new__`, which packs the
    fields, builds the key from them and sets them in a loop, makes a new
    term or formula about a third slower on CPython 3.10-3.13.
    `__init_subclass__` therefore installs a constructor fixed to the
    kind's field count (`_constructor`)."""

    __slots__ = ("__weakref__",)

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(s for s in cls.__slots__ if s[0] != "_")
        cls.__new__ = _constructor(cls)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    __delattr__ = __setattr__

    def values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __reduce__(self):  # `copy.copy` goes through it too
        return type(self), self.values()

    def __deepcopy__(self, memo) -> "Node":
        return self

    def __repr__(self) -> str:
        return fold(self, _repr_step)


def _repr_step(x):
    if isinstance(x, Node):
        return x.values(), lambda *parts: f"{type(x).__name__}({', '.join(parts)})"
    if type(x) is tuple:
        return x, lambda *parts: f"({', '.join(parts)}{',' if len(parts) == 1 else ''})"
    return None, repr(x)


@cache
def _symbol_text(name: str) -> str:
    """A function or predicate symbol as `_text` writes it: bare if the
    tokenizer reads it back as that one name and the name is no variable's,
    quoted otherwise.  A symbol holding a quote cannot be written at all."""
    from .notation import ParseError, token_kind, tokenize  # notation imports this module

    try:
        bare = tokenize(name) == [name] and token_kind(name) == "name"
    except ParseError:
        bare = False
    return name if bare and not name[0].isupper() and name[0] != "_" else f"'{name}'"


def _text(node: Union["App", "Atom"]) -> str:
    """The text of a term or atom, emitted in order by a fold and kept on
    `node` alone: the subterms of a deep term keep no text of their own."""
    if not hasattr(node, "_text"):
        pieces: list[str] = []

        def step(x):
            if type(x) is str or type(x) is Var:
                pieces.append(str(x))
                return None, None
            head = x.head if type(x) is App else x.pred
            if type(x) is Atom and head == EQ and len(x.args) == 2:
                return (x.args[0], " = ", x.args[1]), discard
            if not x.args:
                pieces.append(_symbol_text(head))
                return None, None
            pieces.append(f"{_symbol_text(head)}(")
            return [p for a in x.args for p in (", ", a)][1:] + [")"], discard

        fold(node, step)
        object.__setattr__(node, "_text", "".join(pieces))
    return node._text


# ---------------------------------------------------------------------------
# terms


class Var(Node):
    __slots__ = ("name",)

    def __str__(self) -> str:
        return self.name


class App(Node):
    __slots__ = ("head", "args", "_text")
    __str__ = _text


Term = Union[Var, App]


def app(head: str, *args: Term) -> App:
    return App(head, args)


def rebuilt(t: App, *args: Term) -> App:
    """`t` with the arguments `args`; `t` itself if they are its own."""
    return t if args == t.args else App(t.head, args)


# ---------------------------------------------------------------------------
# formulas


class Atom(Node):
    __slots__ = ("pred", "args", "_text")
    __str__ = _text


class Neg(Node):
    __slots__ = ("sub",)


class And(Node):
    __slots__ = ("left", "right")


class Or(Node):
    __slots__ = ("left", "right")


class Imp(Node):
    __slots__ = ("left", "right")


class Forall(Node):
    __slots__ = ("var", "body")


class Exists(Node):
    __slots__ = ("var", "body")


Formula = Union[Atom, Neg, And, Or, Imp, Forall, Exists]

BINARY = (And, Or, Imp)


# ---------------------------------------------------------------------------
# polarity


class Polarity(IntEnum):
    NEG = 0
    POS = 1

    def flip(self) -> "Polarity":
        return _FLIPPED[self]


_FLIPPED = {Polarity.NEG: Polarity.POS, Polarity.POS: Polarity.NEG}


class Strength(Enum):
    WEAK = "weak"
    STRONG = "strong"


class Sequent(NamedTuple):
    """Formulas on the two sides of a sequent; in an expansion sequent they
    are expansion trees."""

    antecedent: tuple[Formula, ...] = ()
    succedent: tuple[Formula, ...] = ()

    @property
    def formulas(self) -> tuple[Formula, ...]:
        return self.antecedent + self.succedent

    def read(self, fn) -> "Sequent":
        """The sequent of `fn(formula, polarity)` for each formula, in order:
        the antecedent is read at negative polarity, the succedent at
        positive."""
        return Sequent(
            tuple(fn(f, Polarity.NEG) for f in self.antecedent),
            tuple(fn(f, Polarity.POS) for f in self.succedent),
        )


def quantifier_strengths(formula: Formula, polarity: Polarity) -> dict[str, Strength]:
    """Map every bound variable of a rectified formula to its strength."""
    out: dict[str, Strength] = {}
    for f, pol in subformulas(formula, polarity):
        kind = type(f)
        if kind is Forall or kind is Exists:
            out[f.var] = Strength.WEAK if kind is quantifier(Strength.WEAK, pol) else Strength.STRONG
    return out


# ---------------------------------------------------------------------------
# traversal: every walk over terms, formulas, expansion trees and their
# JSON form goes through `fold`, `subformulas`, `subterms` or
# `expansion.subtrees`, or keeps its own stack as `check._walk_sequent`
# does, so depth is bounded by memory and not by the interpreter's
# recursion limit


def fold(root, step):
    """Evaluate a tree bottom-up with an explicit stack.

    `step(item)` returns `(None, value)` for a leaf, or `(child_items, build)`
    for an inner node, where `build(*child_values)` gives the node's value.
    `step` runs in preorder, children left to right, and `build` in
    post-order.  An item carries the context a walk needs (polarity,
    substitutions, a path), and walks run for their side effects pass
    `discard` as the build.  `child_items` is read one item at a time, the
    next once the subtree of the one before is built, so a generator there
    can set up each child's context as it yields the child.
    """
    kids, build = step(root)
    if kids is None:
        return build
    # the node being worked on: its build, an iterator over the children not
    # yet stepped, and the values of those done; `parents` holds the same
    # for every node above it
    pending, values = iter(kids), []
    parents = []
    while True:
        for item in pending:
            kids, child_build = step(item)
            if kids is None:
                values.append(child_build)
            else:
                parents.append((build, pending, values))
                build, pending, values = child_build, iter(kids), []
                break
        else:
            value = build(*values)
            if not parents:
                return value
            build, pending, values = parents.pop()
            values.append(value)


def discard(*values) -> None:
    """The build of a fold run only for what its `step` does."""


def polar_parts(f: Formula, polarity: Polarity) -> tuple[tuple[Formula, Polarity], ...]:
    """The immediate subformulas of a formula other than an atom, with their
    polarities, left to right.  Negation flips the polarity, and so does the
    left side of an implication; every other part keeps it.  An expansion
    tree reads its connectives by this rule too, so its quantifier nodes are
    never passed here."""
    kind = type(f)
    if kind is And or kind is Or:
        return ((f.left, polarity), (f.right, polarity))
    if kind is Imp:
        return ((f.left, polarity.flip()), (f.right, polarity))
    if kind is Neg:
        return ((f.sub, polarity.flip()),)
    return ((f.body, polarity),)


def quantifier(strength: Strength, polarity: Polarity) -> type:
    """The quantifier that is of `strength` at `polarity` (Miller 1987): a
    universal one is weak at negative polarity and strong at positive, an
    existential one the other way round."""
    # indexed by polarity, negative first
    return (Forall, Exists)[polarity] if strength is Strength.WEAK else (Exists, Forall)[polarity]


def subformulas(formula: Formula, polarity: Polarity) -> Iterator[tuple[Formula, Polarity]]:
    """Every subformula with its polarity, in preorder."""
    stack = [(formula, polarity)]
    while stack:
        item = stack.pop()
        yield item
        if type(item[0]) is not Atom:
            stack += reversed(polar_parts(*item))


# ---------------------------------------------------------------------------
# variables


def subterms(terms: Iterable[Term]) -> Iterator[Term]:
    """Every subterm of `terms`, in preorder, left to right."""
    stack = list(terms)
    stack.reverse()
    while stack:
        t = stack.pop()
        yield t
        if type(t) is App and t.args:
            stack += reversed(t.args)


def _term_vars(terms: Iterable[Term]) -> frozenset[str]:
    return frozenset([t.name for t in subterms(terms) if type(t) is Var])


def _free_vars_step(f: Formula):
    while type(f) is Neg:
        f = f.sub
    kind = type(f)
    if kind is Atom:
        return None, _term_vars(f.args)
    if kind in BINARY:
        return (f.left, f.right), frozenset.union
    return (f.body,), frozenset((f.var,)).__rsub__  # the body's minus the binder


def free_vars(obj: Union[Term, Formula]) -> frozenset[str]:
    while type(obj) is Neg:
        obj = obj.sub
    if isinstance(obj, Atom):
        return _term_vars(obj.args)
    if isinstance(obj, (Var, App)):
        return _term_vars((obj,))
    return fold(obj, _free_vars_step)


# ---------------------------------------------------------------------------
# substitution


class Subst:
    """Finite map from variable names to terms; identity bindings are dropped."""

    __slots__ = ("_map",)

    def __init__(self, bindings: Optional[Mapping[str, Term]] = None):
        m: dict[str, Term] = {}
        if bindings:
            for v, t in bindings.items():
                if isinstance(t, Var) and t.name == v:
                    continue
                m[v] = t
        object.__setattr__(self, "_map", m)

    def __contains__(self, var: str) -> bool:
        return var in self._map

    def __getitem__(self, var: str) -> Term:
        return self._map[var]

    def get(self, var: str, default=None):
        return self._map.get(var, default)

    def __bool__(self) -> bool:
        return bool(self._map)

    @property
    def domain(self) -> frozenset[str]:
        return frozenset(self._map)

    def items(self) -> Iterator[tuple[str, Term]]:
        return iter(sorted(self._map.items()))

    def __eq__(self, other) -> bool:
        return isinstance(other, Subst) and self._map == other._map

    def __hash__(self) -> int:
        return hash(frozenset(self._map.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{v} -> {t}" for v, t in self.items())
        return f"{{{inner}}}"


def _fresh_name(base: str, used: set[str]) -> str:
    for n in count(1):
        cand = f"{base}_{n}"
        if cand not in used:
            return cand
    raise AssertionError("unreachable")


def _subst_term_step(m: Mapping[str, Term], t: Term):
    if type(t) is Var:
        return None, m.get(t.name, t)
    if not t.args:
        return None, t
    return t.args, partial(rebuilt, t)


def _subst_term(t: Term, m: Mapping[str, Term]) -> Term:
    if type(t) is Var:
        return m.get(t.name, t)
    return fold(t, partial(_subst_term_step, m)) if t.args else t


def _image_vars(free: Iterable[str], m: Mapping[str, Term]) -> set[str]:
    """Free variables, after substituting `m`, of a formula whose free
    variables are `free`."""
    out: set[str] = set()
    for v in free:
        t = m.get(v)
        if t is None:
            out.add(v)
        else:
            out |= _term_vars((t,))
    return out


def subst_atom(atom: Atom, m: Mapping[str, Term]) -> Atom:
    """`atom` with each variable `m` binds replaced by its term; `atom`
    itself if it mentions none of them."""
    args = tuple(_subst_term(a, m) for a in atom.args)
    return atom if args == atom.args else Atom(atom.pred, args)


def _subst_step(item):
    """Substitution step; `maps` are applied one after another, as nested
    calls of a one-map substitution would, fresh names included."""
    f, maps = item
    kind = type(f)
    if kind is Atom:
        for m in maps:
            f = subst_atom(f, m)
        return None, f
    if kind is Neg:
        return ((f.sub, maps),), Neg
    if kind in BINARY:
        return ((f.left, maps), (f.right, maps)), kind
    # quantifier: drop the binder from each map and rename it where a
    # substituted term would capture it.  Keys not free in the body change
    # nothing below, so they are filtered out only where they could decide
    # a renaming, against the body's free variables with the earlier maps
    # applied.
    var, body = f.var, f.body
    pending: list[Mapping[str, Term]] = []
    for m in maps:
        relevant = {v: t for v, t in m.items() if v != var} if var in m else m
        if any(var in free_vars(t) for t in relevant.values()):
            free = free_vars(body)
            for earlier in pending:
                free = _image_vars(free, earlier)
            relevant = {v: t for v, t in relevant.items() if v in free}
            if any(var in free_vars(t) for t in relevant.values()):
                used = set(free)
                for t in relevant.values():
                    used |= free_vars(t)
                used |= set(relevant)
                fresh = _fresh_name(var, used)
                pending.append({var: Var(fresh)})
                var = fresh
        if relevant:
            pending.append(relevant)
    if not pending:
        return None, f
    return ((body, tuple(pending)),), partial(kind, var)


def _subst_formula(f: Formula, m: Mapping[str, Term]) -> Formula:
    if not m:
        return f
    return fold((f, (m,)), _subst_step)


def apply_subst(obj: Union[Term, Formula], subst: Subst) -> Union[Term, Formula]:
    """Capture-avoiding substitution on a term or formula."""
    m = subst._map  # noqa: SLF001 - same module family
    if isinstance(obj, (Var, App)):
        return _subst_term(obj, m)
    return _subst_formula(obj, m)


def env_step(binder, item):
    """The step of a `fold` that puts an environment, a dict from variable
    names to terms, in at the atoms of a formula, from an item (formula,
    environment).  `binder(var, env)` gives the name a quantifier of `var`
    is rebuilt with and the environment of its body: `rectify` renames the
    binder, `expansion` hides its binding."""
    f, env = item
    kind = type(f)
    if kind is Atom:
        return None, subst_atom(f, env)
    if kind is Neg:
        return ((f.sub, env),), Neg
    if kind is Forall or kind is Exists:
        var, env = binder(f.var, env)
        return ((f.body, env),), partial(kind, var)
    return ((f.left, env), (f.right, env)), kind


# ---------------------------------------------------------------------------
# rectification


def rectify(sequent: Sequent) -> Sequent:
    """Rename binders so all bound names are pairwise distinct and disjoint
    from every free variable of the sequent."""
    used: set[str] = set()
    for f in sequent.formulas:
        used |= free_vars(f)
    counter = count(1)

    def rename(var: str, env: dict) -> tuple[str, dict]:
        new = var
        while new in used:
            new = f"{var}_{next(counter)}"
        used.add(new)
        return new, {**env, var: Var(new)}

    step = partial(env_step, rename)
    return sequent.read(lambda f, _: fold((f, {}), step))


# ---------------------------------------------------------------------------
# first-order matching (one-sided)


def match_under(
    pattern: Union[Term, Formula], target: Union[Term, Formula], bindings: Mapping[str, Term]
) -> Optional[dict[str, Term]]:
    """Extend `bindings` so that substituting them into the term or literal
    `pattern` gives `target`; returns the extended map (a fresh dict), or
    None if there is no such extension."""
    if type(pattern) is Neg:  # a negative literal matches only a negative one
        if type(target) is not Neg:
            return None
        pattern, target = pattern.sub, target.sub
    out = dict(bindings)
    stack = [(pattern, target)]
    while stack:
        p, t = stack.pop()
        kind = type(p)
        if kind is Var:
            if out.setdefault(p.name, t) != t:
                return None
            continue
        if kind is not type(t) or len(p.args) != len(t.args):
            return None
        if kind is App and p.head != t.head or kind is Atom and p.pred != t.pred:
            return None
        stack += zip(reversed(p.args), reversed(t.args))  # left to right
    return out
