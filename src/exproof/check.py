"""Validity checking for expansion sequents.

The verdict combines two independent conditions: the deep sequent must be a
propositional tautology (ground atoms treated as opaque variables, equality
included), and the dependency relation between weak instance terms and the
eigenvariables they dominate must be acyclic.
"""
from __future__ import annotations

from collections import defaultdict
from functools import partial
from itertools import count
from operator import neg
from typing import NamedTuple, Optional

from .core import (
    And,
    Atom,
    Imp,
    Neg,
    Or,
    Polarity,
    Sequent,
    Term,
    fold,
    free_vars,
    gc_paused,
)
from .expansion import ETStrong, ETWeak, children, deep, deep_step


# ---------------------------------------------------------------------------
# deep sequent


def deep_sequent(es: Sequent) -> Sequent:
    """Quantifier-free sequent of the deep readings."""
    return es.read(deep)


# ---------------------------------------------------------------------------
# propositional tautology check: clauses read straight from the trees of an
# expansion sequent, one variable per connective and only the clauses of the
# polarity it is read at, then an iterative DPLL


def _dpll(clauses: list[list[int]], order: list[int]) -> Optional[dict[int, bool]]:
    """Iterative DPLL with two watched literals per clause; returns a model or
    None when unsatisfiable.

    Decisions take the first free variable in `order`, which lists the
    variables 1..n, True first, and backtracking is chronological, so the
    model found is the first one in that order whatever the propagation
    order: the counterexample is a function of the clauses and the order.
    """
    # value[lit] is 1 when lit is true, -1 when false, 0 when unassigned;
    # a negative literal indexes from the end, so value and watches need no
    # offset arithmetic
    size = 2 * len(order) + 1
    value = [0] * size
    watches: list[list[list[int]]] = [[] for _ in range(size)]
    trail: list[int] = []
    units: list[int] = []
    for clause in clauses:
        lits = list(dict.fromkeys(clause))  # a repeated literal would take both watches
        if not lits:
            return None
        if len(lits) == 1:
            units.append(lits[0])
        else:
            watches[lits[0]].append(lits)
            watches[lits[1]].append(lits)

    def assign(lit: int) -> None:
        value[lit] = 1
        value[-lit] = -1
        trail.append(lit)

    head = 0  # trail[:head] has been propagated

    def propagate() -> bool:
        """Unit propagation of the trail from `head`; False on a conflict."""
        nonlocal head
        while head < len(trail):
            false_lit = -trail[head]
            head += 1
            watching = watches[false_lit]
            kept = 0
            for i, clause in enumerate(watching):
                # keep the other watch in clause[0], the false one in clause[1]
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], false_lit
                other = clause[0]
                if value[other] != 1:
                    for k in range(2, len(clause)):
                        if value[clause[k]] != -1:
                            clause[1], clause[k] = clause[k], false_lit
                            watches[clause[1]].append(clause)
                            break
                    else:
                        if value[other] == -1:
                            watching[kept:i] = []
                            return False
                        assign(other)
                    if clause[1] != false_lit:
                        continue  # now watched elsewhere
                watching[kept] = clause
                kept += 1
            del watching[kept:]
        return True

    for lit in units:
        if value[lit] == -1:
            return None
        if value[lit] == 0:
            assign(lit)
    # decisions: (position in `order`, trail length before the decision, tried_false)
    decisions: list[tuple[int, int, bool]] = []
    free = 0  # every variable before order[free] is assigned
    while True:
        if propagate():
            while free < len(order) and value[order[free]]:
                free += 1
            if free == len(order):
                return {v: value[v] == 1 for v in order}
            decisions.append((free, len(trail), False))
            assign(order[free])
            continue
        while decisions:
            free, mark, tried_false = decisions.pop()
            for lit in trail[mark:]:
                value[lit] = value[-lit] = 0
            del trail[mark:]
            head = mark
            if not tried_false:
                decisions.append((free, mark, True))
                assign(-order[free])
                break
        else:
            return None


def is_tautology(es: Sequent) -> tuple[bool, Optional[dict[str, bool]]]:
    """Check whether the deep sequent of `es`, and(antecedent) ->
    or(succedent), is propositionally valid; on failure the second component
    is a falsifying assignment over its atoms (rendered in textual notation).
    A deep sequent, an expansion sequent without quantifier nodes, may be
    passed too.

    Each tree is encoded in one `fold` of `deep`'s step, `deep_step`: a
    weak node reads as an n-ary conjunction at negative polarity and a
    disjunction at positive polarity, and a strong node, or a weak node of
    one instance, as its child.  Each subformula of a tree is read at one
    polarity only, so a connective's variable gets the clauses of one
    direction (Plaisted & Greenbaum 1986): at negative polarity the variable
    implies the subformula, at positive polarity the subformula implies it.
    A variable is numbered as the `fold` meets its atom or makes its
    connective; the DPLL decides the atoms first, left to right, then the
    connectives, and the atom parts of its models are the falsifying
    assignments, so it finds the counterexample a full Tseitin encoding of
    the deep sequent gives.
    """
    numbers = count(1)
    ids: dict[Atom, int] = defaultdict(numbers.__next__)
    connectives: list[int] = []
    clauses: list[list[int]] = []

    def neg_and(*parts: int) -> int:
        connectives.append(a := next(numbers))
        clauses.extend([-a, p] for p in parts)
        return a

    def neg_or(*parts: int) -> int:
        connectives.append(a := next(numbers))
        clauses.append([-a, *parts])
        return a

    def pos_and(*parts: int) -> int:
        connectives.append(a := next(numbers))
        clauses.append([a, *map(neg, parts)])
        return a

    def pos_or(*parts: int) -> int:
        connectives.append(a := next(numbers))
        clauses.extend([a, -p] for p in parts)
        return a

    define = {
        Polarity.NEG: {Neg: neg, And: neg_and, Or: neg_or, Imp: lambda a, b: neg_or(-a, b), ETWeak: neg_and},
        Polarity.POS: {Neg: neg, And: pos_and, Or: pos_or, Imp: lambda a, b: pos_or(-a, b), ETWeak: pos_or},
    }

    step = partial(deep_step, define, ids.__getitem__)
    roots = es.read(lambda tree, polarity: fold((tree, polarity), step))
    clauses += [[a] for a in roots.antecedent] + [[-a] for a in roots.succedent]
    model = _dpll(clauses, [*ids.values(), *connectives])
    if model is None:
        return True, None
    return False, {str(atom): model[i] for atom, i in ids.items()}


# ---------------------------------------------------------------------------
# dependency relation


class TermOccurrence(NamedTuple):
    """A weak instance term occurrence, identified by its tree path: the
    sequent side, the tree index, then child indices down to the instance.
    `link` is that path, or a link to it as `_walk_sequent` makes them, so
    that the path is built only when it is read."""

    link: tuple
    term: Term

    @property
    def path(self) -> tuple:
        return _path(self.link)

    @property
    def node_id(self) -> str:
        side, idx, *rest = self.path
        return f"{side}[{idx}]" + "".join(f".{c}" for c in rest)


class DependencyGraph(NamedTuple):
    nodes: tuple[TermOccurrence, ...]
    edges: frozenset[tuple[int, int]]  # indices into `nodes`


def _path(link: tuple) -> tuple:
    """The path a link stands for: a path is its own link, and a
    (parent link, child index) pair is the parent's path and the index."""
    indices = []
    while type(link[0]) is not str:
        link, index = link
        indices.append(index)
    return link + tuple(reversed(indices))


def _walk_sequent(
    es: Sequent,
) -> tuple[list[TermOccurrence], list[str], list[tuple[int, int]]]:
    """Instance term occurrences in tree order, the eigenvariables of the
    strong nodes in preorder, and for each occurrence the slice of that list
    which lies at or below its instance edge."""
    occurrences: list[TermOccurrence] = []
    eigens: list[str] = []
    spans: list = []  # (start, end) per occurrence; just the start until its subtree is done
    # a preorder walk on an explicit stack of (tree, path link, instance term
    # or None) items; a path link is the root's (side, tree index) or a
    # (parent link, child index) pair, so a push copies no path.  An
    # instance's span opens when it is popped, and the item (None, k, None)
    # pushed below its subtree closes it.  An atom off an instance edge holds
    # nothing and is not pushed.
    stack = [(tree, (side, i), None) for side, trees in (("ant", es.antecedent), ("suc", es.succedent))
             for i, tree in enumerate(trees) if type(tree) is not Atom][::-1]
    while stack:
        tree, link, term = stack.pop()
        if tree is None:
            spans[link] = (spans[link], len(eigens))
            continue
        if term is not None:
            stack.append((None, len(spans), None))
            spans.append(len(eigens))
            occurrences.append(TermOccurrence(link, term))
        kind = type(tree)
        if kind is ETWeak:
            stack += [(child, (link, i), t) for i, (t, child) in enumerate(tree.instances)][::-1]
        elif kind is not Atom:
            if kind is ETStrong:
                eigens.append(tree.eigenvariable)
            kids = enumerate(children(tree))
            stack += [(child, (link, i), None) for i, child in kids if type(child) is not Atom][::-1]
    return occurrences, eigens, spans


def dependency_relation(es: Sequent) -> DependencyGraph:
    """Base dependency relation: an edge t -> s whenever some eigenvariable
    of a strong node at or below t's instance edge occurs free in s."""
    occurrences, eigens, spans = _walk_sequent(es)
    if not eigens:
        return DependencyGraph(tuple(occurrences), frozenset())
    strong = set(eigens)
    mentioned_by: dict[str, list[int]] = {}
    for b, occ in enumerate(occurrences):
        for eig in free_vars(occ.term) & strong:
            mentioned_by.setdefault(eig, []).append(b)
    edges = set()
    for a, (lo, hi) in enumerate(spans):
        for eig in set(eigens[lo:hi]):
            edges.update((a, b) for b in mentioned_by.get(eig, ()))
    return DependencyGraph(tuple(occurrences), frozenset(edges))


def _components(adj: list[list[int]]) -> list[int]:
    """Strongly connected component number of each node (iterative Tarjan)."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    on_stack = [False] * n
    stack: list[int] = []
    counter = ncomp = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, 0)]  # (node, next successor to look at)
        while work:
            v, i = work[-1]
            if i < len(adj[v]):
                work[-1] = (v, i + 1)
                w = adj[v][i]
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, 0))
                elif on_stack[w]:
                    low[v] = min(low[v], index[w])
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = ncomp
                    if w == v:
                        break
                ncomp += 1
    return comp


def is_acyclic(g: DependencyGraph) -> tuple[bool, Optional[tuple[str, ...]]]:
    """Cycle detection over the base edges; the witness is the shortest cycle
    found by BFS from each node in node order (the first of equal length).

    A cycle never leaves the strongly connected component of its nodes, so a
    BFS only starts from a node with a successor in its own component and
    stays inside that component, and no deeper than a cycle shorter than the
    best so far reaches.  Where the component is a single simple cycle,
    every start in it finds a cycle of the same length, so only its first
    node is searched.  The witness is the one a full BFS over the whole
    graph from every node finds.
    """
    if not g.edges:
        return True, None
    adj: list[list[int]] = [[] for _ in g.nodes]
    for a, b in sorted(g.edges):
        adj[a].append(b)
    comp = _components(adj)
    inner = [sum(1 for w in succ if comp[w] == comp[v]) for v, succ in enumerate(adj)]
    branching = {comp[v] for v, k in enumerate(inner) if k > 1}
    searched: set[int] = set()
    best: Optional[list[int]] = None
    for start in range(len(adj)):
        home = comp[start]
        if not inner[start] or (home in searched and home not in branching):
            continue
        searched.add(home)
        # BFS level by level, only as deep as a cycle shorter than `best` goes
        parent = {start: start}
        level = [start]
        depth = 0  # distance from start to the nodes of `level`
        found = None
        while level and found is None and (best is None or depth + 1 < len(best)):
            next_level = []
            for node in level:
                if start in adj[node]:
                    found = node
                    break
                for nxt in adj[node]:
                    if nxt not in parent and comp[nxt] == home:
                        parent[nxt] = node
                        next_level.append(nxt)
            level = next_level
            depth += 1
        if found is None:
            continue
        cycle = [found]
        while cycle[-1] != start:
            cycle.append(parent[cycle[-1]])
        cycle.reverse()
        best = cycle
    if best is None:
        return True, None
    return False, tuple(g.nodes[i].node_id for i in best)


# ---------------------------------------------------------------------------
# verdict


class Verdict(NamedTuple):
    is_proof: bool
    tautology: bool
    acyclic: bool
    counterexample: Optional[dict[str, bool]] = None
    cycle: Optional[tuple[str, ...]] = None

    def to_json(self) -> dict:
        out = {"is_proof": self.is_proof, "tautology": self.tautology, "acyclic": self.acyclic}
        if self.counterexample is not None:
            out["counterexample"] = dict(self.counterexample)
        if self.cycle is not None:
            out["cycle"] = list(self.cycle)
        return out


@gc_paused
def verdict(es: Sequent) -> Verdict:
    """The sanity check: an expansion sequent is a proof iff its deep sequent
    is a tautology and its dependency relation is acyclic.  This validates
    the claimed instantiations, not individual inference steps.  The
    tautology check reads the trees themselves (`is_tautology`), so the deep
    sequent is never built here."""
    taut, counterexample = is_tautology(es)
    acyclic, cycle = is_acyclic(dependency_relation(es))
    return Verdict(taut and acyclic, taut, acyclic, counterexample, cycle)
