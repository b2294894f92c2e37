"""Independent reference implementations used to cross-check the library.

Everything here is deliberately brute force, or a plain earlier version of
a checker stage, and shares no code with the checked implementations.
"""
from collections import deque
from itertools import product

from exproof.core import And, Atom, Forall, Imp, Neg, Or, Polarity, Sequent, free_vars
from exproof.expansion import ETAtom, ETBin, ETNeg, ETStrong, ETWeak


# --- propositional evaluation and truth-table tautology check ---


def eval_formula(f, assignment):
    """Evaluate a quantifier-free formula under {Atom: bool}."""
    if isinstance(f, Atom):
        return assignment[f]
    if isinstance(f, Neg):
        return not eval_formula(f.sub, assignment)
    if isinstance(f, And):
        return eval_formula(f.left, assignment) and eval_formula(f.right, assignment)
    if isinstance(f, Or):
        return eval_formula(f.left, assignment) or eval_formula(f.right, assignment)
    if isinstance(f, Imp):
        return (not eval_formula(f.left, assignment)) or eval_formula(f.right, assignment)
    raise AssertionError(f"quantifier in a deep formula: {f!r}")


def eval_sequent(ds: Sequent, assignment) -> bool:
    """and(antecedent) -> or(succedent)."""
    if all(eval_formula(f, assignment) for f in ds.antecedent):
        return any(eval_formula(f, assignment) for f in ds.succedent)
    return True


def sequent_atoms(ds: Sequent):
    atoms = []

    def walk(f):
        if isinstance(f, Atom):
            if f not in atoms:
                atoms.append(f)
        elif isinstance(f, Neg):
            walk(f.sub)
        else:
            walk(f.left)
            walk(f.right)

    for f in ds.formulas:
        walk(f)
    return atoms


def taut_oracle(ds: Sequent):
    """Exhaustive truth-table check; returns (valid, falsifying assignment)."""
    atoms = sequent_atoms(ds)
    for values in product((False, True), repeat=len(atoms)):
        assignment = dict(zip(atoms, values))
        if not eval_sequent(ds, assignment):
            return False, assignment
    return True, None


# --- polarity by whole-tree recomputation ---


def all_polarities(f, root: Polarity):
    """Map every subformula path to its polarity by walking the whole tree."""
    out = {}

    def walk(node, path, pol):
        out[path] = pol
        if isinstance(node, Atom):
            return
        if isinstance(node, Neg):
            walk(node.sub, path + (0,), pol.flip())
        elif isinstance(node, Imp):
            walk(node.left, path + (0,), pol.flip())
            walk(node.right, path + (1,), pol)
        elif isinstance(node, (And, Or)):
            walk(node.left, path + (0,), pol)
            walk(node.right, path + (1,), pol)
        else:
            walk(node.body, path + (0,), pol)

    walk(f, (), root)
    return out


# --- cycle detection by exhaustive simple-path enumeration ---


def has_cycle_bruteforce(n: int, edges) -> bool:
    adj = {i: [] for i in range(n)}
    for a, b in edges:
        adj[a].append(b)

    def dfs(start, node, visited):
        for nxt in adj[node]:
            if nxt == start:
                return True
            if nxt not in visited and dfs(start, nxt, visited | {nxt}):
                return True
        return False

    return any(dfs(s, s, frozenset((s,))) for s in range(n))


# --- alpha-equivalence via de Bruijn normalisation ---


def debruijn(f, env=()):
    """Structural form with binders replaced by indices; free names kept."""
    if isinstance(f, Atom):
        return ("atom", f.pred, tuple(_db_term(a, env) for a in f.args))
    if isinstance(f, Neg):
        return ("neg", debruijn(f.sub, env))
    if isinstance(f, (And, Or, Imp)):
        return (type(f).__name__.lower(), debruijn(f.left, env), debruijn(f.right, env))
    tag = "forall" if isinstance(f, Forall) else "exists"
    return (tag, debruijn(f.body, (f.var,) + env))


def _db_term(t, env):
    if hasattr(t, "name"):  # Var
        name = t.name
        for i, bound in enumerate(env):
            if bound == name:
                return ("idx", i)
        return ("free", name)
    return ("app", t.head, tuple(_db_term(a, env) for a in t.args))


def alpha_equal(f, g) -> bool:
    return debruijn(f) == debruijn(g)


# --- the checker's earlier, quadratic stages, kept as differential references ---
#
# These are the implementations `exproof.check` used before its watched-literal
# DPLL, linear dependency relation and SCC-pruned cycle search.  The library
# must return exactly what they return, witnesses included.


def _ref_collect_atoms(f, ids):
    if isinstance(f, Atom):
        if f not in ids:
            ids[f] = len(ids) + 1
        return
    if isinstance(f, Neg):
        _ref_collect_atoms(f.sub, ids)
        return
    _ref_collect_atoms(f.left, ids)
    _ref_collect_atoms(f.right, ids)


class _RefTseitin:
    def __init__(self, natoms):
        self.next_var = natoms + 1
        self.clauses = []

    def fresh(self):
        v = self.next_var
        self.next_var += 1
        return v

    def encode(self, f, ids):
        if isinstance(f, Atom):
            return ids[f]
        if isinstance(f, Neg):
            return -self.encode(f.sub, ids)
        left = self.encode(f.left, ids)
        right = self.encode(f.right, ids)
        if isinstance(f, Imp):
            left = -left
        a = self.fresh()
        if isinstance(f, And):
            self.clauses += [[-a, left], [-a, right], [a, -left, -right]]
        else:  # Or and Imp share the disjunctive encoding
            self.clauses += [[-a, left, right], [a, -left], [a, -right]]
        return a


def rescan_dpll(clauses, nvars):
    """DPLL that rescans every clause on each propagation pass; decisions take
    the lowest free variable, True first.  Returns a model or None."""
    assign = {}
    trail = []
    decisions = []  # (variable, trail length before the decision, tried_false)

    def value(lit):
        v = assign.get(abs(lit))
        if v is None:
            return None
        return v if lit > 0 else not v

    def set_lit(lit):
        assign[abs(lit)] = lit > 0
        trail.append(abs(lit))

    def propagate():
        changed = True
        while changed:
            changed = False
            for clause in clauses:
                unassigned = None
                satisfied = False
                n_false = 0
                for lit in clause:
                    v = value(lit)
                    if v is True:
                        satisfied = True
                        break
                    if v is False:
                        n_false += 1
                    else:
                        unassigned = lit
                if satisfied:
                    continue
                if n_false == len(clause):
                    return False  # conflict
                if n_false == len(clause) - 1:
                    set_lit(unassigned)
                    changed = True
        return True

    while True:
        if propagate():
            free = None
            for v in range(1, nvars + 1):
                if v not in assign:
                    free = v
                    break
            if free is None:
                return assign
            decisions.append((free, len(trail), False))
            set_lit(free)
        else:
            while decisions:
                var, mark, tried_false = decisions.pop()
                while len(trail) > mark:
                    assign.pop(trail.pop())
                if not tried_false:
                    decisions.append((var, mark, True))
                    set_lit(-var)
                    break
            else:
                return None


def ref_is_tautology(ds: Sequent):
    """Tseitin encoding plus `rescan_dpll`; same contract as
    `exproof.check.is_tautology`."""
    ids = {}
    for f in ds.formulas:
        _ref_collect_atoms(f, ids)
    ts = _RefTseitin(len(ids))
    for f in list(ds.antecedent) + [Neg(f) for f in ds.succedent]:
        ts.clauses.append([ts.encode(f, ids)])
    model = rescan_dpll(ts.clauses, ts.next_var - 1)
    if model is None:
        return True, None
    return False, {str(atom): model.get(i, False) for atom, i in ids.items()}


def _ref_walk_tree(tree, path, occurrences, strongs):
    if isinstance(tree, ETAtom):
        return
    if isinstance(tree, ETNeg):
        _ref_walk_tree(tree.child, path + (0,), occurrences, strongs)
    elif isinstance(tree, ETBin):
        _ref_walk_tree(tree.left, path + (0,), occurrences, strongs)
        _ref_walk_tree(tree.right, path + (1,), occurrences, strongs)
    elif isinstance(tree, ETWeak):
        for i, (term, child) in enumerate(tree.instances):
            occurrences.append((path + (i,), term))
            _ref_walk_tree(child, path + (i,), occurrences, strongs)
    elif isinstance(tree, ETStrong):
        strongs.append((path, tree.eigenvariable))
        _ref_walk_tree(tree.child, path + (0,), occurrences, strongs)


def ref_dependency_relation(es):
    """Occurrence (path, term) pairs in tree order and the edge set, by the
    per-pair scan: t -> s when an eigenvariable at or below t occurs in s."""
    occurrences = []
    strongs = []
    for i, tree in enumerate(es.antecedent):
        _ref_walk_tree(tree, ("ant", i), occurrences, strongs)
    for i, tree in enumerate(es.succedent):
        _ref_walk_tree(tree, ("suc", i), occurrences, strongs)
    edges = set()
    for a, (path, _term) in enumerate(occurrences):
        k = len(path)
        dominated = {eig for spath, eig in strongs if spath[:k] == path}
        if not dominated:
            continue
        for b, (_path, term) in enumerate(occurrences):
            if free_vars(term) & dominated:
                edges.add((a, b))
    return occurrences, edges


def ref_shortest_cycle(n, edges):
    """Shortest cycle by BFS from every node in node order (sorted adjacency,
    first strictly shorter cycle wins), as node indices; None if acyclic."""
    adj = {i: [] for i in range(n)}
    for a, b in sorted(edges):
        adj[a].append(b)
    best = None
    for start in range(n):
        parent = {}
        queue = deque([start])
        seen = {start}
        found = None
        while queue and found is None:
            node = queue.popleft()
            for nxt in adj[node]:
                if nxt == start:
                    found = node
                    break
                if nxt not in seen:
                    seen.add(nxt)
                    parent[nxt] = node
                    queue.append(nxt)
        if found is None:
            continue
        cycle = [found]
        while cycle[-1] != start:
            cycle.append(parent[cycle[-1]])
        cycle.reverse()
        if best is None or len(cycle) < len(best):
            best = cycle
    return best
