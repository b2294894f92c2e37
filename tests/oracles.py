"""Independent reference implementations used to cross-check the library.

Everything here is deliberately brute force, or a plain earlier version of
a checker stage, and shares no code with the checked implementations.
"""
from collections import deque
from itertools import count, product

from exproof.core import And, App, Atom, Forall, Imp, Neg, Or, Polarity, Sequent, Var, free_vars
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


# --- substitution and rectification by recursion, as exproof.core had them ---
#
# The library walks formulas with an explicit stack; these are the recursive
# versions it replaced.  It must return exactly what they return, fresh
# binder names included.


def _ref_free_vars(obj):
    if isinstance(obj, Var):
        return {obj.name}
    if isinstance(obj, (App, Atom)):
        return set().union(*(_ref_free_vars(a) for a in obj.args))
    if isinstance(obj, Neg):
        return _ref_free_vars(obj.sub)
    if isinstance(obj, (And, Or, Imp)):
        return _ref_free_vars(obj.left) | _ref_free_vars(obj.right)
    return _ref_free_vars(obj.body) - {obj.var}


def _ref_subst_term(t, m):
    if isinstance(t, Var):
        return m.get(t.name, t)
    return App(t.head, tuple(_ref_subst_term(a, m) for a in t.args))


def _ref_fresh_name(base, used):
    for n in count(1):
        cand = f"{base}_{n}"
        if cand not in used:
            return cand


def ref_subst_formula(f, m):
    """Capture-avoiding substitution of the name -> term map `m`."""
    if not m:
        return f
    if isinstance(f, Atom):
        return Atom(f.pred, tuple(_ref_subst_term(a, m) for a in f.args))
    if isinstance(f, Neg):
        return Neg(ref_subst_formula(f.sub, m))
    if isinstance(f, (And, Or, Imp)):
        return type(f)(ref_subst_formula(f.left, m), ref_subst_formula(f.right, m))
    body_free = _ref_free_vars(f.body)
    relevant = {v: t for v, t in m.items() if v != f.var and v in body_free}
    if not relevant:
        return f
    var, body = f.var, f.body
    if any(var in _ref_free_vars(t) for t in relevant.values()):
        used = set(body_free)
        for t in relevant.values():
            used |= _ref_free_vars(t)
        used |= set(relevant)
        fresh = _ref_fresh_name(var, used)
        body = ref_subst_formula(body, {var: Var(fresh)})
        var = fresh
    return type(f)(var, ref_subst_formula(body, relevant))


def ref_rectify(sequent):
    """Binder renaming in preorder, with the (formula index, old name) report."""
    used = set()
    for f in sequent.formulas:
        used |= _ref_free_vars(f)
    counter = count(1)
    report = {}

    def fresh(base):
        while True:
            cand = f"{base}_{next(counter)}"
            if cand not in used:
                return cand

    def walk(f, env, idx):
        if isinstance(f, Atom):
            m = {old: Var(new) for old, new in env.items()}
            return Atom(f.pred, tuple(_ref_subst_term(a, m) for a in f.args))
        if isinstance(f, Neg):
            return Neg(walk(f.sub, env, idx))
        if isinstance(f, (And, Or, Imp)):
            return type(f)(walk(f.left, env, idx), walk(f.right, env, idx))
        if f.var in used:
            new = fresh(f.var)
            report[new] = (idx, f.var)
        else:
            new = f.var
        used.add(new)
        return type(f)(new, walk(f.body, {**env, f.var: new}, idx))

    ant = tuple(walk(f, {}, i) for i, f in enumerate(sequent.antecedent))
    n = len(sequent.antecedent)
    suc = tuple(walk(f, {}, n + i) for i, f in enumerate(sequent.succedent))
    return Sequent(ant, suc), report


# --- the character-loop tokenizers the regex scanner replaced ---
#
# `exproof.notation.scan` must produce what these produced, errors and their
# locations included, except after a quoted name that spans lines: these do
# not count its newlines.  The token values are those of the old `Token`
# dataclass (kind, text, line, col), as a tuple; the s-expression tokens were
# (text, line, col).

_PUNCT2 = ("=>", "!=")
_PUNCT1 = "()[]:,.~&|!?="


def ref_tokenize(text):
    from exproof.notation import ParseError

    tokens = []
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
            tokens.append((two, two, line, col))
            i, col = i + 2, col + 2
            continue
        if c in _PUNCT1:
            tokens.append((c, c, line, col))
            i, col = i + 1, col + 1
            continue
        if c == "'":
            j = text.find("'", i + 1)
            if j < 0:
                raise ParseError("unterminated quoted name", line, col)
            tokens.append(("quoted", text[i + 1 : j], line, col))
            col += j + 1 - i
            i = j + 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("num", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    return tokens


def ref_sexp_tokenize(text):
    tokens = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i, line, col = i + 1, line + 1, 1
        elif c.isspace():
            i, col = i + 1, col + 1
        elif c in "()":
            tokens.append((c, line, col))
            i, col = i + 1, col + 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "()":
                j += 1
            tokens.append((text[i:j], line, col))
            col += j - i
            i = j
    return tokens
