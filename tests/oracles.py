"""Independent reference implementations used to cross-check the library.

Everything here is deliberately brute force, or a plain earlier version of
a checker stage, and shares no code with the checked implementations.
"""
from collections import deque
from itertools import count, product

from exproof.core import (
    And,
    App,
    Atom,
    Forall,
    Imp,
    Neg,
    Or,
    Polarity,
    Sequent,
    Strength,
    Subst,
    Var,
    apply_subst,
    free_vars,
    quantifier_strengths,
)
from exproof.expansion import VACUOUS_TERM, EigenvariableFormError, ETStrong, ETWeak, MultiplicityError
from exproof.notation import formula_text


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


# --- expansion by substituting each instance into the rest of the body ---


def _ref_eigenvariable(var, sigmas):
    values = sorted({s[var] for s in sigmas if var in s}, key=str)
    if len(values) > 1:
        shown = ", ".join(str(t) for t in values)
        raise MultiplicityError(f"strong variable {var!r} bound to several terms: {shown}")
    if values and not isinstance(values[0], Var):
        raise EigenvariableFormError(f"strong variable {var!r} bound to non-variable term {values[0]}")
    return values[0] if values else None


def ref_expand_formula(formula, instances, polarity):
    """The expansion tree as `expand_formula` built it before instances were
    kept in an environment: at each quantifier the instance term is
    substituted into the whole remaining body (`apply_subst`, fresh names
    included), the node keeps the substituted body it was given, and the
    substitutions are looked up by the name the binder then has."""
    sigmas = tuple(instances)
    for var, strength in quantifier_strengths(formula, polarity).items():
        if strength is Strength.STRONG:
            _ref_eigenvariable(var, sigmas)

    def walk(f, sigmas, p):
        if isinstance(f, Atom):
            return f
        if isinstance(f, Neg):
            return Neg(walk(f.sub, sigmas, p.flip()))
        if isinstance(f, (And, Or, Imp)):
            left = p.flip() if isinstance(f, Imp) else p
            return type(f)(walk(f.left, sigmas, left), walk(f.right, sigmas, p))
        var, body = f.var, f.body
        if isinstance(f, Forall) == (p is Polarity.NEG):  # weak
            by_term, passthrough = {}, []
            for s in sigmas:
                if var in s:
                    by_term.setdefault(s[var], []).append(s)
                else:
                    passthrough.append(s)
            terms = sorted(by_term, key=str) or [VACUOUS_TERM]
            instances = tuple(
                (t, walk(apply_subst(body, Subst({var: t})), (*by_term.get(t, ()), *passthrough), p))
                for t in terms
            )
            return ETWeak(var, body, instances)
        term = _ref_eigenvariable(var, sigmas) or Var(f"v_vac_{var}")
        return ETStrong(var, body, term.name, walk(apply_subst(body, Subst({var: term})), sigmas, p))

    return walk(formula, sigmas, polarity)


def ref_tree_to_json(tree):
    """The JSON of a tree whose quantifier nodes keep their substituted
    bodies, as `ref_expand_formula` builds them."""
    if isinstance(tree, Atom):
        return {"kind": "atom", "formula": formula_text(tree)}
    if isinstance(tree, Neg):
        return {"kind": "neg", "child": ref_tree_to_json(tree.sub)}
    if isinstance(tree, (And, Or, Imp)):
        kind = {And: "and", Or: "or", Imp: "imp"}[type(tree)]
        return {"kind": kind, "left": ref_tree_to_json(tree.left), "right": ref_tree_to_json(tree.right)}
    node = {"kind": "weak" if isinstance(tree, ETWeak) else "strong", "var": tree.var, "body": formula_text(tree.body)}
    if isinstance(tree, ETWeak):
        node["instances"] = [{"term": str(t), "child": ref_tree_to_json(c)} for t, c in tree.instances]
    else:
        node["eigenvariable"] = tree.eigenvariable
        node["child"] = ref_tree_to_json(tree.child)
    return node


# --- the deep reading and the preorder of an expansion tree, by recursion ---


def ref_deep(tree, polarity):
    """The deep reading as the README states it: a weak node is the
    left-nested conjunction of its instances at negative polarity and their
    disjunction at positive polarity, a strong node is its child, and a
    connective reads its parts, negation and the left side of an
    implication at the other polarity."""
    other = Polarity.POS if polarity is Polarity.NEG else Polarity.NEG
    if isinstance(tree, Atom):
        return tree
    if isinstance(tree, ETStrong):
        return ref_deep(tree.child, polarity)
    if isinstance(tree, ETWeak):
        join = And if polarity is Polarity.NEG else Or
        parts = [ref_deep(child, polarity) for _, child in tree.instances]
        out = parts[0]
        for part in parts[1:]:
            out = join(out, part)
        return out
    if isinstance(tree, Neg):
        return Neg(ref_deep(tree.sub, other))
    if isinstance(tree, Imp):
        return Imp(ref_deep(tree.left, other), ref_deep(tree.right, polarity))
    return type(tree)(ref_deep(tree.left, polarity), ref_deep(tree.right, polarity))


def ref_preorder(tree):
    """Every node of an expansion tree, in preorder, left to right."""
    if isinstance(tree, ETWeak):
        kids = [child for _, child in tree.instances]
    elif isinstance(tree, ETStrong):
        kids = [tree.child]
    elif isinstance(tree, Neg):
        kids = [tree.sub]
    elif isinstance(tree, Atom):
        kids = []
    else:
        kids = [tree.left, tree.right]
    return [tree] + [node for kid in kids for node in ref_preorder(kid)]


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
    if isinstance(tree, Atom):
        return
    if isinstance(tree, Neg):
        _ref_walk_tree(tree.sub, path + (0,), occurrences, strongs)
    elif isinstance(tree, (And, Or, Imp)):
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


def ref_term_text(t):
    """The text of a term or atom, as `__str__` wrote it by recursion."""
    if isinstance(t, Var):
        return t.name
    head = t.head if isinstance(t, App) else t.pred
    if isinstance(t, Atom) and head == "=" and len(t.args) == 2:
        return f"{ref_term_text(t.args[0])} = {ref_term_text(t.args[1])}"
    if not t.args:
        return head
    return f"{head}({', '.join(ref_term_text(a) for a in t.args)})"


def ref_parse_term(text, extra_vars=()):
    """The term of `text` by recursive descent, as `FormulaParser.parse_term`
    read it before it kept nested applications on a stack."""
    from exproof.notation import tokenize

    tokens = tokenize(text)

    def term(i):
        name = tokens[i]
        if name[0].isdigit():
            return App(name, ()), i + 1
        if name[0] == "'":
            name, is_var = name[1:-1], False
        else:
            is_var = name[0].isupper() or name[0] == "_" or name in extra_vars
        if i + 1 == len(tokens) or tokens[i + 1] != "(":
            return (Var(name) if is_var else App(name, ())), i + 1
        args, i = [], i + 1
        while tokens[i] in ("(", ","):
            arg, i = term(i + 1)
            args.append(arg)
        assert tokens[i] == ")"
        return App(name, tuple(args)), i + 1

    out, end = term(0)
    assert end == len(tokens)
    return out


def ref_parse_formula(text):
    """The formula of `text` by recursive descent, as `FormulaParser` read
    it before it kept open parentheses on a stack: the same errors at the
    same places.  Atoms are read by the library's atom reader."""
    from functools import partial

    from exproof.core import Exists
    from exproof.notation import FormulaParser, tokenize

    class Parser(FormulaParser):
        def parse_formula(self):
            parts = [self.disj()]
            while self.tokens[self.pos] == "=>":
                self.pos += 1
                parts.append(self.disj())
            out = parts.pop()
            while parts:
                out = Imp(parts.pop(), out)
            return out

        def disj(self):
            out = self.conj()
            while self.tokens[self.pos] == "|":
                self.pos += 1
                out = Or(out, self.conj())
            return out

        def conj(self):
            out = self.unary()
            while self.tokens[self.pos] == "&":
                self.pos += 1
                out = And(out, self.unary())
            return out

        def unary(self):
            prefixes, scope = [], len(self.bound)
            while True:
                tok = self.tokens[self.pos]
                if tok == "~":
                    self.pos += 1
                    prefixes.append(Neg)
                elif tok in ("!", "?"):
                    self.pos += 1
                    self.expect("[")
                    names = [self._var_name()]
                    while self.tokens[self.pos] == ",":
                        self.pos += 1
                        names.append(self._var_name())
                    self.expect("]")
                    self.expect(":")
                    self.bound.extend(names)
                    prefixes += [partial(Forall if tok == "!" else Exists, n) for n in names]
                elif tok == "(":
                    self.pos += 1
                    out = self.parse_formula()
                    self.expect(")")
                    break
                elif tok:
                    out = self._parse_atom()
                    break
                else:
                    raise self.error("expected a formula", self.pos)
            del self.bound[scope:]
            for wrap in reversed(prefixes):
                out = wrap(out)
            return out

    parser = Parser(text, tokenize(text))
    out = parser.parse_formula()
    parser.expect_end()
    return out


def ref_sterm_to_term(sexp):
    """An s-expression read as a term, every symbol a function symbol."""
    if isinstance(sexp, str):
        return App(sexp, ())
    return App(sexp[0], tuple(ref_sterm_to_term(a) for a in sexp[1:]))


def ref_collapse_term(t, names):
    """`t` with each outermost term whose head `names` maps replaced by the
    variable it maps that head to."""
    if isinstance(t, Var):
        return t
    if t.head in names:
        return Var(names[t.head])
    return App(t.head, tuple(ref_collapse_term(a, names) for a in t.args))


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
# `exproof.notation.tokenize` and the s-expression pattern of `exproof.verit`
# must produce what these produce, errors and their locations included.
# The tokens are those of the old `Token` dataclass (kind, text, line, col),
# as a tuple, where a quoted name's text is what stands between its quotes;
# the s-expression tokens were (text, line, col).  Both lists end in a
# sentinel of empty text placed where the last token ends.

_PUNCT2 = ("=>", "!=")
_PUNCT1 = "()[]:,.~&|!?="


def ref_tokenize(text):
    from exproof.notation import ParseError

    tokens = []
    i, line, col = 0, 1, 1
    end = (1, 1)
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
        elif c in _PUNCT1:
            tokens.append((c, c, line, col))
            i, col = i + 1, col + 1
        elif c == "'":
            j = text.find("'", i + 1)
            if j < 0:
                raise ParseError("unterminated quoted name", line, col)
            tokens.append(("quoted", text[i + 1 : j], line, col))
            word = text[i : j + 1]
            if "\n" in word:  # a quoted name may span lines
                line += word.count("\n")
                col = len(word) - word.rfind("\n")
            else:
                col += len(word)
            i = j + 1
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], line, col))
            col += j - i
            i = j
        elif c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("num", text[i:j], line, col))
            col += j - i
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
        end = (line, col)
    return tokens + [("", "", *end)]


def ref_sexp_tokenize(text):
    """Parentheses and atoms; before the first of them, a line whose first
    character other than a blank is `%` is a comment.  An atom that starts
    with `|` runs to the next `|`, and one that starts with `"` to the next
    `"` not doubled; any other atom stops before a blank, a parenthesis, `|`
    or `"`."""
    from exproof.notation import ParseError
    tokens = []
    i, line, col = 0, 1, 1
    end = (1, 1)
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if c.isspace():
            i, col = i + 1, col + 1
            continue
        if c == "%" and not tokens:
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c in "()":
            tokens.append((c, line, col))
            i, col = i + 1, col + 1
        elif c in '|"':
            j = i + 1
            while j < n and (text[j] != c or c == '"' and text[j + 1 : j + 2] == '"'):
                j += 2 if text[j] == c else 1
            if j >= n:
                what = "quoted symbol" if c == "|" else "string literal"
                raise ParseError(f"unterminated {what}", line, col)
            word = text[i : j + 1]
            tokens.append((word, line, col))
            if "\n" in word:
                line += word.count("\n")
                col = len(word) - word.rfind("\n")
            else:
                col += len(word)
            i = j + 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in '()|"':
                j += 1
            tokens.append((text[i:j], line, col))
            col += j - i
            i = j
        end = (line, col)
    return tokens + [("", *end)]


# --- literal matching up to order and equality orientation ---
#
# The backtracking search the importers used before they read equality
# instances off the clause directly.  It keeps its capped length and its
# recursion; tests only call it on short clauses.


def _ref_match(p, t, bindings):
    """One-sided matching of a term or atom; extends a copy of `bindings`."""
    if isinstance(p, Var):
        if p.name in bindings:
            return bindings if bindings[p.name] == t else None
        return {**bindings, p.name: t}
    if type(p) is not type(t) or len(p.args) != len(t.args):
        return None
    if (p.head if isinstance(p, App) else p.pred) != (t.head if isinstance(t, App) else t.pred):
        return None
    for pa, ta in zip(p.args, t.args):
        bindings = _ref_match(pa, ta, bindings)
        if bindings is None:
            return None
    return bindings


REF_PERMUTATION_LIMIT = 8


def ref_match_literals(pattern, clause, allow_flips):
    """(bindings, permutation, flipped clause positions) of the first match,
    depth first, of the pattern literals onto the clause literals in any
    order, or None.  Pattern literal i tries clause literals in order, each
    as written and then, with `allow_flips`, with an equality's sides
    swapped.  Beyond the limit only position i is tried for literal i."""
    n = len(pattern)
    if len(clause) != n:
        return None
    used = [False] * n
    perm = [0] * n
    flips = set()

    def signed(lit):  # (positive, atom) of an atom or a negated atom
        return (False, lit.sub) if isinstance(lit, Neg) else (True, lit)

    def solve(i, bindings):
        if i == n:
            return bindings
        pat_positive, pat_atom = signed(pattern[i])
        for j in (i,) if n > REF_PERMUTATION_LIMIT else range(n):
            positive, lit_atom = signed(clause[j])
            if used[j] or positive != pat_positive:
                continue
            options = [(lit_atom, False)]
            if allow_flips and pat_atom.pred == "=" and lit_atom.pred == "=":
                options.append((Atom("=", lit_atom.args[::-1]), True))
            for atom, flipped in options:
                extended = _ref_match(pat_atom, atom, bindings)
                if extended is None:
                    continue
                used[j] = True
                perm[i] = j
                if flipped:
                    flips.add(j)
                result = solve(i + 1, extended)
                if result is not None:
                    return result
                used[j] = False
                flips.discard(j)
        return None

    bindings = solve(0, {})
    if bindings is None:
        return None
    return bindings, tuple(perm), tuple(sorted(flips))
