"""Seeded trace generators for the exproof benchmark.

Every generator returns a `Trace`: the file text plus an `Expected` record
that says what the program must answer for it.  The expectations come from
how the trace was built, not from running exproof: the verdict, the deep
sequent (used to check counterexamples with `evaluate`), the cycle witness,
the import report, the dependency-graph size and the shallow sequent.

Formulas and terms are plain tuples here, independent of `exproof.core`:

    term    := ("v", name) | ("f", head, (term, ...))
    formula := ("atom", pred, (term, ...)) | ("not", f)
             | ("and", f, g) | ("or", f, g) | ("imp", f, g)
             | ("all", var, f) | ("ex", var, f)
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

EQ = "="
SKOLEM_PREFIX = "sk"  # the default --skolem-prefix of exproof


# ---------------------------------------------------------------------------
# formula constructors and printers


def fn(head: str, *args) -> tuple:
    return ("f", head, tuple(args))


def var(name: str) -> tuple:
    return ("v", name)


def atom(pred: str, *args) -> tuple:
    return ("atom", pred, tuple(args))


def eq(left, right) -> tuple:
    return atom(EQ, left, right)


def neg(f) -> tuple:
    return ("not", f)


def conj(f, g) -> tuple:
    return ("and", f, g)


def imp(f, g) -> tuple:
    return ("imp", f, g)


def forall(v: str, f) -> tuple:
    return ("all", v, f)


def exists(v: str, f) -> tuple:
    return ("ex", v, f)


def term_str(t) -> str:
    if t[0] == "v" or not t[2]:
        return t[1]
    return f"{t[1]}({', '.join(term_str(a) for a in t[2])})"


def atom_key(a) -> str:
    """How exproof names an atom in a counterexample (`a = b`, `p(x, y)`)."""
    _, pred, args = a
    if pred == EQ:
        return f"{term_str(args[0])} = {term_str(args[1])}"
    if not args:
        return pred
    return f"{pred}({', '.join(term_str(x) for x in args)})"


def _sexp_term(t) -> str:
    if not t[2]:
        return t[1]
    return f"({t[1]} {' '.join(_sexp_term(a) for a in t[2])})"


def sexp_literal(a, positive: bool) -> str:
    """A literal in the resolution-trace s-expression syntax."""
    _, pred, args = a
    body = f"({pred} {' '.join(_sexp_term(x) for x in args)})" if args else pred
    return body if positive else f"(not {body})"


def tptp_literal(a, positive: bool) -> str:
    """A literal in the connection-trace notation (`~p(X)`, `a = b`)."""
    text = atom_key(a).replace(", ", ",")
    return text if positive else f"~{text}"


def tptp_formula(f) -> str:
    kind = f[0]
    if kind == "atom":
        return tptp_literal(f, True)
    if kind == "not":
        return f"~({tptp_formula(f[1])})"
    if kind in ("all", "ex"):
        mark = "!" if kind == "all" else "?"
        return f"{mark}[{f[1]}]: {tptp_formula(f[2])}"
    op = {"and": "&", "or": "|", "imp": "=>"}[kind]
    return f"({tptp_formula(f[1])} {op} {tptp_formula(f[2])})"


def alpha_key(f, bound: tuple = ()) -> str:
    """Canonical text of a formula with bound variables numbered by binder
    depth, so alpha-equivalent formulas share a key."""
    kind = f[0]
    if kind == "atom":
        return atom_key(("atom", f[1], tuple(_alpha_term(a, bound) for a in f[2])))
    if kind == "not":
        return f"~{alpha_key(f[1], bound)}"
    if kind in ("all", "ex"):
        return f"{kind}.{alpha_key(f[2], bound + (f[1],))}"
    return f"({alpha_key(f[1], bound)} {kind} {alpha_key(f[2], bound)})"


def _alpha_term(t, bound: tuple):
    if t[0] == "v":
        if t[1] in bound:
            # innermost binder wins
            return ("v", f"#{len(bound) - 1 - bound[::-1].index(t[1])}")
        return t
    return ("f", t[1], tuple(_alpha_term(a, bound) for a in t[2]))


def evaluate(f, assignment: dict[str, bool]) -> bool:
    """Truth value of a quantifier-free formula; atoms are looked up by
    `atom_key`, so a missing atom raises KeyError."""
    kind = f[0]
    if kind == "atom":
        return assignment[atom_key(f)]
    if kind == "not":
        return not evaluate(f[1], assignment)
    if kind == "and":
        return evaluate(f[1], assignment) and evaluate(f[2], assignment)
    if kind == "or":
        return evaluate(f[1], assignment) or evaluate(f[2], assignment)
    if kind == "imp":
        return (not evaluate(f[1], assignment)) or evaluate(f[2], assignment)
    raise ValueError(f"quantifier in a deep formula: {f!r}")


# ---------------------------------------------------------------------------
# expectations


@dataclass(frozen=True)
class Expected:
    is_proof: bool
    tautology: bool
    acyclic: bool
    # deep sequent as (antecedent, succedent) lists; each weak node's
    # instances are listed as separate formulas, which is the same sequent
    deep: Optional[tuple[tuple, tuple]] = None
    cycle: Optional[tuple[str, ...]] = None  # node ids, up to rotation
    report: Optional[dict] = None
    dep_nodes: Optional[int] = None
    dep_edges: Optional[int] = None
    shallow: Optional[tuple[tuple, tuple]] = None

    @property
    def status(self) -> str:
        """The `exproof batch` status of the file."""
        return "proof" if self.is_proof else "not-proof"


@dataclass(frozen=True)
class Trace:
    name: str  # file name
    text: str
    expect: Expected


def _tag(rng: random.Random, used: set[str]) -> str:
    """A fresh two-letter name stem.  It never starts with `s` (Skolem
    heads), `d` (definition predicates) or `v` (eigenvariables)."""
    while True:
        t = rng.choice("abcefghkmnqtwz") + rng.choice("abcefghkmnqtwz")
        if t not in used:
            used.add(t)
            return t


# ---------------------------------------------------------------------------
# resolution traces: one transitivity chain


TRANSITIVITY_SCHEMA = forall(
    "x0",
    forall(
        "x1",
        forall(
            "x2",
            imp(conj(eq(var("x0"), var("x1")), eq(var("x1"), var("x2"))), eq(var("x0"), var("x2"))),
        ),
    ),
)


def verit_chain(rng: random.Random, n: int, name: str, missing: Optional[int] = None) -> Trace:
    """A refutation of the inputs `a_k = a_{k+1}` (k < n) and `~(a_0 = a_n)`
    by the `eq_transitive` leaves `a_0=a_k, a_k=a_{k+1} -> a_0=a_{k+1}`.

    With `missing=j` the input `a_j = a_{j+1}` is left out, so the deep
    sequent is falsifiable.  Seeded variants change the constant names' stem, the
    position of the positive literal in each leaf, the orientation of each
    leaf's `a_k = a_{k+1}` literal, and, consistently in both leaves that
    share it, the orientation of each inner `a_0 = a_k`.

    Two variants are left out because exproof judges them wrongly: a leaf
    whose `a_k = a_{k+1}` premise comes before its `a_0 = a_k` premise, and
    inputs or goal written in the reverse orientation.  Both are valid
    refutations; the importer matches such a leaf in the other direction
    and its instance no longer shares atoms with the inputs.
    """
    if n < 2:
        raise ValueError("a transitivity chain needs at least two links")
    # exproof orders a weak node's instances by their text, and the DPLL
    # time depends on that order; names `<stem><i>` sort the same way for
    # every stem, so all chains of one length do the same work
    stem = _tag(rng, set())
    a = [fn(f"{stem}{i}") for i in range(n + 1)]
    # a_0 = a_k written reversed; a_0 = a_1 and a_0 = a_n are also inputs
    flip_a0 = [2 <= k < n and rng.random() < 0.5 for k in range(n + 1)]
    flip_link = [rng.random() < 0.5 for _ in range(n)]  # leaf k writes a_{k+1} = a_k
    positive_at = [rng.randrange(3) for _ in range(n)]

    def a0_atom(k: int) -> tuple:
        return eq(a[k], a[0]) if flip_a0[k] else eq(a[0], a[k])

    lines = []
    inputs = []
    for k in range(n):
        if k != missing:
            inputs.append((f"i{k}", eq(a[k], a[k + 1]), True))
    inputs.append(("g", eq(a[0], a[n]), False))
    for sid, at, pos in inputs:
        lines.append(f"(set .{sid} (input :conclusion ({sexp_literal(at, pos)})))")
    flips = 0
    deep_ant = [at if pos else neg(at) for _, at, pos in inputs]
    previous = "i0" if missing != 0 else None
    for k in range(1, n):
        link = eq(a[k + 1], a[k]) if flip_link[k] else eq(a[k], a[k + 1])
        lits = [sexp_literal(a0_atom(k), False), sexp_literal(link, False)]
        lits.insert(positive_at[k], sexp_literal(a0_atom(k + 1), True))
        flips += flip_link[k] + flip_a0[k] + flip_a0[k + 1]
        lines.append(f"(set .t{k} (eq_transitive :conclusion ({' '.join(lits)})))")
        premises = [p for p in (previous, f"i{k}" if k != missing else None, f"t{k}") if p]
        lines.append(
            f"(set .r{k} (resolution :clauses ({' '.join('.' + p for p in premises)}) "
            f":conclusion ({sexp_literal(eq(a[0], a[k + 1]), True)})))"
        )
        previous = f"r{k}"
        deep_ant.append(imp(conj(eq(a[0], a[k]), eq(a[k], a[k + 1])), eq(a[0], a[k + 1])))
    lines.append(f"(set .end (resolution :clauses (.{previous} .g) :conclusion ()))")

    proof = missing is None
    expect = Expected(
        is_proof=proof,
        tautology=proof,
        acyclic=True,
        deep=(tuple(deep_ant), ()),
        report={"schema_instances": {"transitivity": n - 1}, "flips": flips, "reflexivity_terms": []},
        # x0 has one instance, x1 has n-1, and each x1 child one x2 instance
        dep_nodes=2 * n - 1,
        dep_edges=0,
        shallow=(tuple(at if pos else neg(at) for _, at, pos in inputs) + (TRANSITIVITY_SCHEMA,), ()),
    )
    return Trace(name, "\n".join(lines) + "\n", expect)


# ---------------------------------------------------------------------------
# connection traces


def _cnf(number, lits: list[str], origin: str) -> str:
    return f"cnf({number}, plain, [{', '.join(lits)}], {origin})."


def leancop_chain(rng: random.Random, n: int, name: str, variant: str = "proof") -> Trace:
    """A connection proof of `?[Z]: p_n(Z)` from `![X]: p_0(X)` and the
    axioms `![X]: (p_{i-1}(X) => ?[Y]: (r_i(X,Y) & p_i(Y)))`, i = 1..n.

    Axiom i is instantiated with the Skolem term of axiom i-1 (axiom 1 and
    the base with a constant), so each axiom's eigenvariable feeds the next
    instance: the dependency relation is a path of n edges.

    variant "broken": one axiom is instantiated with an unrelated constant,
    a missing link, so the deep sequent is falsifiable.
    variant "loop": the base and axiom 1 take the last axiom's Skolem term;
    the deep sequent stays a tautology but the dependency relation has the
    cycle axiom 1 -> ... -> axiom n -> axiom 1.
    """
    if variant not in ("proof", "broken", "loop"):
        raise ValueError(f"unknown variant {variant!r}")
    used: set[str] = set()
    p_stem, r_stem, c_stem, k_stem = (_tag(rng, used) for _ in range(4))
    v_letter, w_letter = rng.sample("UVW", 2)
    p = [f"{p_stem}{i}" for i in range(n + 1)]
    r = [None] + [f"{r_stem}{i}" for i in range(1, n + 1)]
    sk = [None] + [f"{SKOLEM_PREFIX}{k_stem}{i}" for i in range(1, n + 1)]
    cvar = [None] + [var(f"{v_letter}{i}") for i in range(1, n + 1)]
    base_var, goal_var = var(f"{w_letter}0"), var(f"{w_letter}1")
    c = fn(c_stem)
    broken_at = rng.randrange(1, n + 1) if variant == "broken" else None
    stray = fn(c_stem + "x")

    def skolem(i: int) -> tuple:  # the Skolem term of axiom i, over its clause variable
        return fn(sk[i], cvar[i])

    def eigen(i: int) -> tuple:  # what the importer turns that Skolem term into
        return var(f"v_{sk[i]}")

    # instance term (trace binding, expected instance) of the base's and
    # each axiom's X
    base_bind = (skolem(n), eigen(n)) if variant == "loop" else (c, c)
    bind = {1: base_bind}
    for i in range(2, n + 1):
        bind[i] = (skolem(i - 1), eigen(i - 1))
    if broken_at is not None:
        bind[broken_at] = (stray, stray)

    X, Y, Z = var("X"), var("Y"), var("Z")
    base_f = forall("X", atom(p[0], X))
    ax_f = [None] + [
        forall("X", imp(atom(p[i - 1], X), exists("Y", conj(atom(r[i], X, Y), atom(p[i], Y)))))
        for i in range(1, n + 1)
    ]
    goal_f = exists("Z", atom(p[n], Z))
    lines = [f"fof(base, axiom, {tptp_formula(base_f)})."]
    lines += [f"fof(ax{i}, axiom, {tptp_formula(ax_f[i])})." for i in range(1, n + 1)]
    lines.append(f"fof(goal, conjecture, {tptp_formula(goal_f)}).")

    def ordered(lits: list[str]) -> list[str]:
        return lits[::-1] if rng.random() < 0.5 else lits

    # (literals, source formula, axiom index of a p-clause)
    clauses = [([tptp_literal(atom(p[0], base_var), False)], "base", None)]
    for i in range(1, n + 1):
        head = tptp_literal(atom(p[i - 1], cvar[i]), True)
        clauses.append((ordered([head, tptp_literal(atom(r[i], cvar[i], skolem(i)), False)]), f"ax{i}", None))
        clauses.append((ordered([head, tptp_literal(atom(p[i], skolem(i)), False)]), f"ax{i}", i))
    clauses.append(([tptp_literal(atom(p[n], goal_var), True)], "goal", None))
    rng.shuffle(clauses)
    number_of: dict = {}
    for number, (lits, source, axiom) in enumerate(clauses, start=1):
        lines.append(_cnf(number, lits, f"clausify({source})"))
        number_of[axiom or source] = number

    goal_term = (skolem(n), eigen(n))
    lines.append(
        _cnf("'s0'", [tptp_literal(atom(p[n], goal_term[0]), True)],
             f"start({number_of['goal']}, bind([{goal_var[1]}], [{term_str(goal_term[0])}]))")
    )
    for i in range(n, 0, -1):
        t = bind[i][0]
        lits = [tptp_literal(atom(p[i - 1], t), True), tptp_literal(atom(p[i], skolem(i)), False)]
        lines.append(
            _cnf(f"'e{i}'", lits, f"extension({number_of[i]}, bind([{cvar[i][1]}], [{term_str(t)}]))")
        )
    lines.append(
        _cnf("'e0'", [tptp_literal(atom(p[0], base_bind[0]), False)],
             f"extension({number_of['base']}, bind([{base_var[1]}], [{term_str(base_bind[0])}]))")
    )

    deep_ant = [atom(p[0], base_bind[1])]
    for i in range(1, n + 1):
        t = bind[i][1]
        deep_ant.append(imp(atom(p[i - 1], t), conj(atom(r[i], t, eigen(i)), atom(p[i], eigen(i)))))
    deep = (tuple(deep_ant), (atom(p[n], goal_term[1]),))

    # dependency edges: axiom i's instance dominates eigen(i); an edge runs
    # to every instance term that mentions it
    terms = [base_bind[1]] + [bind[i][1] for i in range(1, n + 1)] + [goal_term[1]]
    edges = sum(1 for i in range(1, n + 1) for t in terms if t == eigen(i))
    cycle = tuple(f"ant[{i}].0" for i in range(1, n + 1)) if variant == "loop" else None
    expect = Expected(
        is_proof=variant == "proof",
        tautology=variant != "broken",
        acyclic=variant != "loop",
        deep=deep,
        cycle=cycle,
        report={
            "matched_clauses": len(clauses),
            "unmatched": [],
            "instances_per_formula": {"base": 1, **{f"ax{i}": 1 for i in range(1, n + 1)}, "goal": 1},
            "skolem_map": {sk[i]: f"v_{sk[i]}" for i in range(1, n + 1)},
        },
        dep_nodes=n + 2,
        dep_edges=edges,
        shallow=((base_f,) + tuple(ax_f[1:]), (goal_f,)),
    )
    return Trace(name, "\n".join(lines) + "\n", expect)


def quantifier_shift(rng: random.Random, name: str) -> Trace:
    """The unsound quantifier shift `![X]: ?[Y]: r(X,Y) |- ?[Y]: ![X]: r(X,Y)`
    as a connection trace that ignores the occurs check.  Its deep sequent
    `r(e2,e1) |- r(e2,e1)` is a tautology; its two instances depend on each
    other, a cycle of length two."""
    used: set[str] = set()
    r_stem, k_stem = _tag(rng, used), _tag(rng, used)
    rel = f"{r_stem}{rng.randrange(100)}"
    s1, s2 = f"{SKOLEM_PREFIX}{k_stem}1", f"{SKOLEM_PREFIX}{k_stem}2"
    u, w = (f"{letter}{rng.randrange(1, 100)}" for letter in rng.sample("UVW", 2))
    X, Y = var("X"), var("Y")
    ax_f = forall("X", exists("Y", atom(rel, X, Y)))
    goal_f = exists("Y", forall("X", atom(rel, X, Y)))
    t1, t2 = f"{s1}({u})", f"{s2}({w})"
    lines = [
        f"fof(ax, axiom, {tptp_formula(ax_f)}).",
        f"fof(goal, conjecture, {tptp_formula(goal_f)}).",
        f"cnf(1, plain, [~{rel}({u},{t1})], clausify(ax)).",
        f"cnf(2, plain, [{rel}({t2},{w})], clausify(goal)).",
        f"cnf('s1', plain, [{rel}({t2},{t1})], start(2, bind([{w}], [{t1}]))).",
        f"cnf('e1', plain, [~{rel}({t2},{t1})], extension(1, bind([{u}], [{t2}]))).",
    ]
    e1, e2 = var(f"v_{s1}"), var(f"v_{s2}")
    expect = Expected(
        is_proof=False,
        tautology=True,
        acyclic=False,
        deep=((atom(rel, e2, e1),), (atom(rel, e2, e1),)),
        cycle=("ant[0].0", "suc[0].0"),
        report={
            "matched_clauses": 2,
            "unmatched": [],
            "instances_per_formula": {"ax": 1, "goal": 1},
            "skolem_map": {s1: f"v_{s1}", s2: f"v_{s2}"},
        },
        dep_nodes=2,
        dep_edges=2,
        shallow=((ax_f,), (goal_f,)),
    )
    return Trace(name, "\n".join(lines) + "\n", expect)


# ---------------------------------------------------------------------------
# the fixture files shipped with the repository's tests

_A, _B, _C = fn("a"), fn("b"), fn("c")
FIXTURES = {
    "leancop_exists.proof": Expected(True, True, True),
    "leancop_simple.proof": Expected(True, True, True),
    "leancop_skolem.proof": Expected(True, True, True),
    "verit_congruence.proof": Expected(True, True, True),
    "verit_not_proof.proof": Expected(
        False, False, True, deep=((eq(_A, _B), eq(_B, _C), neg(eq(_A, _C))), ())
    ),
    "verit_propositional.proof": Expected(True, True, True),
    "verit_reflexivity.proof": Expected(True, True, True),
    "verit_transitivity.proof": Expected(True, True, True),
}


# ---------------------------------------------------------------------------
# workloads

VERIT_LINKS = 400
LEANCOP_AXIOMS = 600
CHAIN_TRACES = 2
MIXED_SIZES = [2 + (48 * i) // 23 for i in range(24)]  # 24 sizes from 2 to 50
MIXED_SHIFTS = 8


def workload(name: str, seed: int) -> list[Trace]:
    """The generated traces of a workload (the fixture files of the
    mixed corpus are added by the runner).  Traces of one chain workload
    all have the same size, so a median over them never jumps between
    size classes."""
    rng = random.Random(f"{name}/{seed}")
    if name == "verit-eqchain":
        return [verit_chain(rng, VERIT_LINKS, f"eqchain-{i}.proof") for i in range(CHAIN_TRACES)]
    if name == "leancop-eigenchain":
        return [leancop_chain(rng, LEANCOP_AXIOMS, f"eigenchain-{i}.proof") for i in range(CHAIN_TRACES)]
    if name == "mixed-corpus":
        traces = []
        for size in MIXED_SIZES:
            for i in range(3):
                traces.append(verit_chain(rng, size, f"v{size:02d}-proof{i}.proof"))
                traces.append(leancop_chain(rng, size, f"l{size:02d}-proof{i}.proof"))
            traces.append(verit_chain(rng, size, f"v{size:02d}-broken.proof", missing=rng.randrange(size)))
            traces.append(leancop_chain(rng, size, f"l{size:02d}-broken.proof", "broken"))
            traces.append(leancop_chain(rng, size, f"l{size:02d}-loop.proof", "loop"))
        traces += [quantifier_shift(rng, f"shift{i}.proof") for i in range(MIXED_SHIFTS)]
        return traces
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("verit-eqchain", "leancop-eigenchain", "mixed-corpus")
