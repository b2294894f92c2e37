"""Seeded random generators for formulas, instance sets and deep sequents."""
import random

from exproof.core import (
    And,
    App,
    Atom,
    Exists,
    Forall,
    Imp,
    Neg,
    Or,
    Polarity,
    Sequent,
    Strength,
    Subst,
    Var,
    quantifier_strengths,
    rectify,
)
from exproof.expansion import expand_formula


def const(name: str) -> App:
    return App(name, ())


def eq(left, right) -> Atom:
    return Atom("=", (left, right))


GROUND_TERMS = [
    const("a"),
    const("b"),
    const("c"),
    App("f", (const("a"),)),
    App("f", (const("b"),)),
    App("g", (const("a"), const("c"))),
]


def random_term(rng: random.Random, scope):
    roll = rng.random()
    if scope and roll < 0.5:
        return Var(rng.choice(scope))
    if roll < 0.85:
        return rng.choice(GROUND_TERMS[:3])
    return App("f", (random_term(rng, scope),))


def random_wide_term(rng: random.Random, depth: int, scope=(), heads=("f", "g", "h", "sk1", "sk2")):
    """A term at most `depth` deep whose applications take one to three
    arguments, over the variables in `scope` and the constants a, b, c."""
    if depth <= 0 or rng.random() < 0.3:
        return Var(rng.choice(scope)) if scope and rng.random() < 0.5 else rng.choice(GROUND_TERMS[:3])
    arity = rng.randint(1, 3)
    return App(rng.choice(heads), tuple(random_wide_term(rng, depth - 1, scope, heads) for _ in range(arity)))


def random_formula(rng: random.Random, depth: int, scope=(), var_pool=("X", "Y", "Z", "W")):
    """Random formula of depth <= `depth` over at most len(var_pool) variables."""
    scope = list(scope)
    if depth <= 0 or rng.random() < 0.25:
        pred, arity = rng.choice((("p", 1), ("q", 2), ("r", 0), ("s", 1)))
        return Atom(pred, tuple(random_term(rng, scope) for _ in range(arity)))
    kind = rng.choice(("neg", "and", "or", "imp", "forall", "exists"))
    if kind == "neg":
        return Neg(random_formula(rng, depth - 1, scope, var_pool))
    if kind in ("and", "or", "imp"):
        cls = {"and": And, "or": Or, "imp": Imp}[kind]
        return cls(
            random_formula(rng, depth - 1, scope, var_pool),
            random_formula(rng, depth - 1, scope, var_pool),
        )
    var = rng.choice(var_pool)
    cls = Forall if kind == "forall" else Exists
    return cls(var, random_formula(rng, depth - 1, scope + [var], var_pool))


def random_instances(rng: random.Random, formula, polarity: Polarity, weak_terms=()):
    """A valid instance set: every strong variable pinned to one fresh
    eigenvariable, weak variables given 1-3 terms from GROUND_TERMS plus
    `weak_terms` (pass eigenvariable terms to get dependency edges)."""
    pool = GROUND_TERMS + list(weak_terms)
    strengths = quantifier_strengths(formula, polarity)
    eigens = {}
    for i, (v, s) in enumerate(sorted(strengths.items())):
        if s is Strength.STRONG:
            eigens[v] = Var(f"E{i}")
    sigmas = []
    for _ in range(rng.randint(1, 3)):
        bindings = {}
        for v, s in strengths.items():
            bindings[v] = eigens[v] if s is Strength.STRONG else rng.choice(pool)
        sigma = Subst(bindings)
        if sigma not in sigmas:
            sigmas.append(sigma)
    return sigmas


# weak instance terms built from the eigenvariables `random_instances` pins
# strong variables to, so that expansion sequents get dependency edges
EIGEN_TERMS = [Var("E0"), Var("E1"), App("f", (Var("E2"),)), Var("E3")]


def random_expansion_sequent(rng: random.Random) -> Sequent:
    """An expansion sequent of one to four random formulas, each on a random
    side of a rectified sequent and expanded from a valid instance set whose
    weak terms may mention eigenvariables (`EIGEN_TERMS`)."""
    sides = [rng.randrange(2) for _ in range(rng.randint(1, 4))]
    raw = [random_formula(rng, rng.randint(1, 5)) for _ in sides]
    sequent = rectify(
        Sequent(
            tuple(f for f, s in zip(raw, sides) if s == 0),
            tuple(f for f, s in zip(raw, sides) if s == 1),
        )
    )
    return Sequent(
        tuple(
            expand_formula(f, random_instances(rng, f, Polarity.NEG, EIGEN_TERMS), Polarity.NEG)
            for f in sequent.antecedent
        ),
        tuple(
            expand_formula(f, random_instances(rng, f, Polarity.POS, EIGEN_TERMS), Polarity.POS)
            for f in sequent.succedent
        ),
    )


def random_qf_formula(rng: random.Random, atoms, depth: int):
    if depth <= 0 or rng.random() < 0.35:
        return rng.choice(atoms)
    kind = rng.choice(("neg", "and", "or", "imp"))
    if kind == "neg":
        return Neg(random_qf_formula(rng, atoms, depth - 1))
    cls = {"and": And, "or": Or, "imp": Imp}[kind]
    return cls(random_qf_formula(rng, atoms, depth - 1), random_qf_formula(rng, atoms, depth - 1))


ATOM_POOL = [Atom(f"p{i}", ()) for i in range(9)] + [
    Atom("=", (const("a"), const("b"))),
    Atom("=", (const("b"), const("c"))),
    Atom("=", (const("a"), const("c"))),
]


def random_deep_sequent(rng: random.Random, max_atoms: int = 12) -> Sequent:
    n_atoms = rng.randint(1, max_atoms)
    atoms = rng.sample(ATOM_POOL, min(n_atoms, len(ATOM_POOL)))
    n_ant = rng.randint(0, 3)
    n_suc = rng.randint(0, 3)
    depth = rng.randint(1, 3)
    return Sequent(
        tuple(random_qf_formula(rng, atoms, depth) for _ in range(n_ant)),
        tuple(random_qf_formula(rng, atoms, depth) for _ in range(n_suc)),
    )


def random_graph(rng: random.Random, max_nodes: int = 10):
    n = rng.randint(1, max_nodes)
    edges = set()
    for _ in range(rng.randint(0, 2 * n)):
        edges.add((rng.randrange(n), rng.randrange(n)))
    return n, edges
