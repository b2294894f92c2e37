import random

import hypothesis.strategies as st
from hypothesis import given

from exproof.check import (
    DependencyGraph,
    TermOccurrence,
    _dpll,
    deep_sequent,
    dependency_relation,
    is_acyclic,
    is_tautology,
    verdict,
)
from conftest import FIXTURES, load_bench_gen
from exproof.cli import RunConfig, load_sequent
from exproof.core import And, App, Atom, ExproofError, Imp, Neg, Or, Sequent, Var
from exproof.expansion import ETStrong, ETWeak
from exproof.notation import parse_formula, sequent_text
from oracles import (
    eval_sequent,
    has_cycle_bruteforce,
    ref_dependency_relation,
    ref_is_tautology,
    ref_shortest_cycle,
    rescan_dpll,
    sequent_atoms,
    taut_oracle,
)
from randgen import const, eq, random_deep_sequent, random_expansion_sequent, random_graph

P = lambda t: Atom("p", (t,))
a, b, c = const("a"), const("b"), const("c")
A, B = Var("A"), Var("B")


def drinker_sequent() -> Sequent:
    """succedent tree for ?[X]: (p(X) => ![Y]: p(Y)) with instances c, A."""
    body = parse_formula("p(X) => ![Y]: p(Y)", extra_vars={"X"})
    child1 = Imp(P(c), ETStrong("Y", P(Var("Y")), "A", P(A)))
    child2 = Imp(P(A), ETStrong("Y", P(Var("Y")), "B", P(B)))
    return Sequent((), (ETWeak("X", body, ((c, child1), (A, child2))),))


def crossed_sequent() -> Sequent:
    """Two antecedent trees whose instances use each other's eigenvariables."""

    def tree(outer, inner, eigen, instance, pred):
        atom = Atom(pred, (instance, Var(eigen)))
        strong = ETStrong(inner, Atom(pred, (instance, Var(inner))), eigen, atom)
        shallow_body = parse_formula(f"?[{inner}]: {pred}({outer}, {inner})", extra_vars={outer})
        return ETWeak(outer, shallow_body, ((instance, strong),))

    t1 = tree("X", "U", "A", B, "r")  # X := B, eigenvariable A
    t2 = tree("Y", "V", "B", A, "s")  # Y := A, eigenvariable B
    return Sequent((t1, t2), ())


# --- deep sequent ---


def test_deep_sequent_single_instance():
    es = Sequent((ETWeak("X", P(Var("X")), ((c, P(c)),)),), (P(c),))
    assert deep_sequent(es) == Sequent((P(c),), (P(c),))


def test_deep_sequent_empty():
    assert deep_sequent(Sequent()) == Sequent()


def test_deep_sequent_drinker():
    ds = deep_sequent(drinker_sequent())
    assert sequent_text(ds) == "⊢ ((p(c) => p(A)) | (p(A) => p(B)))"


# --- tautology ---


def test_excluded_middle():
    ds = Sequent((), (parse_formula("p(a) | ~p(a)"),))
    assert is_tautology(ds) == (True, None)


def test_transitivity_instance_makes_tautology():
    ds = Sequent(
        (eq(a, b), eq(b, c), parse_formula("(a = b & b = c) => a = c")),
        (eq(a, c),),
    )
    assert is_tautology(ds) == (True, None)


def test_equality_is_opaque_without_axiom():
    ds = Sequent((eq(a, b), eq(b, c)), (eq(a, c),))
    ok, assignment = is_tautology(ds)
    assert not ok
    assert assignment == {"a = b": True, "b = c": True, "a = c": False}


def test_empty_sequent_is_not_tautology():
    assert is_tautology(Sequent()) == (False, {})


def test_tautology_agrees_with_truth_table_seeded():
    rng = random.Random(424242)
    for i in range(300):
        ds = random_deep_sequent(rng)
        ours, assignment = is_tautology(ds)
        oracle, _ = taut_oracle(ds)
        assert ours == oracle, f"case {i}: {sequent_text(ds)}"
        if not ours:
            by_name = {str(atom): atom for atom in sequent_atoms(ds)}
            mapped = {by_name[k]: v for k, v in assignment.items()}
            assert eval_sequent(ds, mapped) is False, f"case {i}"


def _agrees_with_truth_table(checked: Sequent, ds: Sequent) -> None:
    """`is_tautology` of `checked`, whose deep sequent is `ds`, gives the
    truth table's answer, and a counterexample that falsifies `ds`."""
    ours, assignment = is_tautology(checked)
    assert ours == taut_oracle(ds)[0], sequent_text(ds)
    if not ours:
        by_name = {str(atom): atom for atom in sequent_atoms(ds)}
        assert eval_sequent(ds, {by_name[k]: v for k, v in assignment.items()}) is False, sequent_text(ds)


@given(st.integers(0, 2**32 - 1))
def test_tautology_agrees_with_truth_table(seed):
    # a quantifier-free sequent, and an expansion sequent whose trees the
    # check reads directly, when its deep sequent is small enough to tabulate
    rng = random.Random(seed)
    ds = random_deep_sequent(rng)
    _agrees_with_truth_table(ds, ds)
    es = random_expansion_sequent(rng)
    deep = deep_sequent(es)
    if len(sequent_atoms(deep)) <= 12:
        _agrees_with_truth_table(es, deep)


def test_tautology_matches_rescan_dpll_seeded():
    # the watched-literal solver must return exactly what the rescanning
    # solver it replaced returns, counterexample included
    rng = random.Random(31337)
    for i in range(3000):
        ds = random_deep_sequent(rng, max_atoms=12)
        assert is_tautology(ds) == ref_is_tautology(ds), f"case {i}: {sequent_text(ds)}"


def test_dpll_matches_rescan_dpll_on_raw_clauses():
    # clause sets with repeated literals, tautological clauses and units,
    # none of which the Tseitin encoder emits often
    rng = random.Random(4049)
    for i in range(2000):
        nvars = rng.randint(1, 8)
        clauses = [
            [rng.choice((-1, 1)) * rng.randint(1, nvars) for _ in range(rng.randint(1, 4))]
            for _ in range(rng.randint(0, 20))
        ]
        ours = _dpll([list(c) for c in clauses], list(range(1, nvars + 1)))
        reference = rescan_dpll([list(c) for c in clauses], nvars)
        if reference is not None:
            reference = {v: reference[v] for v in range(1, nvars + 1)}
        assert ours == reference, f"case {i}: {clauses}"


def test_dpll_decides_in_the_given_order():
    # with a permuted decision order the model is the one the rescanning
    # solver finds on the clauses renumbered so that the order reads 1..n
    rng = random.Random(2718)
    for i in range(2000):
        nvars = rng.randint(1, 8)
        clauses = [
            [rng.choice((-1, 1)) * rng.randint(1, nvars) for _ in range(rng.randint(1, 4))]
            for _ in range(rng.randint(0, 20))
        ]
        order = rng.sample(range(1, nvars + 1), nvars)
        rank = {v: k for k, v in enumerate(order, 1)}
        renumbered = [[rank[abs(lit)] if lit > 0 else -rank[abs(lit)] for lit in c] for c in clauses]
        ours = _dpll([list(c) for c in clauses], order)
        reference = rescan_dpll(renumbered, nvars)
        if reference is not None:
            reference = {v: reference[rank[v]] for v in order}
        assert ours == reference, f"case {i}: {clauses} in order {order}"


def test_long_conjunction_does_not_recurse():
    # deep() folds the instances of a weak node into a left-nested chain
    atoms = [Atom(f"p{i}", ()) for i in range(5000)]
    chain = atoms[0]
    for atom in atoms[1:]:
        chain = And(chain, atom)
    assert is_tautology(Sequent((chain,), (atoms[-1],))) == (True, None)
    ok, counterexample = is_tautology(Sequent((chain,), ()))
    assert not ok and all(counterexample.values()) and len(counterexample) == 5000


def _trace_sequents(tmp_path) -> list[Sequent]:
    """The expansion sequents of the fixtures that import and of the seed-1
    traces of every benchmark workload."""
    gen = load_bench_gen()
    paths = sorted(FIXTURES.glob("*.proof"))
    for workload in gen.WORKLOADS:
        for trace in gen.workload(workload, 1):
            path = tmp_path / f"{workload}-{trace.name}"
            path.write_text(trace.text, encoding="utf-8")
            paths.append(path)
    sequents = []
    for path in paths:
        try:
            sequents.append(load_sequent(str(path), RunConfig("check", (str(path),)))[0])
        except ExproofError:
            pass
    return sequents


def test_tautology_read_from_the_trees_matches_the_deep_sequent(tmp_path):
    # the polarity-aware encoding of the trees must give the verdict and
    # counterexample that the full Tseitin encoding of the deep sequent gives
    rng = random.Random(1986)
    sequents = [random_expansion_sequent(rng) for _ in range(1500)] + _trace_sequents(tmp_path)
    falsifiable = 0
    for i, es in enumerate(sequents):
        ds = deep_sequent(es)
        ours = is_tautology(es)
        assert ours == ref_is_tautology(ds) == is_tautology(ds), f"case {i}: {sequent_text(ds)}"
        falsifiable += not ours[0]
    assert falsifiable >= 500  # counterexamples are compared, not only verdicts


# --- dependency relation ---


def test_no_strong_nodes_means_no_edges():
    es = Sequent((ETWeak("X", P(Var("X")), ((a, P(a)),)),), ())
    g = dependency_relation(es)
    assert len(g.nodes) == 1 and not g.edges


def test_drinker_dependency_single_edge():
    g = dependency_relation(drinker_sequent())
    ids = [n.node_id for n in g.nodes]
    assert ids == ["suc[0].0", "suc[0].1"]
    assert g.edges == frozenset({(0, 1)})  # c dominates A's node; A occurs in instance 2


def test_occurrences_compare_and_print_by_path():
    # the dependency walk keeps each occurrence's link, nested as deep as its
    # tree; its path and node id are built from the link when read
    link = ("ant", 0)
    for _ in range(3000):
        link = (link, 1)
    occ = TermOccurrence(link, a)
    assert occ.path == TermOccurrence(occ.path, a).path == ("ant", 0) + (1,) * 3000
    assert occ.node_id == "ant[0]" + ".1" * 3000


def test_crossed_dependency_two_cycle():
    g = dependency_relation(crossed_sequent())
    assert g.edges == frozenset({(0, 1), (1, 0)})
    ok, cycle = is_acyclic(g)
    assert not ok
    assert len(cycle) == 2


def test_strong_node_at_instance_child_is_dominated():
    # forall X exists Y r(X,Y): the strong node sits directly on the instance edge
    strong = ETStrong("Y", Atom("r", (a, Var("Y"))), "E", Atom("r", (a, Var("E"))))
    t1 = ETWeak("X", parse_formula("?[Y]: r(X, Y)", extra_vars={"X"}), ((a, strong),))
    t2 = ETWeak("Z", Atom("r", (a, Var("Z"))), ((Var("E"), Atom("r", (a, Var("E")))),))
    g = dependency_relation(Sequent((t1,), (t2,)))
    assert g.edges == frozenset({(0, 1)})


def test_dependency_relation_matches_pairwise_scan_seeded():
    rng = random.Random(6007)
    with_edges = 0
    for i in range(1500):
        es = random_expansion_sequent(rng)
        g = dependency_relation(es)
        occurrences, edges = ref_dependency_relation(es)
        assert [(n.path, n.term) for n in g.nodes] == occurrences, f"case {i}"
        assert g.edges == edges, f"case {i}"
        with_edges += bool(edges)
    assert with_edges >= 50  # the comparison is not vacuous


# --- acyclicity ---


def _graph_of(n, edges):
    nodes = tuple(TermOccurrence(("ant", i), const(f"t{i}")) for i in range(n))
    return DependencyGraph(nodes, frozenset(edges))


def test_acyclic_zero_edges():
    assert is_acyclic(_graph_of(3, set())) == (True, None)


def test_self_loop_is_a_cycle():
    ok, cycle = is_acyclic(_graph_of(1, {(0, 0)}))
    assert not ok and cycle == ("ant[0]",)


def test_acyclic_matches_bruteforce_seeded():
    rng = random.Random(777)
    for i in range(250):
        n, edges = random_graph(rng)
        ours, cycle = is_acyclic(_graph_of(n, edges))
        assert ours == (not has_cycle_bruteforce(n, edges)), f"case {i}: {n} {sorted(edges)}"
        if cycle is not None:
            assert len(cycle) >= 1


def test_acyclic_matches_bfs_from_every_node_seeded():
    rng = random.Random(9091)
    for i in range(2000):
        n, edges = random_graph(rng, max_nodes=12 if i % 2 else 40)
        g = _graph_of(n, edges)
        best = ref_shortest_cycle(n, edges)
        expected = (True, None) if best is None else (False, tuple(g.nodes[k].node_id for k in best))
        assert is_acyclic(g) == expected, f"case {i}: {n} {sorted(edges)}"


def test_long_dependency_chain_and_cycle():
    n = 5000
    path = _graph_of(n, {(k, k + 1) for k in range(n - 1)})
    assert is_acyclic(path) == (True, None)
    ring = {(k, (k + 1) % n) for k in range(n)}
    assert is_acyclic(_graph_of(n, ring)) == (False, tuple(f"ant[{k}]" for k in range(n)))
    chord = _graph_of(n, ring | {(10, 7)})
    assert is_acyclic(chord) == (False, ("ant[7]", "ant[8]", "ant[9]", "ant[10]"))


# --- verdict ---


def test_drinker_is_proof():
    v = verdict(drinker_sequent())
    assert v.is_proof and v.tautology and v.acyclic
    assert v.counterexample is None and v.cycle is None
    assert v.to_json() == {"is_proof": True, "tautology": True, "acyclic": True}


def test_opaque_equality_verdict_fails_tautology():
    es = Sequent((eq(a, b), eq(b, c)), (eq(a, c),))
    v = verdict(es)
    assert not v.is_proof and not v.tautology and v.acyclic
    assert v.counterexample is not None


def test_crossed_verdict_fails_acyclicity():
    # make the deep sequent trivially tautological but keep the cycle
    base = crossed_sequent()
    taut = Or(P(a), Neg(P(a)))
    es = Sequent(base.antecedent, (taut,))
    v = verdict(es)
    assert v.tautology and not v.acyclic and not v.is_proof
    assert v.cycle is not None and len(v.cycle) == 2
    assert "cycle" in v.to_json() and "counterexample" not in v.to_json()


def test_strong_node_below_a_one_instance_weak_node_is_seen():
    # antecedent ![X]: ?[U]: r(X, U) with the one instance X := f(A) and the
    # eigenvariable A: the instance depends on itself, so the strong node
    # below the instance edge of a weak node of one instance must be seen.
    fa = App("f", (A,))
    strong = ETStrong("U", Atom("r", (Var("X"), Var("U"))), "A", Atom("r", (fa, A)))
    weak = ETWeak("X", parse_formula("?[U]: r(X, U)", extra_vars={"X"}), ((fa, strong),))
    es = Sequent((weak,), (Atom("r", (fa, A)),))
    assert is_tautology(es) == (True, None)
    v = verdict(es)
    assert v.tautology and not v.acyclic and not v.is_proof
    assert v.cycle == ("ant[0].0",)

