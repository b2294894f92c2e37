"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
import json
import random
import shutil
import time
from collections import Counter

from conftest import FIXTURES
from exproof.check import (
    DependencyGraph,
    TermOccurrence,
    deep_sequent,
    dependency_relation,
    is_acyclic,
    is_tautology,
    verdict,
)
from exproof.cli import EXIT_ERROR, EXIT_NOT_PROOF, EXIT_PROOF, RunConfig, load_sequent, main
from exproof.core import (
    Atom,
    Polarity,
    Sequent,
    Subst,
    Var,
    apply_subst,
    rectify,
)
from exproof.expansion import (
    expand_formula,
    sequent_from_json,
    sequent_to_json,
    shallow,
)
from exproof.leancop import definitional_dnf, import_leancop, match_clauses, parse_leancop
from exproof.notation import parse_formula
from exproof.verit import import_verit, parse_verit
from oracles import eval_sequent, has_cycle_bruteforce, sequent_atoms, taut_oracle
from randgen import const, eq, random_deep_sequent, random_formula, random_graph, random_instances
from test_check import crossed_sequent, drinker_sequent


def _line(num: int, name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num} {name}: {tag}{suffix}")


def test_criterion_1_shallow_inverse_law():
    rng = random.Random(171)
    started = time.perf_counter()
    cases, failures = 500, 0
    for _ in range(cases):
        raw = random_formula(rng, rng.randint(1, 5))
        f = rectify(Sequent((raw,), ())).antecedent[0]
        pol = rng.choice((Polarity.NEG, Polarity.POS))
        tree = expand_formula(f, random_instances(rng, f, pol), pol)
        if shallow(tree, pol) != f:
            failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 10.0
    _line(1, "shallow-inverse law", ok, f"{cases - failures}/{cases} in {elapsed:.2f}s")
    assert failures == 0
    assert elapsed < 10.0


def test_criterion_2_tautology_oracle_equivalence():
    rng = random.Random(20318)
    started = time.perf_counter()
    cases, disagreements, bad_counterexamples = 1000, 0, 0
    for _ in range(cases):
        ds = random_deep_sequent(rng, max_atoms=12)
        ours, assignment = is_tautology(ds)
        expected, _ = taut_oracle(ds)
        if ours != expected:
            disagreements += 1
        if not ours:
            by_name = {str(atom): atom for atom in sequent_atoms(ds)}
            mapped = {by_name[k]: v for k, v in assignment.items()}
            if eval_sequent(ds, mapped):
                bad_counterexamples += 1
    elapsed = time.perf_counter() - started
    ok = disagreements == 0 and bad_counterexamples == 0 and elapsed < 30.0
    _line(
        2,
        "tautology-oracle equivalence",
        ok,
        f"{cases}/{cases} agree, {bad_counterexamples} bad witnesses, {elapsed:.2f}s",
    )
    assert disagreements == 0
    assert bad_counterexamples == 0
    assert elapsed < 30.0


def test_criterion_3_dependency_and_acyclicity():
    drinker = drinker_sequent()
    g = dependency_relation(drinker)
    drinker_ok = len(g.edges) == 1 and is_acyclic(g)[0] and verdict(drinker).is_proof

    crossed = crossed_sequent()
    gc = dependency_relation(crossed)
    ok_c, cycle = is_acyclic(gc)
    crossed_ok = not ok_c and cycle is not None and len(cycle) == 2
    crossed_ok = crossed_ok and not verdict(crossed).is_proof

    rng = random.Random(31337)
    mismatches = 0
    for _ in range(200):
        n, edges = random_graph(rng, max_nodes=10)
        nodes = tuple(TermOccurrence(("ant", i), const(f"t{i}")) for i in range(n))
        ours, _ = is_acyclic(DependencyGraph(nodes, frozenset(edges)))
        if ours == has_cycle_bruteforce(n, edges):
            mismatches += 1
    ok = drinker_ok and crossed_ok and mismatches == 0
    _line(3, "dependency/acyclicity", ok, "drinker edge + 2-cycle + 200 random graphs")
    assert drinker_ok
    assert crossed_ok
    assert mismatches == 0


def test_criterion_4_verit_pipeline():
    timings = {}
    results = {}
    for name in ("verit_transitivity.proof", "verit_congruence.proof", "verit_reflexivity.proof"):
        started = time.perf_counter()
        es, _report = import_verit(parse_verit((FIXTURES / name).read_text()))
        results[name] = verdict(es)
        timings[name] = time.perf_counter() - started
        if name == "verit_transitivity.proof":
            pruned = Sequent(es.antecedent[:3], ())
            minimality = not verdict(pruned).tautology
    all_proofs = all(v.is_proof for v in results.values())
    fast = all(t < 1.0 for t in timings.values())
    ok = all_proofs and minimality and fast
    worst = max(timings.values())
    _line(4, "veriT pipeline", ok, f"3 fixtures proof, minimality holds, max {worst:.3f}s")
    assert all_proofs
    assert minimality, "dropping the axiom tree must break the tautology"
    assert fast


def test_criterion_5_leancop_pipeline():
    proofs = {}
    for name in ("leancop_simple.proof", "leancop_exists.proof", "leancop_skolem.proof"):
        trace = parse_leancop((FIXTURES / name).read_text())
        es, report = import_leancop(trace)
        proofs[name] = verdict(es).is_proof

        # every clause match, on the clauses as written, verifies by reapplication
        from exproof.verit import AxiomSchema

        axioms = [(name, f) for name, role, f in trace.inputs if role == "axiom"]
        conjectures = [(name, f) for name, role, f in trace.inputs if role == "conjecture"]
        rect = rectify(Sequent(tuple(f for _, f in axioms), tuple(f for _, f in conjectures)))
        names = [name for name, _ in axioms + conjectures]
        rect_formulas = list(rect.antecedent) + list(rect.succedent)
        roles = ["axiom"] * len(rect.antecedent) + ["conjecture"] * len(rect.succedent)
        generated = definitional_dnf(list(zip(names, roles, rect_formulas)))
        matches = match_clauses(generated, trace.clauses, frozenset(report["skolem_map"]))
        by_number = {number: literals for number, literals, _, _ in trace.clauses}
        for number, (pattern, matcher) in matches.items():
            if isinstance(pattern, AxiomSchema):
                continue
            # the matcher reproduces the trace clause as a multiset
            got = Counter(apply_subst(lit, matcher) for lit in pattern[0])
            assert got == Counter(by_number[number])

    # the skolem fixture: one eigenvariable per strong quantifier, acyclic edge
    es, report = import_leancop(parse_leancop((FIXTURES / "leancop_skolem.proof").read_text()))
    eigens = list(report["skolem_map"].values())
    g = dependency_relation(es)
    skolem_ok = eigens == ["v_sk1"] and g.edges == frozenset({(0, 1)}) and is_acyclic(g)[0]

    ok = all(proofs.values()) and skolem_ok
    _line(5, "leanCoP pipeline", ok, "3 fixtures proof, matches verified, skolem edge acyclic")
    assert all(proofs.values())
    assert skolem_ok


def _pairs_for_criterion_6():
    """(sequent, instances, designed validity) triples; all acyclic.  The
    instances are one tuple of substitutions per formula, for each side."""
    X, Y, Z = Var("X"), Var("Y"), Var("Z")
    a, b, c = const("a"), const("b"), const("c")
    p = lambda t: Atom("p", (t,))
    q = lambda t: Atom("q", (t,))
    r2 = lambda s, t: Atom("r", (s, t))
    S = Sequent
    I = lambda ant_subs, suc_subs: (ant_subs, suc_subs)

    def ant(*subs_per_formula):
        return tuple(tuple(s) for s in subs_per_formula)

    pairs = [
        # --- valid instantiations ---
        (S((parse_formula("![X]: p(X)"),), (p(a),)), I(ant([Subst({"X": a})]), ant([])), True),
        (S((parse_formula("![X]: p(X)"),), (p(b),)), I(ant([Subst({"X": b})]), ant([])), True),
        (S((p(a),), (parse_formula("?[X]: p(X)"),)), I(ant([]), ant([Subst({"X": a})])), True),
        (
            S((parse_formula("![X]: (p(X) => q(X))"), p(c)), (q(c),)),
            I(ant([Subst({"X": c})], []), ant([])),
            True,
        ),
        (
            S((parse_formula("![X]: ![Y]: r(X,Y)"),), (r2(a, b),)),
            I(ant([Subst({"X": a, "Y": b})]), ant([])),
            True,
        ),
        (
            S((), (parse_formula("?[X]: (p(X) => p(X))"),)),
            I(ant(), ant([Subst({"X": c})])),
            True,
        ),
        (
            S((parse_formula("![X]: (p(X) & q(X))"),), (q(a),)),
            I(ant([Subst({"X": a})]), ant([])),
            True,
        ),
        (
            S(
                (parse_formula("![X]: p(X)"), parse_formula("![Y]: (p(Y) => q(Y))")),
                (parse_formula("?[Z]: q(Z)"),),
            ),
            I(ant([Subst({"X": a})], [Subst({"Y": a})]), ant([Subst({"Z": a})])),
            True,
        ),
        (
            S((), (parse_formula("?[X]: (p(a) => p(X))"),)),
            I(ant(), ant([Subst({"X": a})])),
            True,
        ),
        (
            S((parse_formula("![X]: (p(X) | q(X))"), Atom("n", ())), (q(a), p(a))),
            I(ant([Subst({"X": a})], []), ant([], [])),
            True,
        ),
        # --- deliberately wrong instances ---
        (S((parse_formula("![X]: p(X)"),), (p(a),)), I(ant([Subst({"X": b})]), ant([])), False),
        (S((p(a),), (parse_formula("?[X]: q(X)"),)), I(ant([]), ant([Subst({"X": a})])), False),
        (
            S((parse_formula("![X]: (p(X) => q(X))"), p(c)), (q(c),)),
            I(ant([Subst({"X": a})], []), ant([])),
            False,
        ),
        (
            S((parse_formula("![X]: ![Y]: r(X,Y)"),), (r2(a, b),)),
            I(ant([Subst({"X": b, "Y": a})]), ant([])),
            False,
        ),
        (S((), (parse_formula("?[X]: p(X)"),)), I(ant(), ant([Subst({"X": a})])), False),
        (
            S((parse_formula("![X]: (p(X) & q(X))"),), (q(a),)),
            I(ant([Subst({"X": b})]), ant([])),
            False,
        ),
        (S((eq(a, b),), (eq(b, a),)), I(ant([]), ant([])), False),
        (S((parse_formula("![X]: p(X)"),), (q(a),)), I(ant([Subst({"X": a})]), ant([])), False),
        (
            S((), (parse_formula("?[X]: (p(X) => p(b))"),)),
            I(ant(), ant([Subst({"X": a})])),
            False,
        ),
        (
            S((parse_formula("![X]: (p(X) | q(X))"),), (p(a),)),
            I(ant([Subst({"X": a})]), ant([])),
            False,
        ),
    ]
    return pairs


def _expand_side(formulas, instances, polarity):
    return tuple(expand_formula(f, subs, polarity) for f, subs in zip(formulas, instances, strict=True))


def test_criterion_6_sanity_check_direction():
    pairs = _pairs_for_criterion_6()
    assert len(pairs) == 20
    agree = 0
    for i, (seq, (ant_subs, suc_subs), designed_valid) in enumerate(pairs):
        rect = rectify(seq)
        es = Sequent(
            _expand_side(rect.antecedent, ant_subs, Polarity.NEG),
            _expand_side(rect.succedent, suc_subs, Polarity.POS),
        )
        v = verdict(es)
        oracle_taut, _ = taut_oracle(deep_sequent(es))
        expected = oracle_taut and v.acyclic
        assert oracle_taut == designed_valid, f"pair {i} mis-designed"
        if v.is_proof == expected:
            agree += 1
    ok = agree == 20
    _line(6, "sanity-check direction", ok, f"{agree}/20")
    assert agree == 20


def test_criterion_7_cli_contract(tmp_path, capsys):
    codes = {
        "verit_transitivity.proof": EXIT_PROOF,
        "leancop_skolem.proof": EXIT_PROOF,
        "verit_not_proof.proof": EXIT_NOT_PROOF,
        "malformed.proof": EXIT_ERROR,
    }
    exit_ok = True
    for name, expected in codes.items():
        got = main(["check", str(FIXTURES / name)])
        capsys.readouterr()
        exit_ok = exit_ok and got == expected

    # JSON export round-trips to an equal in-memory sequent
    roundtrip_ok = True
    for name in ("verit_transitivity.proof", "leancop_skolem.proof", "leancop_exists.proof"):
        path = str(FIXTURES / name)
        cfg = RunConfig("export", (path,))
        es, _, _ = load_sequent(path, cfg)
        data = json.loads(json.dumps(sequent_to_json(es)))
        roundtrip_ok = roundtrip_ok and sequent_from_json(data) == es

    # batch summary counts equal per-file statuses on a 6-file mixed directory
    bdir = tmp_path / "mixed"
    bdir.mkdir()
    for name in (
        "verit_transitivity.proof",
        "verit_congruence.proof",
        "leancop_simple.proof",
        "leancop_skolem.proof",
        "verit_not_proof.proof",
        "malformed.proof",
    ):
        shutil.copy(FIXTURES / name, bdir / name)
    main(["batch", str(bdir)])
    summary = json.loads(capsys.readouterr().out)
    statuses = [e["status"] for e in summary["files"].values()]
    batch_ok = (
        summary["total"] == 6
        and summary["proof"] == statuses.count("proof") == 4
        and summary["not_proof"] == statuses.count("not-proof") == 1
        and summary["errors"] == sum(1 for s in statuses if s.startswith("error")) == 1
        and summary["imported"] == summary["proof"] + summary["not_proof"]
        and summary["total"] == summary["imported"] + summary["errors"]
    )
    ok = exit_ok and roundtrip_ok and batch_ok
    _line(7, "CLI contract", ok, "exit codes, JSON round-trip, batch counts")
    assert exit_ok
    assert roundtrip_ok
    assert batch_ok
