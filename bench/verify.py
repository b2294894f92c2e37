"""Checks of exproof's outputs against what a generated trace was built to be.

Only `Expected` and the evaluator in `gen` decide what is right; exproof's
objects are read here, never trusted to check themselves.
"""
from __future__ import annotations

from gen import Expected, alpha_key, evaluate


def to_ast(f) -> tuple:
    """An `exproof.core` term or formula as a `gen` tuple."""
    kind = type(f).__name__
    if kind == "Var":
        return ("v", f.name)
    if kind == "App":
        return ("f", f.head, tuple(to_ast(a) for a in f.args))
    if kind == "Atom":
        return ("atom", f.pred, tuple(to_ast(a) for a in f.args))
    if kind == "Neg":
        return ("not", to_ast(f.sub))
    if kind in ("And", "Or", "Imp"):
        return (kind.lower(), to_ast(f.left), to_ast(f.right))
    if kind in ("Forall", "Exists"):
        return ("all" if kind == "Forall" else "ex", f.var, to_ast(f.body))
    raise TypeError(f"not a formula: {f!r}")


def same_cycle(got, want) -> bool:
    """Equal as directed cycles: the same node sequence up to rotation."""
    got, want = list(got), list(want)
    if len(got) != len(want) or not got:
        return False
    if want[0] not in got:
        return False
    k = got.index(want[0])
    return got[k:] + got[:k] == want


def verdict_problems(expect: Expected, verdict: dict) -> list[str]:
    """Compare a `check` verdict JSON object with the expectation."""
    out = []
    for key in ("is_proof", "tautology", "acyclic"):
        if verdict.get(key) is not getattr(expect, key):
            out.append(f"{key} is {verdict.get(key)!r}, expected {getattr(expect, key)!r}")
    cex = verdict.get("counterexample")
    if expect.tautology:
        if cex is not None:
            out.append("counterexample given for a tautology")
    elif cex is None:
        out.append("no counterexample for a falsifiable deep sequent")
    elif expect.deep is not None:
        ant, suc = expect.deep
        try:
            falsified = all(evaluate(f, cex) for f in ant) and not any(evaluate(f, cex) for f in suc)
        except KeyError as e:
            out.append(f"counterexample lacks atom {e}")
        else:
            if not falsified:
                out.append("counterexample does not falsify the deep sequent")
    cycle = verdict.get("cycle")
    if expect.acyclic:
        if cycle is not None:
            out.append("cycle given for an acyclic dependency relation")
    elif cycle is None:
        out.append("no cycle witness for a cyclic dependency relation")
    elif expect.cycle is not None and not same_cycle(cycle, expect.cycle):
        out.append(f"cycle witness {cycle} is not the constructed loop {list(expect.cycle)}")
    return out


def import_problems(expect: Expected, report: dict, shallow, graph) -> list[str]:
    """Compare the import report, the shallow sequent and the dependency
    graph size of an imported proof with its construction."""
    out = []
    if expect.report is not None and report != expect.report:
        diff = sorted(k for k in set(report) | set(expect.report) if report.get(k) != expect.report.get(k))
        out.append(f"import report differs in {diff}")
    if expect.shallow is not None:
        for side, got, want in (
            ("antecedent", shallow.antecedent, expect.shallow[0]),
            ("succedent", shallow.succedent, expect.shallow[1]),
        ):
            try:
                got_keys = [alpha_key(to_ast(f)) for f in got]
            except TypeError as e:
                out.append(f"shallow {side} unreadable: {e}")
                continue
            if got_keys != [alpha_key(f) for f in want]:
                out.append(f"shallow {side} differs from the input formulas")
    if expect.dep_nodes is not None and len(graph.nodes) != expect.dep_nodes:
        out.append(f"{len(graph.nodes)} dependency nodes, expected {expect.dep_nodes}")
    if expect.dep_edges is not None and len(graph.edges) != expect.dep_edges:
        out.append(f"{len(graph.edges)} dependency edges, expected {expect.dep_edges}")
    return out
