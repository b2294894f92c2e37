#!/usr/bin/env python3
"""Run the mutation catalogue: each mutant is a deliberate fault that a
named selection of tests must catch.

A mutant replaces one exact text in one file of `src/`.  For each mutant,
one after another, the script copies `src/` to a temporary directory,
applies the replacement there (the old text must occur exactly once, so an
entry cannot go stale in silence), and runs the mutant's tests with that
copy first on `PYTHONPATH`.  The mutant is caught when they fail.  Before
the mutants, the tests of every selected mutant run once on an unchanged
copy and must pass, so that a failure is the mutant's doing.

Usage: python3 scripts/mutants.py [NAME ...]    (no name: every mutant)
Exit status 0 when every selected mutant is caught, 1 otherwise.
"""
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/exproof
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


# `_dpll`'s decision on the first free variable and, after a conflict, its
# other phase: True then False, or in a mutant False then True
_PHASES = (
    "            assign({first}order[free])\n"
    "            continue\n"
    "        while decisions:\n"
    "            free, mark, tried_false = decisions.pop()\n"
    "            for lit in trail[mark:]:\n"
    "                value[lit] = value[-lit] = 0\n"
    "            del trail[mark:]\n"
    "            head = mark\n"
    "            if not tried_false:\n"
    "                decisions.append((free, mark, True))\n"
    "                assign({second}order[free])\n"
)

CATALOGUE = [
    Mutant(
        "connectives-before-atoms",
        "check.py",
        "model = _dpll(clauses, [*ids.values(), *connectives])",
        "model = _dpll(clauses, [*connectives, *ids.values()])",
        ("tests/test_check.py::test_tautology_matches_rescan_dpll_seeded",),
    ),
    Mutant(
        "strong-node-missed-below-an-instance-edge",
        "check.py",
        "            if kind is ETStrong:\n",
        "            if kind is ETStrong and term is None:\n",
        (
            "tests/test_check.py::test_crossed_verdict_fails_acyclicity",
            "tests/test_check.py::test_strong_node_below_a_one_instance_weak_node_is_seen",
        ),
    ),
    Mutant(
        "instance-edge-onto-an-atom-dropped",
        "check.py",
        "[(child, (link, i), t) for i, (t, child) in enumerate(tree.instances)]",
        "[(child, (link, i), t) for i, (t, child) in enumerate(tree.instances) if type(child) is not Atom]",
        ("tests/test_check.py::test_dependency_relation_matches_pairwise_scan_seeded",),
    ),
    Mutant(
        "dependency-stage-always-skipped",
        "check.py",
        "acyclic, cycle = is_acyclic(dependency_relation(es))",
        "acyclic, cycle = True, None",
        ("tests/test_check.py::test_crossed_verdict_fails_acyclicity",),
    ),
    Mutant(
        "neg-and-in-the-positive-direction",
        "check.py",
        "clauses.extend([-a, p] for p in parts)",
        "clauses.append([a, *map(neg, parts)])",
        ("tests/test_check.py::test_tautology_agrees_with_truth_table_seeded",),
    ),
    Mutant(
        "quoted-symbol-read-as-keyword",
        "verit.py",
        'tok[1:-1] if tok[0] == "|" and tok[1:2] != ":" else tok',
        'tok[1:-1] if tok[0] == "|" else tok',
        ("tests/test_cli.py::test_smt_quoted_symbol_is_no_step_attribute",),
    ),
    Mutant(
        "step-attribute-given-twice-accepted",
        "verit.py",
        "            if key in given:\n",
        "            if False:\n",
        ("tests/test_verit.py::test_parse_rejects_a_step_attribute_given_twice",),
    ),
    Mutant(
        "any-theory-read-as-equality",
        "leancop.py",
        'if tail == "theory" and origin_name != "equality":',
        "if False:",
        ("tests/test_cli.py::test_theory_other_than_equality_exits_two",),
    ),
    Mutant(
        "assert-in-the-package",
        "check.py",
        "    occurrences, eigens, spans = _walk_sequent(es)\n",
        "    occurrences, eigens, spans = _walk_sequent(es)\n    assert len(spans) == len(occurrences)\n",
        ("tests/test_core.py::test_package_has_no_assert_statement",),
    ),
    Mutant(
        "quadratic-occurrence-scan",
        "check.py",
        "    for b, occ in enumerate(occurrences):\n",
        "    for b, occ in enumerate(occurrences):\n"
        "        if any(o is occ for o in occurrences[:b]):\n            continue\n",
        ("tests/test_scaling.py",),
    ),
    Mutant(
        "intern-without-its-loop",
        "core.py",
        "    while (found := _nodes.setdefault(key, entry)()) is None:\n"
        "        _remove_dead_weakref(_nodes, key)\n"
        "    return found\n",
        "    return _nodes.setdefault(key, entry)()\n",
        ("tests/test_core.py::test_dead_entry_not_yet_removed_is_replaced",),
    ),
    Mutant(
        "too-many-fields-accepted",
        "core.py",
        "            if more:\n                raise _wrong_count(cls, a, *more)\n",
        "",
        ("tests/test_core.py::test_constructor_contract_of_every_kind",),
    ),
    Mutant(
        "instance-terms-not-collapsed",
        "leancop.py",
        "out[v] = collapse_term(apply_subst(matcher.get(v) or Var(v), binding), heads)",
        "out[v] = apply_subst(matcher.get(v) or Var(v), binding)",
        ("tests/test_leancop.py::test_import_skolem_fixture",),
    ),
    Mutant(
        "skolem-congruence-accepted",
        "leancop.py",
        "if inst is None or inst[0].kind is SchemaKind.FN_CONGRUENCE and inst[0].param[0] in skolem_heads:",
        "if inst is None:",
        ("tests/test_leancop.py::test_congruence_of_a_skolem_function_is_no_equality_axiom",),
    ),
    Mutant(
        "symmetry-only-with-a-used-schema",
        "leancop.py",
        "if eq_groups or any(a.pred == EQ for a in input_atoms):",
        "if eq_groups:",
        ("tests/test_leancop.py::test_import_agrees_with_matching_collapsed_clauses",),
    ),
    Mutant(
        "false-first-decision-phase",
        "check.py",
        _PHASES.format(first="", second="-"),
        _PHASES.format(first="-", second=""),
        ("tests/test_check.py::test_dpll_matches_rescan_dpll_on_raw_clauses",),
    ),
    Mutant(
        "keyword-read-as-a-symbol",
        "verit.py",
        'if sexp.startswith(":"):',
        "if False:",
        ("tests/test_cli.py::test_unusable_import_exits_two",),
    ),
    Mutant(
        "right-operand-never-defined",
        "leancop.py",
        "right = _define(rf, right)",
        "pass",
        ("tests/test_leancop.py::test_dnf_defines_the_right_operand",),
    ),
    Mutant(
        "batch-entries-in-share-order",
        "cli.py",
        "return [entries[i] for i in range(len(files))]",
        "return list(entries.values())",
        ("tests/test_cli.py::test_batch_parallel_matches_serial",),
    ),
    Mutant(
        "worker-exit-status-ignored",
        "cli.py",
        "if code != 0 or len(lines)",
        "if len(lines)",
        ("tests/test_cli.py::test_batch_worker_that_exits_nonzero_after_its_share_exits_two",),
    ),
    Mutant(
        "short-share-accepted",
        "cli.py",
        "len(lines) < len(share):",
        "False:",
        ("tests/test_cli.py::test_batch_worker_that_dies_exits_two",),
    ),
]


def apply(src: Path, mutant: Mutant) -> None:
    """Make the mutant's replacement in the copy of `src/` at `src`; raises
    ValueError unless its old text occurs exactly once."""
    path = src / "exproof" / mutant.file
    text = path.read_text(encoding="utf-8")
    found = text.count(mutant.old)
    if found != 1:
        raise ValueError(f"{mutant.name}: the old text occurs {found} times in {mutant.file}, not once")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def tests_pass(src: Path, tests: tuple[str, ...]) -> bool:
    """Whether the tests pass with `src` first on `PYTHONPATH`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]).rstrip(os.pathsep))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode == 0


def main(argv: list[str]) -> int:
    unknown = set(argv) - {m.name for m in CATALOGUE}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 1
    selected = [m for m in CATALOGUE if not argv or m.name in argv]
    with tempfile.TemporaryDirectory() as work:
        src = Path(work) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if not tests_pass(src, tuple(dict.fromkeys(t for m in selected for t in m.tests))):
            print("the mutants' tests fail on the unchanged source", file=sys.stderr)
            return 1
    missed = 0
    for mutant in selected:
        with tempfile.TemporaryDirectory() as work:
            src = Path(work) / "src"
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
            try:
                apply(src, mutant)
            except ValueError as e:
                print(f"stale  {e}", flush=True)
                missed += 1
                continue
            caught = not tests_pass(src, mutant.tests)
        print(f"{'caught' if caught else 'MISSED'} {mutant.name}", flush=True)
        missed += not caught
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
