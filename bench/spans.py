"""Span tracing for the benchmark's traced run.

Public functions of exproof are wrapped at the module attributes their
callers look up (`exproof.check.is_tautology` for `check.verdict`,
`exproof.cli.parse_verit` for `cli.load_sequent`, ...), so the program
itself is not edited.  Each call becomes a span with a parent link; a
span's self time is its duration minus that of its direct children.
Sizes are counted from a span's arguments and result right after it ends;
the time that takes is charged to no span.
"""
from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import defaultdict
from itertools import count


def _tree_sizes(args, tree) -> dict:
    """Weak instances and strong nodes of an expansion tree."""
    weak = strong = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        if hasattr(node, "instances"):
            weak += len(node.instances)
            stack.extend(child for _, child in node.instances)
        elif hasattr(node, "eigenvariable"):
            strong += 1
            stack.append(node.child)
        elif hasattr(node, "child"):
            stack.append(node.child)
        elif hasattr(node, "left"):
            stack += [node.left, node.right]
    return {"expansion.weak_instances": weak, "expansion.strong_nodes": strong}


def _formula_sizes(args, result) -> dict:
    """Distinct atoms and binary connectives of the deep sequent, i.e. the
    propositional variables and the Tseitin definitions of the check."""
    atoms = set()
    connectives = 0
    stack = list(args[0].formulas)
    while stack:
        f = stack.pop()
        if hasattr(f, "left"):
            connectives += 1
            stack += [f.left, f.right]
        elif hasattr(f, "sub"):
            stack.append(f.sub)
        else:
            atoms.add(f)
    return {"check.atoms": len(atoms), "check.connectives": connectives}


# (module, attribute, span name, sizes from (args, result))
WRAPPED = [
    ("exproof.cli", "load_sequent", "cli.load", None),
    ("exproof.cli", "cmd_batch", "cli.batch", None),
    ("exproof.cli", "_batch_one", "cli.batch_one", None),
    ("exproof.cli", "parse_verit", "verit.parse", lambda a, r: {"verit.steps": len(r.steps)}),
    ("exproof.cli", "import_verit", "verit.import", lambda a, r: {"verit.flips": r[1]["flips"]}),
    ("exproof.verit", "match_axiom_instance", "verit.match", None),
    ("exproof.cli", "parse_leancop", "leancop.parse", None),
    ("exproof.leancop", "tokenize", "notation.tokenize", lambda a, r: {"notation.tokens": len(r)}),
    (
        "exproof.cli",
        "import_leancop",
        "leancop.import",
        lambda a, r: {"leancop.skolem_heads": len(r[1]["skolem_map"])},
    ),
    (
        "exproof.leancop",
        "definitional_dnf",
        "leancop.dnf",
        lambda a, r: {"leancop.generated_clauses": len(r)},
    ),
    ("exproof.leancop", "match_clauses", "leancop.match", None),
    ("exproof.verit", "expand_formula", "expansion.expand", _tree_sizes),
    ("exproof.leancop", "expand_formula", "expansion.expand", _tree_sizes),
    ("exproof.check", "verdict", "check.verdict", None),
    ("exproof.cli", "verdict", "check.verdict", None),
    ("exproof.check", "deep_sequent", "check.deep", None),
    ("exproof.check", "is_tautology", "check.taut", _formula_sizes),
    (
        "exproof.check",
        "dependency_relation",
        "check.dep",
        lambda a, r: {"check.dep_nodes": len(r.nodes), "check.dep_edges": len(r.edges)},
    ),
    ("exproof.check", "is_acyclic", "check.acyclic", None),
]

# per-layer metric: self time of these spans (seconds)
SELF_TIME = {
    "cli.load": "cli.load_s",
    "notation.tokenize": "notation.tokenize_s",
    "verit.parse": "verit.parse_s",
    "verit.import": "verit.import_s",
    "verit.match": "verit.match_s",
    "leancop.parse": "leancop.parse_s",
    "leancop.import": "leancop.import_s",
    "leancop.dnf": "leancop.dnf_s",
    "leancop.match": "leancop.match_s",
    "expansion.expand": "expansion.expand_s",
    "check.deep": "check.deep_s",
    "check.taut": "check.taut_s",
    "check.dep": "check.dep_s",
    "check.acyclic": "check.acyclic_s",
}
SIZES = [
    "notation.tokens",
    "verit.steps",
    "verit.flips",
    "leancop.generated_clauses",
    "leancop.skolem_heads",
    "expansion.weak_instances",
    "expansion.strong_nodes",
    "check.atoms",
    "check.connectives",
    "check.dep_nodes",
    "check.dep_edges",
]


class Tracer:
    """Records spans while installed, in memory, as (id, parent, name,
    thread, start, end, sizing) where `sizing` is the time spent counting
    the span's sizes after it ended, and the sizes by span id."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.sizes: dict[int, dict] = {}
        self._ids = count()
        self._local = threading.local()
        self._restore: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, name, sizer in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                print(f"trace: {module_name}.{attr} not found, span {name} not recorded", file=sys.stderr)
                continue
            setattr(module, attr, self._wrap(original, name, sizer))
            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def _wrap(self, original, name: str, sizer):
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            end = None
            try:
                result = original(*args, **kwargs)
                end = time.perf_counter()
                if sizer is not None:
                    self.sizes[sid] = sizer(args, result)
                return result
            finally:  # a call that raised still gets its span, without sizes
                now = time.perf_counter()
                stack.pop()
                end = end or now
                self.spans.append((sid, parent, name, threading.get_ident(), start, end, now - end))

        return traced

    def take(self) -> tuple[list[tuple], dict[int, dict]]:
        """Hand over the spans and sizes recorded so far, and start afresh."""
        taken = self.spans, self.sizes
        self.spans, self.sizes = [], {}
        return taken


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the durations (and sizing time) of its
    direct children."""
    child_time: dict[int, float] = defaultdict(float)
    for _sid, parent, _name, _thread, start, end, sizing in spans:
        if parent is not None:
            child_time[parent] += end - start + sizing
    return {sid: end - start - child_time[sid] for sid, _p, _n, _t, start, end, _s in spans}


def layer_metrics(spans: list[tuple], sizes: dict[int, dict]) -> dict[str, float]:
    """Per-layer totals over a set of spans: self time per layer, and the
    recorded sizes summed."""
    out = {metric: 0.0 for metric in SELF_TIME.values()}
    out.update({metric: 0 for metric in SIZES})
    selfs = self_times(spans)
    for sid, _parent, name, _thread, _start, _end, _sizing in spans:
        metric = SELF_TIME.get(name)
        if metric is not None:
            out[metric] += selfs[sid]
    for entry in sizes.values():
        for metric, value in entry.items():
            out[metric] += value
    return out
