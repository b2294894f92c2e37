"""Each stage of a check grows near-linearly with the size of a trace.

The work is counted as the lines executed in `src/exproof/` (`sys.settrace`
line events), not in seconds, so a count is the same on every run and every
machine.  The stages are parsing, import, the tautology check, the
dependency relation and the acyclicity check.  Each trace family is built at
n = 50 and n = 100, and doubling n may multiply no stage's count by more
than `MAX_RATIO`.

A scan that runs wholly inside one C call, such as `x in some_list`,
executes no line and is not seen; a loop written in Python is.

Left out, because the JSON contract makes them quadratic: `export --json`
of one long transitivity leaf, and of deep trees.  A quantifier node's
`body` is written with the instances of its path put in, so the text of the
nodes along a path grows with the square of the path's length.
"""
import os
import random
import sys
from pathlib import Path

import pytest

import exproof
from conftest import load_bench_gen, nested_term_trace
from exproof.check import dependency_relation, is_acyclic, is_tautology
from exproof.leancop import import_leancop, parse_leancop
from exproof.verit import import_verit, parse_verit

SOURCE = str(Path(exproof.__file__).parent) + os.sep
SIZES = (50, 100)
MAX_RATIO = 2.2

gen = load_bench_gen()

# family -> (format, the text of its trace of size n)
FAMILIES = {
    "verit_chain": ("verit", lambda n: gen.verit_chain(random.Random(1), n, "chain.proof").text),
    **{
        f"leancop_chain {variant}": (
            "leancop",
            lambda n, variant=variant: gen.leancop_chain(random.Random(1), n, "chain.proof", variant).text,
        )
        for variant in ("proof", "broken", "loop")
    },
    **{f"nested_term_trace {fmt}": (fmt, lambda n, fmt=fmt: nested_term_trace(fmt, n)) for fmt in ("verit", "leancop")},
}


def _counted(call):
    """The value of `call()` and the number of lines it executed in
    `src/exproof/`."""
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(SOURCE) else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        value = call()
    finally:
        sys.settrace(previous)
    return value, lines


def stage_lines(fmt: str, text: str) -> dict[str, int]:
    """The lines each stage of a check of `text` executes."""
    parse, load = (parse_verit, import_verit) if fmt == "verit" else (parse_leancop, import_leancop)
    out = {}
    trace, out["parse"] = _counted(lambda: parse(text))
    (es, _report), out["import"] = _counted(lambda: load(trace))
    _, out["is_tautology"] = _counted(lambda: is_tautology(es))
    graph, out["dependency_relation"] = _counted(lambda: dependency_relation(es))
    _, out["is_acyclic"] = _counted(lambda: is_acyclic(graph))
    return out


@pytest.mark.parametrize("family", FAMILIES)
def test_every_stage_is_near_linear(family):
    fmt, make = FAMILIES[family]
    small, large = (stage_lines(fmt, make(n)) for n in SIZES)
    ratios = {stage: large[stage] / max(small[stage], 1) for stage in small}
    assert max(ratios.values()) <= MAX_RATIO, (small, large)
