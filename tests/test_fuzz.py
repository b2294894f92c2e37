"""Fuzzing of the trace parsers and of the whole check: on any text, parsing,
import and the verdict return or raise `ExproofError`, and nothing else."""
import importlib.util
import random
import re
import string
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import FIXTURES, nested_term_trace
from exproof.check import verdict
from exproof.cli import RunConfig, load_sequent
from exproof.core import ExproofError
from exproof.leancop import parse_leancop
from exproof.verit import parse_verit

FIXTURE_TEXTS = {p.name: p.read_text(encoding="utf-8") for p in sorted(FIXTURES.iterdir())}


def _load_gen():
    """The benchmark's trace generators, `bench/gen.py`."""
    spec = importlib.util.spec_from_file_location(
        "bench_gen", Path(__file__).resolve().parent.parent / "bench" / "gen.py"
    )
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # its dataclasses look their module up
    spec.loader.exec_module(gen)
    return gen


# small generated traces: transitivity leaves with reordered and flipped
# literals, and connection proofs with Skolem terms and bindings; and proofs
# over a term nested past the depth of the interpreter's recursion limit
_gen = _load_gen()
GENERATED_TEXTS = [
    trace.text
    for seed in range(3)
    for trace in (
        _gen.verit_chain(random.Random(seed), 5, "chain.proof"),
        _gen.leancop_chain(random.Random(seed), 5, "eigenchain.proof"),
    )
] + [nested_term_trace(fmt, 1500) for fmt in ("verit", "leancop")]

# a source token of either format, a quoted name, or a run of space
_PIECE = re.compile(r"'[^']*'|\w+|\s+|[^\w\s]")


def _mutate(text: str, op: str, i: int, j: int) -> str:
    """`text` with one of its tokens deleted, duplicated, or swapped with
    another; `i` and `j` pick the tokens among those that are not space."""
    pieces = _PIECE.findall(text)
    solid = [k for k, piece in enumerate(pieces) if not piece.isspace()]
    a, b = solid[i % len(solid)], solid[j % len(solid)]
    if op == "delete":
        pieces[a] = ""
    elif op == "duplicate":
        pieces[a] += " " + pieces[a]
    else:
        pieces[a], pieces[b] = pieces[b], pieces[a]
    return "".join(pieces)


def mutants_of(sources):
    return st.builds(
        _mutate,
        st.sampled_from(sources),
        st.sampled_from(["delete", "duplicate", "swap"]),
        st.integers(0, 500),
        st.integers(0, 500),
    )


mutants = mutants_of(sorted(FIXTURE_TEXTS.values()))
PIECES = ["fof(", "cnf(", "(set .c", " (input :conclusion (", "(not ", "(= ", "eq_transitive", ":clauses (",
          "axiom", "conjecture", "clausify(", "start(", "extension(", "bind([X], [a])", "![X]:", "?[Y]:",
          "(", ")", "[", "]", ",", ".", "~", "&", "|", "=>", "=", "!=", "p(X)", "f(a)", "'q'", "1", "²", " ", "\n"]
texts = (
    st.text(string.printable + "²٣ª½", max_size=60)
    | st.lists(st.sampled_from(PIECES), max_size=40).map("".join)
    | mutants
)


def _returns_or_rejects(fn, *args) -> None:
    try:
        fn(*args)
    except ExproofError:
        pass


@settings(max_examples=150)
@given(texts)
def test_parsers_return_or_reject(text):
    _returns_or_rejects(parse_leancop, text)
    _returns_or_rejects(parse_verit, text)


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "trace.proof"


@settings(max_examples=150)
@given(text=texts)
def test_check_returns_or_rejects(trace_path, text):
    trace_path.write_text(text, encoding="utf-8")
    config = RunConfig("check", (str(trace_path),))
    _returns_or_rejects(lambda: verdict(load_sequent(str(trace_path), config)[0]))


@settings(max_examples=150)
@given(text=mutants_of(GENERATED_TEXTS))
def test_mutated_generated_traces_return_or_reject(trace_path, text):
    trace_path.write_text(text, encoding="utf-8")
    config = RunConfig("check", (str(trace_path),))
    _returns_or_rejects(lambda: verdict(load_sequent(str(trace_path), config)[0]))
