import json
import os
import random
import signal
import subprocess
import sys
import tracemalloc
from typing import Optional

import pytest

from conftest import COMMANDS, FIXTURES, nested_term_trace
from exproof.cli import (
    EXIT_ERROR,
    EXIT_NOT_PROOF,
    EXIT_PROOF,
    RunConfig,
    _spread_worker,
    detect_format,
    json_pieces,
    load_sequent,
    main,
    sequent_to_dot,
)
from exproof.core import Atom, ExproofError, InvariantError
from exproof.expansion import sequent_from_json, sequent_to_json
from test_leancop import (
    BRANCH_WITHOUT_STRONG_INSTANCE,
    BRANCH_WITHOUT_WEAK_INSTANCE,
    DUPLICATE_BIND_TRACES,
    EQUALITY_THEORY_TRACE,
)
from test_verit import REPEATED_ATTRIBUTE_ERRORS, REPEATED_ATTRIBUTE_TRACES


def fixture(name: str) -> str:
    return str(FIXTURES / name)


# --- format detection ---


def test_detect_format():
    assert detect_format("  (set .c1 (input :conclusion (p)))") == "verit"
    assert detect_format("fof(ax, axiom, p).") == "leancop"
    assert detect_format("cnf(1, plain, [p], clausify(ax)).") == "leancop"
    assert detect_format("% a comment\n\n  %\n(set .c1 (input :conclusion (p)))") == "verit"
    assert detect_format("%(set\nfof(ax, axiom, p).") == "leancop"
    with pytest.raises(ExproofError):
        detect_format("hello world")
    with pytest.raises(ExproofError):
        detect_format("% fof(ax, axiom, p).")
    with pytest.raises(ExproofError):
        detect_format("%" * 40 + " x")


@pytest.mark.parametrize(
    "text",
    [
        # `sk1` names a constant of the input, not a Skolem head
        "fof(ax, axiom, p(sk1)).\nfof(conj, conjecture, p(sk1)).\n"
        "cnf(1, plain, [~p(sk1)], clausify(ax)).\ncnf(2, plain, [p(sk1)], clausify(conj)).\n"
        "cnf('s1', plain, [p(sk1)], start(2)).\ncnf('e1', plain, [~p(sk1)], extension(1)).\n",
        "% comment\n" + (FIXTURES / "leancop_simple.proof").read_text(),
        "% a comment\n\n  % another\n" + (FIXTURES / "verit_propositional.proof").read_text(),
    ],
    ids=["constant-sk1", "leading-comment", "leading-comment-verit"],
)
def test_check_reads_skolem_heads_and_format_off_the_trace(tmp_path, capsys, text):
    path = tmp_path / "trace.proof"
    path.write_text(text, encoding="utf-8")
    assert main(["check", str(path)]) == EXIT_PROOF
    assert json.loads(capsys.readouterr().out)["is_proof"] is True


@pytest.mark.parametrize(
    "text", [BRANCH_WITHOUT_WEAK_INSTANCE, BRANCH_WITHOUT_STRONG_INSTANCE], ids=["weak", "strong"]
)
def test_check_completes_a_branch_without_instances(tmp_path, capsys, text):
    path = tmp_path / "trace.proof"
    path.write_text(text, encoding="utf-8")
    assert main(["check", str(path)]) == EXIT_PROOF
    assert capsys.readouterr().out == '{"acyclic": true, "is_proof": true, "tautology": true}\n'


@pytest.mark.parametrize("option", [["--format", "leancop"], ["--skolem-prefix", "sk"], ["--def-threshold", "4"]])
def test_removed_options_are_usage_errors(capsys, option):
    with pytest.raises(SystemExit) as excinfo:
        main(["check", *option, fixture("leancop_simple.proof")])
    assert excinfo.value.code == EXIT_ERROR
    assert "unrecognized arguments" in capsys.readouterr().err


# --- check ---


def test_check_proof_exit_zero(capsys):
    assert main(["check", fixture("verit_transitivity.proof")]) == EXIT_PROOF
    out = json.loads(capsys.readouterr().out)
    assert out["is_proof"] is True


def test_check_not_proof_exit_one(capsys):
    assert main(["check", fixture("verit_not_proof.proof")]) == EXIT_NOT_PROOF
    out = json.loads(capsys.readouterr().out)
    assert out["is_proof"] is False
    assert out["counterexample"]


def test_check_malformed_exit_two(capsys):
    assert main(["check", fixture("malformed.proof")]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "line" in err


@pytest.mark.parametrize("text", DUPLICATE_BIND_TRACES, ids=["last-is-c", "last-is-d"])
def test_variable_bound_twice_exits_two(tmp_path, capsys, text):
    path = tmp_path / "bind.proof"
    path.write_text(text, encoding="utf-8")
    assert main(["check", str(path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{path}: variable 'X' bound twice at line 6, column 49\n"
    main(["batch", str(tmp_path)])
    assert json.loads(capsys.readouterr().out)["files"]["bind.proof"]["status"] == "error:parse"


@pytest.mark.parametrize(
    "text, message", list(zip(REPEATED_ATTRIBUTE_TRACES, REPEATED_ATTRIBUTE_ERRORS)), ids=["conclusion", "clauses"]
)
def test_step_attribute_given_twice_exits_two(tmp_path, capsys, text, message):
    path = tmp_path / "twice.smt"
    path.write_text(text, encoding="utf-8")
    assert main(["check", str(path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{path}: {message}\n"
    main(["batch", str(tmp_path)])
    assert json.loads(capsys.readouterr().out)["files"]["twice.smt"]["status"] == "error:parse"


def test_theory_other_than_equality_exits_two(tmp_path, capsys):
    # the transitivity clause would read as an equality axiom whatever its theory
    path = tmp_path / "theory.proof"
    path.write_text(EQUALITY_THEORY_TRACE.replace("theory(equality)", "theory(arithmetic)"), encoding="utf-8")
    assert main(["check", str(path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{path}: unknown theory 'arithmetic' at line 8, column 54\n"
    main(["batch", str(tmp_path)])
    assert json.loads(capsys.readouterr().out)["files"]["theory.proof"]["status"] == "error:parse"


def _smt_refutation(positive: str, negative: str) -> str:
    return (
        f"(set .c1 (input :conclusion (({positive}))))\n"
        f"(set .c2 (input :conclusion ((not {negative}))))\n"
        "(set .c3 (resolution :clauses (.c1 .c2) :conclusion ()))\n"
    )


# SMT-LIB admits no keyword as a term or an atom: such a refutation is
# malformed, not a proof, and the error is located at the step
KEYWORD_ERROR = "keyword ':x' used as a term or an atom at line 1, column 1"


@pytest.mark.parametrize(
    "name, text, message",
    [
        (
            "clause.proof",
            "fof(ax, axiom, ![X]: p(X)).\ncnf(1, plain, [~p(X1)], clausify(nope)).\n",
            "clause 1 refers to unknown input formula 'nope'",
        ),
        (
            "empty.smt",
            "(set .c1 (input :conclusion ((p a))))\n(set .c2 (input :conclusion ()))\n",
            "input step with an empty clause",
        ),
        ("term.smt", _smt_refutation("p :x", "(p :x)"), KEYWORD_ERROR),
        (
            "atom.smt",
            "(set .c1 (input :conclusion (:x)))\n"
            "(set .c2 (input :conclusion ((not :x))))\n"
            "(set .c3 (resolution :clauses (.c1 .c2) :conclusion ()))\n",
            KEYWORD_ERROR,
        ),
        ("predicate.smt", _smt_refutation(":x a", "(:x a)"), KEYWORD_ERROR),
    ],
    ids=["unknown-input", "empty-input-clause", "keyword-term", "keyword-atom", "keyword-predicate"],
)
def test_unusable_import_exits_two(tmp_path, capsys, name, text, message):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    assert main(["check", str(path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{path}: {message}\n"
    main(["batch", str(tmp_path)])
    assert json.loads(capsys.readouterr().out)["files"][name]["status"] == "error:import"


@pytest.mark.parametrize("command", COMMANDS)
def test_crash_exits_two_with_its_type(capsys, monkeypatch, command):
    def crash(path, config):
        raise RuntimeError("boom")

    monkeypatch.setattr("exproof.cli.load_sequent", crash)
    path = fixture("verit_propositional.proof")
    assert main(command + [path]) == EXIT_ERROR
    assert capsys.readouterr().err == f"{path}: RuntimeError: boom\n"


@pytest.mark.parametrize("command", COMMANDS)
def test_nested_term_proof_never_exits_one(tmp_path, capsys, command):
    """A valid refutation over a term nested 300 deep, past the depth at
    which recursive term equality, hashing and printing ran out of stack."""
    path = tmp_path / "nested.proof"
    path.write_text(nested_term_trace("verit", 300), encoding="utf-8")
    assert main(command + [str(path)]) == EXIT_PROOF
    assert capsys.readouterr().err == ""


DEEP_TERM = 10_000


@pytest.fixture(scope="module")
def deep_term_traces(tmp_path_factory):
    """A directory holding a proof over a term nested DEEP_TERM deep in
    each trace format."""
    directory = tmp_path_factory.mktemp("deep_terms")
    for fmt in ("verit", "leancop"):
        (directory / f"{fmt}.proof").write_text(nested_term_trace(fmt, DEEP_TERM), encoding="utf-8")
    return directory


@pytest.mark.parametrize("fmt", ["verit", "leancop"])
@pytest.mark.parametrize("command", COMMANDS)
def test_deep_term_passes_every_command(deep_term_traces, capsys, fmt, command):
    assert main(command + [str(deep_term_traces / f"{fmt}.proof")]) == EXIT_PROOF
    captured = capsys.readouterr()
    assert captured.err == ""
    deep = "f(" * DEEP_TERM + "a" + ")" * DEEP_TERM
    if command == ["check"]:
        assert json.loads(captured.out)["is_proof"] is True
    else:
        # the instance term, written out by the term printer
        assert deep in captured.out


def test_deep_term_batch_entries_do_not_depend_on_jobs(deep_term_traces, capsys):
    assert main(["batch", "--jobs", "1", str(deep_term_traces)]) == EXIT_PROOF
    serial = _without_seconds(json.loads(capsys.readouterr().out))
    assert main(["batch", "--jobs", "2", str(deep_term_traces)]) == EXIT_PROOF
    assert _without_seconds(json.loads(capsys.readouterr().out)) == serial
    assert {name: e["status"] for name, e in serial["files"].items()} == {
        "verit.proof": "proof",
        "leancop.proof": "proof",
    }


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "cannot read: No such file or directory"),
        (b"\xff", "not UTF-8 text at byte offset 0"),
        (b"\xef\xbb\xbf\xff", "not UTF-8 text at byte offset 3"),  # the offset counts the byte-order mark
    ],
)
@pytest.mark.parametrize("command", [["check"], ["show"], ["export"]])
def test_unreadable_input_exit_two(tmp_path, capsys, command, content, message):
    path = tmp_path / "input.proof"
    if content is not None:
        path.write_bytes(content)
    assert main(command + [str(path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{path}: {message}")


@pytest.mark.parametrize("name", ["verit_transitivity.proof", "leancop_simple.proof"])
def test_byte_order_mark_is_skipped(tmp_path, capsys, name):
    path = tmp_path / name
    path.write_bytes(b"\xef\xbb\xbf" + (FIXTURES / name).read_bytes())
    assert main(["check", str(path)]) == EXIT_PROOF
    capsys.readouterr()
    assert main(["batch", str(tmp_path)]) == EXIT_PROOF
    assert json.loads(capsys.readouterr().out)["files"][name]["status"] == "proof"


def test_check_leancop_fixtures(capsys):
    for name in ("leancop_simple.proof", "leancop_exists.proof", "leancop_skolem.proof"):
        assert main(["check", fixture(name)]) == EXIT_PROOF
        capsys.readouterr()


# --- show ---


def test_show_shallow_with_instances(capsys):
    assert main(["show", fixture("leancop_simple.proof")]) == EXIT_PROOF
    out = capsys.readouterr().out
    assert "![X]: p(X) ⊢ p(a)" in out
    assert "instances: X ∈ {a}" in out


def test_show_deep(capsys):
    assert main(["show", "--deep", fixture("leancop_simple.proof")]) == EXIT_PROOF
    assert capsys.readouterr().out.strip() == "p(a) ⊢ p(a)"


def test_show_empty_succedent_rendering(capsys):
    assert main(["show", "--deep", fixture("verit_propositional.proof")]) == EXIT_PROOF
    assert capsys.readouterr().out.strip().endswith("⊢")


def test_show_color_env(capsys, monkeypatch):
    monkeypatch.setenv("EXPROOF_COLOR", "1")
    main(["show", fixture("leancop_simple.proof")])
    assert "\x1b[" in capsys.readouterr().out
    monkeypatch.setenv("EXPROOF_COLOR", "0")
    main(["show", fixture("leancop_simple.proof")])
    assert "\x1b[" not in capsys.readouterr().out


# --- export ---


def test_export_json_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "es.json"
    code = main(["export", "--json", "--out", str(out_path), fixture("leancop_skolem.proof")])
    assert code == EXIT_PROOF
    data = json.loads(out_path.read_text())
    cfg = RunConfig("export", (fixture("leancop_skolem.proof"),))
    es, _, _ = load_sequent(fixture("leancop_skolem.proof"), cfg)
    assert sequent_from_json(data) == es


@pytest.mark.parametrize(
    "name, trace, atom",
    [
        # a constant named with a capital, quoted in the trace
        (
            "upper.p",
            "fof(ax1, axiom, ![X]: p(X)).\n"
            "fof(conj, conjecture, p('Abc')).\n"
            "cnf(1, plain, [~p(X1)], clausify(ax1)).\n"
            "cnf(2, plain, [p('Abc')], clausify(conj)).\n"
            "cnf('s1', plain, [p('Abc')], start(2)).\n"
            "cnf('e1', plain, [~p('Abc')], extension(1, bind([X1], ['Abc']))).\n",
            "p('Abc')",
        ),
        # an SMT symbol that is no name of the textual notation
        (
            "bang.smt",
            "(set .c1 (input :conclusion ((p a!1))))\n"
            "(set .c2 (input :conclusion ((not (p a!1)))))\n"
            "(set .c3 (resolution :clauses (.c1 .c2) :conclusion ()))\n",
            "p('a!1')",
        ),
        # an SMT quoted symbol, named by the text between its bars
        (
            "bars.smt",
            "(set .c1 (input :conclusion ((p |a b|))))\n"
            "(set .c2 (input :conclusion ((not (p |a b|)))))\n"
            "(set .c3 (resolution :clauses (.c1 .c2) :conclusion ()))\n",
            "p('a b')",
        ),
    ],
)
def test_export_json_quotes_symbols_that_are_not_plain_names(tmp_path, name, trace, atom):
    path, out_path = tmp_path / name, tmp_path / "es.json"
    path.write_text(trace)
    assert main(["export", "--json", "--out", str(out_path), str(path)]) == EXIT_PROOF
    assert f'"formula": "{atom}"' in out_path.read_text()
    es, _, _ = load_sequent(str(path), RunConfig("export", (str(path),)))
    assert sequent_from_json(json.loads(out_path.read_text())) == es


def test_smt_quoted_symbols_are_read_whole(tmp_path, capsys):
    path = tmp_path / "t.smt"
    # two distinct quoted symbols: the inputs are satisfiable
    path.write_text(_smt_refutation("p |a b|", "(p |a  b|)"))
    assert main(["check", str(path)]) == EXIT_NOT_PROOF
    assert json.loads(capsys.readouterr().out)["counterexample"] == {"p('a b')": True, "p('a  b')": False}
    # `|a|` and `a` are one symbol; `|:x|` is a symbol, not a keyword, and
    # so is the empty `||`, as a term, a predicate and an atom
    for positive, negative in (("p |a|", "(p a)"), ("p |:x|", "(p |:x|)"), ("p ||", "(p ||)"), ("||", "||")):
        path.write_text(_smt_refutation(positive, negative))
        assert main(["check", str(path)]) == EXIT_PROOF
    capsys.readouterr()


@pytest.mark.parametrize(
    "text, message",
    [
        ("(set .c1 (input :conclusion ((p a))))\n(set .c2 (input :conclusion ((p |a))))",
         "unterminated quoted symbol at line 2, column 33"),
        ('(set .c1 (input :conclusion ((p "a""))))', "unterminated string literal at line 1, column 33"),
    ],
)
def test_smt_open_quote_is_an_input_error_at_its_position(tmp_path, capsys, text, message):
    path = tmp_path / "t.smt"
    path.write_text(text)
    assert main(["check", str(path)]) == EXIT_ERROR
    assert capsys.readouterr().err == f"{path}: {message}\n"


@pytest.mark.parametrize("key", ["|:conclusion|", "|:clauses|"])
def test_smt_quoted_symbol_is_no_step_attribute(tmp_path, capsys, key):
    # in SMT-LIB `|:conclusion|` is a symbol, not the keyword `:conclusion`
    path = tmp_path / "t.smt"
    path.write_text(f"(set .c0 (input :conclusion ((q b))))\n  (set .c1 (input {key} ((p a))))\n")
    assert main(["check", str(path)]) == EXIT_ERROR
    assert capsys.readouterr().err == f"{path}: unknown step attribute '{key}' at line 2, column 3\n"


def _random_json(rng, depth=0):
    roll = rng.random()
    if depth > 4 or roll < 0.3:
        return rng.choice([0, -3, 1.5, True, False, None, "", "p(a)", 'é ⊢ "\\\n'])
    if roll < 0.65:
        keys = rng.choices(["kind", "left", "é", ""], k=rng.randint(0, 4))
        return {key: _random_json(rng, depth + 1) for key in keys}
    return [_random_json(rng, depth + 1) for _ in range(rng.randint(0, 4))]


def test_json_pieces_matches_json_dumps():
    expected = lambda value: json.dumps(value, indent=2, sort_keys=True)
    for name in ("leancop_skolem.proof", "verit_congruence.proof"):
        es, _, _ = load_sequent(fixture(name), RunConfig("export", (fixture(name),)))
        data = sequent_to_json(es)
        assert "".join(json_pieces(data)) == expected(data)
    rng = random.Random(7)
    for _ in range(2000):
        value = _random_json(rng)
        assert "".join(json_pieces(value)) == expected(value)


def test_export_dot_drinker_shape(capsys):
    # the existential fixture has a weak node with out-degree 1; use the
    # skolem fixture for a richer graph and check edge labelling
    assert main(["export", "--dot", fixture("leancop_skolem.proof")]) == EXIT_PROOF
    dot = capsys.readouterr().out
    assert dot.startswith("digraph")
    assert 'label="a"' in dot  # weak instance term on the edge
    assert "eigen: v_sk1" in dot


def test_export_dot_propositional_has_no_quantifier_nodes(capsys):
    assert main(["export", "--dot", fixture("verit_propositional.proof")]) == EXIT_PROOF
    dot = capsys.readouterr().out
    assert "![" not in dot and "?[" not in dot


def test_export_unwritable_path(capsys, tmp_path):
    target = tmp_path / "missing_dir" / "out.json"
    code = main(["export", "--out", str(target), fixture("leancop_simple.proof")])
    assert code == EXIT_ERROR


def test_dot_weak_out_degree_two():
    # hand-built drinker: one weak node with two labelled edges
    from test_check import drinker_sequent

    dot = sequent_to_dot(drinker_sequent())
    weak_edges = [l for l in dot.splitlines() if "n0 -> " in l and "label=" in l]
    assert len(weak_edges) == 2


def _transitivity_chain(n: int, missing: Optional[int] = None) -> str:
    """A verit refutation of `a0 = a1, ..., a{n-1} = an, ~(a0 = an)` through
    n-1 `eq_transitive` leaves `a0=ak, ak=ak+1 -> a0=ak+1`.  With
    0 < `missing` < n the input `a{missing} = a{missing+1}` is left out,
    so the deep sequent is falsifiable."""
    inputs = [k for k in range(n) if k != missing]
    lines = [f"(set .i{k} (input :conclusion ((= a{k} a{k + 1}))))" for k in inputs]
    lines.append(f"(set .g (input :conclusion ((not (= a0 a{n})))))")
    previous = "i0"
    for k in range(1, n):
        link = f" .i{k}" if k in inputs else ""
        lines.append(
            f"(set .t{k} (eq_transitive :conclusion "
            f"((not (= a0 a{k})) (not (= a{k} a{k + 1})) (= a0 a{k + 1}))))"
        )
        lines.append(
            f"(set .r{k} (resolution :clauses (.{previous}{link} .t{k}) "
            f":conclusion ((= a0 a{k + 1}))))"
        )
        previous = f"r{k}"
    lines.append(f"(set .end (resolution :clauses (.{previous} .g) :conclusion ()))")
    return "\n".join(lines) + "\n"


def test_long_transitivity_chain_is_a_proof(tmp_path, capsys):
    # the deep sequent nests the 1599 transitivity instances 1599 deep
    bdir = tmp_path / "long"
    bdir.mkdir()
    path = bdir / "chain.proof"
    path.write_text(_transitivity_chain(1600), encoding="utf-8")
    assert main(["check", str(path)]) == EXIT_PROOF
    assert json.loads(capsys.readouterr().out)["is_proof"] is True
    assert main(["batch", str(bdir)]) == EXIT_PROOF
    summary = json.loads(capsys.readouterr().out)
    assert summary["files"]["chain.proof"]["status"] == "proof"
    # the deep sequent prints as one formula nested 1599 deep
    assert main(["show", "--deep", str(path)]) == EXIT_PROOF
    assert capsys.readouterr().out.count("(") >= 1599
    assert main(["export", "--dot", str(path)]) == EXIT_PROOF
    assert capsys.readouterr().out.count(" -> ") > 1599


def _single_leaf_chain(n: int, rng: Optional[random.Random] = None, positive_first: bool = False) -> str:
    """A refutation of a0 = a1, ..., a{n-1} = a{n} and ~(a0 = a{n}) by one
    eq_transitive leaf with all n links.  With `rng` the leaf's literals are
    shuffled and each equality is written either way round."""
    lines = [f"(set .i{k} (input :conclusion ((= a{k} a{k + 1}))))" for k in range(n)]
    lines.append(f"(set .g (input :conclusion ((not (= a0 a{n})))))")
    sides = [(f"a{k}", f"a{k + 1}", "not") for k in range(n)] + [("a0", f"a{n}", "")]
    if positive_first:
        sides.insert(0, sides.pop())
    if rng is not None:
        rng.shuffle(sides)
        sides = [(t, s, sign) if rng.random() < 0.5 else (s, t, sign) for s, t, sign in sides]
    leaf = " ".join(f"({sign} (= {s} {t}))" if sign else f"(= {s} {t})" for s, t, sign in sides)
    lines.append(f"(set .t (eq_transitive :conclusion ({leaf})))")
    lines.append("(set .end (resolution :clauses (.t .g) :conclusion ()))")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "n, seed, positive_first",
    [(8, None, True), (30, 1, False), (30, 2, False), (300, 3, False)],
)
def test_single_transitivity_leaf_is_a_proof(tmp_path, capsys, n, seed, positive_first):
    # past eight literals the leaf used to be matched position by position
    # only, so the first three exited 2 with "cannot match"
    path = tmp_path / "leaf.proof"
    rng = None if seed is None else random.Random(seed)
    path.write_text(_single_leaf_chain(n, rng, positive_first), encoding="utf-8")
    assert main(["check", str(path)]) == EXIT_PROOF
    assert json.loads(capsys.readouterr().out)["is_proof"] is True


def test_ten_thousand_link_leaf_is_a_proof(tmp_path, capsys):
    # instances are put in at atoms only, so no quantifier node copies the
    # rest of the leaf's 10001-variable schema
    path = tmp_path / "leaf.proof"
    path.write_text(_single_leaf_chain(10_000), encoding="utf-8")
    assert main(["check", str(path)]) == EXIT_PROOF
    assert json.loads(capsys.readouterr().out)["is_proof"] is True


def test_loading_a_long_leaf_takes_memory_linear_in_its_length(tmp_path):
    # linear growth gives about 4x the peak for 4x the links, quadratic 16x
    peaks = []
    for n in (1000, 4000):
        path = tmp_path / f"leaf{n}.proof"
        path.write_text(_single_leaf_chain(n), encoding="utf-8")
        tracemalloc.start()
        try:
            load_sequent(str(path), RunConfig("check", ()))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 8 * peaks[0], peaks


# formulas nested three times deeper than CPython's default recursion limit
DEEP = 3000


def _export_kinds(tmp_path, path) -> list[str]:
    """`export` the trace to a file and return its `"kind"` lines, stripped;
    the JSON of a tree DEEP deep is too deep for `json.loads`."""
    out = tmp_path / "export.json"
    assert main(["export", "--out", str(out), str(path)]) == EXIT_PROOF
    with out.open(encoding="utf-8") as lines:
        return [line.strip().rstrip(",") for line in lines if '"kind"' in line]


def test_wide_input_clause_is_a_proof(tmp_path, capsys):
    # the input clause folds into a disjunction nested DEEP deep
    lines = ["(set .c (input :conclusion (" + " ".join(f"p{k}" for k in range(DEEP)) + ")))"]
    lines += [f"(set .u{k} (input :conclusion ((not p{k}))))" for k in range(DEEP)]
    units = " ".join(f".u{k}" for k in range(DEEP))
    lines.append(f"(set .end (resolution :clauses (.c {units}) :conclusion ()))")
    path = tmp_path / "wide.proof"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["check", str(path)]) == EXIT_PROOF
    assert json.loads(capsys.readouterr().out)["is_proof"] is True
    assert main(["show", "--deep", str(path)]) == EXIT_PROOF
    assert f"p{DEEP - 1}" in capsys.readouterr().out
    assert _export_kinds(tmp_path, path).count('"kind": "or"') == DEEP - 1


def test_deep_negation_is_a_proof(tmp_path, capsys):
    text = (
        f"fof(ax, axiom, {'~' * DEEP}p).\n"
        "fof(goal, conjecture, p).\n"
        "cnf(1, plain, [~p], clausify(ax)).\n"
        "cnf(2, plain, [p], clausify(goal)).\n"
        "cnf('s1', plain, [p], start(2)).\n"
        "cnf('e1', plain, [~p], extension(1)).\n"
    )
    path = tmp_path / "negations.proof"
    path.write_text(text, encoding="utf-8")
    assert main(["check", str(path)]) == EXIT_PROOF
    assert json.loads(capsys.readouterr().out)["is_proof"] is True
    assert main(["show", str(path)]) == EXIT_PROOF
    assert capsys.readouterr().out.startswith("~" * DEEP + "p ⊢ p")
    assert _export_kinds(tmp_path, path).count('"kind": "neg"') == DEEP


# --- import invariants ---


def test_starting_the_command_line_loads_no_dataclasses():
    # the records are tuples, so no `dataclasses` (and its `inspect`) to import;
    # `-S` keeps site hooks from loading modules of their own
    code = "import sys, exproof.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout == "[]\n"


@pytest.mark.parametrize("name", ["leancop_skolem.proof", "verit_transitivity.proof"])
def test_import_invariant_raises_exproof_error(monkeypatch, name):
    # both importers build their trees with `expand_formula`, which reads each back
    monkeypatch.setattr("exproof.expansion.shallow", lambda tree, polarity: Atom("drifted", ()))
    with pytest.raises(InvariantError):
        load_sequent(fixture(name), RunConfig("check", ()))


def _raises_invariant_error_under_optimisation(patch: str, name: str) -> bool:
    # `python -O` strips assert statements; the invariants must still run
    code = (
        f"{patch}\n"
        "from exproof.cli import RunConfig, load_sequent\n"
        "from exproof.core import Atom, InvariantError\n"
        "try:\n"
        f"    load_sequent({fixture(name)!r}, RunConfig('check', ()))\n"
        "except InvariantError:\n"
        "    print('raised')\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, check=True)
    return out.stdout == "raised\n"


def test_import_invariant_holds_under_optimisation():
    patch = "import exproof.expansion as m; m.shallow = lambda tree, polarity: Atom('drifted', ())"
    assert _raises_invariant_error_under_optimisation(patch, "leancop_simple.proof")


def test_instance_invariant_holds_under_optimisation():
    # an instance read wrongly off its leaf: every x_i is the chain's start
    patch = "import exproof.verit as m; m._walk = lambda edges, s, t: [(s, k) for k in range(-1, len(edges))]"
    assert _raises_invariant_error_under_optimisation(patch, "verit_transitivity.proof")


# --- batch ---


def test_batch_summary(tmp_path, capsys):
    import shutil

    bdir = tmp_path / "traces"
    bdir.mkdir()
    six = [
        "verit_transitivity.proof",
        "verit_congruence.proof",
        "leancop_simple.proof",
        "leancop_skolem.proof",
        "verit_not_proof.proof",
        "malformed.proof",
    ]
    for name in six:
        shutil.copy(FIXTURES / name, bdir / name)
    assert main(["batch", str(bdir)]) == EXIT_PROOF
    summary = json.loads(capsys.readouterr().out)
    assert summary["total"] == 6
    assert summary["imported"] == 5
    assert summary["proof"] == 4
    assert summary["not_proof"] == 1
    assert summary["errors"] == 1
    statuses = [e["status"] for e in summary["files"].values()]
    assert summary["proof"] == statuses.count("proof")
    assert summary["errors"] == sum(1 for s in statuses if s.startswith("error"))
    formats = {name: e["format"] for name, e in summary["files"].items()}
    assert formats["leancop_simple.proof"] == "leancop"
    assert formats["verit_transitivity.proof"] == "verit"
    assert all("seconds" in e for e in summary["files"].values())


def test_batch_rejects_inputs_of_one_file_name(tmp_path, capsys):
    # the summary is keyed by file name: two files of one name would leave
    # one result, so none is checked
    for sub, name in (("a", "leancop_simple.proof"), ("b", "verit_not_proof.proof")):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "x.proof").write_text((FIXTURES / name).read_text(), encoding="utf-8")
    first, second = tmp_path / "a" / "x.proof", tmp_path / "b" / "x.proof"
    for inputs in ([tmp_path / "a", tmp_path / "b"], [first, second]):
        assert main(["batch", *map(str, inputs)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"x.proof: several inputs have this file name: {first}, {second}\n"


def test_batch_unwritable_out(tmp_path, capsys):
    target = tmp_path / "missing_dir" / "summary.json"
    source = fixture("leancop_simple.proof")
    assert main(["batch", "--out", str(target), source]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{source}: [Errno 2] No such file or directory: {str(target)!r}\n"


def test_batch_empty_directory(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["batch", str(empty)]) == EXIT_PROOF
    summary = json.loads(capsys.readouterr().out)
    assert summary["total"] == 0 and summary["imported"] == 0


def test_batch_reports_unreadable_file(tmp_path, capsys):
    bdir = tmp_path / "traces"
    bdir.mkdir()
    (bdir / "binary.proof").write_bytes(b"\xff")
    (bdir / "good.proof").write_text((FIXTURES / "leancop_simple.proof").read_text(), encoding="utf-8")
    assert main(["batch", str(bdir)]) == EXIT_PROOF
    summary = json.loads(capsys.readouterr().out)
    assert summary["files"]["binary.proof"]["status"] == "error:io"
    assert "byte offset 0" in summary["files"]["binary.proof"]["error"]
    assert summary["files"]["good.proof"]["status"] == "proof"
    assert summary["errors"] == 1 and summary["proof"] == 1


def _leancop_chain(n: int, variant: str = "proof") -> str:
    """A connection proof of `?[Z]: p{n}(Z)` from `![X]: p0(X)` and the
    axioms `![X]: (p{i-1}(X) => ?[Y]: p{i}(Y))`, each axiom instantiated
    with the Skolem term of the one before.  "broken" instantiates axiom 1
    with a stray constant, so the deep sequent is falsifiable; "loop" feeds
    the base and axiom 1 the last Skolem term, a dependency cycle."""
    t = ["a"] + [f"sk{i}(V{i})" for i in range(1, n + 1)]
    base = t[n] if variant == "loop" else "a"
    first = "b" if variant == "broken" else base
    lines = ["fof(base, axiom, ![X]: p0(X))."]
    lines += [f"fof(ax{i}, axiom, ![X]: (p{i - 1}(X) => ?[Y]: p{i}(Y)))." for i in range(1, n + 1)]
    lines.append(f"fof(goal, conjecture, ?[Z]: p{n}(Z)).")
    lines.append("cnf(0, plain, [~p0(W0)], clausify(base)).")
    lines += [f"cnf({i}, plain, [p{i - 1}(V{i}), ~p{i}({t[i]})], clausify(ax{i}))." for i in range(1, n + 1)]
    lines.append(f"cnf({n + 1}, plain, [p{n}(W1)], clausify(goal)).")
    lines.append(f"cnf('s0', plain, [p{n}({t[n]})], start({n + 1}, bind([W1], [{t[n]}]))).")
    for i in range(n, 0, -1):
        b = first if i == 1 else t[i - 1]
        lines.append(f"cnf('e{i}', plain, [p{i - 1}({b}), ~p{i}({t[i]})], extension({i}, bind([V{i}], [{b}]))).")
    lines.append(f"cnf('e0', plain, [~p0({base})], extension(0, bind([W0], [{base}]))).")
    return "\n".join(lines) + "\n"


def _without_seconds(summary: dict) -> dict:
    for entry in summary["files"].values():
        del entry["seconds"]
    return summary


# batch workers see the test's monkeypatching only if they are forked
FORKED_POOL = pytest.mark.skipif(
    not hasattr(os, "fork") or (os.cpu_count() or 1) < 2,
    reason="needs two CPUs and os.fork",
)


def test_batch_parallel_matches_serial(tmp_path, capsys):
    import shutil

    bdir = tmp_path / "traces"
    bdir.mkdir()
    for path in FIXTURES.iterdir():
        shutil.copy(path, bdir / path.name)
    (bdir / "binary.proof").write_bytes(b"\xff")
    traces = {f"v{n:02d}.proof": _transitivity_chain(n) for n in range(2, 16)}
    traces.update({f"v{n:02d}-broken.proof": _transitivity_chain(n, n // 2) for n in range(3, 9)})
    traces.update({f"l{n:02d}.proof": _leancop_chain(n) for n in range(1, 11)})
    for variant in ("broken", "loop"):
        traces.update({f"l{n:02d}-{variant}.proof": _leancop_chain(n, variant) for n in range(2, 7)})
    for name, text in traces.items():
        (bdir / name).write_text(text, encoding="utf-8")
    assert main(["batch", str(bdir)]) == EXIT_PROOF
    serial = _without_seconds(json.loads(capsys.readouterr().out))
    assert main(["batch", "--jobs", "2", str(bdir)]) == EXIT_PROOF
    parallel = _without_seconds(json.loads(capsys.readouterr().out))
    assert parallel == serial
    assert serial["total"] == 50
    statuses = {name: e["status"] for name, e in serial["files"].items()}
    assert {statuses[name] for name in traces} == {"proof", "not-proof"}
    assert statuses["v05-broken.proof"] == statuses["l04-broken.proof"] == statuses["l04-loop.proof"] == "not-proof"
    assert statuses["binary.proof"] == "error:io" and statuses["malformed.proof"] == "error:parse"


@pytest.mark.parametrize("jobs", ["1", pytest.param("2", marks=FORKED_POOL)])
def test_batch_reports_internal_error(tmp_path, capsys, monkeypatch, jobs):
    import shutil

    def crash(es):
        raise RuntimeError(f"boom in {os.getpid()}")

    monkeypatch.setattr("exproof.cli.verdict", crash)
    bdir = tmp_path / "traces"
    bdir.mkdir()
    for name in ("verit_transitivity.proof", "leancop_simple.proof", "malformed.proof"):
        shutil.copy(FIXTURES / name, bdir / name)
    (bdir / "binary.proof").write_bytes(b"\xff")
    assert main(["batch", "--jobs", jobs, str(bdir)]) == EXIT_PROOF
    summary = json.loads(capsys.readouterr().out)
    files = summary["files"]
    assert files["binary.proof"]["status"] == "error:io"
    assert files["malformed.proof"]["status"] == "error:parse"
    for name, fmt in (("verit_transitivity.proof", "verit"), ("leancop_simple.proof", "leancop")):
        assert files[name]["status"] == "error:internal"
        assert files[name]["format"] == fmt
        kind, _, pid = files[name]["error"].rpartition(" in ")
        assert kind == "RuntimeError: boom"
        assert (int(pid) == os.getpid()) == (jobs == "1")
    assert summary["errors"] == summary["total"] == 4
    assert summary["imported"] == 0


def _recording_forks(monkeypatch) -> list[int]:
    """The ids of the processes `os.fork` starts from now on."""
    forked: list[int] = []
    fork = os.fork

    def recording_fork() -> int:
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return forked


def _assert_reaped(forked: list[int]) -> None:
    # a child that is reaped is no longer this process's child at all
    assert forked
    for pid in forked:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _batch_with_dying_workers(capsys, monkeypatch, die) -> str:
    """The message of a `batch --jobs 2` whose workers run `die` in place of
    a verdict; checks that it exits 2, prints no summary and reaps every
    worker."""
    monkeypatch.setattr("exproof.cli.verdict", lambda es: die())
    forked = _recording_forks(monkeypatch)
    assert main(["batch", "--jobs", "2", str(FIXTURES)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    _assert_reaped(forked)
    return captured.err


@FORKED_POOL
def test_batch_worker_that_dies_exits_two(capsys, monkeypatch):
    for die, message in [
        (lambda: os._exit(3), "a worker exited with status 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "a worker was killed by signal 9"),
        (lambda: os._exit(0), "a worker returned 0 of its "),  # its share cut short
    ]:
        with monkeypatch.context() as patch:
            err = _batch_with_dying_workers(capsys, patch, die)
        assert err.startswith(f"{FIXTURES}: BrokenProcessPool: {message}")


@FORKED_POOL
def test_batch_worker_that_exits_nonzero_after_its_share_exits_two(capsys, monkeypatch):
    exit_now = os._exit
    monkeypatch.setattr(os, "_exit", lambda status: exit_now(status or 5))  # called in the workers only
    forked = _recording_forks(monkeypatch)
    assert main(["batch", "--jobs", "2", str(FIXTURES)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{FIXTURES}: BrokenProcessPool: a worker exited with status 5\n"
    _assert_reaped(forked)


def test_parallel_batch_loads_no_process_pool(tmp_path):
    # the workers are forked by the batch itself: neither `multiprocessing`
    # nor `concurrent.futures` is imported unless a worker fails
    code = (
        "import sys\n"
        "from exproof.cli import main\n"
        f"main(['batch', '--jobs', '2', '--out', {str(tmp_path / 'summary.json')!r}, {str(FIXTURES)!r}])\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] in ('multiprocessing', 'concurrent')))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout == "[]\n"
    assert json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))["total"] == len(list(FIXTURES.iterdir()))


def test_size_skewed_batch_matches_serial(tmp_path, capsys):
    # one long chain first, then small and middling files by turns: dealt
    # round robin, the long chain and every middling file share a worker
    bdir = tmp_path / "traces"
    bdir.mkdir()
    texts = [_leancop_chain(100)]
    for k in range(1, 21):
        texts.append(_transitivity_chain(2) if k % 2 else _leancop_chain(4, "broken" if k % 4 == 0 else "proof"))
    files = []
    for k, text in enumerate(texts):
        files.append(bdir / f"f{k:02d}.proof")
        files[-1].write_text(text, encoding="utf-8")
    assert main(["batch", str(bdir)]) == EXIT_PROOF
    serial = _without_seconds(json.loads(capsys.readouterr().out))
    assert main(["batch", "--jobs", "2", str(bdir)]) == EXIT_PROOF
    assert _without_seconds(json.loads(capsys.readouterr().out)) == serial
    statuses = [serial["files"][path.name]["status"] for path in files]
    assert statuses == ["proof"] + ["not-proof" if k % 4 == 0 else "proof" for k in range(1, 21)]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
def test_spread_worker_leaves_every_cpu_allowed():
    allowed = os.sched_getaffinity(0)
    _spread_worker()
    assert os.sched_getaffinity(0) == allowed


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_batch_rejects_jobs_below_one(tmp_path, capsys, jobs):
    with pytest.raises(SystemExit) as exited:
        main(["batch", "--jobs", jobs, str(tmp_path)])
    assert exited.value.code == 2
    assert f"--jobs: must be at least 1, got {jobs}" in capsys.readouterr().err
