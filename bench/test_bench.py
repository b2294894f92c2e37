"""Tests of the benchmark's generators, checks and tracer.

Run from the repository root:  python3 -m pytest bench/test_bench.py -q
"""
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import verify  # noqa: E402
from exproof import check, cli  # noqa: E402
from exproof.core import ExproofError  # noqa: E402
from exproof.expansion import shallow_sequent  # noqa: E402


def small_traces(seed: int):
    rng = random.Random(seed)
    for n in (2, 3, 7):
        yield gen.verit_chain(rng, n, f"v{n}.proof")
        yield gen.verit_chain(rng, n, f"v{n}-broken.proof", missing=rng.randrange(n))
        for variant in ("proof", "broken", "loop"):
            yield gen.leancop_chain(rng, n, f"l{n}-{variant}.proof", variant)
    yield gen.quantifier_shift(rng, "shift.proof")


def run_exproof(tmp_path: Path, trace: gen.Trace):
    path = tmp_path / trace.name
    path.write_text(trace.text, encoding="utf-8")
    es, report, _fmt = cli.load_sequent(str(path), cli.RunConfig("check", (str(path),)))
    return es, report, check.verdict(es).to_json()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_small_traces_match_their_construction(tmp_path, seed):
    for trace in small_traces(seed):
        es, report, verdict = run_exproof(tmp_path, trace)
        assert verify.verdict_problems(trace.expect, verdict) == [], trace.name
        # report, shallow sequent and graph size are predicted for every
        # variant, not only for proofs
        graph = check.dependency_relation(es)
        assert verify.import_problems(trace.expect, report, shallow_sequent(es), graph) == [], trace.name


def test_expectations_state_the_construction():
    rng = random.Random(0)
    chain = gen.verit_chain(rng, 5, "v.proof").expect
    assert (chain.dep_nodes, chain.dep_edges) == (9, 0)
    assert chain.report["schema_instances"] == {"transitivity": 4}
    proof = gen.leancop_chain(rng, 4, "l.proof").expect
    assert (proof.dep_nodes, proof.dep_edges, proof.cycle) == (6, 4, None)
    loop = gen.leancop_chain(rng, 4, "l.proof", "loop").expect
    assert loop.cycle == ("ant[1].0", "ant[2].0", "ant[3].0", "ant[4].0")
    assert (loop.tautology, loop.acyclic, loop.dep_edges) == (True, False, 6)
    assert not gen.leancop_chain(rng, 4, "l.proof", "broken").expect.tautology


def test_same_seed_same_inputs():
    for name in gen.WORKLOADS[:2]:
        assert [t.text for t in gen.workload(name, 5)] == [t.text for t in gen.workload(name, 5)]
    assert gen.workload("verit-eqchain", 5)[0].text != gen.workload("verit-eqchain", 6)[0].text


def test_mixed_corpus_make_up():
    traces = gen.workload("mixed-corpus", 1)
    not_proofs = sum(not t.expect.is_proof for t in traces)
    assert len(traces) == 224 and not_proofs == 80
    assert len({t.name for t in traces}) == len(traces)


def test_verdict_checks_catch_wrong_answers():
    trace = gen.verit_chain(random.Random(4), 3, "v.proof", missing=1)
    expect = trace.expect
    assert verify.verdict_problems(expect, {"is_proof": True, "tautology": True, "acyclic": True})
    all_true = {gen.atom_key(a): True for f in expect.deep[0] for a in atoms_of(f)}
    # with every atom true the goal's negation is false: not a counterexample
    bad = {"is_proof": False, "tautology": False, "acyclic": True, "counterexample": all_true}
    assert "counterexample does not falsify the deep sequent" in verify.verdict_problems(expect, bad)
    loop = gen.leancop_chain(random.Random(4), 3, "l.proof", "loop").expect
    rotated = {"is_proof": False, "tautology": True, "acyclic": False,
               "cycle": ["ant[2].0", "ant[3].0", "ant[1].0"]}
    assert verify.verdict_problems(loop, rotated) == []
    reversed_cycle = dict(rotated, cycle=["ant[3].0", "ant[2].0", "ant[1].0"])
    assert verify.verdict_problems(loop, reversed_cycle)


def atoms_of(f):
    if f[0] == "atom":
        yield f
    else:
        for part in f[1:]:
            if isinstance(part, tuple):
                yield from atoms_of(part)


def test_alpha_key_ignores_bound_names_only():
    f = gen.forall("X", gen.atom("p", gen.var("X"), gen.var("Z")))
    g = gen.forall("Y", gen.atom("p", gen.var("Y"), gen.var("Z")))
    h = gen.forall("Y", gen.atom("p", gen.var("Y"), gen.var("W")))
    assert gen.alpha_key(f) == gen.alpha_key(g) != gen.alpha_key(h)


def test_self_times_subtract_children_and_sizing():
    recorded = [
        (1, None, "cli.load", 0, 0.0, 1.0, 0.0),
        (2, 1, "verit.parse", 0, 0.1, 0.4, 0.05),
        (3, 1, "verit.import", 0, 0.5, 0.9, 0.0),
        (4, 3, "verit.match", 0, 0.6, 0.7, 0.0),
    ]
    selfs = spans.self_times(recorded)
    assert selfs == pytest.approx({1: 0.25, 2: 0.3, 3: 0.3, 4: 0.1})
    metrics = spans.layer_metrics(recorded, {2: {"verit.steps": 7}})
    assert metrics["verit.import_s"] == pytest.approx(0.3)
    assert metrics["verit.steps"] == 7 and metrics["leancop.parse_s"] == 0


def test_tracer_records_nested_spans_and_restores(tmp_path):
    trace = gen.verit_chain(random.Random(9), 4, "v.proof")
    tracer = spans.Tracer()
    original = cli.load_sequent
    tracer.install()
    try:
        run_exproof(tmp_path, trace)
    finally:
        tracer.uninstall()
    assert cli.load_sequent is original
    recorded, sizes = tracer.take()
    names = {s[0]: s[2] for s in recorded}
    parents = {s[2]: names.get(s[1]) for s in recorded}
    assert parents["verit.parse"] == "cli.load"
    assert parents["verit.match"] == "verit.import"
    assert parents["check.taut"] == "check.verdict"
    metrics = spans.layer_metrics(recorded, sizes)
    assert metrics["verit.steps"] == len(trace.text.splitlines())
    assert metrics["check.dep_nodes"] == trace.expect.dep_nodes
    assert metrics["verit.flips"] == trace.expect.report["flips"]
    assert json.dumps(metrics)

    malformed = HERE.parent / "tests" / "fixtures" / "malformed.proof"
    tracer.install()
    try:
        with pytest.raises(ExproofError):
            cli.load_sequent(str(malformed), cli.RunConfig("check", (str(malformed),)))
    finally:
        tracer.uninstall()
    recorded, sizes = tracer.take()
    assert sorted(s[2] for s in recorded) == ["cli.load", "verit.parse"] and sizes == {}


def test_per_layer_metrics_are_the_declared_ones():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    produced = {**{m: "s" for m in spans.SELF_TIME.values()}, **{m: "count" for m in spans.SIZES},
                "cli.batch_wall_s": "s", "cli.batch_file_s_sum": "s"}
    assert {m["name"]: m["unit"] for m in declared} == produced


def test_speed_scales_a_sample_by_the_probes_around_it(monkeypatch):
    clock = iter([0.0, 0.05, 10.0, 10.35])  # probes of 0.05 s and 0.35 s
    monkeypatch.setattr(speed, "probe_work", lambda: 0)
    monkeypatch.setattr(speed, "perf_counter", lambda: next(clock))
    probe = speed.Speed()
    scaled: list[float] = []
    probe.record(2.0, scaled)
    assert scaled == []
    probe.measure()
    assert scaled == [pytest.approx(2.0 * speed.REFERENCE_S / 0.2)]


def test_rss_wrapper_reports_the_child_and_its_exit_code():
    ballast = bytearray(96 << 20)
    for i in range(0, len(ballast), 4096):  # touch every page: the parent's RSS passes 96 MB
        ballast[i] = 1
    cmd = [sys.executable, "-c", run.RSS_WRAPPER, sys.executable, "-c", "import sys; sys.exit(3)"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    assert done.returncode == 3
    assert int(done.stderr.splitlines()[-1]) < 48 << 10  # KiB
    del ballast


def test_run_prints_declared_metrics_and_fails_without_sources(tmp_path):
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "verit-eqchain", "--seed", "3",
           "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    bare = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert bare.returncode != 0 and bare.stdout == ""
