#!/usr/bin/env python3
"""Seeded benchmark of `exproof check` and `exproof batch`.

Run from the repository root:

    python3 bench/run.py --workload verit-eqchain --seed 1 --seconds 20 --trace 0

`--trace 0` measures the end-to-end metrics, `--trace 1` runs the traced
pass that gives the per-layer metrics (see bench/README.md).  Progress goes
to stderr; the last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Generated traces live in
`.bench_build/exproof-bench/` while the run lasts; the traced run leaves its
spans there.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import gen
import spans
import verify
from speed import REFERENCE_S, Speed

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "exproof-bench"

SETUP_LAUNCHES = 3  # interpreter starts per round
BATCH_JOBS = 2  # the sandbox has two CPUs
CHILD_TIMEOUT = 60  # seconds; a run must end within 180

# Linux carries a process's resident-memory high-water mark across exec, so
# a child's ru_maxrss is at least the RSS of the process it was forked from.
# The `check` subprocess of `peak_rss_mb` is therefore started from this
# small interpreter, which prints the child's ru_maxrss (KiB) to stderr.
RSS_WRAPPER = """\
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:])
_pid, status, usage = os.wait4(child.pid, 0)
child.returncode = os.waitstatus_to_exitcode(status)
print(usage.ru_maxrss, file=sys.stderr)
sys.exit(child.returncode)
"""


class Run:
    """Operations attempted and failed, and wrong answers, of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def wrong(self, name: str, problems: list[str]) -> None:
        self.problems += [f"{name}: {p}" for p in problems]


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


# ---------------------------------------------------------------------------
# inputs


def write_inputs(workload: str, seed: int, run_dir: Path) -> tuple[list[tuple[Path, gen.Expected]], list]:
    """Write the workload's traces into `run_dir/corpus`.  Returns them as
    (path, expectation) pairs, and the fixture files as a control set."""
    corpus = run_dir / "corpus"
    corpus.mkdir(parents=True)
    files = []
    for trace in gen.workload(workload, seed):
        path = corpus / trace.name
        path.write_text(trace.text, encoding="utf-8")
        files.append((path, trace.expect))
    fixtures = []
    for name, expect in gen.FIXTURES.items():
        source = ROOT / "tests" / "fixtures" / name
        fixtures.append((source, expect))
        if workload == "mixed-corpus":
            shutil.copyfile(source, corpus / name)
            files.append((corpus / name, expect))
    return files, fixtures


# ---------------------------------------------------------------------------
# in-process checks


def check_file(path: Path):
    """`cli.load_sequent` followed by `check.verdict`, looked up at call
    time so that the traced run sees its wrappers."""
    from exproof import check, cli

    es, report, _fmt = cli.load_sequent(str(path), cli.RunConfig("check", (str(path),)))
    return es, report, check.verdict(es)


def timed_pass(files, run: Run, samples: list[float], verify_import: bool = False,
               speed: Speed | None = None, raw: list[float] | None = None) -> None:
    """Check every file once, timing each check; with `speed`, the samples
    reach `samples` scaled to reference speed at the next probe, and `raw`
    gets them as measured.  With `verify_import`, also compare the
    import report, shallow sequent and dependency graph of every proof with
    its construction (after the timed region)."""
    from exproof.check import dependency_relation
    from exproof.expansion import shallow_sequent

    for path, expect in files:
        run.attempted += 1
        if speed:
            speed.refresh()
        start = time.perf_counter()
        try:
            es, report, v = check_file(path)
        except Exception as e:  # a crash of the program is a failed operation
            run.failed += 1
            log(f"{path.name}: {type(e).__name__}: {e}")
            continue
        elapsed = time.perf_counter() - start
        if speed:
            speed.record(elapsed, samples)
            raw.append(elapsed)
        else:
            samples.append(elapsed)
        problems = verify.verdict_problems(expect, v.to_json())
        if verify_import and expect.is_proof:
            problems += verify.import_problems(expect, report, shallow_sequent(es), dependency_relation(es))
        run.wrong(path.name, problems)


# ---------------------------------------------------------------------------
# subprocesses


def run_child(cmd: list[str]) -> tuple[float, int, str, str]:
    """Run a subprocess to its end.  Returns its wall seconds, exit code,
    stdout and stderr.  It waits with a blocking waitpid, since a timed
    `subprocess` wait polls and adds up to 50 ms; a timer kills a child
    that outlives CHILD_TIMEOUT."""
    with tempfile.TemporaryFile("w+", dir=WORK) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE, stderr=err, text=True)
        killer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        killer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _pid, status = os.waitpid(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait again
        err.seek(0)
        return wall, proc.returncode, out, err.read()


def setup_seconds(launches: int) -> list[float]:
    """Wall times of fresh interpreters that import `exproof.cli`."""
    times: list[float] = []
    for _ in range(launches):
        wall, code, _out, err = run_child([sys.executable, "-c", "import exproof.cli"])
        if code != 0:
            raise RuntimeError(f"importing exproof.cli failed: {err[-2000:]}")
        times.append(wall)
    return times


def batch_seconds(directory: Path, files, run: Run, speed: Speed, scaled: list[float]) -> float:
    """Wall seconds of one `exproof batch --jobs 2 DIR` subprocess,
    interpreter start included, between two probes, which append it to
    `scaled` at reference speed; checks every status."""
    cmd = [sys.executable, "-m", "exproof.cli", "batch", "--jobs", str(BATCH_JOBS), str(directory)]
    speed.measure()
    wall, code, out, err = run_child(cmd)
    speed.record(wall, scaled)
    speed.measure()
    run.attempted += len(files)
    if code != 0:
        run.failed += len(files)
        log(f"batch exited {code}: {err[-2000:]}")
    else:
        check_batch_summary(json.loads(out), files, run)
    return wall


def check_batch_summary(summary: dict, files, run: Run) -> None:
    entries = summary["files"]
    if len(entries) != len(files):
        run.wrong("batch", [f"{len(entries)} entries for {len(files)} files"])
    for path, expect in files:
        status = entries.get(path.name, {}).get("status", "missing")
        if status.startswith("error"):
            run.failed += 1
            log(f"batch {path.name}: {entries[path.name].get('error')}")
        elif status != expect.status:
            run.wrong(path.name, [f"batch status {status!r}, expected {expect.status!r}"])


def peak_rss_mb(path: Path, expect: gen.Expected, run: Run) -> float:
    """Peak resident memory of one `exproof check` subprocess, from that
    child's own rusage, read through RSS_WRAPPER."""
    cmd = [sys.executable, "-c", RSS_WRAPPER, sys.executable, "-m", "exproof.cli", "check", str(path)]
    _wall, code, out, err = run_child(cmd)
    run.attempted += 1
    if code not in (0, 1):
        run.failed += 1
        log(f"check {path.name} exited {code}: {err[-2000:]}")
    else:
        problems = verify.verdict_problems(expect, json.loads(out))
        if code != (0 if expect.is_proof else 1):
            problems.append(f"exit code {code}")
        run.wrong(path.name, problems)
    return int(err.splitlines()[-1]) / 1024


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end(files, corpus: Path, seconds: float, run: Run) -> dict:
    """Rounds of: one in-process check of every trace, one `batch` over
    the corpus, and a few interpreter starts, so that every metric samples
    the whole run.  Rounds stop before one would end past `seconds`.
    Times are scaled to reference speed (bench/speed.py); the medians as
    measured go to stderr."""
    setup_seconds(1)  # writes the bytecode cache; users run installed, compiled code
    speed = Speed()
    samples: list[float] = []
    batches: list[float] = []
    setup: list[float] = []
    raw_samples: list[float] = []
    raw_batches: list[float] = []
    raw_setup: list[float] = []
    start = time.perf_counter()
    rounds = 0
    while True:
        timed_pass(files, run, samples, verify_import=rounds == 0, speed=speed, raw=raw_samples)
        raw_batches.append(batch_seconds(corpus, files, run, speed, batches))
        launches = setup_seconds(SETUP_LAUNCHES)
        for t in launches:
            speed.record(t, setup)
        raw_setup += launches
        speed.measure()
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            break
    largest, expect = max(files, key=lambda f: (f[0].stat().st_size, f[0].name))
    rss = peak_rss_mb(largest, expect, run)
    log(f"{rounds} rounds: {len(samples)} checks, {len(batches)} batch runs, {len(setup)} interpreter starts")
    log(f"probe median {statistics.median(speed.probes):.4f} s over {len(speed.probes)} probes "
        f"(reference {REFERENCE_S} s); as measured: check {statistics.median(raw_samples):.4g} s, "
        f"batch {statistics.median(len(files) / w for w in raw_batches):.4g} files/s, "
        f"setup {statistics.median(raw_setup):.4g} s")
    return {
        "check_s_p50": {"value": statistics.median(samples), "unit": "s"},
        "batch_files_per_s": {"value": statistics.median(len(files) / w for w in batches), "unit": "files/s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }


def traced(files, fixtures, corpus: Path, run_dir: Path, out: Path, seconds: float, run: Run) -> dict:
    """Alternate untraced and traced passes over the workload's traces
    (plus the fixture files as a fixed control set, so every layer has a
    reading on every workload), then trace one in-process `batch`.  Layer
    metrics are medians over the traced passes of per-pass totals."""
    names = {p.name for p, _ in files}
    pass_files = files + [f for f in fixtures if f[0].name not in names]
    timed_pass(pass_files, run, [], verify_import=True)
    tracer = spans.Tracer()
    plain, timed, per_pass, recorded = [], [], [], []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        timed_pass(pass_files, run, [])
        plain.append(time.perf_counter() - start)
        tracer.install()
        try:
            start = time.perf_counter()
            timed_pass(pass_files, run, [])
            timed.append(time.perf_counter() - start)
        finally:
            tracer.uninstall()
        pass_spans, sizes = tracer.take()
        per_pass.append(spans.layer_metrics(pass_spans, sizes))
        recorded.append({"spans": pass_spans, "sizes": sizes})
        elapsed = time.perf_counter() - begin
        if elapsed * (len(timed) + 1) / len(timed) > seconds:
            break

    from exproof import cli

    summary_path = run_dir / "batch.json"
    tracer.install()
    try:
        status = cli.main(["batch", "--jobs", str(BATCH_JOBS), "--out", str(summary_path), str(corpus)])
    finally:
        tracer.uninstall()
    batch_spans, batch_sizes = tracer.take()
    run.attempted += len(files)
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    if status != 0:
        run.wrong("batch", [f"exit status {status}"])
    check_batch_summary(summary, files, run)

    # sizes are the same in every pass
    metrics = {name: statistics.median(p[name] for p in per_pass) if name not in spans.SIZES
               else per_pass[0][name] for name in per_pass[0]}
    metrics["cli.batch_wall_s"] = sum(e - s for _i, _p, n, _t, s, e, _z in batch_spans if n == "cli.batch")
    metrics["cli.batch_file_s_sum"] = sum(entry["seconds"] for entry in summary["files"].values())
    overhead = statistics.median(timed) / statistics.median(plain) - 1
    log(f"tracing overhead {overhead:+.1%}: traced pass median {statistics.median(timed):.3f} s, "
        f"untraced {statistics.median(plain):.3f} s, {len(timed)} passes each")
    out.write_text(json.dumps({
        "files": [p.name for p, _ in pass_files],
        "untraced_pass_s": plain,
        "traced_pass_s": timed,
        "overhead": overhead,
        "metrics": metrics,
        "span_fields": ["id", "parent", "name", "thread", "start", "end", "sizing"],
        "passes": [{"spans": r["spans"], "sizes": {str(k): v for k, v in r["sizes"].items()}}
                   for r in recorded],
        "batch": {"spans": batch_spans, "sizes": {str(k): v for k, v in batch_sizes.items()}},
    }) + "\n", encoding="utf-8")
    log(f"spans written to {out.relative_to(ROOT)}")
    return {name: {"value": metrics[name], "unit": "count" if name in spans.SIZES else "s"}
            for name in sorted(metrics)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "exproof" / "cli.py").is_file():
        log(f"no exproof sources under {SRC}: run from the repository root")
        return 2
    sys.path.insert(0, str(SRC))
    import exproof.cli  # noqa: F401  (outside any timed region)

    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    run = Run()
    try:
        files, fixtures = write_inputs(args.workload, args.seed, run_dir)
        corpus = run_dir / "corpus"
        if args.trace:
            out = WORK / f"trace-{args.workload}-{args.seed}.json"
            metrics = traced(files, fixtures, corpus, run_dir, out, args.seconds, run)
        else:
            metrics = end_to_end(files, corpus, args.seconds, run)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for problem in run.problems[:20]:
        log(f"WRONG {problem}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
