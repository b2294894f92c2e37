"""The command-line outputs, pinned.

`golden/cli_outputs.json` holds the stdout, stderr and exit code of `check`,
`show`, `show --deep`, `export` and `export --dot` on each fixture.
`golden/workload_outputs.tsv` holds one line for each of those commands on
each seed-1 trace of three benchmark workloads (`bench/gen.py`): the trace,
the command, the exit code, and a hash of stdout and of stderr.  It ends
with one line for `batch --jobs 1` over each workload directory and over
the fixtures, whose stdout is hashed without its `seconds` fields.

After a change that is meant to alter an output, or a change to a seed-1
trace of these workloads, rewrite both golden files with
`PYTHONPATH=src python tests/test_golden.py` and review their diff.
"""
import difflib
import hashlib
import json
import os
import re
import shutil
import tempfile
from pathlib import Path

import pytest

from conftest import COMMANDS, FIXTURES, load_bench_gen, run_cli

GOLDEN = Path(__file__).parent / "golden" / "cli_outputs.json"
WORKLOAD_GOLDEN = Path(__file__).parent / "golden" / "workload_outputs.tsv"
CASES = [f"{' '.join(command)} {path.name}" for path in sorted(FIXTURES.iterdir()) for command in COMMANDS]
WORKLOADS = ("verit-eqchain", "leancop-eigenchain", "mixed-corpus")
BATCH = ["batch", "--jobs", "1"]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES)
def test_output_matches_golden(golden, monkeypatch, case):
    monkeypatch.chdir(FIXTURES)
    monkeypatch.delenv("EXPROOF_COLOR", raising=False)
    assert run_cli(case.split()) == golden[case]


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8", "surrogateescape")).hexdigest()[:16]


def _line(name: str, command: list[str], result: dict) -> str:
    return f"{name}\t{' '.join(command)}\t{result['exit']}\t{_digest(result['stdout'])}\t{_digest(result['stderr'])}"


def workload_lines() -> list[str]:
    """The lines of the workload golden, run in the current directory, which
    gets the seed-1 traces and a copy of the fixtures: messages name the
    files as paths relative to it."""
    gen = load_bench_gen()
    names = []
    for workload in WORKLOADS:
        os.mkdir(workload)
        for trace in gen.workload(workload, 1):
            Path(workload, trace.name).write_text(trace.text, encoding="utf-8")
            names.append(f"{workload}/{trace.name}")
    shutil.copytree(FIXTURES, "fixtures")
    lines = [_line(name, command, run_cli([*command, name])) for name in names for command in COMMANDS]
    for directory in (*WORKLOADS, "fixtures"):
        result = run_cli([*BATCH, directory])
        result["stdout"] = re.sub(r'^ *"seconds": .*\n', "", result["stdout"], flags=re.M)
        lines.append(_line(directory, BATCH, result))
    return lines


def test_workload_outputs_match_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("EXPROOF_COLOR", raising=False)
    expected = WORKLOAD_GOLDEN.read_text(encoding="utf-8").splitlines()
    changed = list(difflib.unified_diff(expected, workload_lines(), "golden", "now", lineterm="", n=0))
    if changed:
        pytest.fail("\n".join(changed), pytrace=False)


if __name__ == "__main__":
    os.chdir(FIXTURES)
    os.environ.pop("EXPROOF_COLOR", None)
    outputs = {case: run_cli(case.split()) for case in CASES}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        WORKLOAD_GOLDEN.write_text("".join(line + "\n" for line in workload_lines()), encoding="utf-8")
        os.chdir(FIXTURES)
