"""The command-line outputs on the fixtures, pinned: stdout, stderr and exit
code of `check`, `show`, `show --deep`, `export` and `export --dot`.

After a change that is meant to alter one of them, rewrite the golden file
with `PYTHONPATH=src python tests/test_golden.py` and review its diff.
"""
import json
import os
from pathlib import Path

import pytest

from conftest import COMMANDS, FIXTURES, run_cli

GOLDEN = Path(__file__).parent / "golden" / "cli_outputs.json"
CASES = [f"{' '.join(command)} {path.name}" for path in sorted(FIXTURES.iterdir()) for command in COMMANDS]


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


if __name__ == "__main__":
    os.chdir(FIXTURES)
    os.environ.pop("EXPROOF_COLOR", None)
    outputs = {case: run_cli(case.split()) for case in CASES}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
