"""The mutation catalogue, `scripts/mutants.py`: each entry must still
apply to `src/`, and an entry whose old text is gone must fail the run."""
import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mutants
    spec.loader.exec_module(mutants)
    return mutants


@pytest.fixture
def src_copy(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / "src"


def test_every_mutant_applies_once(src_copy):
    mutants = load_mutants()
    assert len({m.name for m in mutants.CATALOGUE}) == len(mutants.CATALOGUE)
    for mutant in mutants.CATALOGUE:
        assert mutant.tests and all((ROOT / t.split("::")[0]).is_file() for t in mutant.tests), mutant.name
        mutants.apply(src_copy, mutant)


def test_an_entry_whose_old_text_is_gone_fails_the_run(src_copy, monkeypatch, capsys):
    mutants = load_mutants()
    gone = mutants.Mutant("gone", "check.py", "no such text", "", ("tests/test_check.py::test_excluded_middle",))
    with pytest.raises(ValueError, match="occurs 0 times"):
        mutants.apply(src_copy, gone)
    monkeypatch.setattr(mutants, "CATALOGUE", [gone])
    assert mutants.main([]) == 1
    assert capsys.readouterr().out.startswith("stale  gone:")


def test_a_mutant_the_tests_do_not_see_is_missed(monkeypatch, capsys):
    mutants = load_mutants()
    harmless = mutants.Mutant(
        "harmless",
        "check.py",
        '"""Validity checking for expansion sequents.',
        '"""Validity checking for expansion sequents (mutated).',
        ("tests/test_check.py::test_excluded_middle",),
    )
    monkeypatch.setattr(mutants, "CATALOGUE", [harmless])
    assert mutants.main([]) == 1
    assert capsys.readouterr().out == "MISSED harmless\n"
