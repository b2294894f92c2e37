"""`load_sequent` and `verdict` run with the cyclic garbage collector paused
(`core.gc_paused`).  That is safe only while a check builds no reference
cycle, since reference counting alone frees what the pipeline drops; the
first test pins that premise, the others the pause itself."""
import gc

import pytest

from conftest import FIXTURES, nested_term_trace
from exproof import check, cli
from exproof.cli import RunConfig, load_sequent
from exproof.core import ExproofError
from test_cli import _leancop_chain

DEPTH = 300


def _inputs(tmp_path) -> list:
    """Every fixture, the nested-term proof in both formats, a connection
    proof with a dependency cycle, and inputs that fail to load: a file that
    is not UTF-8 and a truncated trace (besides `malformed.proof`)."""
    written = {
        "nested.smt": nested_term_trace("verit", DEPTH),
        "nested.p": nested_term_trace("leancop", DEPTH),
        "loop.p": _leancop_chain(3, "loop"),
        "truncated.p": (FIXTURES / "leancop_simple.proof").read_text()[:-20],
    }
    for name, text in written.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    (tmp_path / "binary.p").write_bytes(b"fof(\xff")
    return sorted(FIXTURES.glob("*.proof")) + [tmp_path / name for name in (*written, "binary.p")]


def _check(path) -> None:
    try:
        es, _report, _fmt = load_sequent(str(path), RunConfig("check", (str(path),)))
        check.verdict(es)
    except ExproofError:
        pass


def test_a_check_leaves_no_cycle_behind(tmp_path):
    inputs = _inputs(tmp_path)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for path in inputs:
            _check(path)
            assert (path.name, gc.collect(), gc.garbage) == (path.name, 0, [])
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def _record_gc_state(monkeypatch) -> list:
    seen = []

    def recording(original):
        def record(*args):
            seen.append(gc.isenabled())
            return original(*args)

        return record

    monkeypatch.setattr(cli, "import_leancop", recording(cli.import_leancop))
    monkeypatch.setattr(check, "is_tautology", recording(check.is_tautology))
    return seen


def test_the_collector_is_paused_inside_and_on_after(monkeypatch):
    seen = _record_gc_state(monkeypatch)
    assert gc.isenabled()
    _check(FIXTURES / "leancop_simple.proof")
    assert seen == [False, False]
    assert gc.isenabled()
    with pytest.raises(ExproofError):
        load_sequent(str(FIXTURES / "malformed.proof"), RunConfig("check", ()))
    assert gc.isenabled()


def test_a_collector_the_caller_turned_off_stays_off(monkeypatch):
    seen = _record_gc_state(monkeypatch)
    gc.disable()
    try:
        _check(FIXTURES / "leancop_simple.proof")
        assert not gc.isenabled()
        with pytest.raises(ExproofError):
            load_sequent(str(FIXTURES / "malformed.proof"), RunConfig("check", ()))
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert seen == [False, False]

