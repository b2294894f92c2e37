"""Command-line front end: import, check, show, export and batch processing.

Exit codes are a stable contract: 0 = the input is an expansion proof,
1 = imported but not a proof, 2 = parse or import error.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from collections import Counter
from functools import partial
from itertools import chain, count
from pathlib import Path
from typing import Iterator, NamedTuple, NoReturn, Optional

from .check import deep_sequent, verdict
from .core import (
    And, Atom, Exists, ExproofError, Forall, Imp, Neg, Or, Polarity, Sequent, fold, gc_paused, polar_parts, quantifier
)
from .expansion import ETStrong, ETWeak, sequent_to_json, shallow_sequent, subtrees
from .leancop import import_leancop, parse_leancop
from .notation import ParseError, sequent_text
from .verit import import_verit, parse_verit

EXIT_PROOF = 0
EXIT_NOT_PROOF = 1
EXIT_ERROR = 2


class RunConfig(NamedTuple):
    command: str
    inputs: tuple[str, ...]
    out: Optional[str] = None
    show_deep: bool = False
    export_dot: bool = False
    jobs: int = 1


def detect_format(text: str) -> str:
    """After blanks and `%` comment lines, the first token `(set` means a
    resolution trace, `fof(`/`cnf(` a connection trace."""
    head = re.match(r"(?:\s|%[^\n]*(?:\n|\Z))*(?:(?P<verit>\(\s*set\b)|(?P<leancop>(?:fof|cnf)\s*\())", text)
    if head is None:
        raise ExproofError("cannot detect trace format: expected '(set', 'fof(' or 'cnf('")
    return head.lastgroup


class InputReadError(ExproofError):
    """An input file could not be read or is not UTF-8 text."""


@gc_paused
def load_sequent(path: str, config: RunConfig) -> tuple[Sequent, dict, str]:
    """The expansion sequent of a trace file, its import report and its
    format.  A leading byte-order mark is dropped after decoding, so that
    the offset of an undecodable byte is an offset in the file."""
    try:
        text = Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as e:
        raise InputReadError(f"not UTF-8 text at byte offset {e.start}: {e.reason}") from e
    except OSError as e:
        raise InputReadError(f"cannot read: {e.strerror or e}") from e
    fmt = detect_format(text)
    if fmt == "verit":
        es, report = import_verit(parse_verit(text))
    else:
        es, report = import_leancop(parse_leancop(text))
    return es, report, fmt


# ---------------------------------------------------------------------------
# check


def _failed(where: str, error: Exception) -> int:
    """Report what stopped the work on `where` and return exit 2.  An
    exception other than an input or output error is a crash, which is
    named by its type as well (the text a failed file gets in `batch`)."""
    crash = not isinstance(error, (ExproofError, OSError))
    print(f"{where}: {type(error).__name__ + ': ' if crash else ''}{error}", file=sys.stderr)
    return EXIT_ERROR


def _each_input(config: RunConfig, work) -> int:
    """Load each input and hand its sequent to `work`, which returns an exit
    code; the worst code is the result.  The first input that raises stops
    the run with exit 2, whatever it raised."""
    status = EXIT_PROOF
    for path in config.inputs:
        try:
            es, _report, _fmt = load_sequent(path, config)
            status = max(status, work(es))
        except Exception as e:
            return _failed(path, e)
    return status


def _print_verdict(es: Sequent) -> int:
    v = verdict(es)
    print(json.dumps(v.to_json(), sort_keys=True))
    return EXIT_PROOF if v.is_proof else EXIT_NOT_PROOF


def cmd_check(config: RunConfig) -> int:
    return _each_input(config, _print_verdict)


# ---------------------------------------------------------------------------
# show


def _ansi(enabled: bool, code: str, text: str) -> str:
    return f"\x1b[{code}m{text}\x1b[0m" if enabled else text


def render_show(es: Sequent, deep_mode: bool, color: bool) -> str:
    if deep_mode:
        return sequent_text(deep_sequent(es))
    lines = [sequent_text(shallow_sequent(es))]
    for tree in es.formulas:
        for node in subtrees(tree):
            if type(node) is ETWeak:
                rendered = ", ".join(_ansi(color, "36", str(t)) for t, _ in node.instances)
                lines.append(f"instances: {_ansi(color, '1', node.var)} ∈ {{{rendered}}}")
    return "\n".join(lines)


def cmd_show(config: RunConfig) -> int:
    color = os.environ.get("EXPROOF_COLOR", "0") == "1"

    def show(es: Sequent) -> int:
        print(render_show(es, config.show_deep, color))
        return EXIT_PROOF

    return _each_input(config, show)


# ---------------------------------------------------------------------------
# export


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


_DOT_SYMBOL = {Neg: "~", And: "&", Or: "|", Imp: "=>", Forall: "!", Exists: "?"}


def _dot_tree(ids, tree, polarity: Polarity) -> list[str]:
    """The DOT lines of the nodes and edges of one tree."""
    lines: list[str] = []

    def edges(me: int, *children: int) -> int:
        lines.extend(f"    n{me} -> n{child};" for child in children)
        return me

    def instance_edge(me: int, label: str, child: int) -> None:
        lines.append(f'    n{me} -> n{child} [label="{label}"];')

    def weak_done(me: int, *_instances) -> int:
        return me

    # items are (tree, polarity), or (tree, polarity, parent id, edge label)
    # for the child of a weak instance, whose edge follows its subtree
    def step(item):
        if len(item) == 4:
            child, polarity, me, label = item
            return ((child, polarity),), partial(instance_edge, me, label)
        tree, polarity = item
        me = next(ids)
        name = f"n{me}"
        kind = type(tree)
        if kind is Atom:
            lines.append(f'    {name} [label="{_dot_escape(str(tree))}"];')
            return None, me
        if kind is ETWeak or kind is ETStrong:
            label = f"{_DOT_SYMBOL[quantifier(tree.strength, polarity)]}[{_dot_escape(tree.var)}]"
        if kind is ETWeak:
            lines.append(f'    {name} [label="{label}"];')
            kids = tuple((c, polarity, me, _dot_escape(str(t))) for t, c in tree.instances)
            return kids, partial(weak_done, me)
        if kind is ETStrong:
            lines.append(f'    {name} [label="{label}\\neigen: {_dot_escape(tree.eigenvariable)}"];')
            return ((tree.child, polarity),), partial(edges, me)
        lines.append(f'    {name} [label="{_DOT_SYMBOL[kind]}"];')
        return polar_parts(tree, polarity), partial(edges, me)

    fold((tree, polarity), step)
    return lines


def sequent_to_dot(es: Sequent) -> str:
    lines = ["digraph expansion_sequent {", "  rankdir=TB;"]
    for side, trees in zip(("ant", "suc"), es.read(partial(_dot_tree, iter(count())))):
        for i, tree_lines in enumerate(trees):
            lines += (f"  subgraph cluster_{side}{i} {{", f'    label="{side}[{i}]";', *tree_lines, "  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def json_pieces(value) -> Iterator[str]:
    """The text of `json.dumps(value, indent=2, sort_keys=True)` in pieces,
    from an explicit stack so that nesting depth is bounded by memory and not
    by the recursion limit.  Scalars and keys are encoded by `json.dumps`."""
    newlines = ["\n"]  # newline and indentation, by depth
    stack: list = [(value, 0)]  # (value, depth), or text to write as it is
    while stack:
        item = stack.pop()
        if type(item) is str:
            yield item
            continue
        value, depth = item
        if isinstance(value, dict):
            entries = [(json.dumps(k) + ": ", value[k]) for k in sorted(value)]
            brackets = "{}"
        elif isinstance(value, list):
            entries = [("", v) for v in value]
            brackets = "[]"
        else:
            yield json.dumps(value)
            continue
        if not entries:
            yield brackets
            continue
        if len(newlines) < depth + 2:
            newlines.append(newlines[-1] + "  ")
        yield brackets[0]
        stack += (brackets[1], newlines[depth])
        for i in range(len(entries) - 1, -1, -1):
            key, v = entries[i]
            stack += ((v, depth + 1), key, newlines[depth + 1])
            if i:
                stack.append(",")


def cmd_export(config: RunConfig) -> int:
    def export(es: Sequent) -> int:
        if config.export_dot:
            pieces = [sequent_to_dot(es)]
        else:
            pieces = chain(json_pieces(sequent_to_json(es)), "\n")
        if config.out:
            with open(config.out, "w", encoding="utf-8") as out:
                out.writelines(pieces)
        else:
            sys.stdout.writelines(pieces)
        return EXIT_PROOF

    return _each_input(config, export)


# ---------------------------------------------------------------------------
# batch


def _batch_one(path: Path, config: RunConfig) -> dict:
    started = time.perf_counter()
    entry: dict = {"format": None}
    try:
        es, _report, fmt = load_sequent(str(path), config)
        entry["format"] = fmt
        entry["status"] = "proof" if verdict(es).is_proof else "not-proof"
    except ExproofError as e:
        if isinstance(e, InputReadError):
            kind = "io"
        elif isinstance(e, ParseError):
            kind = "parse"
        else:
            kind = "import"
        entry["status"] = f"error:{kind}"
        entry["error"] = str(e)
    except Exception as e:  # a crash on one file must not lose the others' results
        entry["status"] = "error:internal"
        entry["error"] = f"{type(e).__name__}: {e}"
    entry["seconds"] = round(time.perf_counter() - started, 6)
    return entry


def _spread_worker() -> None:
    """Start this worker on a CPU picked by its process id, then allow every
    CPU again.  Linux tends to start forked workers on the parent's CPU and
    can leave two CPU-bound workers sharing it while another CPU idles;
    workers forked one after the other have consecutive ids, so they start
    on different CPUs."""
    if hasattr(os, "sched_setaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[os.getpid() % len(cpus)]})
        os.sched_setaffinity(0, cpus)


def _run_share(files: list[Path], share: range, config: RunConfig, pipe: int) -> NoReturn:
    """The body of a forked worker: one JSON line per entry of its share, all
    written once the share is done, so that a worker never waits on a full
    pipe before then.  It ends with `os._exit`, 0 after its last line and 1
    on any exception, and so never returns into the parent's stack or runs
    its exit handlers or flushes its buffered output."""
    status = 1
    try:
        _spread_worker()
        lines = [json.dumps(_batch_one(files[i], config)) + "\n" for i in share]
        with open(pipe, "w", encoding="utf-8") as out:
            out.writelines(lines)
        status = 0
    finally:
        os._exit(status)


def _batch_forked(files: list[Path], config: RunConfig, workers: int) -> list[dict]:
    """The entries of `files`, in their order, from forked workers (safe, as
    exproof starts no thread).  Every worker is reaped, even when one fails;
    a worker that ends with a nonzero status or leaves part of its share
    without an entry raises `BrokenProcessPool`, as a process pool would."""
    children = []  # (process id, read end of its pipe, share)
    try:
        for w in range(workers):
            share = range(w, len(files), workers)
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _run_share(files, share, config, write)
            os.close(write)
            children.append((pid, read, share))
    finally:
        done = []  # (lines, exit code, share)
        for pid, read, share in children:
            with open(read, encoding="utf-8") as pipe:
                lines = pipe.read().splitlines()
            done.append((lines, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), share))
    entries: dict[int, dict] = {}
    for lines, code, share in done:
        if code != 0 or len(lines) < len(share):
            from concurrent.futures.process import BrokenProcessPool

            if code < 0:
                raise BrokenProcessPool(f"a worker was killed by signal {-code}")
            if code > 0:
                raise BrokenProcessPool(f"a worker exited with status {code}")
            raise BrokenProcessPool(f"a worker returned {len(lines)} of its {len(share)} entries")
        entries.update(zip(share, map(json.loads, lines)))
    return [entries[i] for i in range(len(files))]


def cmd_batch(config: RunConfig) -> int:
    files: list[Path] = []
    for raw in config.inputs:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(q for q in p.iterdir() if q.is_file()))
        else:
            files.append(p)
    # the summary is keyed by file name, so two files of one name would
    # leave one result
    for name, k in Counter(path.name for path in files).items():
        if k > 1:
            paths = ", ".join(str(path) for path in files if path.name == name)
            return _failed(name, ExproofError(f"several inputs have this file name: {paths}"))
    workers = min(config.jobs, len(files), os.cpu_count() or 1)
    if workers > 1 and hasattr(os, "fork"):
        try:
            entries = _batch_forked(files, config, workers)
        except Exception as e:  # a worker died, or none could be forked: the files have no result
            return _failed(" ".join(config.inputs), e)
    else:
        entries = [_batch_one(path, config) for path in files]
    results = {path.name: entry for path, entry in zip(files, entries)}
    summary = {
        "files": {name: results[name] for name in sorted(results)},
        "imported": sum(1 for e in results.values() if e["status"] in ("proof", "not-proof")),
        "proof": sum(1 for e in results.values() if e["status"] == "proof"),
        "not_proof": sum(1 for e in results.values() if e["status"] == "not-proof"),
        "errors": sum(1 for e in results.values() if e["status"].startswith("error")),
        "total": len(results),
    }
    payload = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    if config.out:
        try:
            Path(config.out).write_text(payload, encoding="utf-8")
        except OSError as e:
            return _failed(" ".join(config.inputs), e)
    else:
        sys.stdout.write(payload)
    return EXIT_PROOF


# ---------------------------------------------------------------------------
# argument parsing


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exproof",
        description="Import prover traces as expansion sequents and check them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, many_inputs: bool = True) -> None:
        p.add_argument("inputs", nargs="+" if many_inputs else 1, metavar="INPUT")

    check_p = sub.add_parser("check", help="verdict JSON; exit 0 proof / 1 not / 2 error")
    common(check_p)

    show_p = sub.add_parser("show", help="print the shallow or deep sequent")
    mode = show_p.add_mutually_exclusive_group()
    mode.add_argument("--deep", action="store_true")
    mode.add_argument("--shallow", action="store_true")
    common(show_p)

    export_p = sub.add_parser("export", help="write the expansion sequent as JSON or DOT")
    fmt = export_p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--dot", action="store_true")
    export_p.add_argument("--out", metavar="PATH")
    common(export_p, many_inputs=False)

    batch_p = sub.add_parser("batch", help="summarise a directory of trace files")
    batch_p.add_argument("--jobs", type=positive_int, default=1, metavar="N")
    batch_p.add_argument("--out", metavar="PATH")
    common(batch_p)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        inputs=tuple(args.inputs),
        out=getattr(args, "out", None),
        show_deep=getattr(args, "deep", False),
        export_dot=getattr(args, "dot", False),
        jobs=getattr(args, "jobs", 1),
    )


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    config = config_from_args(args)
    handler = {
        "check": cmd_check,
        "show": cmd_show,
        "export": cmd_export,
        "batch": cmd_batch,
    }[config.command]
    return handler(config)


if __name__ == "__main__":
    sys.exit(main())
