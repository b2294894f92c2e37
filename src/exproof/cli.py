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
from dataclasses import dataclass
from functools import partial
from itertools import chain, count, repeat
from pathlib import Path
from typing import Iterator, Optional

from .check import deep_sequent, verdict
from .core import ExproofError, Polarity, discard, fold
from .expansion import (
    ETAtom,
    ETBin,
    ETNeg,
    ETWeak,
    ExpansionSequent,
    sequent_to_json,
    shallow_sequent,
)
from .leancop import ImportConfig, import_leancop, parse_leancop
from .notation import ParseError, sequent_text
from .verit import import_verit, parse_verit

EXIT_PROOF = 0
EXIT_NOT_PROOF = 1
EXIT_ERROR = 2


@dataclass(frozen=True)
class RunConfig:
    command: str
    inputs: tuple[str, ...]
    format: str = "auto"
    out: Optional[str] = None
    show_deep: bool = False
    export_dot: bool = False
    skolem_prefix: str = "sk"
    definitional_threshold: int = 4
    jobs: int = 1


def detect_format(text: str) -> str:
    """First non-blank token `(set` means a resolution trace, `fof(`/`cnf(`
    a connection trace."""
    head = text.lstrip()
    if re.match(r"\(\s*set\b", head):
        return "verit"
    if re.match(r"(fof|cnf)\s*\(", head):
        return "leancop"
    raise ExproofError("cannot detect trace format: expected '(set', 'fof(' or 'cnf('")


class InputReadError(ExproofError):
    """An input file could not be read or is not UTF-8 text."""


def load_sequent(path: str, config: RunConfig) -> tuple[ExpansionSequent, dict, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise InputReadError(f"not UTF-8 text at byte offset {e.start}: {e.reason}") from e
    except OSError as e:
        raise InputReadError(f"cannot read: {e.strerror or e}") from e
    fmt = config.format if config.format != "auto" else detect_format(text)
    if fmt == "verit":
        es, report = import_verit(parse_verit(text))
    else:
        cfg = ImportConfig(config.skolem_prefix, config.definitional_threshold)
        es, report = import_leancop(parse_leancop(text), cfg)
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


def _print_verdict(es: ExpansionSequent) -> int:
    v = verdict(es)
    print(json.dumps(v.to_json(), sort_keys=True))
    return EXIT_PROOF if v.is_proof else EXIT_NOT_PROOF


def cmd_check(config: RunConfig) -> int:
    return _each_input(config, _print_verdict)


# ---------------------------------------------------------------------------
# show


def _ansi(enabled: bool, code: str, text: str) -> str:
    return f"\x1b[{code}m{text}\x1b[0m" if enabled else text


def _tree_children(tree) -> Optional[tuple]:
    kind = type(tree)
    if kind is ETBin:
        return (tree.left, tree.right)
    if kind is ETWeak:
        return tuple(child for _, child in tree.instances)
    if kind is ETAtom:
        return None
    return (tree.child,)


def _collect_weak_instances(tree, out: list[tuple[str, list[str]]]) -> None:
    def step(tree):
        if type(tree) is ETWeak:
            out.append((tree.var, [str(t) for t, _ in tree.instances]))
        return _tree_children(tree), discard

    fold(tree, step)


def render_show(es: ExpansionSequent, deep_mode: bool, color: bool) -> str:
    if deep_mode:
        return sequent_text(deep_sequent(es))
    lines = [sequent_text(shallow_sequent(es))]
    weak: list[tuple[str, list[str]]] = []
    for tree in es.antecedent + es.succedent:
        _collect_weak_instances(tree, weak)
    for var, terms in weak:
        rendered = ", ".join(_ansi(color, "36", t) for t in terms)
        lines.append(f"instances: {_ansi(color, '1', var)} ∈ {{{rendered}}}")
    return "\n".join(lines)


def cmd_show(config: RunConfig) -> int:
    color = os.environ.get("EXPROOF_COLOR", "0") == "1"

    def show(es: ExpansionSequent) -> int:
        print(render_show(es, config.show_deep, color))
        return EXIT_PROOF

    return _each_input(config, show)


# ---------------------------------------------------------------------------
# export


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def _dot_tree(tree, polarity: Polarity, ids, lines: list[str]) -> None:
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
        if isinstance(tree, ETAtom):
            lines.append(f'    {name} [label="{_dot_escape(str(tree.atom))}"];')
            return None, me
        if isinstance(tree, ETNeg):
            lines.append(f'    {name} [label="~"];')
            return ((tree.child, polarity.flip()),), partial(edges, me)
        if isinstance(tree, ETBin):
            symbol = {"and": "&", "or": "|", "imp": "=>"}[tree.conn]
            lines.append(f'    {name} [label="{_dot_escape(symbol)}"];')
            left_pol = polarity.flip() if tree.conn == "imp" else polarity
            return ((tree.left, left_pol), (tree.right, polarity)), partial(edges, me)
        if isinstance(tree, ETWeak):
            mark = "!" if polarity is Polarity.NEG else "?"
            lines.append(f'    {name} [label="{mark}[{_dot_escape(tree.var)}]"];')
            kids = tuple((c, polarity, me, _dot_escape(str(t))) for t, c in tree.instances)
            return kids, partial(weak_done, me)
        mark = "?" if polarity is Polarity.NEG else "!"
        label = f"{mark}[{_dot_escape(tree.var)}]\\neigen: {_dot_escape(tree.eigenvariable)}"
        lines.append(f'    {name} [label="{label}"];')
        return ((tree.child, polarity),), partial(edges, me)

    fold((tree, polarity), step)


def sequent_to_dot(es: ExpansionSequent) -> str:
    ids = iter(count())
    lines = ["digraph expansion_sequent {", "  rankdir=TB;"]
    for side, trees, pol in (
        ("ant", es.antecedent, Polarity.NEG),
        ("suc", es.succedent, Polarity.POS),
    ):
        for i, tree in enumerate(trees):
            lines.append(f"  subgraph cluster_{side}{i} {{")
            lines.append(f'    label="{side}[{i}]";')
            _dot_tree(tree, pol, ids, lines)
            lines.append("  }")
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
    def export(es: ExpansionSequent) -> int:
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


def _batch_worker(path: Path, config: RunConfig) -> dict:
    """The pool's target, pickled by name.  It calls `_batch_one` through
    the module, so a wrapper put in place of `_batch_one` (as the
    benchmark's tracer does) cannot make the target unpicklable."""
    return _batch_one(path, config)


def _spread_worker() -> None:
    """Pool initializer: start this worker on a CPU picked by its process
    id, then allow every CPU again.  Linux tends to start forked workers on
    the parent's CPU and can leave two CPU-bound workers sharing it while
    another CPU idles; workers forked one after the other have consecutive
    ids, so they start on different CPUs."""
    if hasattr(os, "sched_setaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[os.getpid() % len(cpus)]})
        os.sched_setaffinity(0, cpus)


def cmd_batch(config: RunConfig) -> int:
    files: list[Path] = []
    for raw in config.inputs:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(q for q in p.iterdir() if q.is_file()))
        else:
            files.append(p)
    workers = min(config.jobs, len(files), os.cpu_count() or 1)
    if workers > 1:
        # imported here so that the other commands do not pay for it
        from concurrent.futures import ProcessPoolExecutor

        chunksize = max(1, len(files) // (4 * workers))
        # the platform's default start method: on Linux the pool forks all
        # its workers before it starts a thread; spawned workers would each
        # start an interpreter and import exproof, which made a batch of
        # two large files slower than the serial loop
        try:
            with ProcessPoolExecutor(max_workers=workers, initializer=_spread_worker) as pool:
                entries = list(pool.map(_batch_worker, files, repeat(config), chunksize=chunksize))
        except Exception as e:  # a worker died: its files have no result
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
        Path(config.out).write_text(payload, encoding="utf-8")
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
        p.add_argument("--format", choices=("verit", "leancop", "auto"), default="auto")
        p.add_argument("--skolem-prefix", default="sk", metavar="STR")
        p.add_argument("--def-threshold", type=int, default=4, metavar="N")
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
        format=args.format,
        out=getattr(args, "out", None),
        show_deep=getattr(args, "deep", False),
        export_dot=getattr(args, "dot", False),
        skolem_prefix=args.skolem_prefix,
        definitional_threshold=args.def_threshold,
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
