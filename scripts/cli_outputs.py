#!/usr/bin/env python3
"""Print what each CLI command does on each test fixture and benchmark trace.

One line per file and command: the file, the command, the exit code, and a
hash of stdout and of stderr.  The files are the test fixtures and the
seed-1 traces of every benchmark workload (`bench/gen.py`); the commands are
`check`, `show`, `show --deep`, `export` and `export --dot`, run in this
process through `exproof.cli.main`.  Two versions of the program are
compared by running this script under each one's `PYTHONPATH` and diffing
the output:

    PYTHONPATH=src python3 scripts/cli_outputs.py > after.txt
    PYTHONPATH=../old/src python3 scripts/cli_outputs.py > before.txt
    diff before.txt after.txt
"""
import contextlib
import hashlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from conftest import COMMANDS, FIXTURES, load_bench_gen  # noqa: E402  (shared with the tests)
from exproof import cli  # noqa: E402

gen = load_bench_gen()


def write_files(work: Path) -> list[str]:
    """The fixtures and the seed-1 workload traces, written under `work`,
    as paths relative to it."""
    names = []
    (work / "fixtures").mkdir()
    for source in sorted(FIXTURES.iterdir()):
        shutil.copyfile(source, work / "fixtures" / source.name)
        names.append(f"fixtures/{source.name}")
    for workload in gen.WORKLOADS:
        (work / workload).mkdir()
        for trace in gen.workload(workload, 1):
            (work / workload / trace.name).write_text(trace.text, encoding="utf-8")
            names.append(f"{workload}/{trace.name}")
    return names


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8", "surrogateescape")).hexdigest()[:16]


def run(argv: list[str]) -> tuple[str, str, str]:
    """The exit code, stdout and stderr of `exproof ARGV`; an exception that
    escapes `main` is shown as its type in place of the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(cli.main(argv))
        except SystemExit as e:
            code = str(e.code)
        except Exception as e:
            code = f"raised {type(e).__name__}"
            err.write(str(e))
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    print(f"exproof from {Path(cli.__file__).parent}", file=sys.stderr)
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        names = write_files(Path(work))
        os.chdir(work)  # messages name the files as relative paths
        try:
            for name in names:
                for command in COMMANDS:
                    code, out, err = run([*command, name])
                    print(f"{name}\t{' '.join(command)}\t{code}\t{digest(out)}\t{digest(err)}", flush=True)
        finally:
            os.chdir(start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
