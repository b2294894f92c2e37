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
import hashlib
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from conftest import COMMANDS, FIXTURES, load_bench_gen, run_cli  # noqa: E402  (shared with the tests)
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


def main() -> int:
    print(f"exproof from {Path(cli.__file__).parent}", file=sys.stderr)
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        names = write_files(Path(work))
        os.chdir(work)  # messages name the files as relative paths
        try:
            for name in names:
                for command in COMMANDS:
                    r = run_cli([*command, name])
                    hashes = f"{digest(r['stdout'])}\t{digest(r['stderr'])}"
                    print(f"{name}\t{' '.join(command)}\t{r['exit']}\t{hashes}", flush=True)
        finally:
            os.chdir(start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
