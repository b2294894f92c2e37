#!/usr/bin/env python3
"""Per-stage seconds and sizes of one check of each chain at n and 2n.

Run from the repository root:  python3 bench/scaling.py [--seed 1]

Prints a table with one row per stage: its self time in seconds (median of
three traced checks) for each chain at n and 2n and the ratio of the two,
then the total and the sizes the traced run records.  The chain
lengths are those of the benchmark's two chain workloads; doubling them
shows how each stage grows with trace size.
"""
from __future__ import annotations

import argparse
import random
import statistics
import sys
import tempfile
from pathlib import Path

import gen
import spans

sys.path.insert(0, str(Path.cwd() / "src"))

STAGES = ["cli.load_s", "notation.tokenize_s", "verit.parse_s", "leancop.parse_s", "verit.import_s",
          "verit.match_s", "leancop.import_s", "leancop.dnf_s", "leancop.match_s", "expansion.expand_s",
          "check.deep_s", "check.taut_s", "check.dep_s", "check.acyclic_s"]
SHOWN_SIZES = ["check.atoms", "check.connectives", "check.dep_nodes", "check.dep_edges"]


def measure(trace: gen.Trace, directory: Path, repeats: int = 3) -> dict:
    from exproof import check, cli

    path = directory / trace.name
    path.write_text(trace.text, encoding="utf-8")
    runs = []
    for _ in range(repeats):
        tracer = spans.Tracer()
        tracer.install()
        try:
            es, _report, _fmt = cli.load_sequent(str(path), cli.RunConfig("check", (str(path),)))
            check.verdict(es)
        finally:
            tracer.uninstall()
        runs.append(spans.layer_metrics(*tracer.take()))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    rng = random.Random(args.seed)
    rows = []
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        for label, make, n in (
            ("verit-eqchain", lambda k: gen.verit_chain(rng, k, "chain.proof"), gen.VERIT_LINKS),
            ("leancop-eigenchain", lambda k: gen.leancop_chain(rng, k, "chain.proof"), gen.LEANCOP_AXIOMS),
        ):
            for size in (n, 2 * n):
                metrics = measure(make(size), Path(tmp))
                rows.append((label, size, metrics))
    # one row per stage or size; per chain the figure at n, at 2n, and their ratio
    print("| stage | " + " | ".join(f"{label} n={size}" for label, size, _m in rows[:2]) + " | ratio | "
          + " | ".join(f"{label} n={size}" for label, size, _m in rows[2:]) + " | ratio |")
    print("|---" * 7 + "|")
    for name in STAGES + ["total"] + SHOWN_SIZES:
        values = [sum(m[s] for s in STAGES) if name == "total" else m[name] for _l, _n, m in rows]
        if not any(values):
            continue
        shown = [f"{v:.3f}" if isinstance(v, float) else str(v) for v in values]
        ratios = [f"{b / a:.1f}" if a else "" for a, b in (values[:2], values[2:])]
        print(f"| {name} | {shown[0]} | {shown[1]} | {ratios[0]} | {shown[2]} | {shown[3]} | {ratios[1]} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
