#!/usr/bin/env python3
"""Stress the DPLL tautology check against a truth-table oracle.

Generates random quantifier-free sequents, and random expansion sequents
with weak and strong nodes, whose trees the check reads directly; an
expansion sequent is kept when its deep sequent has at most --max-atoms
atoms, and the oracle evaluates that deep sequent.  Compares verdicts and
reports throughput.
Usage: python scripts/stress_tautology.py [--cases N] [--seed S] [--max-atoms A]
"""
import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "tests"))

from exproof.check import deep_sequent, is_tautology
from oracles import sequent_atoms, taut_oracle
from randgen import random_deep_sequent, random_expansion_sequent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cases", type=int, default=5000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--max-atoms", type=int, default=12)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    # (input of the check, quantifier-free sequent the oracle evaluates)
    cases = [(ds, ds) for ds in (random_deep_sequent(rng, args.max_atoms) for _ in range(args.cases))]
    expansions = [(es, deep_sequent(es)) for es in (random_expansion_sequent(rng) for _ in range(args.cases))]
    cases += [(es, ds) for es, ds in expansions if len(sequent_atoms(ds)) <= args.max_atoms]

    started = time.perf_counter()
    ours = [is_tautology(es)[0] for es, _ in cases]
    dpll_time = time.perf_counter() - started

    started = time.perf_counter()
    reference = [taut_oracle(ds)[0] for _, ds in cases]
    oracle_time = time.perf_counter() - started

    disagreements = sum(1 for x, y in zip(ours, reference) if x != y)
    taut_rate = sum(ours) / len(ours)
    print(
        f"{args.cases} sequents and {len(cases) - args.cases} expansion sequents, "
        f"{disagreements} disagreements"
    )
    print(f"tautology rate: {taut_rate:.3f}")
    print(f"dpll:   {dpll_time:.3f}s ({len(cases) / dpll_time:,.0f}/s)")
    print(f"oracle: {oracle_time:.3f}s ({len(cases) / oracle_time:,.0f}/s)")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
