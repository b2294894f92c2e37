"""Machine-speed probe, to take the host's drift out of the time metrics.

The shared 2-CPU hosts the benchmark runs on change speed by ±20% over
seconds to minutes: a fixed pure-Python loop and a whole check slow down
together, process CPU time with wall time, so no run length averages it out.
The probe is a fixed pure-Python pass, written here and using no exproof
code, with the same kind of work as a check: it builds nested tuples and
dicts, walks them recursively, splits and joins strings and sorts.  It runs
with garbage collection off, so that the program's live objects do not
slow it.  Its wall time tracks the host's current speed.

A timed sample is scaled by `REFERENCE_S / probe`, where `probe` is the
mean wall time of the probes just before and just after it.  Scaled times
read as seconds on a host on which the probe takes `REFERENCE_S`, about its
median on the machine the benchmark was tuned on.  A change to exproof
cannot move the probe, so it moves a scaled time by the same factor as the
wall time.
"""
from __future__ import annotations

import gc
from time import perf_counter

REFERENCE_S = 0.25  # the probe's median wall time on the tuning machine
EVERY_S = 1.0  # a sample that starts later than this after a probe gets a fresh one


def probe_work() -> int:
    """The fixed pass: some 30 MB of terms built, walked, printed and sorted."""
    table: dict[str, tuple] = {}
    for i in range(48000):
        name = f"t{i}_{(i * 7919) % 1009}"
        table[name] = (name, (i, name[::-1]), [i % 7, (i % 11, i % 13)])
    depth = 0

    def walk(term, d: int) -> None:
        nonlocal depth
        if isinstance(term, (tuple, list)):
            for sub in term:
                walk(sub, d + 1)
        else:
            depth += d

    for term in table.values():
        walk(term, 0)
    text = " ".join(table)
    words = sorted(text.split(), key=lambda w: w[::-1])
    return depth + len(words)


def scale(seconds: float, probe: float) -> float:
    """`seconds` of wall time, timed while the probe took `probe`, as
    seconds at reference speed."""
    return seconds * REFERENCE_S / probe


class Speed:
    """Every probe time of the run, and the samples timed since the last
    probe, which the next probe scales."""

    def __init__(self):
        self.probes: list[float] = []
        self.pending: list[tuple[float, list[float]]] = []
        self.last_end = float("-inf")
        probe_work()  # warm up
        self.measure()

    def measure(self) -> None:
        """Run the probe now, and scale the pending samples against the mean
        of this probe and the one before."""
        gc.collect()
        gc.disable()
        try:
            start = perf_counter()
            probe_work()
            self.last_end = perf_counter()
        finally:
            gc.enable()
        self.probes.append(self.last_end - start)
        around = sum(self.probes[-2:]) / len(self.probes[-2:])
        for seconds, into in self.pending:
            into.append(scale(seconds, around))
        self.pending.clear()

    def refresh(self) -> None:
        """Probe again if the last probe ended more than EVERY_S ago."""
        if perf_counter() - self.last_end >= EVERY_S:
            self.measure()

    def record(self, seconds: float, into: list[float]) -> None:
        """Queue a sample of wall `seconds`; the next probe appends it to
        `into`, scaled."""
        self.pending.append((seconds, into))
