import importlib.util
import sys
from pathlib import Path

from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))  # make oracles/randgen importable

settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
# a larger budget for the differential tests, chosen on the command line
# with `--hypothesis-profile=ci`
settings.register_profile(
    "ci", max_examples=5000, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("default")

FIXTURES = Path(__file__).parent / "fixtures"
# the commands that read a trace file, as `exproof` arguments before the file
COMMANDS = [["check"], ["show"], ["show", "--deep"], ["export"], ["export", "--dot"]]


def load_bench_gen():
    """The benchmark's trace generators, `bench/gen.py`."""
    spec = importlib.util.spec_from_file_location("bench_gen", Path(__file__).parent.parent / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # its dataclasses look their module up
    spec.loader.exec_module(gen)
    return gen


def nested_term_trace(fmt: str, depth: int) -> str:
    """A proof over the term t = f(f(...f(a)...)), nested `depth` deep, in
    either trace format.  The resolution trace refutes p(t) and ~p(t) and
    has a reflexivity leaf t = t; the connection trace proves ?[Z]: r(t, Z)
    from ![X]: ?[Y]: r(X, Y), binding X to t."""
    if fmt == "verit":
        t = "a"
        for _ in range(depth):
            t = f"(f {t})"
        return (
            f"(set .c1 (input :conclusion ((p {t}))))\n"
            f"(set .c2 (input :conclusion ((not (p {t})))))\n"
            f"(set .c3 (eq_reflexive :conclusion ((= {t} {t}))))\n"
            "(set .c4 (resolution :clauses (.c1 .c2) :conclusion ()))\n"
        )
    t = "f(" * depth + "a" + ")" * depth
    return (
        "fof(ax, axiom, ![X]: ?[Y]: r(X, Y)).\n"
        f"fof(goal, conjecture, ?[Z]: r({t}, Z)).\n"
        "cnf(1, plain, [~r(X1, sk1(X1))], clausify(ax)).\n"
        f"cnf(2, plain, [r({t}, Z1)], clausify(goal)).\n"
        f"cnf('s1', plain, [r({t}, sk1(X1))], start(2, bind([Z1], [sk1(X1)]))).\n"
        f"cnf('e1', plain, [~r({t}, sk1({t}))], extension(1, bind([X1], [{t}]))).\n"
    )
