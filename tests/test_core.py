import ast
import copy
import pickle
import random
import sys
import threading
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given

from exproof.core import (
    And,
    App,
    Atom,
    Exists,
    Forall,
    Imp,
    Neg,
    Node,
    Or,
    Polarity,
    Sequent,
    Strength,
    Subst,
    Var,
    apply_subst,
    free_vars,
    match_under,
    quantifier,
    quantifier_strengths,
    rectify,
    subformulas,
)
import exproof.core as core
from exproof.expansion import ETStrong, ETWeak
from exproof.leancop import collapse_term
from exproof.notation import parse_term
from exproof.verit import _sterm_to_term
from oracles import (
    _ref_subst_term,
    all_polarities,
    alpha_equal,
    ref_collapse_term,
    ref_parse_term,
    ref_rectify,
    ref_sterm_to_term,
    ref_subst_formula,
    ref_term_text,
)
from randgen import const, eq, random_formula, random_term, random_wide_term

A = Atom("a", ())
B = Atom("b", ())
P_x = Atom("p", (Var("X"),))


# --- hypothesis strategies ---

terms = st.recursive(
    st.sampled_from([const("a"), const("b"), const("c"), Var("X"), Var("Y")]),
    lambda child: st.builds(lambda t: App("f", (t,)), child),
    max_leaves=4,
)

atoms = st.one_of(
    st.builds(lambda t: Atom("p", (t,)), terms),
    st.builds(lambda s, t: Atom("q", (s, t)), terms, terms),
    st.builds(lambda s, t: eq(s, t), terms, terms),
    st.just(Atom("r", ())),
)

formulas = st.recursive(
    atoms,
    lambda f: st.one_of(
        st.builds(Neg, f),
        st.builds(And, f, f),
        st.builds(Or, f, f),
        st.builds(Imp, f, f),
        st.builds(Forall, st.sampled_from("XYZW"), f),
        st.builds(Exists, st.sampled_from("XYZW"), f),
    ),
    max_leaves=12,
)

def bound_names(f):
    """All binder names in preorder, with repetitions."""
    return [g.var for g, _ in subformulas(f, Polarity.POS) if isinstance(g, (Forall, Exists))]


ground_terms = st.recursive(
    st.sampled_from([const("a"), const("b"), const("c")]),
    lambda child: st.builds(lambda t: App("f", (t,)), child),
    max_leaves=3,
)


# --- polarity ---


def test_flip_involution():
    for p in Polarity:
        assert p.flip().flip() is p
    assert Polarity.NEG.flip() is Polarity.POS


def test_polarity_imp_left_is_negative():
    assert list(subformulas(Imp(A, B), Polarity.POS))[1] == (A, Polarity.NEG)


def test_polarity_empty_path_is_root():
    for p in Polarity:
        assert next(subformulas(Imp(A, B), p)) == (Imp(A, B), p)


def test_polarity_threefold_flip():
    # ~ flips, forall preserves, => flips the left child back
    f = Neg(Forall("X", Imp(A, B)))
    assert list(subformulas(f, Polarity.POS))[3] == (A, Polarity.POS)


@given(formulas, st.sampled_from(Polarity))
def test_polarity_matches_bruteforce_walk(f, root):
    # sorted paths are preorder, the order `subformulas` yields in
    table = all_polarities(f, root)
    assert [pol for _, pol in subformulas(f, root)] == [table[path] for path in sorted(table)]


def test_classify_quantifier():
    fa = Forall("X", P_x)
    assert quantifier_strengths(fa, Polarity.POS) == {"X": Strength.STRONG}
    assert quantifier_strengths(fa, Polarity.NEG) == {"X": Strength.WEAK}
    ex = Neg(Exists("X", P_x))
    assert quantifier_strengths(ex, Polarity.POS) == {"X": Strength.STRONG}
    assert quantifier_strengths(Exists("X", P_x), Polarity.POS) == {"X": Strength.WEAK}


def test_quantifier_of_each_strength_at_each_polarity():
    assert quantifier(Strength.WEAK, Polarity.NEG) is Forall
    assert quantifier(Strength.WEAK, Polarity.POS) is Exists
    assert quantifier(Strength.STRONG, Polarity.NEG) is Exists
    assert quantifier(Strength.STRONG, Polarity.POS) is Forall


def test_sequent_read_gives_each_side_its_polarity():
    s = Sequent((A, B), (P_x,))
    assert s.read(lambda f, pol: (f, pol)) == Sequent(((A, Polarity.NEG), (B, Polarity.NEG)), ((P_x, Polarity.POS),))


def test_classify_rejects_non_quantifier():
    # a formula without quantifiers classifies nothing
    assert quantifier_strengths(Imp(A, B), Polarity.POS) == {}


# --- rectify ---


def test_rectify_renames_duplicate_binders_across_formulas():
    s = Sequent((Forall("X", P_x),), (Forall("X", Atom("q", (Var("X"),))),))
    out = rectify(s)
    assert out.antecedent[0] == Forall("X", P_x)
    assert out.succedent[0] == Forall("X_1", Atom("q", (Var("X_1"),)))


def test_rectify_leaves_quantifier_free_alone():
    s = Sequent((Atom("p", (const("a"),)),), (Atom("q", (const("b"),)),))
    assert rectify(s) == s


def test_rectify_inner_shadowing():
    f = Forall("X", And(P_x, Exists("X", Atom("q", (Var("X"),)))))
    out = rectify(Sequent((f,), ()))
    names = bound_names(out.antecedent[0])
    assert len(names) == len(set(names))
    assert out.antecedent[0] == Forall(
        "X", And(P_x, Exists("X_1", Atom("q", (Var("X_1"),))))
    )


def test_rectify_avoids_free_variables():
    # bound X must move away from the free X in the other formula
    s = Sequent((Forall("X", P_x),), (Atom("q", (Var("X"),)),))
    out = rectify(s)
    assert out.antecedent[0].var == "X_1"
    assert out.succedent[0] == s.succedent[0]


def test_rectify_matches_recursive_reference_seeded():
    # binder names like X_1 collide with the fresh names rectify makes
    rng = random.Random(5150)
    pool = ("X", "Y", "X_1", "X_2")
    renamed = 0
    for _ in range(2000):
        sides = [
            tuple(random_formula(rng, rng.randint(1, 6), ("X", "Y"), pool) for _ in range(rng.randint(0, 3)))
            for _ in range(2)
        ]
        s = Sequent(*sides)
        got = rectify(s)
        assert got == ref_rectify(s)[0]
        renamed += got != s
    assert renamed > 500


@given(st.lists(formulas, max_size=3), st.lists(formulas, max_size=3))
def test_rectify_properties(ant, suc):
    s = Sequent(tuple(ant), tuple(suc))
    out = rectify(s)
    names = [n for f in out.formulas for n in bound_names(f)]
    assert len(names) == len(set(names)), "bound names must be pairwise distinct"
    free = set()
    for f in out.formulas:
        free |= free_vars(f)
    assert not (set(names) & free), "bound names must avoid free variables"
    for before, after in zip(s.formulas, out.formulas):
        assert alpha_equal(before, after)


def _plain(x):
    """A node as nested lists (kind first) and tuples, holding no node."""
    if isinstance(x, Node):
        return [type(x), *map(_plain, x.values())]
    if isinstance(x, tuple):
        return tuple(map(_plain, x))
    return x


def _built(p):
    """The node of a `_plain` form, built afresh from the bottom up."""
    if isinstance(p, list):
        return p[0](*map(_built, p[1:]))
    if isinstance(p, tuple):
        return tuple(map(_built, p))
    return p


@given(formulas, formulas)
def test_equal_formulas_are_the_same_node(f, g):
    assert _built(_plain(f)) is f
    assert (f == g) is (f is g) is (_plain(f) == _plain(g))


def _one_of_each_kind():
    x, a = Var("X"), const("a")
    p = Atom("p", (x, App("f", (a,))))
    return [
        x, a, p, Neg(p), And(p, p), Or(p, p), Imp(p, p), Forall("X", p), Exists("X", p),
        ETWeak("X", p, ((a, p), (x, p))), ETStrong("X", p, "e", p),
    ]


def test_every_kind_is_hash_consed():
    first, second = _one_of_each_kind(), _one_of_each_kind()
    assert len({type(node) for node in first}) == 11
    assert all(m is n for m, n in zip(first, second))
    assert all(_built(_plain(node)) is node for node in first)
    assert And(P_x, A) is not Or(P_x, A) and And(P_x, A) is not And(A, P_x)


def test_pickle_and_copy_return_the_same_node():
    for node in _one_of_each_kind():
        assert pickle.loads(pickle.dumps(node)) is node
        assert copy.copy(node) is node and copy.deepcopy(node) is node
    # a node whose last reference is gone is built again on loading
    data = pickle.dumps(Atom("p_pickled", (Var("X_pickled"),)))
    assert pickle.loads(data) is Atom("p_pickled", (Var("X_pickled"),))


def test_nodes_are_immutable():
    for node in _one_of_each_kind():
        name = node._fields[0]
        with pytest.raises(AttributeError):
            setattr(node, name, "changed")
        with pytest.raises(AttributeError):
            delattr(node, name)
    for short in (lambda: Forall("X"), lambda: Atom("p"), lambda: App("f")):
        with pytest.raises(TypeError, match="takes 2 fields, got 1"):
            short()


def test_constructor_contract_of_every_kind():
    # one of each field count: Var and Neg take 1, the other terms and
    # formulas 2, ETWeak 3 and ETStrong 4
    for node in _one_of_each_kind():
        kind, fields = type(node), node.values()
        assert kind(*fields) is node
        n = len(fields)
        for wrong in (fields[:-1], fields + ("extra",)):
            with pytest.raises(TypeError, match=f"^{kind.__name__} takes {n} fields, got {len(wrong)}$"):
                kind(*wrong)
    assert {len(node.values()) for node in _one_of_each_kind()} == {1, 2, 3, 4}
    # a call with too many fields does not return the node its first ones name
    with pytest.raises(TypeError, match="^Var takes 1 fields, got 3$"):
        Var("X", "Y", "Z")
    with pytest.raises(TypeError, match="^App takes 2 fields, got 0$"):
        App()


def test_intern_table_lets_dead_nodes_go():
    before = len(core._nodes)
    t = Var("V_table")
    for _ in range(10_000):
        t = App("h_table", (t,))
    atom = Atom("p_table", (t,))
    assert len(core._nodes) == before + 10_002
    del t
    assert len(core._nodes) == before + 10_002  # the atom holds the term
    del atom
    assert len(core._nodes) == before
    # the kinds of the other field counts: Neg, ETWeak and ETStrong
    p = Atom("p_table", ())
    tree = ETStrong("X_table", p, "e_table", ETWeak("Y_table", Neg(p), ((const("c_table"), Neg(p)),)))
    assert len(core._nodes) == before + 5
    del p
    assert len(core._nodes) == before + 5  # the tree holds the atom
    del tree
    assert len(core._nodes) == before


def test_dead_entry_not_yet_removed_is_replaced(monkeypatch):
    # a node whose callback is a no-op leaves a dead entry behind, the state
    # between a node's death and its callback; building the node again must
    # replace the entry, not return it or loop
    before = len(core._nodes)
    with monkeypatch.context() as patched:
        patched.setattr(core, "_forget", lambda entry: None)
        node = App("f_dead_entry", ())
    del node
    assert len(core._nodes) == before + 1  # the dead entry
    again = App("f_dead_entry", ())
    assert type(again) is App and again.head == "f_dead_entry" and again.args == ()
    assert App("f_dead_entry", ()) is again
    assert len(core._nodes) == before + 1
    del again
    assert len(core._nodes) == before


def test_threads_building_equal_nodes_get_one_node():
    # four threads on two CPUs build the same 3000 nodes of one kind,
    # switching as often as the interpreter allows; a lookup and an insertion
    # that let two threads each make a node would leave two different nodes.
    # The kinds have one, two and four fields.
    def build(make, out):
        out.extend(make(i) for i in range(3000))

    for make in (
        lambda i: Var(f"V_thread{i % 1000}"),
        lambda i: App(f"t_thread{i % 1000}", (Var(f"V{i % 7}"),)),
        lambda i: ETStrong(f"X{i % 7}", A, f"e_thread{i % 1000}", B),
    ):
        results = [[] for _ in range(4)]
        threads = [threading.Thread(target=build, args=(make, r)) for r in results]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(len(r) == 3000 for r in results)
        assert all(a is b for r in results[1:] for a, b in zip(results[0], r))


# --- stack walks against the recursive versions they replaced ---


def _sexp(t):
    return t.head if isinstance(t, App) and not t.args else [t.head, *map(_sexp, t.args)]


def test_term_walks_match_recursive_references_seeded():
    rng = random.Random(4242)
    names = {"sk1": "v_sk1"}
    for _ in range(500):
        t = random_wide_term(rng, rng.randint(0, 6), ("X", "Y", "Z"))
        m = {v: random_wide_term(rng, 2, ("X", "Y")) for v in ("X", "Y", "Z") if rng.random() < 0.5}
        assert core._subst_term(t, m) is _ref_subst_term(t, m)
        atom = Atom(rng.choice(("p", "=")), (t, m.get("X", t)))
        assert str(t) == ref_term_text(t) and str(atom) == ref_term_text(atom)
        assert parse_term(str(t)) is ref_parse_term(str(t)) is t
        assert collapse_term(t, names) is ref_collapse_term(t, names)
        ground = apply_subst(t, Subst({v: const("c") for v in ("X", "Y", "Z")}))
        assert _sterm_to_term(_sexp(ground)) is ref_sterm_to_term(_sexp(ground)) is ground


def test_term_walks_take_a_term_deeper_than_the_recursion_limit():
    t = Var("X")
    opening, closing = [], []
    for i in range(10_000):
        t = App("g", (t, const("a"))) if i % 2 else App("sk1", (t,))
        opening.append("g(" if i % 2 else "sk1(")
        closing.append(", a)" if i % 2 else ")")
    text = str(t)
    assert text == "".join(reversed(opening)) + "X" + "".join(closing)
    assert not hasattr(t.args[0], "_text")  # the text is kept on `t` alone
    assert parse_term(text) is t
    assert core._subst_term(t, {"X": const("b")}) is parse_term(text.replace("X", "b"))
    assert collapse_term(t, {"sk1": "v_sk1"}) is App("g", (Var("v_sk1"), const("a")))
    ground = core._subst_term(t, {"X": const("b")})
    sexp = const("b").head
    for i in range(10_000):
        sexp = ["g", sexp, "a"] if i % 2 else ["sk1", sexp]
    assert _sterm_to_term(sexp) is ground


# --- substitution ---


def test_subst_normalises_identity():
    assert Subst({"X": Var("X")}) == Subst()
    assert not Subst({"X": Var("X")})


def test_apply_subst_basic():
    assert apply_subst(P_x, Subst({"X": const("a")})) == Atom("p", (const("a"),))
    assert apply_subst(P_x, Subst()) == P_x


def test_apply_subst_capture_avoiding():
    # (forall Y. p(X, Y))[X -> f(Y)] must rename the binder
    f = Forall("Y", Atom("p", (Var("X"), Var("Y"))))
    out = apply_subst(f, Subst({"X": App("f", (Var("Y"),))}))
    assert isinstance(out, Forall)
    assert out.var != "Y"
    assert out.body == Atom("p", (App("f", (Var("Y"),)), Var(out.var)))
    assert alpha_equal(out, Forall("Y2", Atom("p", (App("f", (Var("Y"),)), Var("Y2")))))


def test_apply_subst_matches_recursive_reference_seeded():
    # the substituted terms mention the formula's binder names, which forces
    # capture renaming; binders named like the fresh names (X_1) force
    # renaming inside a renaming
    rng = random.Random(3301)
    pool = ("X", "Y", "X_1", "Y_1")
    captured = 0
    for _ in range(2500):
        f = random_formula(rng, rng.randint(3, 8), ("X", "Y", "Z"), pool)
        names = bound_names(f) + ["Z"]
        sigma = Subst({v: random_term(rng, names) for v in ("X", "Y", "Z") if rng.random() < 0.7})
        got = apply_subst(f, sigma)
        assert got == ref_subst_formula(f, dict(sigma.items()))
        captured += bound_names(got) != bound_names(f)
    assert captured > 200


def test_apply_subst_renames_inside_a_renaming():
    # the term mentions X, so the outer X becomes X_1; that captures the X_1
    # of the next binder, which becomes X_1_1; the term mentions X_1_1 too,
    # so that binder becomes X_1_1_1, which captures the innermost binder,
    # renamed to X_1_1_1_1.  Every atom variable follows its binder.
    f = Forall(
        "X",
        Forall("X_1", Forall("X_1_1_1", Atom("p", (Var("Z"), Var("X"), Var("X_1"), Var("X_1_1_1"))))),
    )
    m = {"Z": App("f", (Var("X"), Var("X_1_1")))}
    got = apply_subst(f, Subst(m))
    assert got == ref_subst_formula(f, m)
    inner = Atom("p", (m["Z"], Var("X_1"), Var("X_1_1_1"), Var("X_1_1_1_1")))
    assert got == Forall("X_1", Forall("X_1_1_1", Forall("X_1_1_1_1", inner)))


def test_apply_subst_does_not_touch_bound_occurrences():
    f = Forall("X", P_x)
    assert apply_subst(f, Subst({"X": const("a")})) == f


# --- matching ---


def test_match_positional():
    # the atoms of X = Y & Y = Z => X = Z, matched in turn, each extending the
    # bindings of the ones before, as `leancop.match_literals` does
    X, Y, Z = Var("X"), Var("Y"), Var("Z")
    a, b, c = const("a"), const("b"), const("c")
    bindings = {}
    for pat, tgt in ((eq(X, Y), eq(a, b)), (eq(Y, Z), eq(b, c)), (eq(X, Z), eq(a, c))):
        bindings = match_under(pat, tgt, bindings)
    assert bindings == {"X": a, "Y": b, "Z": c}
    assert match_under(eq(X, Z), eq(a, b), bindings) is None


def test_match_conflict():
    a, b = const("a"), const("b")
    assert match_under(Atom("p", (Var("X"), Var("X"))), Atom("p", (a, b)), {}) is None
    # an existing binding must agree, and is not changed in place
    bindings = {"X": b}
    assert match_under(Atom("p", (Var("X"),)), Atom("p", (a,)), bindings) is None
    assert match_under(Atom("q", (Var("Y"),)), Atom("q", (a,)), bindings) == {"X": b, "Y": a}
    assert bindings == {"X": b}


def test_match_nested():
    pat = Atom("p", (App("f", (Var("X"),)),))
    tgt = Atom("p", (App("f", (App("g", (const("a"),)),)),))
    assert match_under(pat, tgt, {}) == {"X": App("g", (const("a"),))}


def test_match_structural_mismatch():
    assert match_under(Atom("p", ()), Atom("q", ()), {}) is None
    assert match_under(App("f", (Var("X"),)), App("g", (const("a"),)), {}) is None
    assert match_under(App("f", (Var("X"),)), App("f", (const("a"), const("b"))), {}) is None
    assert match_under(App("f", ()), Var("X"), {}) is None


@given(atoms, st.data())
def test_match_recovers_applied_substitution(atom, data):
    bindings = {}
    for v in sorted(free_vars(atom)):
        if data.draw(st.booleans(), label=f"bind {v}"):
            bindings[v] = data.draw(ground_terms, label=f"term for {v}")
    result = match_under(atom, apply_subst(atom, Subst(bindings)), {})
    assert result is not None
    assert Subst(result) == Subst(bindings)


def test_match_seeded_sweep():
    rng = random.Random(20240)
    pool = [const("a"), const("b"), App("f", (const("c"),))]
    for _ in range(200):
        f = random_formula(rng, rng.randint(1, 5))
        for atom in (g for g, _ in subformulas(f, Polarity.POS) if isinstance(g, Atom)):
            sigma = Subst({v: rng.choice(pool) for v in free_vars(atom) if rng.random() < 0.7})
            got = match_under(atom, apply_subst(atom, sigma), {})
            assert got is not None
            assert Subst(got) == sigma


# --- literals ---


def test_negative_literal_matches_only_a_negative_one():
    p, pa = Atom("p", (Var("X"),)), Atom("p", (const("a"),))
    assert match_under(Neg(p), Neg(pa), {}) == {"X": const("a")}
    assert match_under(Neg(p), pa, {}) is None
    assert match_under(p, Neg(pa), {}) is None
    assert free_vars(Neg(p)) == {"X"}
    assert apply_subst(Neg(p), Subst({"X": const("a")})) is Neg(pa)


# --- the package as source ---


def test_package_has_no_assert_statement():
    # `python -O` drops assert statements, and invariant checks must still
    # run under it, so they raise instead
    package = Path(core.__file__).parent
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(package.glob("*.py"))) >= 8
    assert asserts == []
