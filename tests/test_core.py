import random

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
    InvalidPathError,
    Literal,
    Neg,
    NotAQuantifierError,
    Or,
    Polarity,
    Sequent,
    Strength,
    Subst,
    Var,
    apply_subst,
    classify_quantifier,
    clause_to_formula,
    const,
    eq,
    free_vars,
    match,
    polarity_at,
    rectify,
    same_formula,
    subformulas,
)
from oracles import all_polarities, alpha_equal, ref_rectify, ref_subst_formula
from randgen import random_formula, random_term

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
    assert polarity_at(Imp(A, B), [0], Polarity.POS) is Polarity.NEG


def test_polarity_empty_path_is_root():
    for p in Polarity:
        assert polarity_at(Imp(A, B), [], p) is p


def test_polarity_threefold_flip():
    # ~ flips, forall preserves, => flips the left child back
    f = Neg(Forall("X", Imp(A, B)))
    assert polarity_at(f, [0, 0, 0], Polarity.POS) is Polarity.POS


def test_polarity_invalid_path():
    with pytest.raises(InvalidPathError) as exc:
        polarity_at(Imp(A, B), [0, 3], Polarity.POS)
    assert exc.value.index == 3
    assert exc.value.depth == 1


@given(formulas, st.sampled_from(Polarity))
def test_polarity_matches_bruteforce_walk(f, root):
    table = all_polarities(f, root)
    for path, expected in table.items():
        assert polarity_at(f, path, root) is expected


def test_classify_quantifier():
    fa = Forall("X", P_x)
    assert classify_quantifier(fa, [], Polarity.POS) is Strength.STRONG
    assert classify_quantifier(fa, [], Polarity.NEG) is Strength.WEAK
    ex = Neg(Exists("X", P_x))
    assert classify_quantifier(ex, [0], Polarity.POS) is Strength.STRONG
    assert classify_quantifier(Exists("X", P_x), [], Polarity.POS) is Strength.WEAK


def test_classify_rejects_non_quantifier():
    with pytest.raises(NotAQuantifierError):
        classify_quantifier(Imp(A, B), [0], Polarity.POS)


# --- rectify ---


def test_rectify_renames_duplicate_binders_across_formulas():
    s = Sequent((Forall("X", P_x),), (Forall("X", Atom("q", (Var("X"),))),))
    out, report = rectify(s)
    assert out.antecedent[0] == Forall("X", P_x)
    assert out.succedent[0] == Forall("X_1", Atom("q", (Var("X_1"),)))
    assert report == {"X_1": (1, "X")}


def test_rectify_leaves_quantifier_free_alone():
    s = Sequent((Atom("p", (const("a"),)),), (Atom("q", (const("b"),)),))
    assert rectify(s) == (s, {})


def test_rectify_inner_shadowing():
    f = Forall("X", And(P_x, Exists("X", Atom("q", (Var("X"),)))))
    out, report = rectify(Sequent((f,), ()))
    names = bound_names(out.antecedent[0])
    assert len(names) == len(set(names))
    assert report == {"X_1": (0, "X")}
    assert out.antecedent[0] == Forall(
        "X", And(P_x, Exists("X_1", Atom("q", (Var("X_1"),))))
    )


def test_rectify_avoids_free_variables():
    # bound X must move away from the free X in the other formula
    s = Sequent((Forall("X", P_x),), (Atom("q", (Var("X"),)),))
    out, report = rectify(s)
    assert out.antecedent[0].var == "X_1"
    assert out.succedent[0] == s.succedent[0]
    assert report == {"X_1": (0, "X")}


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
        assert got == ref_rectify(s)
        renamed += bool(got[1])
    assert renamed > 500


@given(st.lists(formulas, max_size=3), st.lists(formulas, max_size=3))
def test_rectify_properties(ant, suc):
    s = Sequent(tuple(ant), tuple(suc))
    out, _report = rectify(s)
    names = [n for f in out.formulas for n in bound_names(f)]
    assert len(names) == len(set(names)), "bound names must be pairwise distinct"
    free = set()
    for f in out.formulas:
        free |= free_vars(f)
    assert not (set(names) & free), "bound names must avoid free variables"
    for before, after in zip(s.formulas, out.formulas):
        assert alpha_equal(before, after)


@given(formulas, formulas)
def test_same_formula_is_structural_equality(f, g):
    assert same_formula(f, g) is (f == g)
    assert same_formula(f, f) is True


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
        assert got == ref_subst_formula(f, sigma.mapping())
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


@given(terms, st.sampled_from(["X", "Y"]), ground_terms, ground_terms)
def test_compose_is_apply_then_apply(t, v, g1, g2):
    s1 = Subst({v: g1})
    s2 = Subst({"Y": g2})
    assert apply_subst(t, s1.compose(s2)) == apply_subst(apply_subst(t, s1), s2)


@given(ground_terms, ground_terms, ground_terms)
def test_compose_associative(g1, g2, g3):
    a, b, c = Subst({"X": g1}), Subst({"Y": g2}), Subst({"Z": g3})
    assert a.compose(b).compose(c) == a.compose(b.compose(c))


# --- matching ---


def test_match_positional():
    pat = Imp(And(eq(Var("X"), Var("Y")), eq(Var("Y"), Var("Z"))), eq(Var("X"), Var("Z")))
    tgt = Imp(And(eq(const("a"), const("b")), eq(const("b"), const("c"))), eq(const("a"), const("c")))
    assert match(pat, tgt) == Subst({"X": const("a"), "Y": const("b"), "Z": const("c")})


def test_match_conflict():
    assert match(Atom("p", (Var("X"), Var("X"))), Atom("p", (const("a"), const("b")))) is None


def test_match_nested():
    pat = Atom("p", (App("f", (Var("X"),)),))
    tgt = Atom("p", (App("f", (App("g", (const("a"),)),)),))
    assert match(pat, tgt) == Subst({"X": App("g", (const("a"),))})


def test_match_structural_mismatch():
    assert match(And(A, B), Or(A, B)) is None
    assert match(Atom("p", ()), Atom("q", ())) is None


@given(formulas, st.data())
def test_match_recovers_applied_substitution(f, data):
    fv = sorted(free_vars(f))
    bindings = {}
    for v in fv:
        if data.draw(st.booleans(), label=f"bind {v}"):
            bindings[v] = data.draw(ground_terms, label=f"term for {v}")
    sigma = Subst(bindings)
    target = apply_subst(f, sigma)
    result = match(f, target)
    assert result is not None
    assert result.restrict(fv) == sigma.restrict(fv)


def test_match_seeded_sweep():
    rng = random.Random(20240)
    pool = [const("a"), const("b"), App("f", (const("c"),))]
    for _ in range(200):
        f = random_formula(rng, rng.randint(1, 5))
        sigma = Subst({v: rng.choice(pool) for v in free_vars(f) if rng.random() < 0.7})
        got = match(f, apply_subst(f, sigma))
        assert got is not None
        assert got.restrict(free_vars(f)) == sigma.restrict(free_vars(f))


# --- literals and clauses ---


def test_clause_to_formula():
    lits = (Literal(A), Literal(B, False))
    assert clause_to_formula(lits) == Or(A, Neg(B))
    assert clause_to_formula((Literal(A),)) == A
    with pytest.raises(ValueError):
        clause_to_formula(())


def test_literal_str():
    assert str(Literal(eq(const("a"), const("b")), False)) == "~a = b"
    assert str(Literal(Atom("p", (const("a"),)))) == "p(a)"
