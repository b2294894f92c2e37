import json
import random
import re

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
    Or,
    Polarity,
    Sequent,
    Strength,
    Subst,
    Var,
    quantifier_strengths,
    rectify,
)
from exproof.expansion import (
    ETStrong,
    ETWeak,
    EigenvariableFormError,
    ExpansionError,
    MultiplicityError,
    VACUOUS_TERM,
    deep,
    expand_formula,
    sequent_from_json,
    sequent_to_json,
    shallow,
    shallow_sequent,
    subtrees,
    tree_to_json,
)
from exproof.notation import parse_formula
from oracles import ref_deep, ref_expand_formula, ref_preorder, ref_tree_to_json
from randgen import GROUND_TERMS, const, random_expansion_sequent, random_formula, random_instances

P = lambda t: Atom("p", (t,))
Q = lambda t: Atom("q", (t,))
a, b, c = const("a"), const("b"), const("c")


# --- shallow / deep readings ---


def test_shallow_atom_ignores_polarity():
    node = P(a)
    assert shallow(node, Polarity.NEG) == P(a)
    assert shallow(node, Polarity.POS) == P(a)


def test_shallow_weak_node():
    node = ETWeak("X", P(Var("X")), ((a, P(a)), (b, P(b))))
    assert shallow(node, Polarity.NEG) == Forall("X", P(Var("X")))
    assert shallow(node, Polarity.POS) == Exists("X", P(Var("X")))


def test_shallow_strong_node():
    node = ETStrong("Y", Q(Var("Y")), "A", Q(Var("A")))
    assert shallow(node, Polarity.POS) == Forall("Y", Q(Var("Y")))
    assert shallow(node, Polarity.NEG) == Exists("Y", Q(Var("Y")))


def test_deep_weak_node_polarity():
    node = ETWeak("X", P(Var("X")), ((a, P(a)), (b, P(b))))
    assert deep(node, Polarity.NEG) == parse_formula("p(a) & p(b)")
    assert deep(node, Polarity.POS) == parse_formula("p(a) | p(b)")


def test_deep_strong_node_is_transparent():
    node = ETStrong("Y", Q(Var("Y")), "A", Q(Var("A")))
    for p in Polarity:
        assert deep(node, p) == Q(Var("A"))


def _agrees_with_the_recursive_readings(es):
    for tree, pol in [*((t, Polarity.NEG) for t in es.antecedent), *((t, Polarity.POS) for t in es.succedent)]:
        assert deep(tree, pol) is ref_deep(tree, pol)
        assert list(subtrees(tree)) == ref_preorder(tree)


def test_deep_and_subtrees_match_the_recursive_references_seeded():
    rng = random.Random(1987)
    for _ in range(1500):
        _agrees_with_the_recursive_readings(random_expansion_sequent(rng))


@given(st.integers(0, 2**32 - 1))
def test_deep_and_subtrees_match_the_recursive_references(seed):
    _agrees_with_the_recursive_readings(random_expansion_sequent(random.Random(seed)))


def test_subtrees_and_deep_walk_a_tree_deeper_than_the_recursion_limit():
    # alternating one-instance weak nodes and negations, 10,000 deep, whose
    # deep reading is the atom under 5,000 negations
    tree = negated = leaf = P(a)
    for i in range(10_000):
        tree = Neg(tree) if i % 2 else ETWeak("X", P(Var("X")), ((a, tree),))
        negated = Neg(negated) if i % 2 else negated
    nodes = list(subtrees(tree))
    assert len(nodes) == 10_001 and nodes[0] is tree and nodes[-1] is leaf
    assert deep(tree, Polarity.NEG) is deep(tree, Polarity.POS) is negated


# --- expansion (Et) ---


def test_expand_weak_universal():
    f = Forall("X", P(Var("X")))
    tree = expand_formula(f, [Subst({"X": a}), Subst({"X": b})], Polarity.NEG)
    assert tree == ETWeak("X", P(Var("X")), ((a, P(a)), (b, P(b))))


def test_expand_propositional_with_empty_instances():
    f = Imp(P(a), P(a))
    tree = expand_formula(f, [], Polarity.POS)
    assert tree == Imp(P(a), P(a))


def test_expand_partitions_by_outer_term():
    f = parse_formula("![X]: ![Y]: r(X,Y)")
    sig = [
        Subst({"X": a, "Y": const("t1")}),
        Subst({"X": a, "Y": const("t2")}),
        Subst({"X": b, "Y": const("t3")}),
    ]
    tree = expand_formula(f, sig, Polarity.NEG)
    assert [t for t, _ in tree.instances] == [a, b]
    inner_a = tree.instances[0][1]
    inner_b = tree.instances[1][1]
    assert [t for t, _ in inner_a.instances] == [const("t1"), const("t2")]
    assert [t for t, _ in inner_b.instances] == [const("t3")]
    assert shallow(tree, Polarity.NEG) == f


def test_expand_strong_quantifier_single_eigenvariable():
    f = parse_formula("![X]: ?[Y]: r(X,Y)")
    sig = [Subst({"X": a, "Y": Var("E0")}), Subst({"X": b, "Y": Var("E0")})]
    tree = expand_formula(f, sig, Polarity.NEG)
    for _t, child in tree.instances:
        assert isinstance(child, ETStrong)
        assert child.eigenvariable == "E0"


def test_expand_strong_multiplicity_error():
    f = parse_formula("?[X]: (p(X) => ![Y]: p(Y))")
    sig = [Subst({"X": c, "Y": Var("A")}), Subst({"X": Var("A"), "Y": Var("B")})]
    with pytest.raises(MultiplicityError):
        expand_formula(f, sig, Polarity.POS)


def test_expand_quantifier_without_instances_gets_vacuous_instance():
    # any term will do where a branch has no instance
    f = Forall("X", P(Var("X")))
    assert expand_formula(f, [], Polarity.NEG) == ETWeak("X", P(Var("X")), ((VACUOUS_TERM, P(VACUOUS_TERM)),))
    assert expand_formula(f, [], Polarity.POS) == ETStrong("X", P(Var("X")), "v_vac_X", P(Var("v_vac_X")))


def test_expand_eigenvariable_form_error():
    f = parse_formula("?[Y]: p(Y)")
    with pytest.raises(EigenvariableFormError):
        expand_formula(f, [Subst({"Y": a})], Polarity.NEG)


def test_expand_vacuous_weak_quantifier_gets_dummy_instance():
    f = Forall("X", P(a))  # X not free in the body
    tree = expand_formula(f, [], Polarity.NEG)
    assert tree == ETWeak("X", P(a), ((VACUOUS_TERM, P(a)),))
    assert shallow(tree, Polarity.NEG) == f


def test_expand_completes_each_branch_on_its_own():
    # the instance X = a binds no Y, so the branch under it gets the vacuous
    # instance (weak) or eigenvariable (strong) while X = b keeps its own
    weak = parse_formula("![X]: (p(X) & ![Y]: q(X,Y))")
    tree = expand_formula(weak, [Subst({"X": a}), Subst({"X": b, "Y": b})], Polarity.NEG)
    assert [[t for t, _ in kid.right.instances] for _, kid in tree.instances] == [[VACUOUS_TERM], [b]]
    strong = parse_formula("![X]: (p(X) & ?[Y]: q(X,Y))")
    tree = expand_formula(strong, [Subst({"X": a}), Subst({"X": b, "Y": Var("E")})], Polarity.NEG)
    assert [kid.right.eigenvariable for _, kid in tree.instances] == ["v_vac_Y", "E"]


def test_expand_passthrough_reaches_inner_quantifier():
    # a substitution not mentioning the outer variable still feeds inner nodes
    f = parse_formula("![X]: (p(X) & ![Y]: q(Y))")
    sig = [Subst({"X": a}), Subst({"Y": b})]
    tree = expand_formula(f, sig, Polarity.NEG)
    assert [t for t, _ in tree.instances] == [a]
    inner = tree.instances[0][1].right
    assert isinstance(inner, ETWeak)
    assert [t for t, _ in inner.instances] == [b]


def test_expand_sequent_positions_and_errors():
    # a sequent expands formula by formula, the antecedent at negative and
    # the succedent at positive polarity
    seq = Sequent((Forall("X", P(Var("X"))),), (P(c),))
    es = Sequent(
        (expand_formula(seq.antecedent[0], [Subst({"X": c})], Polarity.NEG),),
        (expand_formula(seq.succedent[0], [], Polarity.POS),),
    )
    assert es.antecedent[0] == ETWeak("X", P(Var("X")), ((c, P(c)),))
    assert es.succedent[0] == P(c)
    assert shallow_sequent(es) == seq
    completed = ETWeak("X", P(Var("X")), ((VACUOUS_TERM, P(VACUOUS_TERM)),))
    assert expand_formula(seq.antecedent[0], [], Polarity.NEG) == completed


# --- properties ---


def _no_quantifiers(f):
    if isinstance(f, Atom):
        return True
    if hasattr(f, "sub"):
        return _no_quantifiers(f.sub)
    if hasattr(f, "left"):
        return _no_quantifiers(f.left) and _no_quantifiers(f.right)
    return False


def _tree_atoms(tree, out):
    if isinstance(tree, Atom):
        out.add(tree)
    elif isinstance(tree, Neg):
        _tree_atoms(tree.sub, out)
    elif isinstance(tree, (And, Or, Imp)):
        _tree_atoms(tree.left, out)
        _tree_atoms(tree.right, out)
    elif isinstance(tree, ETWeak):
        for _t, child in tree.instances:
            _tree_atoms(child, out)
    else:
        _tree_atoms(tree.child, out)


def _formula_atoms(f, out):
    if isinstance(f, Atom):
        out.add(f)
    elif hasattr(f, "sub"):
        _formula_atoms(f.sub, out)
    elif hasattr(f, "left"):
        _formula_atoms(f.left, out)
        _formula_atoms(f.right, out)
    else:
        _formula_atoms(f.body, out)


def _assert_polarity_discipline(tree, pol):
    if isinstance(tree, ETWeak):
        assert quantifier_strengths(shallow(tree, pol), pol)[tree.var] is Strength.WEAK
        for _t, child in tree.instances:
            _assert_polarity_discipline(child, pol)
    elif isinstance(tree, ETStrong):
        assert quantifier_strengths(shallow(tree, pol), pol)[tree.var] is Strength.STRONG
        _assert_polarity_discipline(tree.child, pol)
    elif isinstance(tree, Neg):
        _assert_polarity_discipline(tree.sub, pol.flip())
    elif isinstance(tree, (And, Or, Imp)):
        left_pol = pol.flip() if isinstance(tree, Imp) else pol
        _assert_polarity_discipline(tree.left, left_pol)
        _assert_polarity_discipline(tree.right, pol)


def test_shallow_inverse_and_friends_seeded():
    rng = random.Random(99173)
    for i in range(150):
        raw = random_formula(rng, rng.randint(1, 5))
        f = rectify(Sequent((raw,), ())).antecedent[0]
        pol = rng.choice((Polarity.NEG, Polarity.POS))
        sig = random_instances(rng, f, pol)
        tree = expand_formula(f, sig, pol)
        assert shallow(tree, pol) == f, f"case {i}"
        d = deep(tree, pol)
        assert _no_quantifiers(d)
        deep_atoms, tree_atoms = set(), set()
        _formula_atoms(d, deep_atoms)
        _tree_atoms(tree, tree_atoms)
        assert deep_atoms <= tree_atoms
        _assert_polarity_discipline(tree, pol)


@given(st.integers(0, 2**32 - 1), st.sampled_from(Polarity))
def test_shallow_inverse_hypothesis(seed, pol):
    rng = random.Random(seed)
    raw = random_formula(rng, rng.randint(1, 5))
    f = rectify(Sequent((raw,), ())).antecedent[0]
    tree = expand_formula(f, random_instances(rng, f, pol), pol)
    assert shallow(tree, pol) == f


def _global_fallback(f, pol, sigmas):
    """One substitution that binds every quantifier variable no member of
    `sigmas` binds: a weak one to VACUOUS_TERM, a strong one to v_vac_<var>."""
    bound = set().union(*(s.domain for s in sigmas))
    strengths = quantifier_strengths(f, pol).items()
    return Subst(
        {v: VACUOUS_TERM if s is Strength.WEAK else Var(f"v_vac_{v}") for v, s in strengths if v not in bound}
    )


@given(st.integers(0, 2**32 - 1), st.sampled_from(Polarity))
def test_completion_per_branch_agrees_with_a_global_fallback(seed, pol):
    # instance sets with variables left out, so that some branches and some
    # whole quantifiers have no instance
    rng = random.Random(seed)
    raw = random_formula(rng, rng.randint(1, 5))
    f = rectify(Sequent((raw,), ())).antecedent[0]
    sigmas = [Subst({v: t for v, t in s.items() if rng.random() < 0.6}) for s in random_instances(rng, f, pol)]
    tree = expand_formula(f, sigmas, pol)
    assert tree is expand_formula(f, [*sigmas, _global_fallback(f, pol, sigmas)], pol)
    assert shallow(tree, pol) is f


def test_weak_children_count_matches_distinct_terms():
    f = Forall("X", P(Var("X")))
    sig = [Subst({"X": a}), Subst({"X": a}), Subst({"X": b})]
    tree = expand_formula(f, sig, Polarity.NEG)
    assert len(tree.instances) == 2


# --- JSON ---


def test_tree_json_fields():
    node = ETWeak("X", P(Var("X")), ((a, P(a)),))
    data = tree_to_json(node)
    assert data["kind"] == "weak"
    assert data["var"] == "X"
    assert data["instances"] == [{"term": "a", "child": {"kind": "atom", "formula": "p(a)"}}]
    strong = ETStrong("Y", Q(Var("Y")), "v_sk1", Q(Var("v_sk1")))
    sdata = tree_to_json(strong)
    assert sdata["kind"] == "strong"
    assert sdata["eigenvariable"] == "v_sk1"


def test_json_roundtrip_with_eigenvariables():
    inner = ETStrong("Y", Q(Var("Y")), "v_sk1", Q(Var("v_sk1")))
    tree = ETWeak("X", parse_formula("p(X)", extra_vars={"X"}), ((Var("v_sk1"), P(Var("v_sk1"))),))
    es = Sequent((inner,), (tree,))
    data = json.loads(json.dumps(sequent_to_json(es)))
    assert sequent_from_json(data) == es


def test_json_roundtrip_seeded():
    rng = random.Random(5150)
    for _ in range(60):
        raw = random_formula(rng, rng.randint(1, 4))
        f = rectify(Sequent((raw,), ())).antecedent[0]
        pol = rng.choice((Polarity.NEG, Polarity.POS))
        tree = expand_formula(f, random_instances(rng, f, pol), pol)
        es = Sequent((tree,), ()) if pol is Polarity.NEG else Sequent((), (tree,))
        data = json.loads(json.dumps(sequent_to_json(es)))
        assert sequent_from_json(data) == es


def test_tree_from_json_rejects_unknown_kind():
    with pytest.raises(ExpansionError, match="unknown node kind"):
        sequent_from_json({"antecedent": [{"kind": "mystery"}]})
    with pytest.raises(ExpansionError, match="unknown node kind"):
        sequent_from_json({"antecedent": [{"kind": ["neg"]}]})


_ATOM_JSON = {"kind": "atom", "formula": "p(a)"}
_WEAK_JSON = {"kind": "weak", "var": "X", "body": "p(X)"}
_STRONG_JSON = {"kind": "strong", "var": "X", "body": "p(X)", "eigenvariable": "e", "child": _ATOM_JSON}


@pytest.mark.parametrize(
    "data, message",
    [
        ([], "expected an object with the field 'antecedent'"),
        ({"antecedent": _ATOM_JSON}, "field 'antecedent' is not a list"),
        ({"succedent": "p(a)"}, "field 'succedent' is not a list"),
        ({"antecedent": [["p(a)"]]}, "expected an object with the field 'kind'"),
        ({"antecedent": [{}]}, "missing field 'kind'"),
        ({"antecedent": [{"kind": "atom"}]}, "missing field 'formula'"),
        ({"antecedent": [{"kind": "atom", "formula": 3}]}, "field 'formula' is not a string"),
        ({"antecedent": [{"kind": "neg"}]}, "missing field 'child'"),
        ({"antecedent": [{"kind": "neg", "child": "p(a)"}]}, "field 'child' is not an object"),
        ({"antecedent": [{"kind": "and", "left": _ATOM_JSON}]}, "missing field 'right'"),
        ({"antecedent": [_WEAK_JSON]}, "missing field 'instances'"),
        ({"antecedent": [{**_WEAK_JSON, "instances": {}}]}, "field 'instances' is not a list"),
        ({"antecedent": [{**_WEAK_JSON, "instances": ["a"]}]}, "expected an object with the field 'child'"),
        ({"antecedent": [{**_WEAK_JSON, "instances": [{"child": _ATOM_JSON}]}]}, "missing field 'term'"),
        (
            {"antecedent": [{**_WEAK_JSON, "instances": [{"term": None, "child": _ATOM_JSON}]}]},
            "field 'term' is not a string",
        ),
        ({"antecedent": [{**_STRONG_JSON, "eigenvariable": ["e"]}]}, "field 'eigenvariable' is not a string"),
        ({"antecedent": [{**_STRONG_JSON, "var": 0}]}, "field 'var' is not a string"),
        ({"antecedent": [{k: v for k, v in _STRONG_JSON.items() if k != "body"}]}, "missing field 'body'"),
        (
            {"antecedent": [{"kind": "atom", "formula": "p(a) & q(a)"}]},
            "atom node does not hold an atom: 'p(a) & q(a)'",
        ),
    ],
)
def test_tree_from_json_names_the_field_of_a_malformed_node(data, message):
    with pytest.raises(ExpansionError, match=re.escape(message)):
        sequent_from_json(data)


def test_tree_from_json_rejects_a_weak_node_without_instances():
    # the deep reading of a weak node joins its instances, so it needs one
    weak = {"kind": "weak", "var": "X", "body": "p(X)", "instances": []}
    with pytest.raises(ExpansionError, match="weak node 'X' has no instances"):
        sequent_from_json({"succedent": [weak]})
    outer = {"kind": "weak", "var": "Y", "body": "![X]: p(X)", "instances": [{"term": "a", "child": weak}]}
    with pytest.raises(ExpansionError, match="weak node 'X' has no instances"):
        sequent_from_json({"antecedent": [{"kind": "neg", "child": outer}]})


def test_tree_from_json_checks_each_node_against_its_root_body():
    f = parse_formula("![X]: (p(X) & ![Y]: q(X,Y))")
    tree = expand_formula(f, [Subst({"X": a, "Y": b})], Polarity.NEG)
    good = sequent_to_json(Sequent((tree,), ()))
    assert good["antecedent"][0]["instances"][0]["child"]["right"]["body"] == "q(a, Y)"
    assert sequent_from_json(good).antecedent[0] is tree
    # the body under the instance X = a is q(a, Y), its left part p(a)
    for field, value in (("body", "q(b, Y)"), ("var", "Z")):
        data = json.loads(json.dumps(good))
        data["antecedent"][0]["instances"][0]["child"]["right"][field] = value
        with pytest.raises(ExpansionError, match="disagrees with the body above it"):
            sequent_from_json(data)
    atom = {"kind": "atom", "formula": "p(b)"}
    wrong_parts = ((atom, "disagrees with its quantifier's body"), ({"kind": "neg", "child": atom}, "stands for"))
    for node, message in wrong_parts:
        data = json.loads(json.dumps(good))
        data["antecedent"][0]["instances"][0]["child"]["left"] = node
        with pytest.raises(ExpansionError, match=message):
            sequent_from_json(data)


# --- expansion by environment against substitution into the whole body ---


def _instances_naming_binders(rng, f, pol):
    """Instance sets whose terms may mention the formula's own bound names,
    so that substituting them into a body would capture a deeper binder:
    weak terms are ground or built from those names, and each strong
    variable is pinned to an eigenvariable that may carry one of them.
    Some bindings are left out, so that some branches have no instance."""
    strengths = quantifier_strengths(f, pol)
    names = sorted(strengths)
    pool = GROUND_TERMS[:4] + [Var(v) for v in names] + [App("f", (Var(v),)) for v in names]
    eigens = {v: Var(rng.choice([*names, f"E{i}"])) for i, v in enumerate(names) if strengths[v] is Strength.STRONG}
    return [
        Subst({v: eigens.get(v) or rng.choice(pool) for v in names if rng.random() < 0.8})
        for _ in range(rng.randint(1, 3))
    ]


def _agrees_with_substitution(rng, pol):
    """Expand a random rectified formula both ways and compare; True when
    some binder of the substituted tree was renamed to avoid capture."""
    f = rectify(Sequent((random_formula(rng, rng.randint(1, 6)),), ())).antecedent[0]
    sigmas = _instances_naming_binders(rng, f, pol)
    try:
        ref = ref_expand_formula(f, sigmas, pol)
    except ExpansionError as error:
        with pytest.raises(type(error), match=re.escape(str(error))):
            expand_formula(f, sigmas, pol)
        return False
    tree = expand_formula(f, sigmas, pol)
    assert shallow(tree, pol) is shallow(ref, pol) is f
    assert deep(tree, pol) is deep(ref, pol)
    assert json.dumps(tree_to_json(tree)) == json.dumps(ref_tree_to_json(ref))
    es = Sequent((tree,), ()) if pol is Polarity.NEG else Sequent((), (tree,))
    assert sequent_from_json(json.loads(json.dumps(sequent_to_json(es)))).formulas[0] is tree
    renamed = set()
    _binder_names(ref, renamed)
    return not renamed <= set(quantifier_strengths(f, pol))


def _binder_names(tree, out):
    if isinstance(tree, ETWeak):
        out.add(tree.var)
        for _t, child in tree.instances:
            _binder_names(child, out)
    elif isinstance(tree, ETStrong):
        out.add(tree.var)
        _binder_names(tree.child, out)
    elif isinstance(tree, Neg):
        _binder_names(tree.sub, out)
    elif isinstance(tree, (And, Or, Imp)):
        _binder_names(tree.left, out)
        _binder_names(tree.right, out)


@given(st.integers(0, 2**32 - 1), st.sampled_from(Polarity))
def test_expansion_by_environment_agrees_with_substitution(seed, pol):
    _agrees_with_substitution(random.Random(seed), pol)


def test_expansion_by_environment_agrees_where_a_binder_is_renamed():
    rng = random.Random(1414)
    renamed = sum(_agrees_with_substitution(rng, rng.choice(list(Polarity))) for _ in range(1500))
    assert renamed >= 20  # the capture corner case is exercised


def test_capture_gives_the_fresh_name_and_body_of_substitution():
    # the instance X = Y would be captured by the inner binder Y
    f = parse_formula("![X]: ![Y]: q(X,Y)")
    tree = expand_formula(f, [Subst({"X": Var("Y"), "Y": a})], Polarity.NEG)
    inner = tree.instances[0][1]
    assert (inner.var, inner.body) == ("Y_1", parse_formula("q(Y, Y_1)", extra_vars={"Y_1"}))
    # the substitutions name Y, not Y_1, so the renamed quantifier is completed
    assert inner.instances == ((VACUOUS_TERM, parse_formula("q(Y, vac)")),)
    assert tree is ref_expand_formula(f, [Subst({"X": Var("Y"), "Y": a})], Polarity.NEG)
    assert tree.body is f.body


def test_quantifier_nodes_share_the_root_body():
    f = parse_formula("![X]: ![Y]: ![Z]: r(X,Y,Z)")
    tree = expand_formula(f, [Subst({"X": a, "Y": b, "Z": c})], Polarity.NEG)
    middle = tree.instances[0][1]
    assert middle.body is f.body.body
    assert middle.instances[0][1].body is f.body.body.body
    assert middle.instances[0][1].instances[0][1] is parse_formula("r(a, b, c)")
