"""Window maps, lazy combinators, basic opens."""

import json

import pytest

from semitop.errors import DomainError, EvaluationError, LoadError, WindowEscapeError
from semitop.transforms import (
    IN,
    NN,
    U_ATOM,
    W_DOM,
    W_IM,
    AffineParity,
    BasicOpen,
    Compose,
    Const,
    FiniteTable,
    Identity,
    PairBlock,
    PartialPerm,
    Transformation,
    agree_on_window,
    basic_open_member,
    compose,
    empty_pp,
    identity_pp,
    identity_transformation,
    invert,
    lazy_eval,
    lazy_extend_identity,
    lazy_extend_undefined,
    lazy_from_doc,
    lazy_to_doc,
    pair_index,
    pp_from_pairs,
    unpair_index,
    window_restrict,
)


def all_partial_perms(n):
    """Every partial bijection of an n-point window, by brute force."""
    import itertools
    out = []
    points = range(n)
    for r in range(n + 1):
        for dom in itertools.combinations(points, r):
            for img in itertools.permutations(points, r):
                vec = [None] * n
                for d, v in zip(dom, img):
                    vec[d] = v
                out.append(PartialPerm(n, tuple(vec)))
    return out


def test_compose_partial_examples():
    f = pp_from_pairs(3, [(0, 1)])
    g = pp_from_pairs(3, [(1, 2)])
    assert compose(f, g).graph() == ((0, 2),)
    assert compose(empty_pp(3), f).graph() == ()
    h = pp_from_pairs(2, [(0, 1), (1, 0)])
    k = pp_from_pairs(2, [(0, 1)])
    assert compose(h, k).graph() == ((1, 1),)


def test_compose_is_left_to_right_on_transformations():
    f = Transformation(3, (1, 2, 0))
    g = Transformation(3, (0, 0, 2))
    assert compose(f, g).map == tuple(g(f(x)) for x in range(3))


def test_compose_rejects_mismatches():
    with pytest.raises(DomainError):
        compose(Transformation(3, (0, 1, 2)), PartialPerm(3, (0, 1, 2)))
    with pytest.raises(DomainError):
        compose(Transformation(3, (0, 1, 2)), Transformation(4, (0, 1, 2, 3)))


def test_compose_associative_exhaustive_window_2():
    maps = all_partial_perms(2)
    for f in maps:
        for g in maps:
            for h in maps:
                assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_invert_examples_and_sandwich():
    assert invert(identity_pp(2)) == identity_pp(2)
    assert invert(pp_from_pairs(3, [(0, 2)])).graph() == ((2, 0),)
    for f in all_partial_perms(3):
        assert compose(compose(f, invert(f)), f) == f
        assert invert(invert(f)) == f


def test_dom_im_shrink_under_composition():
    maps = all_partial_perms(3)
    for f in maps[::7]:
        for g in maps[::5]:
            fg = compose(f, g)
            assert set(fg.dom()) <= set(f.dom())
            assert set(fg.im()) <= set(g.im())


def test_lazy_identity_const():
    assert Identity().eval(7) == 7
    assert window_restrict(Const(1), 3).map == (1, 1, 1)


def test_finite_table_rejects_duplicate_keys():
    with pytest.raises(DomainError):
        FiniteTable(((0, 1), (0, 2)), Identity())


def test_affine_parity_residue_rules():
    # evens halve through the inner map, odds are undefined
    evens = AffineParity(2, ((0, Identity(), 0),))
    assert evens.eval(4) == 4
    assert evens.eval(3) is None
    shifted = AffineParity(2, ((0, Const(2), 1), (1, Identity(), 0)))
    assert shifted.eval(6) == 5
    assert shifted.eval(3) == 2


def test_lazy_eval_rejects_negative():
    with pytest.raises(EvaluationError):
        lazy_eval(Identity(), -1)


def test_pairing_round_trip():
    assert pair_index(0, 0) == 0
    seen = set()
    for i in range(6):
        for j in range(6):
            x = pair_index(i, j)
            assert unpair_index(x) == (i, j)
            seen.add(x)
    assert len(seen) == 36


def test_pair_block_fixes_outside_blocks():
    pb = PairBlock((Const(5),))
    assert pb.eval(pair_index(0, 3)) == pair_index(0, 5)
    beyond = pair_index(3, 2)
    assert pb.eval(beyond) == beyond


def test_compose_node_evaluates_in_order():
    node = Compose(Const(3), FiniteTable(((3, 8),), Identity()))
    assert node.eval(0) == 8
    assert lazy_eval(node, 11) == 8


def test_window_restrict_escape():
    with pytest.raises(WindowEscapeError):
        window_restrict(Const(9), 4)
    t = window_restrict(FiniteTable(((0, 3),), Identity()), 4)
    assert t.map == (3, 1, 2, 3)


def test_agree_on_window_handles_undefined():
    f = lazy_extend_undefined(pp_from_pairs(2, [(0, 1)]))
    g = lazy_extend_undefined(pp_from_pairs(2, [(0, 1)]))
    assert agree_on_window(f, g, 5)
    h = lazy_extend_identity(Transformation(2, (1, 0)))
    assert not agree_on_window(f, h, 3)


def test_lazy_doc_round_trip_all_kinds():
    samples = [
        Identity(),
        Const(4),
        FiniteTable(((0, 2), (5, 1)), Const(0)),
        AffineParity(2, ((0, Identity(), 1), (1, Const(2), 0))),
        PairBlock((Const(1), Identity())),
        Compose(Identity(), Const(2)),
    ]
    for m in samples:
        doc = json.loads(json.dumps(lazy_to_doc(m)))
        again = lazy_from_doc(doc)
        assert all(again.eval(x) == m.eval(x) for x in range(40))


@pytest.mark.parametrize("doc", [
    {"kind": "const", "value": 2.9},
    {"kind": "const", "value": True},
    {"kind": "const", "value": "2"},
    {"kind": "const", "value": -1},
    {"kind": "table", "entries": [[0.0, 1]], "fallback": {"kind": "identity"}},
    {"kind": "table", "entries": [[0, False]], "fallback": {"kind": "identity"}},
    {"kind": "table", "entries": [["0", 1]], "fallback": {"kind": "identity"}},
    {"kind": "affine", "modulus": 2.0, "rules": [[0, {"kind": "identity"}, 1]]},
    {"kind": "affine", "modulus": True, "rules": []},
    {"kind": "affine", "modulus": 2, "rules": [[True, {"kind": "identity"}, 1]]},
    {"kind": "affine", "modulus": 2, "rules": [[0, {"kind": "identity"}, "1"]]},
], ids=["const-float", "const-bool", "const-str", "const-negative", "table-key-float",
        "table-value-bool", "table-key-str", "affine-modulus-float", "affine-modulus-bool",
        "affine-r-bool", "affine-r-out-str"])
def test_lazy_doc_rejects_non_index_integers(doc):
    with pytest.raises(LoadError):
        lazy_from_doc(doc)


def test_basic_open_membership_nn():
    b = BasicOpen(NN, ((0, 1), (2, 2)))
    assert basic_open_member(Transformation(3, (1, 0, 2)), b)
    assert not basic_open_member(Transformation(3, (1, 0, 0)), b)
    assert basic_open_member(FiniteTable(((0, 1), (2, 2)), Const(0)), b)
    with pytest.raises(EvaluationError):
        basic_open_member(PartialPerm(3, (1, None, 2)), b)


def test_basic_open_membership_in():
    u = BasicOpen(IN, ((U_ATOM, 0, 1),))
    assert basic_open_member(pp_from_pairs(3, [(0, 1)]), u)
    w = BasicOpen(IN, ((W_IM, 0),))
    assert not basic_open_member(pp_from_pairs(3, [(1, 0)]), w)
    assert basic_open_member(pp_from_pairs(3, [(1, 2)]), w)
    wd = BasicOpen(IN, ((W_DOM, 1),))
    assert basic_open_member(pp_from_pairs(3, [(0, 1)]), wd)
    assert not basic_open_member(identity_pp(3), wd)
    with pytest.raises(EvaluationError):
        basic_open_member(identity_transformation(3), u)


def test_basic_open_beyond_window_behaviour():
    # partial maps are simply undefined past the window; total ones cannot say
    u = BasicOpen(IN, ((U_ATOM, 9, 9),))
    assert not basic_open_member(pp_from_pairs(2, [(0, 1)]), u)
    wd = BasicOpen(IN, ((W_DOM, 9),))
    assert basic_open_member(pp_from_pairs(2, [(0, 1)]), wd)
    with pytest.raises(EvaluationError):
        basic_open_member(Transformation(2, (0, 1)), BasicOpen(NN, ((9, 9),)))
    with pytest.raises(EvaluationError):
        basic_open_member(pp_from_pairs(2, [(0, 1)]), BasicOpen(NN, ((0, 1),)))


def test_window_restrict_commutes_with_compose():
    f = FiniteTable(((0, 2), (1, 0)), Identity())
    g = AffineParity(2, ((0, Identity(), 0), (1, Identity(), 1)))
    lhs = window_restrict(Compose(f, g), 3)
    rhs = compose(window_restrict(f, 3), window_restrict(g, 3))
    assert lhs.map == rhs.map
