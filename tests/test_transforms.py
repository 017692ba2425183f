"""Window maps, lazy combinators, basic opens."""

import itertools
import json

import pytest

from oracles import (
    Compose,
    basic_open_member,
    domain,
    empty_pp,
    identity_pp,
    identity_transformation,
    invert,
    pp_from_pairs,
)
from semitop.errors import DomainError, EvaluationError
from semitop.transforms import (
    IN,
    NN,
    U_ATOM,
    W_DOM,
    AffineParity,
    BasicOpen,
    Const,
    FiniteTable,
    Identity,
    PairBlock,
    PartialPerm,
    Transformation,
    UNDEFINED,
    agree_on_window,
    compose,
    lazy_extend,
    lazy_to_doc,
    pair_index,
    unpair_index,
)


def all_partial_perms(n):
    """Every partial bijection of an n-point window, by brute force."""
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


@pytest.mark.parametrize("cls,window,values,message", [
    (Transformation, 2, (0,), "map of length 1 on window 2"),
    (Transformation, 2, (0, 2), "value 2 at 1 outside window 2"),
    (Transformation, 2, (-1, 0), "value -1 at 0 outside window 2"),
    (Transformation, 3, (1, 5, 3), "value 5 at 1 outside window 3"),
    (PartialPerm, 1, (None, None), "map of length 2 on window 1"),
    (PartialPerm, 3, (None, 3, 0), "value 3 at 1 outside window 3"),
    (PartialPerm, 2, (1, 1), "not injective: value 1 repeats"),
    (PartialPerm, 3, (0, 0, 5), "not injective: value 0 repeats"),
    (PartialPerm, 3, (5, 0, 0), "value 5 at 0 outside window 3"),
    # a value must be an int: a float or bool compares in range but is no point
    (Transformation, 2, (0, 1.0), "value 1.0 at 1 outside window 2"),
    (Transformation, 2, (0, True), "value True at 1 outside window 2"),
    (Transformation, 2, ("0", 1), "value '0' at 0 outside window 2"),
    (PartialPerm, 2, (None, 1.0), "value 1.0 at 1 outside window 2"),
    (PartialPerm, 2, (False, None), "value False at 0 outside window 2"),
    (PartialPerm, 2, (None, "1"), "value '1' at 1 outside window 2"),
])
def test_bad_maps_name_their_first_bad_point(cls, window, values, message):
    """A bad map is refused with the first bad point, read left to right."""
    with pytest.raises(DomainError) as exc:
        cls(window, values)
    assert str(exc.value) == message


def test_dom_im_shrink_under_composition():
    maps = all_partial_perms(3)
    for f in maps[::7]:
        for g in maps[::5]:
            fg = compose(f, g)
            assert set(domain(fg)) <= set(domain(f))
            assert set(fg.map) - {None} <= set(g.map)


def test_lazy_identity_const():
    assert Identity().eval(7) == 7
    assert [Const(1).eval(x) for x in range(3)] == [1, 1, 1]


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


def test_agree_on_window_handles_undefined():
    f = lazy_extend(pp_from_pairs(2, [(0, 1)]))
    g = lazy_extend(pp_from_pairs(2, [(0, 1)]))
    assert agree_on_window(f, g, 5)
    h = lazy_extend(Transformation(2, (1, 0)))
    assert not agree_on_window(f, h, 3)


def all_transformations(n):
    return [Transformation(n, m) for m in itertools.product(range(n), repeat=n)]


def test_lazy_extensions_respect_compose():
    """Extending a window map past its window commutes with compose: the
    window maps into itself, so a composite never leaves it."""
    for maps in (all_transformations(3), all_partial_perms(2)):
        for f in maps:
            for g in maps:
                pointwise = Compose(lazy_extend(f), lazy_extend(g))
                assert agree_on_window(lazy_extend(compose(f, g)), pointwise, f.window + 4)


def test_lazy_extend_keeps_lazy_maps_and_refuses_other_images():
    t = Transformation(2, (1, 0))
    assert lazy_extend(t) == FiniteTable(((0, 1), (1, 0)), Identity())
    assert lazy_extend(pp_from_pairs(2, [(1, 0)])) == FiniteTable(((0, None), (1, 0)), UNDEFINED)
    assert lazy_extend(Const(3)) == Const(3)
    with pytest.raises(DomainError, match="cannot view tuple as a lazy map"):
        lazy_extend((1, 0))


@pytest.mark.parametrize("m, doc", [
    (Identity(), {"kind": "identity"}),
    (Const(4), {"kind": "const", "value": 4}),
    (FiniteTable(((0, 2), (5, None)), Const(0)),
     {"kind": "table", "entries": [[0, 2], [5, None]],
      "fallback": {"kind": "const", "value": 0}}),
    (AffineParity(2, ((0, Identity(), 1), (1, Const(2), 0))),
     {"kind": "affine", "modulus": 2,
      "rules": [[0, {"kind": "identity"}, 1], [1, {"kind": "const", "value": 2}, 0]]}),
    (PairBlock((Const(1), Identity())),
     {"kind": "pairblock", "inners": [{"kind": "const", "value": 1}, {"kind": "identity"}]}),
    (lazy_extend(pp_from_pairs(2, [(0, 1)])),
     {"kind": "table", "entries": [[0, 1], [1, None]],
      "fallback": {"kind": "affine", "modulus": 1, "rules": []}}),
], ids=["identity", "const", "table", "affine", "pairblock", "undefined-extension"])
def test_lazy_to_doc_writes_each_kind(m, doc):
    assert json.loads(json.dumps(lazy_to_doc(m))) == doc


def test_lazy_to_doc_refuses_a_composition_node():
    """Representation documents hold no composition nodes; a composite is
    written as the image it evaluates to."""
    with pytest.raises(DomainError):
        lazy_to_doc(PairBlock((Compose(Identity(), Const(2)),)))


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
    wd = BasicOpen(IN, ((W_DOM, 1),))
    assert basic_open_member(pp_from_pairs(3, [(0, 1)]), wd)
    assert not basic_open_member(identity_pp(3), wd)
    with pytest.raises(EvaluationError):
        basic_open_member(identity_transformation(3), u)
    with pytest.raises(DomainError):  # no basic open built here constrains the image
        BasicOpen(IN, (("Winv", 0),))


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
