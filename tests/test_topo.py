"""Finite topologies, upper-cone properties, truncated presentations."""

import json

import pytest

from oracles import (
    basis_by_candidate_filter,
    clopen_ideals_by_filter,
    ditop_by_replay,
    inversion_continuous_by_replay,
    scattered_height_by_replay,
    u2_at_point_by_replay,
    u_at_point_by_replay,
)
from semitop.core import NotInverse, inverse_structure
from semitop.errors import DomainError, KindError, LoadError, SizeError
from semitop.semigroups import chain_semilattice, cyclic_group
from semitop.topo import (
    TopSemigroup,
    TopSpec,
    TruncatedPresentation,
    bundled_top_semigroups,
    bundled_top_semilattices,
    congruence_basis_check,
    continuity_check,
    ditopological_check,
    enumerate_clopen_ideals,
    inversion_continuity_check,
    is_topology,
    presentation_continuity_check,
    presentation_doc,
    presentation_from_doc,
    scattered_height,
    top_spec_doc,
    top_spec_from_doc,
    u2_check,
    u_check,
    up_set,
    uparrow,
    weakly_ditopological_check,
)
from semitop.obstruct import get_instance

SIERPINSKI = TopSpec(2, frozenset({0, 0b01, 0b11}))


def fixture(name):
    return dict(bundled_top_semigroups())[name]


def test_is_topology_verdicts():
    assert is_topology(2, {0, 0b01, 0b11}) == (True, None)
    ok, reason = is_topology(2, {0b01, 0b11})
    assert not ok and "empty" in reason
    ok, reason = is_topology(2, {0, 0b01})
    assert not ok and "carrier" in reason
    ok, reason = is_topology(2, {0, 0b01, 0b10, 0b11, 0b100})
    assert not ok
    # union of {0} and {1} missing
    ok, reason = is_topology(3, {0, 0b001, 0b010, 0b111})
    assert not ok and "union" in reason
    ok, reason = is_topology(3, {0, 0b011, 0b110, 0b111})
    assert not ok and "intersection" in reason
    assert is_topology(3, range(8)) == (True, None)


def test_top_spec_validation_and_queries():
    with pytest.raises(DomainError):
        TopSpec(2, frozenset({0b01, 0b11}))
    # not a shift-count ValueError
    for build in (lambda: TopSpec(-1, frozenset()), lambda: TopSpec.discrete(-1),
                  lambda: TopSpec.indiscrete(-1), lambda: TopSpec.generated(-1, [])):
        with pytest.raises(DomainError, match="negative"):
            build()
    t = SIERPINSKI
    assert t.is_open(0b01) and not t.is_open(0b10)
    assert t.min_nbhd(0) == 0b01 and t.min_nbhd(1) == 0b11
    assert t.interior(0b10) == 0
    assert t.closure_of(0b01) == 0b11
    assert t.closure_of(0b10) == 0b10
    assert t.isolated_points() == 0b01
    assert t.is_clopen(0b11) and not t.is_clopen(0b01)


def test_generated_and_discrete():
    g = TopSpec.generated(3, [0b011, 0b110])
    assert g.opens == frozenset({0, 0b010, 0b011, 0b110, 0b111})
    d = TopSpec.discrete(3)
    assert len(d.opens) == 8
    assert TopSpec.indiscrete(3).opens == frozenset({0, 0b111})
    with pytest.raises(SizeError):
        TopSpec.discrete(25)


def test_up_set_and_uparrow_on_chain():
    ts = fixture("chain3_upper")
    assert [up_set(ts.sem, x) for x in range(3)] == [0b111, 0b110, 0b100]
    assert [uparrow(ts, x) for x in range(3)] == [0b111, 0b110, 0b100]
    disc = fixture("chain3_discrete")
    assert uparrow(disc, 1) == 0b110


def test_continuity_witness_is_real():
    z2 = cyclic_group(2)
    ok, wit = continuity_check(z2, SIERPINSKI)
    assert not ok
    a, b, c, d = wit
    nb = SIERPINSKI.min_nbhd
    assert (nb(a) >> c) & 1 and (nb(b) >> d) & 1
    assert not (nb(z2.mul(a, b)) >> z2.mul(c, d)) & 1
    with pytest.raises(DomainError):
        TopSemigroup(z2, SIERPINSKI)


def test_bundled_fixtures_are_continuous_and_named():
    items = bundled_top_semigroups()
    assert len(items) == 10
    for name, ts in items:
        assert ts.name == name
        assert continuity_check(ts.sem, ts.top) == (True, None)


def test_scattered_heights():
    expected = {
        "Z2_discrete": 1, "Z3_discrete": 1, "Z2^0_discrete": 1,
        "B2_discrete": 1, "chain2_upper": 2, "chain3_upper": 3,
        "chain3_discrete": 1, "antichain3^0_discrete": 1,
        "powerset2_upper": 3, "powerset2_discrete": 1,
    }
    for name, ts in bundled_top_semigroups():
        h = scattered_height(ts.top)
        assert h == expected[name]
        assert h == scattered_height_by_replay(ts.sem.n, ts.top.opens)
    assert scattered_height(TopSpec.indiscrete(2)) is None


def test_clopen_ideal_counts():
    expected = {
        "chain2_upper": 2, "chain3_upper": 2, "chain3_discrete": 4,
        "antichain3^0_discrete": 9, "powerset2_upper": 2,
        "powerset2_discrete": 6,
    }
    for name, ts in bundled_top_semilattices():
        ideals = enumerate_clopen_ideals(ts)
        assert len(ideals) == expected[name]
        assert sorted(ideals) == sorted(clopen_ideals_by_filter(ts.sem.table, ts.top.opens))
    indiscrete = TopSemigroup(chain_semilattice(3), TopSpec.indiscrete(3))
    assert sorted(enumerate_clopen_ideals(indiscrete)) == [0, 0b111]


def test_u_and_u2_against_definition_replay():
    for name, ts in bundled_top_semilattices():
        for x in range(ts.sem.n):
            u_ok, u_wit = u_check(ts, x)
            u2_ok, u2_wit = u2_check(ts, x)
            assert u_ok == u_at_point_by_replay(ts.sem.table, ts.top.opens, x)
            assert u2_ok == u2_at_point_by_replay(ts.sem.table, ts.top.opens, x)
            assert not (u2_ok and not u_ok), f"{name} point {x} breaks the implication"
            if u_ok:
                y, v = u_wit
                assert (v >> x) & 1 and v & ~up_set(ts.sem, y) == 0
            if u2_ok:
                y, ideal = u2_wit
                full = (1 << ts.sem.n) - 1
                assert not (ideal >> x) & 1
                assert (full ^ ideal) & ~up_set(ts.sem, y) == 0


def test_u2_frozen_verdicts():
    per_point = {
        "chain2_upper": [True, False],
        "chain3_upper": [True, False, False],
        "powerset2_upper": [True, False, False, False],
    }
    for name, ts in bundled_top_semilattices():
        want = per_point.get(name, [True] * ts.sem.n)
        assert [u2_check(ts, x)[0] for x in range(ts.sem.n)] == want


def test_u_check_rejects_non_semilattice():
    with pytest.raises(DomainError):
        u_check(fixture("Z2_discrete"), 0)


def test_ditop_checks_against_replay():
    for name, ts in bundled_top_semigroups():
        inv = inverse_structure(ts.sem)
        assert not isinstance(inv, NotInverse)
        rep = ditopological_check(ts)
        weak = weakly_ditopological_check(ts)
        assert rep.ok and weak.ok and not rep.weak and weak.weak
        assert rep.ok == ditop_by_replay(ts.sem.table, inv.inv, ts.top.opens, weak=False)
        assert weak.ok == ditop_by_replay(ts.sem.table, inv.inv, ts.top.opens, weak=True)
        inv_ok, _ = inversion_continuity_check(ts, inv)
        assert inv_ok == inversion_continuous_by_replay(ts.sem.table, inv.inv, ts.top.opens)


def test_inversion_discontinuity_detected():
    # the check audits any given involution; a swap breaks on Sierpinski opens
    ts = fixture("chain2_upper")
    ok, wit = inversion_continuity_check(ts, (1, 0))
    assert not ok and wit == (0, 1)
    assert not inversion_continuous_by_replay(ts.sem.table, (1, 0), ts.top.opens)
    assert inversion_continuity_check(ts, (0, 1))[0]


def test_basis_check_verdicts_on_bundled():
    expected_fail = {"chain2_upper", "chain3_upper", "powerset2_upper"}
    for name, ts in bundled_top_semigroups():
        rep = congruence_basis_check(ts)
        assert rep.ok == (name not in expected_fail)
        assert rep.ok == basis_by_candidate_filter(ts.sem.table, ts.top.opens)
        for x, z, nbx in rep.failures:
            assert rep.mu.same(x, z) and not (nbx >> z) & 1


def test_basis_check_candidate_report_shape():
    rep = congruence_basis_check(fixture("chain2_upper"))
    assert not rep.ok
    assert rep.mu.classes == (0, 0)
    assert rep.failures == ((1, 0, 0b10),)
    reasons = dict(rep.candidates)
    assert "not open" in reasons[(0, 1)]
    assert "forced into" in reasons[(0, 0)]


def test_basis_check_on_catalog_presentations():
    for iid in ["exB", "odd_chain", "right_simple_zero:Z2", "brandt", "luke"]:
        inst = get_instance(iid, 4)
        assert not congruence_basis_check(inst.presentation).ok
        ctrl = get_instance(iid + "-discrete", 4)
        assert congruence_basis_check(ctrl.presentation).ok


def test_presentation_validation():
    s = chain_semilattice(4)
    good = TruncatedPresentation(s, 4, 2, (0,), ((0, (0b1111, 0b1101)),), 0b1111)
    assert good.min_nbhd(0) == 0b1101 and good.min_nbhd(1) == 0b0010
    assert good.is_open(0b1101) and not good.is_open(0b0001)
    with pytest.raises(DomainError):  # family not descending
        TruncatedPresentation(s, 4, 2, (0,), ((0, (0b0101, 0b1101)),), 0b1111)
    with pytest.raises(DomainError):  # neighborhood misses its own point
        TruncatedPresentation(s, 4, 2, (0,), ((0, (0b1110,)),), 0b1111)
    with pytest.raises(DomainError):  # no tail past the guard
        TruncatedPresentation(s, 4, 3, (0,), ((0, (0b0011,)),), 0b1111)
    with pytest.raises(DomainError):  # families must match limit_points
        TruncatedPresentation(s, 4, 2, (0, 1), ((0, (0b1111,)),), 0b1111)
    for p in (-1, 4):  # a negative point must not reach a shift first
        with pytest.raises(DomainError, match=f"limit point {p} is out of range"):
            TruncatedPresentation(s, 4, 2, (p,), ((p, (0b1111,)),), 0b1111)
    with pytest.raises(DomainError, match="holds limit point 1"):  # {0,1} misses N_1 = {1,2,3}
        TruncatedPresentation(s, 4, 2, (0, 1), ((0, (0b0011,)), (1, (0b1110,))), 0b1111,
                              strict=False)
    # the same no-tail family is fine when strict checking is off
    lax = TruncatedPresentation(s, 4, 3, (0,), ((0, (0b0011,)),), 0b1111, strict=False)
    assert lax.min_nbhd(0) == 0b0011


def test_presentation_materializes_a_topology():
    inst = get_instance("exB", 4)
    pres = inst.presentation
    spec = pres.to_top_spec()
    assert is_topology(pres.base.n, spec.opens) == (True, None)
    for x in range(pres.base.n):
        if x not in pres.limit_points:
            assert spec.is_open(1 << x)
    for _, fam in pres.families:
        for v in fam:
            assert spec.is_open(v)
    for x in range(pres.base.n):
        assert spec.min_nbhd(x) == pres.min_nbhd(x)


def test_presentation_continuity_on_catalog():
    for iid in ["exB", "odd_chain", "brandt", "luke", "right_simple_zero:R2"]:
        pres = get_instance(iid, 4).presentation
        assert presentation_continuity_check(pres) == (True, None)


def test_presentation_doc_round_trip():
    pres = get_instance("odd_chain", 5).presentation
    doc = json.loads(json.dumps(presentation_doc(pres)))
    again = presentation_from_doc(doc)
    assert again.base.table == pres.base.table
    assert again.families == pres.families
    assert again.core == pres.core and again.guard == pres.guard
    with pytest.raises(LoadError):
        presentation_from_doc({"kind": "truncated_presentation"})


def test_top_spec_doc_round_trip():
    t = fixture("powerset2_upper").top
    doc = json.loads(json.dumps(top_spec_doc(t)))
    assert top_spec_from_doc(doc) == t


def test_basis_check_rejects_other_objects():
    with pytest.raises(KindError):
        congruence_basis_check(chain_semilattice(3))
