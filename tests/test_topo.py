"""Finite topologies, upper-cone properties, truncated presentations."""

import json
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    basis_by_candidate_filter,
    bits,
    clopen_ideals_by_filter,
    derivation_replays,
    ditop_by_replay,
    factor_set,
    first_discontinuity_by_four_loops,
    indiscrete,
    inverses_by_search,
    inversion_continuous_by_replay,
    min_nbhd_mask,
    open_class_seeds,
    scattered_height_by_replay,
    u2_at_point_by_replay,
    u_at_point_by_replay,
)
from semitop.core import (
    ENUMERATION_BOUND,
    RIGHT,
    NotInverse,
    enumerate_congruences,
    inverse_structure,
)
from semitop.errors import DomainError, KindError, LoadError, SizeError
from semitop.semigroups import (
    brandt_semigroup,
    chain_semilattice,
    commutative_inverse_monoid_catalog,
    cyclic_group,
    embedding_catalog,
    symmetric_inverse_monoid,
)
from semitop.topo import (
    TopSemigroup,
    TopSpec,
    TruncatedPresentation,
    _first_discontinuity,
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
                  lambda: TopSpec.generated(-1, [])):
        with pytest.raises(DomainError, match="negative"):
            build()
    t = SIERPINSKI
    assert 0b01 in t.opens and 0b10 not in t.opens
    assert t.nbhds[0] == 0b01 and t.nbhds[1] == 0b11
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
    nb = SIERPINSKI.nbhds
    assert (nb[a] >> c) & 1 and (nb[b] >> d) & 1
    assert not (nb[z2.mul(a, b)] >> z2.mul(c, d)) & 1
    with pytest.raises(DomainError):
        TopSemigroup(z2, SIERPINSKI)


def test_bundled_fixtures_are_continuous():
    items = bundled_top_semigroups()
    assert len(items) == 10
    for _, ts in items:
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
    assert scattered_height(indiscrete(2)) is None


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
    coarse = TopSemigroup(chain_semilattice(3), indiscrete(3))
    assert sorted(enumerate_clopen_ideals(coarse)) == [0, 0b111]


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
        assert rep.ok and weak.ok
        assert rep.ok == ditop_by_replay(ts.sem.table, inv.inv, ts.top.opens, weak=False)
        assert weak.ok == ditop_by_replay(ts.sem.table, inv.inv, ts.top.opens, weak=True)
        inv_ok, _ = inversion_continuity_check(ts, inv)
        assert inv_ok == inversion_continuous_by_replay(ts.sem.table, inv.inv, ts.top.opens)


def test_ditop_checks_match_replay_on_drawn_topologies():
    """Seeded subbases on the inverse catalog members of at most 6 elements;
    in half the draws every mask holds one drawn point, which makes the
    topology whose opens are the sets holding B2's zero likely to come up.
    On each topology with continuous multiplication both verdicts match the
    literal definition, and each failure (x, z) is replayed: z lies outside
    the minimal neighborhood of x, yet in the factorization set of that
    neighborhood and the one around x*x^-1 (and, for the weak form, z^-1*z
    lies in the one around x^-1*x)."""
    rng = random.Random(6)
    verdicts = set()
    for name, s in embedding_catalog() + commutative_inverse_monoid_catalog():
        if s.n > 6 or isinstance(inverse_structure(s), NotInverse):
            continue
        t = s.table
        inv = [y for x in range(s.n) for y in inverses_by_search(t, x)]
        for _ in range(400):
            anchor = rng.getrandbits(1) << rng.randrange(s.n)
            top = TopSpec.generated(s.n, [rng.getrandbits(s.n) | anchor
                                          for _ in range(rng.randint(1, s.n))])
            try:
                ts = TopSemigroup(s, top)
            except DomainError:
                continue
            nb = [min_nbhd_mask(top.opens, s.n, x) for x in range(s.n)]
            inv_ok = inversion_continuous_by_replay(t, inv, top.opens)
            for weak, rep in ((False, ditopological_check(ts)),
                              (True, weakly_ditopological_check(ts))):
                assert rep.ok == ditop_by_replay(t, inv, top.opens, weak=weak), (name, weak)
                assert rep.inversion_ok == inv_ok, name
                assert rep.ok == (inv_ok and rep.failure is None), name
                verdicts.add((name, weak, rep.ok))
                if rep.failure is None:
                    continue
                x, z = rep.failure
                assert not (nb[x] >> z) & 1, (name, weak)
                assert (factor_set(t, inv, nb[x], nb[t[x][inv[x]]]) >> z) & 1, (name, weak)
                assert not weak or (nb[t[inv[x]][x]] >> t[inv[z]][z]) & 1, name
    # B2 is the one member that is not Clifford: there the weak form passes
    # on a topology where the strong form fails
    assert {("B2", False, False), ("B2", True, True)} <= verdicts


def test_inversion_discontinuity_detected():
    # the check audits any given involution; a swap breaks on Sierpinski opens
    ts = fixture("chain2_upper")
    ok, wit = inversion_continuity_check(ts, (1, 0))
    assert not ok and wit == (0, 1)
    assert not inversion_continuous_by_replay(ts.sem.table, (1, 0), ts.top.opens)
    assert inversion_continuity_check(ts, (0, 1))[0]


def inversion_breaks_in_some_topology(table, inv):
    """The pairs (a, c) whose principal compatible preorder Pr(a, c) does not
    lead from inv[a] to inv[c], without any topology code.

    A topology on a finite carrier is a preorder, a -> c iff c is in N_a, and
    multiplication is continuous exactly when the preorder is compatible: a
    -> c gives s*a*t -> s*c*t for all s, t in S^1.  Pr(a, c), the least
    compatible preorder with a -> c, is the reflexive-transitive closure of
    those pairs.  Every compatible preorder holding a -> c holds Pr(a, c), so
    an empty answer means inversion is continuous in every topology with
    continuous multiplication; a pair (a, c) names Pr(a, c) as a topology
    where it is not."""
    n = len(table)
    failures = []
    for a in range(n):
        for c in range(n):
            if a == c:
                continue
            left = {(a, c)} | {(row[a], row[c]) for row in table}
            pairs = left | {(table[x][t], table[y][t]) for x, y in left for t in range(n)}
            succ = {}
            for x, y in pairs:
                succ.setdefault(x, []).append(y)
            seen, stack = {inv[a]}, [inv[a]]
            while stack:
                for y in succ.get(stack.pop(), ()):
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            if inv[c] not in seen:
                failures.append((a, c))
    return failures


@pytest.mark.parametrize("sem", [brandt_semigroup(2), brandt_semigroup(3), brandt_semigroup(4),
                                 symmetric_inverse_monoid(2)[0], symmetric_inverse_monoid(3)[0]],
                         ids=lambda sem: sem.name)
def test_inversion_is_continuous_in_every_topology_with_continuous_multiplication(sem):
    """Evidence for README's open question on non-Clifford inverse
    semigroups (in a Clifford one x^-1 is a power of x, so the answer is
    immediate): here no topology at all separates the two continuities."""
    t = sem.table
    inv = [y for x in range(sem.n) for (y,) in [inverses_by_search(t, x)]]
    assert inversion_breaks_in_some_topology(t, inv) == []


def test_a_map_that_is_not_inversion_breaks_in_some_topology():
    # the swap on the two-element chain: Pr(1, 0) is Sierpinski space
    assert inversion_breaks_in_some_topology(chain_semilattice(2).table, (1, 0)) == [
        (0, 1), (1, 0)]


def assert_open_candidates_escape(rep, s, nb):
    """Every right congruence with all classes open contains mu, so it puts
    the first failure's witness z in the class of x, as the derivation says.
    The candidates are enumerated here, not read from the report."""
    x, z, _ = rep.failures[0]
    candidates = [rho.classes for rho in enumerate_congruences(s, RIGHT)]
    open_ones = [c for c in candidates
                 if all(c[w] == c[y] for y in range(s.n) for w in bits(nb[y]))]
    assert open_ones
    for classes in open_ones:
        assert classes[x] == classes[z], classes


def assert_derivation_replays(rep, table, nb):
    x, z, _ = rep.failures[0]
    assert derivation_replays(table, open_class_seeds(nb), rep.derivation, x, z)


def test_basis_check_verdicts_on_bundled():
    expected_fail = {"chain2_upper", "chain3_upper", "powerset2_upper"}
    for name, ts in bundled_top_semigroups():
        rep = congruence_basis_check(ts)
        assert rep.ok == (name not in expected_fail)
        assert rep.ok == basis_by_candidate_filter(ts.sem.table, ts.top.opens)
        for x, z, nbx in rep.failures:
            assert rep.mu.classes[x] == rep.mu.classes[z] and not (nbx >> z) & 1
        nb = [min_nbhd_mask(ts.top.opens, ts.sem.n, x) for x in range(ts.sem.n)]
        if rep.ok:
            assert rep.derivation is None
        else:
            assert_open_candidates_escape(rep, ts.sem, nb)
            assert_derivation_replays(rep, ts.sem.table, nb)


def test_basis_check_derivation_report_shape():
    rep = congruence_basis_check(fixture("chain2_upper"))
    assert not rep.ok
    assert rep.mu.classes == (0, 0)
    assert rep.failures == ((1, 0, 0b10),)
    # the seed (c0, c1) of N_c0 = {c0, c1} joins them with no step
    assert rep.derivation == ()


def test_basis_check_on_catalog_presentations():
    for iid in ["exB", "odd_chain", "right_simple_zero:Z2", "brandt", "luke"]:
        inst = get_instance(iid, 4)
        rep = congruence_basis_check(inst.presentation)
        assert not rep.ok
        if inst.presentation.base.n <= ENUMERATION_BOUND:
            assert_open_candidates_escape(rep, inst.presentation.base, inst.presentation.nbhds)
        ctrl = get_instance(iid + "-discrete", 4)
        assert congruence_basis_check(ctrl.presentation).ok


@pytest.mark.parametrize("iid", ["exB", "odd_chain", "right_simple_zero:Z2",
                                 "right_simple_zero:R2", "right_simple_zero:S3",
                                 "brandt", "luke"])
def test_basis_derivations_replay_on_the_catalog(iid):
    for window in range(4, 13):
        pres = get_instance(iid, window).presentation
        rep = congruence_basis_check(pres)
        assert not rep.ok
        assert_derivation_replays(rep, pres.base.table, pres.nbhds)
        ctrl = congruence_basis_check(get_instance(iid + "-discrete", window).presentation)
        assert ctrl.ok and ctrl.derivation is None


@pytest.mark.parametrize("iid", ["brandt", "luke"])
def test_basis_derivation_replays_at_window_24(iid):
    pres = get_instance(iid, 24).presentation
    rep = congruence_basis_check(pres)
    assert not rep.ok and pres.base.n == 577
    assert len(rep.derivation) == 2
    assert_derivation_replays(rep, pres.base.table, pres.nbhds)


def test_every_kept_step_of_a_brandt_derivation_is_needed():
    pres = get_instance("brandt", 9).presentation
    rep = congruence_basis_check(pres)
    seeds, steps = open_class_seeds(pres.nbhds), rep.derivation
    x, z, _ = rep.failures[0]
    assert len(steps) == 2
    assert derivation_replays(pres.base.table, seeds, steps, x, z)
    for i in range(len(steps)):
        assert not derivation_replays(pres.base.table, seeds, steps[:i] + steps[i + 1:], x, z), i


def test_presentation_validation():
    s = chain_semilattice(4)
    good = TruncatedPresentation(s, 4, 2, (0,), ((0, (0b1111, 0b1101)),), 0b1111)
    assert good.nbhds[0] == 0b1101 and good.nbhds[1] == 0b0010
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
    assert lax.nbhds[0] == 0b0011


def test_presentation_materializes_a_topology():
    inst = get_instance("exB", 4)
    pres = inst.presentation
    # minimal neighbourhoods are their own minimal neighbourhoods, so they
    # generate the presented topology
    spec = TopSpec.generated(pres.base.n, pres.nbhds)
    assert is_topology(pres.base.n, spec.opens) == (True, None)
    for x in range(pres.base.n):
        if x not in pres.limit_points:
            assert 1 << x in spec.opens
    for _, fam in pres.families:
        for v in fam:
            assert v in spec.opens
    for x in range(pres.base.n):
        assert spec.nbhds[x] == pres.nbhds[x]


def one_entry_mutations(table):
    """table with each entry in turn replaced by the next element."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            rows = [list(row) for row in table]
            rows[a][b] = (rows[a][b] + 1) % n
            yield rows


def test_continuity_scan_matches_the_four_loops_on_the_fixtures():
    """The four loops' verdict and least witness on every bundled fixture,
    bundled semilattice space and each of their one-entry mutations."""
    cases = [(ts.sem.table, ts.top.nbhds) for _, ts in bundled_top_semigroups()]
    cases += [(ts.sem.table, ts.top.nbhds) for _, ts in bundled_top_semilattices()]
    failures = 0
    for table, nb in cases:
        points = range(len(table))
        assert _first_discontinuity(SimpleNamespace(table=table), points, nb) == \
            first_discontinuity_by_four_loops(table, points, nb) == (True, None)
        for rows in one_entry_mutations(table):
            got = _first_discontinuity(SimpleNamespace(table=rows), points, nb)
            assert got == first_discontinuity_by_four_loops(rows, points, nb), rows
            failures += not got[0]
    assert failures > 0


CONTINUITY_IDS = ["exB", "odd_chain", "brandt", "luke", "right_simple_zero:Z2",
                  "right_simple_zero:R2", "right_simple_zero:S3"]


@pytest.mark.parametrize("window", range(4, 13))
def test_presentation_continuity_on_catalog(window):
    """The core pairs of every catalog presentation are continuous, by the
    scan and by the four loops; with one drawn entry of the table moved
    (which breaks continuity in about a quarter of the draws) both give the
    same witness."""
    rng = random.Random(window)
    for iid in CONTINUITY_IDS:
        pres = get_instance(iid, window).presentation
        table, points, nb = pres.base.table, bits(pres.core), pres.nbhds
        want = first_discontinuity_by_four_loops(table, points, nb)
        assert presentation_continuity_check(pres) == want == (True, None)
        for _ in range(4):
            rows = [list(row) for row in table]
            a, b = rng.choice(points), rng.choice(points)
            rows[a][b] = rng.randrange(len(rows))
            assert _first_discontinuity(SimpleNamespace(table=rows), points, nb) == \
                first_discontinuity_by_four_loops(rows, points, nb), (iid, a, b)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(st.integers(0, (1 << n) - 1), max_size=4))))
def test_continuity_scan_matches_the_four_loops_on_drawn_spaces(case):
    """A drawn table (associative or not: the scan reads only the table) on
    the space a drawn subbasis generates."""
    table, subbasis = case
    n = len(table)
    nb = TopSpec.generated(n, subbasis).nbhds
    points = range(n)
    assert _first_discontinuity(SimpleNamespace(table=table), points, nb) == \
        first_discontinuity_by_four_loops(table, points, nb)


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
