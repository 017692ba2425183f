"""Every semigroup of order at most 3 under every topology on its carrier.

Each topological check is compared with the literal definition it decides,
on all 3,310 labelled pairs rather than on drawn ones, so a branch that is
reachable at these orders is reached.  The inputs come from the generators
in tests/oracles.py, which call nothing in the package.
"""

from functools import cache

from oracles import (
    associative_tables,
    basis_by_candidate_filter,
    clifford_failures_by_replay,
    derivation_replays,
    ditop_by_replay,
    first_discontinuity_by_four_loops,
    inverses_by_search,
    inversion_continuous_by_replay,
    inversion_proof_replays,
    min_nbhd_mask,
    open_class_seeds,
    topologies,
    u2_at_point_by_replay,
    u2_by_one_pair,
    u_at_point_by_replay,
    u_witness_by_product,
)
from semitop.core import FinSemigroup, clifford_check, inverse_structure
from semitop.topo import (
    TopSemigroup,
    TopSpec,
    congruence_basis_check,
    continuity_check,
    ditopological_check,
    inversion_continuity_check,
    u2_check,
    u_check,
    weakly_ditopological_check,
)

ORDERS = (1, 2, 3)


@cache
def pairs():
    """(table, opens, minimal neighbourhoods, continuity_check's answer, the
    space or None where multiplication is discontinuous) for every table
    and topology; the answer is checked in the continuity test."""
    out = []
    for n in ORDERS:
        spaces = topologies(n)
        for table in associative_tables(n):
            s = FinSemigroup(table)
            for opens in spaces:
                top = TopSpec(n, opens)
                nb = [min_nbhd_mask(opens, n, x) for x in range(n)]
                got = continuity_check(s, top)
                out.append((table, opens, nb, got, TopSemigroup(s, top) if got[0] else None))
    return out


def inverse_of(table):
    """The inverse map found by search, or None when some element has no
    inverse or several."""
    found = [inverses_by_search(table, x) for x in range(len(table))]
    return [y for (y,) in found] if all(len(ys) == 1 for ys in found) else None


def is_semilattice(table):
    n = len(table)
    return all(table[x][x] == x and table[x][y] == table[y][x]
               for x in range(n) for y in range(n))


def test_the_generators_count_what_oeis_counts():
    assert [sum(1 for _ in associative_tables(n)) for n in ORDERS] == [1, 8, 113]  # A023814
    assert [len(topologies(n)) for n in ORDERS] == [1, 4, 29]  # A000798


def test_continuity_matches_the_four_loops_in_verdict_and_witness():
    for table, opens, nb, got, _ in pairs():
        assert got == first_discontinuity_by_four_loops(table, range(len(table)), nb), \
            (table, opens)
    assert len(pairs()) == 3310
    assert sum(ts is not None for *_, ts in pairs()) == 1626


def test_basis_check_matches_the_candidate_filter_and_its_derivations_replay():
    failures = 0
    for table, opens, nb, _, ts in pairs():
        if ts is None:
            continue
        rep = congruence_basis_check(ts)
        assert rep.ok == basis_by_candidate_filter(table, opens), (table, opens)
        if not rep.ok:
            x, z, _ = rep.failures[0]
            assert derivation_replays(table, open_class_seeds(nb), rep.derivation, x, z)
            failures += 1
    assert failures == 1200


def test_u_and_u2_match_their_replays_at_every_point_of_every_semilattice():
    points = 0
    for table, opens, _, _, ts in pairs():
        if ts is None or not is_semilattice(table):
            continue
        for x in range(len(table)):
            assert u_check(ts, x)[0] == u_at_point_by_replay(table, opens, x), (table, opens, x)
            assert u2_check(ts, x)[0] == u2_at_point_by_replay(table, opens, x), (table, opens, x)
            points += 1
    assert points == 521


def test_u_and_u2_witnesses_are_their_closed_forms_at_every_semilattice_point():
    points = fails = 0
    for table, opens, _, _, ts in pairs():
        if ts is None or not is_semilattice(table):
            continue
        for x in range(len(table)):
            assert u_check(ts, x) == (True, u_witness_by_product(table, opens, x))
            got = u2_check(ts, x)
            assert got == u2_by_one_pair(table, opens, x), (table, opens, x)
            points += 1
            fails += not got[0]
    assert (points, fails) == (521, 110)


def test_the_proof_that_inversion_is_continuous_replays_on_every_inverse_table():
    tables = [t for n in ORDERS for t in associative_tables(n) if inverse_of(t) is not None]
    for table in tables:
        assert inversion_proof_replays(table, inverse_of(table)) > 0
    assert len(tables) == 29


def test_ditop_and_inversion_checks_match_their_replays_on_every_inverse_semigroup():
    seen = 0
    for table, opens, _, _, ts in pairs():
        inv = inverse_of(table)
        if ts is None or inv is None:
            continue
        inv_ok = inversion_continuous_by_replay(table, inv, opens)
        assert inversion_continuity_check(ts, inv)[0] == inv_ok, (table, opens)
        for weak, rep in ((False, ditopological_check(ts)),
                          (True, weakly_ditopological_check(ts))):
            assert rep.ok == ditop_by_replay(table, inv, opens, weak=weak), (table, opens, weak)
            assert inv_ok and rep.ok == (rep.failure is None), (table, opens)
        seen += 1
    assert seen == 277


def test_clifford_check_matches_its_replay_on_every_inverse_semigroup():
    """All 29 inverse tables here are Clifford: the least inverse semigroup
    that is not, the Brandt semigroup B2, has five elements."""
    inverse = [t for n in ORDERS for t in associative_tables(n) if inverse_of(t) is not None]
    for table in inverse:
        bad = clifford_failures_by_replay(table)
        assert clifford_check(inverse_structure(FinSemigroup(table))) == \
            (not bad, bad[0] if bad else None), table
        assert not bad
    assert len(inverse) == 29
