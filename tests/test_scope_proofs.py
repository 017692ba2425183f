"""README's Scope proofs (e)-(h), each replayed from the tables alone.

The library no longer re-checks these facts at run time: the shared-image
laws, inversion under the Wagner-Preston action, the Clifford components
and the kinds of Vagner-Preston quotients.  The oracles in tests/oracles.py
check each proof on every small input named here, and each test then holds
the library's output to the oracle's.
"""

from oracles import (
    associative_tables,
    clifford_facts_replay,
    congruences_by_filter,
    cyclic_subgroups,
    inverses_by_search,
    law_replay,
    maximal_subgroups_by_definition,
    vp_by_replay,
    vp_classes_are_units_or_zero,
    wp_images_are_converse,
)
from semitop.core import (
    RIGHT,
    Congruence,
    FinSemigroup,
    classify_vp_quotient,
    inverse_structure,
    maximal_subgroup,
)
from semitop.embed import (
    bundled_group_fixtures,
    clifford_decompose,
    clifford_product_embed,
    group_restriction,
    preserves_inversion,
    shared_image_laws,
    wagner_preston,
)
from semitop.semigroups import (
    brandt_semigroup,
    commutative_inverse_monoid_catalog,
    embedding_catalog,
    symmetric_inverse_monoid,
)


def inverse_of(table):
    """The inverse map of an inverse table, found by search, or None."""
    found = [inverses_by_search(table, x) for x in range(len(table))]
    return [y for (y,) in found] if all(len(f) == 1 for f in found) else None


def small_inverse_tables():
    """Every inverse table of order at most 3, then I2, I3 and B2-B4."""
    tables = [t for n in (1, 2, 3) for t in associative_tables(n) if inverse_of(t)]
    named = [symmetric_inverse_monoid(n)[0] for n in (2, 3)]
    named += [brandt_semigroup(w) for w in (2, 3, 4)]
    return tables + [s.table for s in named]


def test_e_every_cyclic_subgroup_of_t3_and_t4_keeps_the_six_laws():
    groups = [maps for _, maps in bundled_group_fixtures()]
    groups += cyclic_subgroups(3) + cyclic_subgroups(4)
    assert len(groups) == 3 + 20 + 129
    for maps in groups:
        oracle = law_replay(maps)
        assert oracle is not None and all(oracle.values()), maps
        assert shared_image_laws(maps) == tuple((law, True, None) for law in oracle)
        image = sorted(set(maps[0].map))
        restricted = group_restriction(maps)
        assert list(restricted.image) == image
        for pp in restricted.rep.images:
            assert sorted(v for v in pp.map if v is not None) == image


def test_f_wagner_preston_images_of_a_and_its_inverse_are_converse():
    tables = small_inverse_tables()
    assert len(tables) == 29 + 5
    for table in tables:
        values = wp_images_are_converse(table, inverse_of(table))
        inv = inverse_structure(FinSemigroup(table))
        rep = wagner_preston(inv)
        assert list(rep.values) == values
        assert preserves_inversion(rep, inv)


def test_g_maximal_subgroups_are_groups_in_every_inverse_table():
    for table in small_inverse_tables():
        groups = maximal_subgroups_by_definition(table, inverse_of(table))
        inv = inverse_structure(FinSemigroup(table))
        assert {e: maximal_subgroup(inv, e) for e in groups} == groups


def test_g_clifford_semigroups_are_strong_semilattices_of_their_groups():
    cases = [FinSemigroup(t) for t in small_inverse_tables()]
    cases += [s for _, s in embedding_catalog() + commutative_inverse_monoid_catalog()]
    cliffords = 0
    for s in cases:
        inv = inverse_of(s.table)
        if inv is None or any(s.table[x][inv[x]] != s.table[inv[x]][x] for x in range(s.n)):
            continue
        groups = clifford_facts_replay(s.table, inv)
        got = inverse_structure(s)
        assert clifford_decompose(got).components == tuple(groups.values())
        clifford_product_embed(got)  # the representation's own check passes
        cliffords += 1
    assert cliffords == 29 + 9 + 12  # none of I2, I3 and B2-B4 is Clifford


def commutative_inverse_monoids(order):
    """Every commutative inverse table of the order with an identity, which
    is declared."""
    out = []
    for table in associative_tables(order):
        ones = [e for e in range(order)
                if all(table[e][x] == x == table[x][e] for x in range(order))]
        if ones and inverse_of(table) and all(
                table[a][b] == table[b][a] for a in range(order) for b in range(order)):
            out.append(FinSemigroup(table, identity=ones[0]))
    return out


def test_h_vagner_preston_classes_are_units_or_the_zero():
    monoids = [s for n in (1, 2, 3) for s in commutative_inverse_monoids(n)]
    assert len(monoids) == 1 + 4 + 21
    monoids += [s for _, s in commutative_inverse_monoid_catalog()]
    pairs = 0
    for s in monoids:
        inv = inverse_of(s.table)
        for vec in congruences_by_filter(s.table):
            if not vp_by_replay(s.table, inv, s.identity, vec):
                continue
            with_zero = vp_classes_are_units_or_zero(s.table, s.identity, vec)
            kind = classify_vp_quotient(inverse_structure(s), Congruence(s, RIGHT, vec)).kind
            assert kind == ("group-with-zero" if with_zero else "group"), (s.table, vec)
            pairs += 1
    assert pairs == 106
