"""Tables, congruences, closures, quotients."""

import itertools
import json
from functools import partial

import pytest

from oracles import (
    clifford_failures_by_replay,
    derivation_replays,
    inverses_by_search,
    same_class_pairs,
)
from semitop import core
from semitop.core import (
    RIGHT,
    TWO_SIDED,
    Congruence,
    FinSemigroup,
    InverseStructure,
    NotInverse,
    _close,
    _derivation,
    _group_unit,
    _zero,
    adjoin_identity,
    adjoin_zero,
    canonical_classes,
    check_associativity,
    classify_vp_quotient,
    clifford_check,
    congruence_closure,
    congruence_join,
    congruence_meet,
    diagonal,
    enumerate_congruences,
    idempotents,
    inverse_structure,
    is_semilattice,
    is_vagner_preston,
    maximal_subgroup,
    natural_order,
    parse_semigroup,
    quotient,
    semigroup_doc,
    subsemigroup,
    universal,
)
from semitop.errors import (
    DomainError,
    KindError,
    LoadError,
    MalformedTableError,
    SizeError,
)
from semitop.obstruct import get_instance
from semitop.semigroups import (
    brandt_semigroup,
    chain_semilattice,
    commutative_inverse_monoid_catalog,
    cyclic_group,
    embedding_catalog,
    full_transformation_monoid,
    left_zero,
    right_zero,
    signed_antichain_with_zero,
    symmetric_group,
    symmetric_inverse_monoid,
    trivial_monoid,
)

from oracles import assoc_by_triple_loop, congruences_by_filter, vp_by_replay


def test_associativity_group_table():
    ok, witness = check_associativity([(0, 1), (1, 0)])
    assert ok and witness is None


def test_associativity_left_zero():
    ok, witness = check_associativity([(0, 0), (1, 1)])
    assert ok and witness is None


def test_associativity_failure_matches_triple_loop():
    table = [(0, 1), (0, 0)]
    ok, witness = check_associativity(table)
    assert not ok
    assert not assoc_by_triple_loop(table)
    a, b, c = witness
    assert table[table[a][b]][c] != table[a][table[b][c]]


def test_associativity_rejects_ragged_table():
    with pytest.raises(MalformedTableError):
        check_associativity([(0, 1), (0,)])
    with pytest.raises(MalformedTableError):
        check_associativity([(0, 2), (0, 0)])


def test_associativity_rejects_bool_entries():
    with pytest.raises(MalformedTableError):
        check_associativity([[True, False], [False, True]])
    with pytest.raises(LoadError):
        parse_semigroup({"table": [[True, False], [False, True]]})


@pytest.mark.parametrize("bad", [True, 1.0, -1, 3, "0"])
def test_associativity_names_the_bad_entry(bad):
    """A row of the right length holding a bad entry is read entry by entry,
    so the message names that entry, and the first of two."""
    for row in ([0, bad, 2], [bad, 0, 1.5]):
        with pytest.raises(MalformedTableError) as exc:
            check_associativity([[0, 1, 2], row, [2, 2, 2]])
        assert str(exc.value) == f"entry {bad!r} out of range 0..2"


def test_associativity_reports_rows_in_order():
    """A bad entry before a ragged row is named first; a ragged row before a
    bad entry is reported as ragged."""
    with pytest.raises(MalformedTableError) as exc:
        check_associativity([[0, 1, 2], [0, 3, 0], [0]])
    assert str(exc.value) == "entry 3 out of range 0..2"
    with pytest.raises(MalformedTableError) as exc:
        check_associativity([[0, 1, 2], [0], [0, 3, 0]])
    assert str(exc.value) == "table is not square: row of length 1, expected 3"


def test_semigroup_constructor_rejects_nonassociative():
    with pytest.raises(MalformedTableError):
        FinSemigroup(((0, 1), (0, 0)))


def test_idempotents_group_chain_t2():
    assert idempotents(cyclic_group(2)) == (0,)
    assert idempotents(chain_semilattice(3)) == (0, 1, 2)
    t2, _ = full_transformation_monoid(2)
    assert len(idempotents(t2)) == 3


def test_inverse_structure_group_gives_group_inverse():
    z3 = cyclic_group(3)
    inv = inverse_structure(z3)
    assert inv.inv == (0, 2, 1)


def test_inverse_structure_left_zero_not_inverse():
    got = inverse_structure(left_zero(2))
    assert isinstance(got, NotInverse)
    assert got.inverse_count == 2


def test_inverse_structure_i2_is_relational_converse():
    s, maps = symmetric_inverse_monoid(2)
    inv = inverse_structure(s)
    assert not isinstance(inv, NotInverse)
    for a, pp in enumerate(maps):
        flipped = {(v, k) for k, v in enumerate(pp.map) if v is not None}
        target = {(k, v) for k, v in enumerate(maps[inv.inv[a]].map) if v is not None}
        assert flipped == target


def _inverse_cases():
    """The inverse members of both catalogs, then I3 and B3."""
    cases = list(commutative_inverse_monoid_catalog()) + [
        (name, s) for name, s in embedding_catalog()
        if all(len(inverses_by_search(s.table, x)) == 1 for x in range(s.n))]
    return cases + [("I3", symmetric_inverse_monoid(3)[0]), ("B3", brandt_semigroup(3))]


def test_clifford_check_names_the_least_failing_element():
    """The verdict and witness replayed against the definition, with each
    inverse found by search: the witness is the least x with x*x^-1 !=
    x^-1*x, and a pass means there is none."""
    failing = set()
    for name, s in _inverse_cases():
        bad = clifford_failures_by_replay(s.table)
        got = clifford_check(inverse_structure(s))
        assert got == ((False, bad[0]) if bad else (True, None)), name
        if bad:
            failing.add(name)
    assert failing == {"I2", "B2", "I3", "B3"}


def test_dom_and_ran_are_x_times_its_inverse_and_the_converse():
    """inv.dom[x] == x*y and inv.ran[x] == y*x for the one y that search
    finds with x*y*x == x and y*x*y == y, and both are idempotents."""
    cases = _inverse_cases() + [
        (f"signed_antichain{w}", signed_antichain_with_zero(w)) for w in range(11)]
    for name, s in cases:
        inv, t = inverse_structure(s), s.table
        for x in range(s.n):
            (y,) = inverses_by_search(t, x)
            assert (inv.dom[x], inv.ran[x]) == (t[x][y], t[y][x]), (name, x)
            assert t[inv.dom[x]][inv.dom[x]] == inv.dom[x], (name, x)
            assert t[inv.ran[x]][inv.ran[x]] == inv.ran[x], (name, x)
    b2 = inverse_structure(brandt_semigroup(2))
    with pytest.raises(TypeError):  # derived from base and inv, never passed
        InverseStructure(base=b2.base, inv=b2.inv, idempotents=b2.idempotents, dom=b2.dom)


def test_natural_order_basics():
    chain = chain_semilattice(3)
    assert natural_order(chain, 0, 0)
    assert natural_order(chain, 0, 2)
    assert not natural_order(chain, 2, 0)
    with pytest.raises(DomainError):
        natural_order(cyclic_group(3), 1, 1)


def test_maximal_subgroups():
    chain = chain_semilattice(3)
    for e in range(3):
        assert maximal_subgroup(inverse_structure(chain), e) == (e,)
    z3 = inverse_structure(cyclic_group(3))
    assert maximal_subgroup(z3, 0) == (0, 1, 2)
    exb = inverse_structure(signed_antichain_with_zero(4))
    e = 0  # the plus version of the first letter is idempotent
    assert maximal_subgroup(exb, 0) == (0, 1)


def test_adjoin_zero_and_identity():
    z2 = cyclic_group(2)
    z2z = adjoin_zero(z2)
    assert z2z.n == 3 and len(idempotents(z2z)) == 2
    assert all(z2z.mul(2, x) == 2 and z2z.mul(x, 2) == 2 for x in range(3))
    r2z = adjoin_zero(parse_semigroup({"table": [[0, 1], [0, 1]]}))
    assert r2z.mul(0, 2) == 2 and r2z.mul(0, 1) == 1
    m = adjoin_identity(parse_semigroup({"table": [[0, 1], [0, 1]]}))
    assert m.identity == 2
    assert all(m.mul(2, x) == x and m.mul(x, 2) == x for x in range(3))


def test_closure_empty_seeds_is_diagonal():
    for name, s in embedding_catalog()[:5]:
        assert congruence_closure(s, []) == diagonal(s)


def test_closure_chain_hand_worklist():
    chain = chain_semilattice(3)
    rho = congruence_closure(chain, [(1, 2)], RIGHT)
    assert rho.classes == (0, 1, 1)


def test_closure_z2_universal():
    rho = congruence_closure(cyclic_group(2), [(0, 1)], RIGHT)
    assert rho == universal(cyclic_group(2))


@pytest.mark.parametrize("bad", [True, 0.0, "0", 3], ids=["bool", "float", "str", "int-3"])
@pytest.mark.parametrize("first", [True, False], ids=["first", "second"])
def test_closure_refuses_a_seed_that_is_not_an_element(bad, first):
    """A bool is not taken for the int it subclasses, and a float or a str
    is refused like an index out of range, not by a bare TypeError."""
    s = cyclic_group(3)
    pair = (bad, 1) if first else (1, bad)
    for close in (partial(_close, s, [pair], RIGHT), partial(congruence_closure, s, [pair])):
        with pytest.raises(DomainError) as exc:
            close()
        assert str(exc.value) == f"seed pair ({pair[0]!r}, {pair[1]!r}) out of range"


def test_closure_records_replayable_chain():
    s = signed_antichain_with_zero(4)
    seeds = [(8, 0), (8, 2)]
    classes, chain = _close(s, seeds, RIGHT)
    for (a, b), m, (da, db) in chain:
        assert s.mul(a, m) == da and s.mul(b, m) == db
    # a bare union-find over seeds plus derived pairs, with no worklist at
    # all, must land on the identical partition
    parent = list(range(s.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in seeds + [pair for _, _, pair in chain]:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    replayed = canonical_classes([find(x) for x in range(s.n)])
    assert replayed == classes


def test_derivation_is_a_replayable_part_of_the_chain():
    s = signed_antichain_with_zero(4)
    seeds = [(8, 0), (8, 2)]
    classes, chain = _close(s, seeds, RIGHT)
    joined = [(x, z) for x in range(s.n) for z in range(s.n) if classes[x] == classes[z]]
    assert len(joined) > s.n
    for x, z in joined:
        steps = _derivation(s.n, seeds, chain, x, z)
        assert list(steps) == [step for step in chain if step in steps]
        assert derivation_replays(s.table, seeds, steps, x, z), (x, z)
    x, z = next((x, z) for x in range(s.n) for z in range(s.n) if classes[x] != classes[z])
    with pytest.raises(DomainError):
        _derivation(s.n, seeds, chain, x, z)


def test_derivation_keeps_the_steps_that_join_a_kept_steps_pair():
    # a chain that reaches (2, 3) in Z4 only through the derived pair (1, 2):
    # the step from (1, 2) needs the step that joined 1 and 2
    s = cyclic_group(4)
    seeds = [(0, 1)]
    first = ((0, 1), 1, (s.mul(0, 1), s.mul(1, 1)))
    second = (first[2], 1, (s.mul(first[2][0], 1), s.mul(first[2][1], 1)))
    assert second[2] == (2, 3)
    steps = _derivation(s.n, seeds, (first, second), 2, 3)
    assert steps == (first, second)
    assert derivation_replays(s.table, seeds, steps, 2, 3)
    assert not derivation_replays(s.table, seeds, steps[1:], 2, 3)
    # a step whose products are wrong is refused too
    assert not derivation_replays(s.table, seeds, ((first[0], 2, first[2]), second), 2, 3)


def test_meet_and_join_identities():
    chain = chain_semilattice(3)
    rho = congruence_closure(chain, [(1, 2)], RIGHT)
    assert congruence_meet(rho, diagonal(chain)) == diagonal(chain)
    assert congruence_meet(rho, universal(chain)) == rho
    assert congruence_join(rho, diagonal(chain)) == rho
    sigma = Congruence(chain, RIGHT, (0, 0, 1))
    assert congruence_meet(rho, sigma) == diagonal(chain)


def test_meet_rejects_kind_mismatch():
    chain = chain_semilattice(3)
    with pytest.raises(KindError):
        congruence_meet(diagonal(chain, RIGHT), diagonal(chain, TWO_SIDED))


def test_meet_and_join_reject_different_bases():
    z2, rz3 = diagonal(cyclic_group(2)), universal(right_zero(3))
    for combine in (congruence_meet, congruence_join):
        for r1, r2 in ((z2, rz3), (rz3, z2)):
            with pytest.raises(DomainError, match="different semigroups"):
                combine(r1, r2)


def _refines(p, x):
    """p is contained in x: points that share a class of p share one of x."""
    first = {}
    return all(first.setdefault(cp, cx) == cx for cp, cx in zip(p, x))


def _odd_chain(w):
    return get_instance("odd_chain", w).presentation.base


def test_enumerate_counts():
    assert len(enumerate_congruences(trivial_monoid())) == 1
    assert len(enumerate_congruences(cyclic_group(2), RIGHT)) == 2
    assert len(enumerate_congruences(chain_semilattice(2), RIGHT)) == 2


def test_enumerate_bounds():
    with pytest.raises(SizeError):
        enumerate_congruences(signed_antichain_with_zero(6))
    # 877 right congruences, over the 512 limit
    with pytest.raises(SizeError, match=r"^congruence lattice exceeded 512 members$"):
        enumerate_congruences(right_zero(7))


def test_enumerate_matches_partition_filter():
    odd_chains = [(f"odd_chain{w}", _odd_chain(w)) for w in range(4, 8)]
    for name, s in commutative_inverse_monoid_catalog() + odd_chains:
        for kind, two in ((RIGHT, False), (TWO_SIDED, True)):
            mine = [r.classes for r in enumerate_congruences(s, kind)]
            assert mine == congruences_by_filter(s.table, two_sided=two), (name, kind)


def test_enumerate_validates_each_member_once(monkeypatch):
    calls = []
    validate = Congruence.__post_init__

    def counting(self):
        calls.append(self.classes)
        validate(self)

    monkeypatch.setattr(Congruence, "__post_init__", counting)
    for s in (chain_semilattice(3), cyclic_group(4), brandt_semigroup(2)):
        for kind in (RIGHT, TWO_SIDED):
            calls.clear()
            lattice = enumerate_congruences(s, kind)
            assert sorted(calls) == [rho.classes for rho in lattice]


def test_enumerate_closes_each_pair_once(monkeypatch):
    calls = []
    close = core._close

    def counting(s, seeds, kind):
        calls.append(seeds)
        return close(s, seeds, kind)

    monkeypatch.setattr(core, "_close", counting)
    for s in (chain_semilattice(3), cyclic_group(4), brandt_semigroup(2)):
        for kind in (RIGHT, TWO_SIDED):
            calls.clear()
            enumerate_congruences(s, kind)
            assert 0 < len(calls) <= s.n * (s.n - 1) // 2


def test_enumerate_skips_joins_that_change_nothing(monkeypatch):
    # one join per (member, principal congruence) pair costs 23,040 joins
    # on odd_chain w=9; adding the principal congruences one at a time,
    # skipping the members that already contain one, needs a tenth of that
    calls = []
    join = core._join

    def counting(x, p):
        calls.append((x, p))
        return join(x, p)

    monkeypatch.setattr(core, "_join", counting)
    for kind in (RIGHT, TWO_SIDED):
        calls.clear()
        assert len(enumerate_congruences(_odd_chain(9), kind)) == 512
        assert 0 < len(calls) <= 2304
        assert not any(_refines(p, x) for x, p in calls)


def test_enumerate_odd_chain_gives_every_interval_partition():
    # min on a chain: the congruences are the partitions into intervals,
    # one for each subset of the w gaps, 512 at w=9 (exactly the limit)
    for w in (8, 9):
        for kind in (RIGHT, TWO_SIDED):
            lattice = enumerate_congruences(_odd_chain(w), kind)
            assert len(lattice) == 2 ** w
            for rho in lattice:
                c = rho.classes
                assert all(c[x + 1] in (c[x], c[x] + 1) for x in range(w))


def test_closure_idempotence_over_lattice():
    for s in (chain_semilattice(3), cyclic_group(4), brandt_semigroup(2)):
        for kind in (RIGHT, TWO_SIDED):
            for rho in enumerate_congruences(s, kind):
                assert congruence_closure(s, same_class_pairs(rho.classes), kind) == rho


def test_congruence_rejects_unstable_vector():
    # merging the ends of the chain without the middle is unstable:
    # 0*1 = 0 but 2*1 = 1
    with pytest.raises(KindError):
        Congruence(chain_semilattice(3), RIGHT, canonical_classes((0, 1, 0)))
    with pytest.raises(MalformedTableError):
        Congruence(chain_semilattice(3), RIGHT, (0, 2, 1))


def test_canonical_classes_normalizes():
    assert canonical_classes((5, 5, 2, 5)) == (0, 0, 1, 0)


def test_vagner_preston_universal_and_definition_replay():
    for name, s in commutative_inverse_monoid_catalog():
        inv = inverse_structure(s)
        assert is_vagner_preston(inv, universal(s)), name
        for rho in enumerate_congruences(s, RIGHT):
            assert is_vagner_preston(inv, rho) == vp_by_replay(
                s.table, inv.inv, s.identity, rho.classes), (name, rho.classes)


def test_quotient_by_diagonal_and_universal():
    s = cyclic_group(3)
    q, proj = quotient(s, diagonal(s, TWO_SIDED))
    assert q.n == 3 and tuple(proj) == (0, 1, 2)
    q, proj = quotient(s, universal(s, TWO_SIDED))
    assert q.n == 1


def test_quotient_collapse_group_part_gives_semilattice():
    z2z = adjoin_zero(cyclic_group(2))
    rho = Congruence(z2z, TWO_SIDED, canonical_classes((0, 0, 1)))
    q, proj = quotient(z2z, rho)
    assert q.n == 2 and is_semilattice(q)


def test_quotient_projection_is_homomorphism_with_kernel():
    for s in (adjoin_zero(cyclic_group(2)), chain_semilattice(4)):
        for rho in enumerate_congruences(s, TWO_SIDED):
            q, proj = quotient(s, rho)
            assert sorted(set(proj)) == list(range(q.n))
            for a in range(s.n):
                for b in range(s.n):
                    assert proj[s.mul(a, b)] == q.mul(proj[a], proj[b])
                    assert (proj[a] == proj[b]) == (rho.classes[a] == rho.classes[b])


def test_classify_vp_group_kind():
    z3 = cyclic_group(3)
    inv = inverse_structure(z3)
    cls = classify_vp_quotient(inv, diagonal(z3))
    assert cls.kind == "group"
    cls0 = classify_vp_quotient(inverse_structure(adjoin_zero(z3)),
                                diagonal(adjoin_zero(z3)))
    assert cls0.kind == "group-with-zero"


SMALL_TABLES = [(name, s.table) for name, s in
                embedding_catalog() + commutative_inverse_monoid_catalog() if s.n <= 7]


def one_entry_mutations(table):
    """Every table that differs from table in exactly one entry."""
    n = len(table)
    for a, b in itertools.product(range(n), repeat=2):
        for v in range(n):
            if v != table[a][b]:
                rows = [list(row) for row in table]
                rows[a][b] = v
                yield f"{a}*{b}={v}", rows


def group_identity_by_definition(rows, members):
    """The identity of members when they are closed under rows and hold a
    two-sided identity and a two-sided inverse of each member, else None."""
    inside = set(members)
    if any(rows[x][y] not in inside for x in inside for y in inside):
        return None
    units = [e for e in inside if all(rows[e][x] == x == rows[x][e] for x in inside)]
    if len(units) != 1:
        return None
    e = units[0]
    if all(any(rows[x][y] == e == rows[y][x] for y in inside) for x in inside):
        return e
    return None


def associative_on(rows, members):
    return all(rows[rows[a][b]][c] == rows[a][rows[b][c]]
               for a, b, c in itertools.product(members, repeat=3))


def test_group_rule_matches_the_definition_on_every_small_subset():
    checked = 0
    for name, table in SMALL_TABLES:
        for k in range(len(table) + 1):
            for members in itertools.combinations(range(len(table)), k):
                assert _group_unit(table, members) == group_identity_by_definition(
                    table, members), (name, members)
                checked += 1
    assert checked == 474


def test_group_rule_matches_the_definition_where_a_mutated_table_is_associative():
    """The rule is stated for associative tables.  No one-entry mutation of
    Z4 or S3 is associative as a whole, but many member sets are closed and
    associative under one, and every set that is not closed is refused."""
    for group in (cyclic_group(4), symmetric_group(3)):
        compared = 0
        for where, rows in one_entry_mutations(group.table):
            with pytest.raises(MalformedTableError):
                FinSemigroup(rows)
            for k in range(len(rows) + 1):
                for members in itertools.combinations(range(len(rows)), k):
                    closed = all(rows[x][y] in members for x in members for y in members)
                    if closed and not associative_on(rows, members):
                        continue
                    assert _group_unit(rows, members) == group_identity_by_definition(
                        rows, members), (group.name, where, members)
                    compared += closed
        assert compared == {4: 137, 6: 982}[group.n]


def zero_by_scan(rows):
    n = len(rows)
    zeros = [z for z in range(n) if all(rows[z][x] == z == rows[x][z] for x in range(n))]
    return zeros[0] if zeros else None


def test_zero_rule_matches_the_scan():
    """The rule needs no associativity, so every mutation is compared;
    the ones of tables with a zero keep it or lose it."""
    tables = list(SMALL_TABLES)
    for name in ("Z4", "S3", "Z3^0", "chain4", "B2", "antichain3^01"):
        mutations = one_entry_mutations(dict(SMALL_TABLES)[name])
        tables += [(f"{name} {where}", rows) for where, rows in mutations]
    counts = [0, 0]
    for name, rows in tables:
        zero = zero_by_scan(rows)
        assert _zero(rows) == zero, name
        counts[zero is None] += 1
    assert counts == [197, 350]  # with a zero, without one


def test_subsemigroup_extraction():
    s = signed_antichain_with_zero(4)
    sub, order = subsemigroup(s, {0, 1, 8, 9})
    assert sub.n == 4 and order == (0, 1, 8, 9)
    with pytest.raises(DomainError):
        subsemigroup(s, {0, 2})


def test_doc_round_trip():
    for name, s in embedding_catalog():
        doc = semigroup_doc(s)
        inv = inverse_structure(s)
        if not isinstance(inv, NotInverse):  # a declared inverse is checked on load
            doc["inverse"] = list(inv.inv)
        again = parse_semigroup(json.loads(json.dumps(doc)))
        assert again == s, name


def test_parse_rejects_malformed_docs():
    with pytest.raises(LoadError):
        parse_semigroup({"table": [[0, 1], [0, 0]]})
    with pytest.raises(LoadError):
        parse_semigroup({"table": [[0, 1], [1, 0]], "identity": 5})
    with pytest.raises(LoadError):
        parse_semigroup({"table": [[0, 1], [1, 0]], "elements": ["a"]})
    with pytest.raises(LoadError):
        parse_semigroup({})
