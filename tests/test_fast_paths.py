"""Each bulk fast path against the slow definition it replaces.

The closure engine, the union-find, the stability check in ``Congruence``,
Light's test restricted to the columns gS and the Brandt table builder all
gather over whole rows at C speed; the transformation and partial-bijection
tables compose value tuples directly.
Every test here restates the element-by-element definition and requires
the same answer, chain order included where the certificate depends on it.
"""

import random
from collections import deque
from operator import itemgetter
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import growth_vectors, left_stable, right_stable
from semitop.core import (RIGHT, TWO_SIDED, Congruence, FinSemigroup, _close, _greedy_generators,
                          _light_holds, _light_holds_on, _UnionFind)
from semitop.errors import KindError
from semitop.obstruct import get_instance
from semitop.semigroups import (
    brandt_semigroup,
    chain_semilattice,
    cyclic_group,
    embedding_catalog,
    full_transformation_monoid,
    left_zero,
    right_zero,
    symmetric_group,
    symmetric_inverse_monoid,
    trivial_monoid,
)
from semitop.topo import points_of
from semitop.transforms import compose

CATALOG_IDS = ["exB", "odd_chain", "right_simple_zero:Z2", "right_simple_zero:R2",
               "right_simple_zero:S3", "brandt", "luke"]


def close_by_multiplier_loop(table, seeds, kind):
    """The closure engine written one multiplier at a time, over a
    path-halving union-find: (canonical classes, chain)."""
    n = len(table)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chain = []
    work = deque(seeds)
    while work:
        a, b = work.popleft()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        parent[max(ra, rb)] = min(ra, rb)
        for m in range(n):
            derived = [(table[a][m], table[b][m])]
            if kind == TWO_SIDED:
                derived.append((table[m][a], table[m][b]))
            for da, db in derived:
                if da != db and find(da) != find(db):
                    work.append((da, db))
                    chain.append(((a, b), m, (da, db)))
    first = {}
    return tuple(first.setdefault(find(x), len(first)) for x in range(n)), tuple(chain)


@pytest.mark.parametrize("window", range(4, 10))
@pytest.mark.parametrize("instance_id", CATALOG_IDS)
def test_close_matches_the_multiplier_loop_on_every_branch(instance_id, window):
    for suffix in ("", "-discrete"):
        inst = get_instance(instance_id + suffix, window)
        s = inst.presentation.base
        for v in inst.admissible():
            seeds = [(inst.limit, z) for z in points_of(v) if z != inst.limit]
            assert _close(s, seeds, RIGHT) == close_by_multiplier_loop(s.table, seeds, RIGHT)
            assert _close(s, seeds, TWO_SIDED)[0] == close_by_multiplier_loop(s.table, seeds, TWO_SIDED)[0]


@st.composite
def magmas_with_seeds(draw):
    """A random table (associative or not: the engine reads only n and the
    table), seed pairs, and a kind."""
    n = draw(st.integers(1, 7))
    row = st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(tuple)
    table = tuple(draw(st.lists(row, min_size=n, max_size=n)))
    seeds = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4))
    return SimpleNamespace(n=n, table=table), seeds, draw(st.sampled_from([RIGHT, TWO_SIDED]))


@given(magmas_with_seeds())
def test_close_matches_the_multiplier_loop_on_drawn_tables(case):
    s, seeds, kind = case
    classes, chain = _close(s, seeds, kind)
    want_classes, want_chain = close_by_multiplier_loop(s.table, seeds, kind)
    assert classes == want_classes
    assert kind == TWO_SIDED or chain == want_chain


def null_semigroup(n):
    """Every product is 0."""
    return FinSemigroup(tuple((0,) * n for _ in range(n)), name=f"null{n}")


STABILITY_CASES = [("trivial", trivial_monoid()), ("Z2", cyclic_group(2)), ("L2", left_zero(2)),
                   ("R2", right_zero(2)), ("chain2", chain_semilattice(2)),
                   ("null2", null_semigroup(2)), ("null3", null_semigroup(3))]
STABILITY_CASES += [(name, s) for name, s in embedding_catalog() if 2 < s.n <= 7]


@pytest.mark.parametrize("kind", [RIGHT, TWO_SIDED])
@pytest.mark.parametrize("name,s", STABILITY_CASES, ids=[name for name, _ in STABILITY_CASES])
def test_congruence_accepts_exactly_the_stable_partitions(name, s, kind):
    for vec in growth_vectors(s.n):
        try:
            Congruence(s, kind, vec)
            accepted = True
        except KindError:
            accepted = False
        stable = right_stable(s.table, vec) and (kind == RIGHT or left_stable(s.table, vec))
        assert accepted == stable, vec


@pytest.mark.parametrize("w", range(1, 9))
def test_brandt_table_matches_its_product_rule(w):
    empty = w * w

    def mul(a, b):
        if a == empty or b == empty:
            return empty
        i, j = divmod(a, w)
        k, l = divmod(b, w)
        return i * w + l if j == k else empty

    n = empty + 1
    assert brandt_semigroup(w).table == tuple(tuple(mul(a, b) for b in range(n)) for a in range(n))


@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30))))
def test_union_find_matches_the_naive_partition(case):
    n, pairs = case
    uf = _UnionFind(n)
    block = [frozenset([x]) for x in range(n)]
    for a, b in pairs:
        fresh = b not in block[a]
        assert uf.union(a, b) == fresh
        if fresh:
            merged = block[a] | block[b]
            for x in merged:
                block[x] = merged
    for a in range(n):
        for b in range(n):
            assert (uf.find(a) == uf.find(b)) == (b in block[a])


@pytest.mark.parametrize("build", [full_transformation_monoid, symmetric_inverse_monoid])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_composition_table_matches_compose(build, n):
    """The value-tuple table rule against `compose`, which builds and
    validates each composite map."""
    s, maps = build(n)
    index = {m: i for i, m in enumerate(maps)}
    assert s.table == tuple(tuple(index[compose(f, g)] for g in maps) for f in maps)


def light_by_rows(rows, g):
    """Light's test at g as the direct row comparison: row x*g against row x
    read through g's row, for every x."""
    times_g_row = itemgetter(*rows[g])
    return all(rows[rows[x][g]] == times_g_row(rows[x]) for x in range(len(rows)))


def assert_light_matches_rows(table):
    rows = [tuple(row) for row in table]
    for g in _greedy_generators(rows):
        want = light_by_rows(rows, g)
        assert _light_holds_on(rows, g, sorted(set(rows[g]))) == want, g
        assert _light_holds(rows, g) == want, g


LIGHT_CASES = [(f"{i}{suffix}", w) for i in CATALOG_IDS for suffix in ("", "-discrete")
               for w in range(4, 13)]
LIGHT_CASES += [("I4", symmetric_inverse_monoid(4)[0]), ("T4", full_transformation_monoid(4)[0]),
                ("S5", symmetric_group(5)), ("L4", left_zero(4))]


@pytest.mark.parametrize("name,arg", LIGHT_CASES,
                         ids=[f"{name}-{arg}" if isinstance(arg, int) else name
                              for name, arg in LIGHT_CASES])
def test_restricted_light_test_matches_the_row_comparison(name, arg):
    """Each generator's comparison on gS against the whole-row comparison,
    on the pinned table and on one-entry mutations of it, which fail at some
    generators and change gS at others."""
    s = get_instance(name, arg).presentation.base if isinstance(arg, int) else arg
    assert_light_matches_rows(s.table)
    rng = random.Random(f"{name}-{arg}")
    for _ in range(4):
        table = [list(row) for row in s.table]
        a, b, v = (rng.randrange(s.n) for _ in range(3))
        table[a][b] = v
        assert_light_matches_rows(table)
