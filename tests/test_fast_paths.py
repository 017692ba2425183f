"""Each bulk fast path against the slow definition it replaces.

The closure engine reads only the supports of the rows it merges, the
stability check in ``Congruence`` reads only the generators of its base,
each on its column (or row) support, the supports are taken against the
zero when there is one and are whole rows otherwise, the union-find,
Light's test restricted to the columns gS and the Brandt table builder
gather over whole rows at C speed;
the transformation and partial-bijection tables compose value tuples
directly.
Every test here restates the element-by-element definition and requires
the same answer, chain order included where the certificate depends on it.
"""

import gc
import itertools
import random
import weakref
from collections import deque
from operator import itemgetter
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import growth_vectors, left_stable, right_stable
from semitop import core
from semitop.cli import main
from semitop.core import (RIGHT, TWO_SIDED, Congruence, FinSemigroup, _close, _greedy_generators,
                          _gather, _light_holds, _light_holds_at_zero, _light_holds_on,
                          _stable_on_generators, _Support, _UnionFind, canonical_classes,
                          congruence_closure, diagonal)
from semitop.errors import DomainError, KindError, MalformedTableError
from semitop.obstruct import escape_certificate, forcing_closure, get_instance, verify_certificate
from semitop.semigroups import (
    brandt_semigroup,
    chain_semilattice,
    commutative_inverse_monoid_catalog,
    composition_table,
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
from semitop.transforms import PartialPerm, Transformation, compose

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


CLOSE_CASES = [(i, w) for i in CATALOG_IDS for w in range(4, 10)]
CLOSE_CASES += [("brandt", 16), ("luke", 16)]  # long rows with short supports


@pytest.mark.parametrize("instance_id,window", CLOSE_CASES)
def test_close_matches_the_multiplier_loop_on_every_branch(instance_id, window):
    for suffix in ("", "-discrete"):
        inst = get_instance(instance_id + suffix, window)
        s = inst.presentation.base
        for v in inst.admissible():
            seeds = [(inst.limit, z) for z in points_of(v) if z != inst.limit]
            assert _close(s, seeds, RIGHT) == close_by_multiplier_loop(s.table, seeds, RIGHT)
            assert _close(s, seeds, TWO_SIDED)[0] == close_by_multiplier_loop(s.table, seeds, TWO_SIDED)[0]


def magma(table, d):
    """A stand-in for FinSemigroup holding what the closure engine reads: n,
    the table, its columns, and the supports of rows and columns, here
    against the drawn entry d instead of the zero (None: whole rows).  Any
    entry d gives the same closure; only the scan length depends on it."""
    columns = tuple(zip(*table))
    supports = _Support(table), _Support(table, column=True)
    for support in supports:
        support.d = d
    return SimpleNamespace(n=len(table), table=table, columns=columns,
                           row_support=supports[0], column_support=supports[1])


@st.composite
def magmas_with_seeds(draw, dominant=False):
    """A random table (associative or not: the engine reads only what
    `magma` holds), seed pairs, and a kind; the supports are taken against
    d or against None (whole rows).  With dominant, most cells hold d, so
    the supports against d are short, as in the Brandt carriers."""
    n = draw(st.integers(1, 9 if dominant else 7))
    d = draw(st.integers(0, n - 1))
    cell = st.integers(0, n - 1)
    if dominant:
        cell = st.one_of(st.just(d), st.just(d), st.just(d), cell)
    row = st.lists(cell, min_size=n, max_size=n).map(tuple)
    table = tuple(draw(st.lists(row, min_size=n, max_size=n)))
    seeds = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4))
    support_entry = draw(st.sampled_from([d, None]))
    return magma(table, support_entry), seeds, draw(st.sampled_from([RIGHT, TWO_SIDED]))


@given(st.one_of(magmas_with_seeds(), magmas_with_seeds(dominant=True)))
def test_close_matches_the_multiplier_loop_on_drawn_tables(case):
    s, seeds, kind = case
    classes, chain = _close(s, seeds, kind)
    want_classes, want_chain = close_by_multiplier_loop(s.table, seeds, kind)
    assert classes == want_classes
    assert kind == TWO_SIDED or chain == want_chain


# rows 0 and 3 are all d = 0, so their supports are empty; rows 1 and 2
# overlap at 3, rows 1 and 4 at 1
SCAN_TABLE = (
    (0, 0, 0, 0, 0),
    (0, 2, 0, 3, 0),
    (0, 0, 4, 3, 0),
    (0, 0, 0, 0, 0),
    (0, 1, 0, 0, 2),
)


@pytest.mark.parametrize("seeds", [
    [(0, 1)],
    [(1, 0)],
    [(0, 3)],
    [(1, 2)],
    [(1, 2), (4, 1)],
    [(1, 2), (1, 2)],
    [(0, 1), (1, 3), (0, 3)],
], ids=["only-a-empty", "only-b-empty", "both-empty", "overlapping", "two-overlaps",
        "seed-repeated", "seed-already-merged"])
@pytest.mark.parametrize("kind", [RIGHT, TWO_SIDED])
def test_close_scans_every_support_case_like_the_multiplier_loop(seeds, kind):
    """One empty support is scanned as it stands, two are merged and
    sorted: the same chain as the loop over every multiplier, from a list
    of seeds or a generator of them."""
    s = magma(SCAN_TABLE, 0)
    assert [list(s.row_support[x]) for x in range(5)] == [[], [1, 3], [2, 3], [], [1, 4]]
    classes, chain = _close(s, seeds, kind)
    want_classes, want_chain = close_by_multiplier_loop(SCAN_TABLE, seeds, kind)
    assert classes == want_classes
    assert kind == TWO_SIDED or chain == want_chain
    assert _close(s, (pair for pair in seeds), kind) == (classes, chain)


def null_semigroup(n):
    """Every product is 0."""
    return FinSemigroup(tuple((0,) * n for _ in range(n)), name=f"null{n}")


STABILITY_CASES = [("trivial", trivial_monoid()), ("Z2", cyclic_group(2)), ("L2", left_zero(2)),
                   ("R2", right_zero(2)), ("chain2", chain_semilattice(2)),
                   ("null2", null_semigroup(2)), ("null3", null_semigroup(3))]
STABILITY_CASES += [(name, s) for name, s in embedding_catalog() if 2 < s.n <= 7]


def per_block_scan(s, kind, vec):
    """Stability by comparing every member's translated classes with its
    block representative's, on every multiplier: None, or the message of
    the first failure."""
    n = s.n
    sides = [(s.table, "not right-stable: ({rep},{x}) * {s}")]
    if kind == TWO_SIDED:
        sides.append((tuple(zip(*s.table)), "not left-stable: {s} * ({rep},{x})"))
    blocks = {}
    for x, c in enumerate(vec):
        blocks.setdefault(c, []).append(x)
    for block in blocks.values():
        rep = block[0]
        for rows, message in sides:
            want = [vec[v] for v in rows[rep]]
            for x in block[1:]:
                got = [vec[v] for v in rows[x]]
                if got != want:
                    m = next(i for i in range(n) if got[i] != want[i])
                    return message.format(rep=rep, x=x, s=m)
    return None


def rejection(s, kind, vec):
    """None when Congruence accepts the partition, else its message."""
    try:
        Congruence(s, kind, vec)
    except KindError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("kind", [RIGHT, TWO_SIDED])
@pytest.mark.parametrize("name,s", STABILITY_CASES, ids=[name for name, _ in STABILITY_CASES])
def test_congruence_accepts_exactly_the_stable_partitions(name, s, kind):
    """Every partition of the small carriers: the generator check accepts
    exactly the stable ones, and a rejection names the same (rep, x, s) as
    the full per-block scan."""
    for vec in growth_vectors(s.n):
        got = rejection(s, kind, vec)
        stable = right_stable(s.table, vec) and (kind == RIGHT or left_stable(s.table, vec))
        assert (got is None) == stable, vec
        assert got == per_block_scan(s, kind, vec), vec


def near_congruences(s, kind, rng, count):
    """Random partitions of the carrier, every principal congruence, and each
    of those with one point moved to a random class."""
    n = s.n
    vecs = [canonical_classes([rng.randrange(k) for _ in range(n)])
            for k in (1, 2, 3, n) for _ in range(count)]
    vecs += [congruence_closure(s, [(a, b)], kind).classes
             for a in range(n) for b in range(a + 1, n)]
    for vec in vecs[:]:
        moved = list(vec)
        moved[rng.randrange(n)] = rng.choice(vec)
        vecs.append(canonical_classes(moved))
    return vecs


@pytest.mark.parametrize("kind", [RIGHT, TWO_SIDED])
def test_generator_acceptance_matches_the_per_block_scan_on_b3(kind):
    """B3 has 115,975 partitions, so random and near-stable ones stand in
    for all of them (B2 is among the stability cases above)."""
    s = brandt_semigroup(3)
    for vec in near_congruences(s, kind, random.Random(f"B3-{kind}"), 40):
        assert rejection(s, kind, vec) == per_block_scan(s, kind, vec), vec


def with_support_entry(s, d):
    """s as `magma` holds it, with its generators: what Congruence reads,
    with the supports taken against the entry d."""
    return SimpleNamespace(**vars(magma(s.table, d)), generators=s.generators)


def branch_partitions(inst, rng, moves):
    """The forcing closure of every admissible neighbourhood, and each of
    them with one point moved, into another class or into a class alone."""
    vecs = [forcing_closure(inst.presentation, inst.limit, v)[0] for v in inst.admissible()]
    n = len(vecs[0])
    for vec in vecs[:]:
        for i in range(moves):
            moved = list(vec)
            moved[rng.randrange(n)] = vec[rng.randrange(n)] if i % 2 else n
            vecs.append(canonical_classes(moved))
    return vecs


SUPPORT_CHECK_CASES = [(f"{i}{suffix}", w) for i in CATALOG_IDS for suffix in ("", "-discrete")
                       for w in range(4, 13)]


@pytest.mark.parametrize("instance_id,window", SUPPORT_CHECK_CASES)
def test_support_check_matches_the_per_block_scan_on_every_branch(instance_id, window):
    """The generator check on column (and row) supports, without the gate
    that sends partitions with few non-representatives to the block scan,
    against the full per-block scan, on every branch partition of a catalog instance and on
    one-point moves of each: the same accept or reject, and the same
    message.  Then the supports are taken against other entries d, every
    entry at small carriers and a drawn few above, and against None, the
    whole lines of a carrier without a zero: the verdict does not depend on
    d."""
    s = get_instance(instance_id, window).presentation.base
    rng = random.Random(f"{instance_id}-{window}")
    vecs = branch_partitions(get_instance(instance_id, window), rng, 4)
    want = {}
    for kind in (RIGHT, TWO_SIDED):
        for vec in vecs:
            want[kind, vec] = per_block_scan(s, kind, vec)
            assert rejection(s, kind, vec) == want[kind, vec], (kind, vec)
            assert _stable_on_generators(s, kind, vec) == (want[kind, vec] is None), (kind, vec)
    entries = range(s.n) if s.n <= 20 else rng.sample(range(s.n), 3)
    for d in (None, *entries):
        t = with_support_entry(s, d)
        for (kind, vec), message in want.items():
            assert _stable_on_generators(t, kind, vec) == (message is None), (d, kind, vec)
            assert rejection(t, kind, vec) == message, (d, kind, vec)


def two_sided_zeros(table):
    n = len(table)
    return [z for z in range(n) if all(table[z][x] == z == table[x][z] for x in range(n))]


ZERO_IDS = ["brandt", "luke", "odd_chain", "right_simple_zero:Z2", "right_simple_zero:R2",
            "right_simple_zero:S3"]


@pytest.mark.parametrize("window", [4, 7, 12])
@pytest.mark.parametrize("instance_id", ZERO_IDS)
def test_support_entry_is_the_zero(instance_id, window):
    s = get_instance(instance_id, window).presentation.base
    zero, = two_sided_zeros(s.table)
    assert s.row_support.d == zero
    assert s.column_support.d == zero


NO_ZERO_CASES = [("exB", get_instance("exB", 6).presentation.base), ("Z2", cyclic_group(2)),
                 ("S3", symmetric_group(3)), ("T3", full_transformation_monoid(3)[0]),
                 # 0 and 1 are left zeros and 2*x == 1: the product 0*1*2 is 0, whose
                 # row is constant and whose column is not
                 ("left zeros", FinSemigroup(((0, 0, 0), (1, 1, 1), (1, 1, 1))))]


@pytest.mark.parametrize("name,s", NO_ZERO_CASES, ids=[name for name, _ in NO_ZERO_CASES])
def test_support_without_a_zero_is_the_whole_row(name, s):
    assert two_sided_zeros(s.table) == []
    for support in (_Support(s.table), _Support(s.columns), s.row_support, s.column_support):
        assert support.d is None
        assert all(support[a] == list(range(s.n)) for a in range(s.n))


@pytest.mark.parametrize("positions", [(), (2,), (3, 0, 3)])
def test_gather_reads_a_tuple_at_any_number_of_positions(positions):
    seq = ("a", "b", "c", "d")
    assert _gather(positions)(seq) == tuple(seq[p] for p in positions)
    assert _gather(iter(positions))(seq) == tuple(seq[p] for p in positions)


class CountingRows:
    """A table whose rows count every entry read through them."""

    def __init__(self, rows):
        self.rows = rows
        self.reads = 0

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, a):
        return CountingRow(self, self.rows[a])


class CountingRow:
    def __init__(self, owner, row):
        self.owner = owner
        self.row = row

    def __getitem__(self, x):
        self.owner.reads += 1
        return self.row[x]


def test_generator_check_reads_only_the_column_supports(monkeypatch):
    """On a branch partition of brandt at window 16 (n = 257), right
    stability reads at most n + the total size of the generators' column
    supports from the rows, not n per generator, and accepts without the
    block scan."""
    inst = get_instance("brandt", 16)
    s = inst.presentation.base
    vec = forcing_closure(inst.presentation, inst.limit, inst.admissible()[-1])[0]
    Congruence(s, RIGHT, vec)
    bound = s.n + sum(len(s.column_support[g]) for g in s.generators)
    counting = vars(s)["table"] = CountingRows(s.table)
    monkeypatch.setattr(Congruence, "blocks", None)
    Congruence(s, RIGHT, vec)
    assert 0 < counting.reads <= bound < s.n * len(s.generators) // 4


@pytest.mark.parametrize("argv,code", [
    (["brandt", "-w", "24"], 0), (["luke", "-w", "24"], 0), (["brandt-discrete", "-w", "8"], 2)])
def test_obstruct_path_builds_no_transposed_table(tmp_path, capsys, monkeypatch, argv, code):
    """Certify, replay and NoObstruction run with every read of
    FinSemigroup.columns, cached or not, made to fail: right stability reads
    its products off the rows."""
    def refuse(self):
        raise AssertionError("transposed table")

    monkeypatch.setattr(FinSemigroup, "columns", property(refuse))
    cert = tmp_path / "cert.json"
    assert main(["obstruct", *argv, "--out", str(cert)]) == code
    if code == 0:
        assert main(["obstruct", *argv, "--replay", str(cert)]) == 0
    assert capsys.readouterr().err == ""


def assert_column_supports_are_the_dense_ones(s):
    """The cached column supports of s, and a fresh set read off the rows,
    against the definition over the transposed table."""
    n = s.n
    zeros = two_sided_zeros(s.table)
    d = zeros[0] if zeros else None
    want = [[x for x, v in enumerate(col) if v != d] for col in zip(*s.table)]
    for support in (s.column_support, _Support(s.table, column=True)):
        assert support.d == d
        assert [list(support[c]) for c in range(n)] == want


@pytest.mark.parametrize("instance_id,window", SUPPORT_CHECK_CASES)
def test_column_supports_of_the_catalog_carriers(instance_id, window):
    assert_column_supports_are_the_dense_ones(get_instance(instance_id, window).presentation.base)


@pytest.mark.parametrize("kind", [RIGHT, TWO_SIDED])
def test_block_scan_skips_blocks_of_one(monkeypatch, kind):
    """A block of one has no member to compare with its representative, so
    the diagonal of brandt at window 6 (n = 37, fewer non-representatives
    than generators, so the block scan runs) gathers no row."""
    s = brandt_semigroup(6)
    calls = []
    gather = core._gather

    def counting(positions):
        calls.append(positions)
        return gather(positions)

    monkeypatch.setattr(core, "_gather", counting)
    assert diagonal(s, kind).num_classes == s.n
    assert calls == []


@pytest.mark.parametrize("n", range(6))
def test_symmetric_group_composes_p_then_q(n):
    """Entry [p][q] is the index of "apply p, then q" (x goes to q[p[x]]),
    the permutations are listed in lexicographic order under their digit
    strings, and the identity is index 0."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    s = symmetric_group(n)
    assert s.table == tuple(tuple(index[tuple(q[p[x]] for x in range(n))] for q in perms)
                            for p in perms)
    assert s.names == tuple("".join(map(str, p)) for p in perms)
    assert s.identity == 0 and perms[0] == tuple(range(n))


def test_no_cache_outlives_its_semigroup():
    """The supports and generators are cached on the semigroup, so dropping
    the semigroup frees them; certify and replay build no columns."""
    inst = get_instance("brandt", 8)
    cert = escape_certificate(inst)
    assert verify_certificate(inst, cert) == (True, None)
    ref = weakref.ref(inst.presentation.base)
    assert ref().row_support and ref().column_support  # seeded when the carrier was built
    assert "columns" not in vars(ref())  # the verifier reads the rows
    del inst
    gc.collect()
    assert ref() is None


def brandt_by_product_rule(w):
    """B_w as the dense table of its product rule: (i, j)*(k, l) is (i, l)
    when j == k, the empty map w*w otherwise."""
    empty = w * w
    pairs = [divmod(b, w) for b in range(empty)]
    rows = [tuple([i * w + l if j == k else empty for k, l in pairs] + [empty])
            for i, j in pairs]
    return tuple(rows) + ((empty,) * (empty + 1),)


@pytest.mark.parametrize("w", [*range(1, 17), 24, 40])
def test_brandt_table_matches_its_product_rule(w):
    """The carrier built from its supports against the dense definition:
    the same table, labels and generators (2w - 1 of them), and the seeded
    row and column supports are the ones read off the table."""
    s = brandt_semigroup(w)
    table = brandt_by_product_rule(w)
    assert s.table == table
    assert s.names == tuple(f"({i},{j})" for i in range(w) for j in range(w)) + ("0",)
    assert s.generators == FinSemigroup(table).generators
    assert len(s.generators) == (2 * w - 1 if w > 1 else 2)  # B1's zero is no product
    if w <= 16:
        want = _Support(table)
        assert s.row_support.d == want.d == w * w
        assert all(list(s.row_support[a]) == want[a] for a in range(s.n))
    assert_column_supports_are_the_dense_ones(s)


def test_brandt_builds_and_searches_without_a_dense_pass(monkeypatch):
    """The catalog's Brandt carriers never run the dense associativity
    check, the dense Light's test or a support scan of a row: building
    brandt and luke at window 24 and searching brandt at window 8 pass with
    all three made to fail."""
    def refuse(*args):
        raise AssertionError("dense pass")

    monkeypatch.setattr(core, "_associativity", refuse)
    monkeypatch.setattr(core, "_light_holds", refuse)
    monkeypatch.setattr(_Support, "__missing__", refuse)
    assert get_instance("brandt", 24).presentation.base.n == 577
    assert get_instance("luke", 24).presentation.base.n == 577
    cert = escape_certificate(get_instance("brandt", 8))
    assert len(cert.branches) == 6


def sparse_parts(rows, z):
    """The supports, values and column supports of rows against z."""
    n = len(rows)
    supports = [tuple(y for y in range(n) if row[y] != z) for row in rows]
    values = [tuple(v for v in row if v != z) for row in rows]
    cols = [[x for x in range(n) if rows[x][c] != z] for c in range(n)]
    return supports, values, cols


def assert_sparse_light_matches(rows, z):
    """Light's test on the supports against the dense test, at every
    generator of the rows."""
    supports, _, cols = sparse_parts(rows, z)
    for g in _greedy_generators(rows):
        assert _light_holds_at_zero(rows, z, supports, cols, g) == _light_holds(rows, g), g


def built_or_error(make, *args):
    """The semigroup make builds, or the text of the MalformedTableError it
    raises."""
    try:
        return make(*args)
    except MalformedTableError as exc:
        return str(exc)


WITH_ZERO = [(name, s) for name, s in dict(commutative_inverse_monoid_catalog()
                                            + embedding_catalog()).items()
             if two_sided_zeros(s.table)]


@pytest.mark.parametrize("name,s", WITH_ZERO + [(f"B{w}", w) for w in range(1, 17)],
                         ids=[name for name, _ in WITH_ZERO] + [f"B{w}" for w in range(1, 17)])
def test_light_on_supports_matches_the_dense_test(name, s):
    """Every catalog carrier with a zero, and B_w up to window 16, rebuilt
    from its supports: the same table and generators, and the sparse
    Light's test agrees with the dense one at every generator."""
    table = brandt_by_product_rule(s) if isinstance(s, int) else s.table
    z, = two_sided_zeros(table)
    rows = list(table)
    assert_sparse_light_matches(rows, z)
    rebuilt = FinSemigroup.from_supports(z, *sparse_parts(rows, z)[:2])
    dense = FinSemigroup(table)
    assert rebuilt == dense and rebuilt.generators == dense.generators


@pytest.mark.parametrize("w,values_only", [(3, False), (4, True)])
def test_light_on_supports_matches_the_dense_test_on_mutated_brandt_tables(w, values_only):
    """Each one-entry mutation of B_w off the zero's row and column, which
    keeps the zero two-sided (for B4 only those of an entry on a support to
    another value): the sparse Light's test agrees with the dense one at
    every generator, and building from the supports gives what the dense
    constructor gives, the same error text on a table that is not
    associative included."""
    z = w * w
    base = brandt_by_product_rule(w)
    failed = 0
    for a, b in itertools.product(range(z), repeat=2):
        if values_only and base[a][b] == z:
            continue
        for v in range(z + 1):
            if v == base[a][b] or values_only and v == z:
                continue
            rows = list(base)
            rows[a] = rows[a][:b] + (v,) + rows[a][b + 1:]
            assert_sparse_light_matches(rows, z)
            supports, values, _ = sparse_parts(rows, z)
            got = built_or_error(FinSemigroup.from_supports, z, supports, values)
            want = built_or_error(FinSemigroup, rows)
            assert got == want, (a, b, v)
            if isinstance(want, str):
                failed += 1
            else:
                assert got.generators == want.generators
    assert failed > 0


B2_SUPPORTS = [(0, 1), (2, 3), (0, 1), (2, 3), ()]
B2_VALUES = [(0, 1), (0, 1), (2, 3), (2, 3), ()]


def b2_with(row, support=None, values=None):
    """B2's supports and values with row replaced where given."""
    supports, vals = list(B2_SUPPORTS), list(B2_VALUES)
    if support is not None:
        supports[row] = support
    if values is not None:
        vals[row] = values
    return supports, vals


@pytest.mark.parametrize("z,supports,values,message", [
    (4, *b2_with(0, values=(True, 1)), "entry True out of range 0..4"),
    (4, *b2_with(0, support=(0.0, 1)), "entry 0.0 out of range 0..4"),
    (4, *b2_with(1, values=(0, 5)), "entry 5 out of range 0..4"),
    (4, *b2_with(2, values=(2, 4)), "row 2 holds the zero 4 on its support"),
    (4, *b2_with(3, support=(3, 2)), "support of row 3 is not strictly ascending"),
    (4, *b2_with(1, values=(0,)), "row 1: 2 support places for 1 values"),
    (4, *b2_with(4, support=(0,), values=(0,)), "the row of the zero 4 has a non-empty support"),
    (4, *b2_with(0, support=(0, 4)), "the zero 4 lies in the support of row 0"),
    (0, [], [], "empty carrier"),
    (5, B2_SUPPORTS, B2_VALUES, "zero 5 out of range 0..4"),
    (4, B2_SUPPORTS, B2_VALUES[:4], "4 value rows for 5 supports"),
], ids=["bool", "float", "out-of-range", "value-is-zero", "not-ascending", "length-mismatch",
        "zero-row", "zero-in-support", "empty", "zero-out-of-range", "value-rows"])
def test_malformed_sparse_input_is_refused(z, supports, values, message):
    # the unchanged data is B2, so each refusal comes from its one change
    assert FinSemigroup.from_supports(4, B2_SUPPORTS, B2_VALUES).table == brandt_by_product_rule(2)
    with pytest.raises(MalformedTableError, match=f"^{message}$"):
        FinSemigroup.from_supports(z, supports, values)


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
            assert (uf.label[a] == uf.label[b]) == (b in block[a])


COMPOSITION_CASES = ([(n, full_transformation_monoid) for n in range(4)]
                     + [(n, symmetric_inverse_monoid) for n in range(5)])


@pytest.mark.parametrize("n,build", COMPOSITION_CASES,
                         ids=[f"{n}-{build.__name__}" for n, build in COMPOSITION_CASES])
def test_composition_table_matches_compose(build, n):
    """The table built through the columns of the maps against `compose`,
    which builds and validates each composite map, looked up by index; on
    zero points every composite is the empty map."""
    s, maps = build(n)
    index = {m: i for i, m in enumerate(maps)}
    assert s.table == tuple(tuple(index[compose(f, g)] for g in maps) for f in maps)


SMALLEST_TABLES = [  # (n, build, table, identity, the maps' value tuples)
    (0, full_transformation_monoid, ((0,),), 0, [()]),
    (1, full_transformation_monoid, ((0,),), 0, [(0,)]),
    (0, symmetric_inverse_monoid, ((0,),), 0, [()]),
    (1, symmetric_inverse_monoid, ((0, 0), (0, 1)), 1, [(None,), (0,)]),
]


@pytest.mark.parametrize("n,build,table,identity,values", SMALLEST_TABLES,
                         ids=[f"{case[0]}-{case[1].__name__}" for case in SMALLEST_TABLES])
def test_smallest_monoid_tables_are_pinned(n, build, table, identity, values):
    s, maps = build(n)
    assert (s.table, s.identity, [m.map for m in maps]) == (table, identity, values)


@pytest.mark.parametrize("maps", [
    [Transformation(3, (1, 2, 0)), Transformation(3, (0, 1, 2))],  # misses the square
    [PartialPerm(2, (1, None)), PartialPerm(2, (0, 1))],            # misses the empty map
    [Transformation(2, (0, 0)), Transformation(2, (1, 0))],         # misses (1, 1)
], ids=["cycle", "partial", "constant"])
def test_composition_table_refuses_a_set_not_closed(maps):
    index = {m.map: i for i, m in enumerate(maps)}
    assert any(compose(f, g).map not in index for f in maps for g in maps)
    with pytest.raises(DomainError, match="^not closed under composition$"):
        composition_table(maps)


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
