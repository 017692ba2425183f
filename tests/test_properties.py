"""Randomized invariants over the core engines."""

import contextlib
import functools
import io
import itertools
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (Compose, congruences_by_filter, domain, invert, left_stable, right_stable,
                     same_class_pairs, u2_at_point_by_replay, u_at_point_by_replay)
from semitop.core import (
    RIGHT,
    TWO_SIDED,
    Congruence,
    FinSemigroup,
    _close,
    canonical_classes,
    check_associativity,
    congruence_closure,
    congruence_join,
    congruence_meet,
    enumerate_congruences,
    _greedy_generators,
)
from semitop.errors import KindError, MalformedTableError
from semitop.semigroups import (
    brandt_semigroup,
    chain_semilattice,
    embedding_catalog,
    full_transformation_monoid,
    left_zero,
    right_zero,
    signed_antichain_with_zero,
    symmetric_group,
    symmetric_inverse_monoid,
)
from semitop.topo import (TopSpec, u2_check, u_check, TopSemigroup, up_set, continuity_check,
                         mask_of, points_of)
from semitop.transforms import (
    PartialPerm,
    agree_on_window,
    compose,
    lazy_extend,
    pair_index,
    unpair_index,
)

SMALL = [(name, s) for name, s in embedding_catalog() if s.n <= 7]


def meet_semilattice(masks):
    """Close a set of bitmasks under AND; multiplication is intersection."""
    elems = set(masks)
    frontier = list(elems)
    while frontier:
        a = frontier.pop()
        for b in list(elems):
            c = a & b
            if c not in elems:
                elems.add(c)
                frontier.append(c)
    order = sorted(elems)
    pos = {m: i for i, m in enumerate(order)}
    table = tuple(tuple(pos[a & b] for b in order) for a in order)
    return FinSemigroup(table, name="meet")


semilattices = st.lists(st.integers(min_value=0, max_value=15), min_size=1,
                        max_size=4).map(meet_semilattice).filter(lambda s: s.n <= 6)


@st.composite
def semigroup_and_pairs(draw):
    name, s = draw(st.sampled_from(SMALL))
    k = draw(st.integers(min_value=0, max_value=4))
    pairs = [(draw(st.integers(0, s.n - 1)), draw(st.integers(0, s.n - 1)))
             for _ in range(k)]
    kind = draw(st.sampled_from([RIGHT, TWO_SIDED]))
    return s, pairs, kind


@given(semigroup_and_pairs())
def test_closure_is_idempotent(data):
    s, pairs, kind = data
    rho = congruence_closure(s, pairs, kind)
    merges = [(blk[0], x) for blk in rho.blocks() for x in blk[1:]]
    assert congruence_closure(s, merges, kind).classes == rho.classes


@functools.cache
def _lattice_by_filter(name, kind):
    table = dict(SMALL)[name].table
    return congruences_by_filter(table, two_sided=kind == TWO_SIDED)


@given(st.sampled_from([name for name, _ in SMALL]), st.sampled_from([RIGHT, TWO_SIDED]),
       st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=4))
def test_close_is_the_least_congruence_over_the_seeds(name, kind, pairs):
    """The unchecked engine against the oracles: its classes are stable for
    the kind, and they refine every filtered congruence holding the seeds."""
    s = dict(SMALL)[name]
    seeds = [(a % s.n, b % s.n) for a, b in pairs]
    classes, _ = _close(s, seeds, kind)
    assert right_stable(s.table, classes)
    assert kind == RIGHT or left_stable(s.table, classes)
    holding = [vec for vec in _lattice_by_filter(name, kind)
               if all(vec[a] == vec[b] for a, b in seeds)]
    assert classes in holding
    for vec in holding:
        assert all(vec[a] == vec[b] for a in range(s.n) for b in range(s.n)
                   if classes[a] == classes[b])


@given(semigroup_and_pairs(), st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=3))
def test_closure_monotone_in_seeds(data, extra):
    s, pairs, kind = data
    extra = [(a % s.n, b % s.n) for a, b in extra]
    small = congruence_closure(s, pairs, kind)
    big = congruence_closure(s, pairs + extra, kind)
    for a in range(s.n):
        for b in range(s.n):
            if small.classes[a] == small.classes[b]:
                assert big.classes[a] == big.classes[b]


@given(semigroup_and_pairs(), st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=3))
def test_meet_join_bracket_their_arguments(data, extra):
    s, pairs, kind = data
    extra = [(a % s.n, b % s.n) for a, b in extra]
    rho = congruence_closure(s, pairs, kind)
    tau = congruence_closure(s, extra, kind)
    lo = congruence_meet(rho, tau)
    hi = congruence_join(rho, tau)
    for a in range(s.n):
        for b in range(s.n):
            if lo.classes[a] == lo.classes[b]:
                assert rho.classes[a] == rho.classes[b] and tau.classes[a] == tau.classes[b]
            if rho.classes[a] == rho.classes[b] or tau.classes[a] == tau.classes[b]:
                assert hi.classes[a] == hi.classes[b]
    assert hi == congruence_closure(s, same_class_pairs(rho.classes) + same_class_pairs(tau.classes), kind)


@given(st.sampled_from(SMALL), st.lists(st.integers(0, 6), min_size=1, max_size=7))
def test_congruence_constructor_agrees_with_stability_oracle(item, vec):
    name, s = item
    vec = canonical_classes(tuple(vec[i % len(vec)] for i in range(s.n)))
    try:
        Congruence(s, RIGHT, vec)
        accepted = True
    except (KindError, MalformedTableError):
        accepted = False
    assert accepted == right_stable(s.table, vec)


@settings(max_examples=25)
@given(semilattices)
def test_enumeration_matches_partition_filter_on_random_semilattices(s):
    got = [r.classes for r in enumerate_congruences(s, RIGHT)]
    assert sorted(got) == sorted(congruences_by_filter(s.table))


@settings(max_examples=40)
@given(semilattices, st.lists(st.integers(0, 63), max_size=3))
def test_u_checks_match_replay_on_random_spaces(s, gens):
    full = (1 << s.n) - 1
    top = TopSpec.generated(s.n, [g & full for g in gens])
    if not continuity_check(s, top)[0]:
        return
    ts = TopSemigroup(s, top)
    for x in range(s.n):
        u_ok, _ = u_check(ts, x)
        u2_ok, _ = u2_check(ts, x)
        assert u_ok == u_at_point_by_replay(s.table, top.opens, x)
        assert u2_ok == u2_at_point_by_replay(s.table, top.opens, x)
        assert u_ok or not u2_ok


@settings(max_examples=40)
@given(semilattices)
def test_discrete_semilattices_pass_u2_everywhere(s):
    ts = TopSemigroup(s, TopSpec.discrete(s.n))
    for x in range(s.n):
        ok, (y, ideal) = u2_check(ts, x)
        assert ok
        assert not (ideal >> x) & 1
        assert ((1 << s.n) - 1 ^ ideal) & ~up_set(s, y) == 0


# -- window maps ---------------------------------------------------------------

partial_perms = st.integers(1, 5).flatmap(
    lambda n: st.permutations(range(n)).flatmap(
        lambda perm: st.lists(st.booleans(), min_size=n, max_size=n).map(
            lambda keep: PartialPerm(n, tuple(
                v if k else None for v, k in zip(perm, keep))))))


@st.composite
def pperm_pairs(draw):
    n = draw(st.integers(1, 5))

    def one():
        perm = draw(st.permutations(range(n)))
        keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        return PartialPerm(n, tuple(v if k else None for v, k in zip(perm, keep)))

    return one(), one()


@given(pperm_pairs())
def test_partial_composition_shrinks_support(pair):
    f, g = pair
    fg = compose(f, g)
    assert set(domain(fg)) <= set(domain(f))
    assert set(fg.map) - {None} <= set(g.map)


@given(pperm_pairs())
def test_undefined_extension_respects_composition(pair):
    f, g = pair
    pointwise = Compose(lazy_extend(f), lazy_extend(g))
    assert agree_on_window(lazy_extend(compose(f, g)), pointwise, f.window + 6)


@given(partial_perms)
def test_double_invert_and_sandwich(f):
    assert invert(invert(f)) == f
    assert compose(compose(f, invert(f)), f) == f


@given(st.integers(0, 40), st.integers(0, 40))
def test_pairing_bijection(i, j):
    assert unpair_index(pair_index(i, j)) == (i, j)


@given(st.integers(0, 2000))
def test_unpairing_section(x):
    i, j = unpair_index(x)
    assert pair_index(i, j) == x


# -- certificates ---------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["exB", "odd_chain", "brandt", "luke", "right_simple_zero:Z2"]),
       st.integers(4, 9))
def test_certificate_docs_replay_bit_exact(family, window):
    from semitop.obstruct import (certificate_doc, certificate_from_doc,
                                  escape_certificate, get_instance, verify_certificate)
    inst = get_instance(family, window)
    cert = escape_certificate(inst)
    doc = certificate_doc(cert)
    assert json.dumps(doc, sort_keys=True) == json.dumps(
        certificate_doc(certificate_from_doc(json.loads(json.dumps(doc)))), sort_keys=True)
    assert verify_certificate(inst, certificate_from_doc(doc)) == (True, None)


@functools.cache
def _honest_certificate(family):
    from semitop.obstruct import certificate_doc, escape_certificate, get_instance
    inst = get_instance(family, 5)
    return inst, json.dumps(certificate_doc(escape_certificate(inst)))


def _index_slots(doc, br):
    """(container, key) of every carrier index in a branch, plus the limit."""
    slots = [(br["neighborhood"], i) for i in range(len(br["neighborhood"]))]
    slots += [(br["classes"], i) for i in range(len(br["classes"]))]
    for step in br["chain"]:
        slots += [(step[0], 0), (step[0], 1), (step, 1), (step[2], 0), (step[2], 1)]
    return slots + [(br, "witness"), (doc, "limit")]


def _chain_derives(inst, br):
    """Slow reference for a branch whose recorded partition is the honest
    one: every step translates a pair already identified, by the recorded
    multiplier, and the identifications generate the recorded partition."""
    t = inst.presentation.base.table
    label = list(range(len(br["classes"])))

    def merge(x, y):
        new, old = label[x], label[y]
        label[:] = [new if v == old else v for v in label]

    for z in br["neighborhood"]:
        merge(inst.limit, z)
    for (a, b), m, (da, db) in br["chain"]:
        if label[a] != label[b] or (t[a][m], t[b][m]) != (da, db):
            return False
        merge(da, db)
    return canonical_classes(label) == tuple(br["classes"])


def _retype(v, to):
    """v as a JSON value of another type; a container becomes a scalar."""
    if to == "float":
        return float(v) if isinstance(v, int) else 0.0
    return {"str": str, "bool": bool, "null": lambda v: None, "list": lambda v: [v]}[to](v)


MUTATIONS = ("index", "retype", "header", "branches", "partition", "target", "steps")


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["brandt", "exB"]), st.sampled_from(MUTATIONS), st.data())
def test_tampered_certificate_docs_are_rejected(family, mutation, data):
    """Every mutation but "steps" makes the document invalid, so it must be
    refused by the loader or the verifier.  Dropped, duplicated or moved
    chain steps may still derive the honest partition (many honest steps
    merge nothing new), so there the verdict must match a slow reference."""
    from semitop.cli import main
    from semitop.errors import LoadError
    from semitop.obstruct import certificate_from_doc, verify_certificate
    inst, text = _honest_certificate(family)
    doc = json.loads(text)
    branches = doc["branches"]
    br = data.draw(st.sampled_from(branches))
    n = len(br["classes"])
    chain = br["chain"]
    if mutation == "index":
        box, key = data.draw(st.sampled_from(_index_slots(doc, br)))
        box[key] += data.draw(st.sampled_from((-n, n)))
    elif mutation == "retype":
        box, key = data.draw(st.sampled_from(
            _index_slots(doc, br) + [(br, "target"), (br, "chain"), (br, "classes"),
                                     (br, "neighborhood"), (doc, "window"), (doc, "guard"),
                                     (doc, "branches"), (doc, "schema")]))
        box[key] = _retype(box[key], data.draw(st.sampled_from(["str", "float", "bool", "null",
                                                                "list"])))
    elif mutation == "header":
        key = data.draw(st.sampled_from(["schema", "instance", "window", "guard", "limit",
                                         "kind", "branches"]))
        if data.draw(st.booleans()):
            del doc[key]
        elif key in ("schema", "window", "guard", "limit"):
            doc[key] += data.draw(st.sampled_from((-1, 1)))
        else:
            doc[key] = {"instance": "luke" if family == "brandt" else "odd_chain",
                        "kind": "no_obstruction", "branches": []}[key]
    elif mutation == "branches":
        i, j = data.draw(st.lists(st.integers(0, len(branches) - 1), min_size=2, max_size=2,
                                  unique=True))
        how = data.draw(st.sampled_from(["drop", "duplicate", "swap"]))
        if how == "drop":
            del branches[i]
        elif how == "duplicate":
            branches.insert(j, branches[i])
        else:
            branches[i], branches[j] = branches[j], branches[i]
    elif mutation == "partition" and data.draw(st.booleans()):
        i = data.draw(st.integers(0, n - 1))
        br["classes"][i] = data.draw(st.sampled_from([c for c in range(n) if c != br["classes"][i]]))
    elif mutation == "partition":  # one class more than the carrier, and an index into it
        box, key = data.draw(st.sampled_from(_index_slots(doc, br)[:-1]))
        br["classes"].append(n)
        box[key] = n
    elif mutation == "target":
        br["target"] = len(inst.targets) + data.draw(st.integers(0, 3))
    else:
        i = data.draw(st.integers(0, len(chain) - 1))
        j = data.draw(st.integers(0, len(chain) - 1))
        how = data.draw(st.sampled_from(["drop", "duplicate", "move"]))
        step = chain[i] if how == "duplicate" else chain.pop(i)
        if how != "drop":
            chain.insert(j, step)
    try:
        ok, why = verify_certificate(inst, certificate_from_doc(doc))
    except LoadError:
        ok, why = False, "load"
    assert ok == (why is None)
    assert ok == (mutation == "steps" and _chain_derives(inst, br))
    if not ok and data.draw(st.integers(0, 9)) == 0:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cert.json"
            path.write_text(json.dumps(doc))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["obstruct", family, "-w", "5", "--replay", str(path)])
        assert code == 1
        assert (out.getvalue() + err.getvalue()).count("\n") == 1


MASKS_600 = st.one_of(
    st.integers(min_value=0, max_value=(1 << 600) - 1),
    st.sets(st.integers(min_value=0, max_value=599), max_size=40).map(
        lambda pts: sum(1 << p for p in pts)),
)


@given(MASKS_600)
def test_points_of_matches_bit_by_bit_reference(mask):
    reference = tuple(i for i in range(mask.bit_length()) if (mask >> i) & 1)
    assert points_of(mask) == reference
    assert mask_of(points_of(mask)) == mask


def least_violating_triple(table):
    """The slow definition: scan every triple (a, b, c) in lexicographic order."""
    n = len(table)
    for a, b, c in itertools.product(range(n), repeat=3):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            return a, b, c
    return None


def greedy_generators_by_fixpoint(table, closure):
    """Scan by decreasing number of distinct row entries, ties by index;
    each element outside the closure of the earlier generators becomes one.
    The closure is recomputed as a fixpoint of `closure(table, closed, gens)`,
    the set of new products it admits."""
    gens, closed = [], set()
    n = len(table)
    for x in sorted(range(n), key=lambda a: (-len(set(table[a])), a)):
        if x in closed:
            continue
        gens.append(x)
        closed.add(x)
        while more := closure(table, closed, gens) - closed:
            closed |= more
    return gens


def right_cayley(table, closed, gens):
    """The products x*g of a reached element x and a generator g."""
    return {table[a][g] for a in closed for g in gens}


def magma(table, closed, gens):
    """The products a*b of any two reached elements."""
    return {table[a][b] for a in closed for b in closed}


def test_associativity_matches_triple_scan_on_every_magma_up_to_three():
    checked = 0
    for n in (1, 2, 3):
        for entries in itertools.product(range(n), repeat=n * n):
            table = [entries[i * n:(i + 1) * n] for i in range(n)]
            triple = least_violating_triple(table)
            assert check_associativity(table) == (triple is None, triple)
            assert _greedy_generators(table) == greedy_generators_by_fixpoint(table, right_cayley)
            checked += 1
    assert checked == 1 + 16 + 19683


ASSOCIATIVE_BASES = [
    brandt_semigroup(4),
    full_transformation_monoid(3)[0],
    symmetric_inverse_monoid(2)[0],
    symmetric_inverse_monoid(3)[0],
    symmetric_group(3),
    chain_semilattice(5),
    signed_antichain_with_zero(4),
    left_zero(4),  # every row constant: |gS| = 1
    right_zero(4),  # every row the identity: gS is the carrier
]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ASSOCIATIVE_BASES), st.data())
def test_associativity_matches_triple_scan_on_relabelled_and_mutated_tables(base, data):
    n = base.n
    perm = data.draw(st.permutations(range(n)))
    table = [[0] * n for _ in range(n)]
    for a, b in itertools.product(range(n), repeat=2):
        table[perm[a]][perm[b]] = perm[base.table[a][b]]
    if data.draw(st.booleans()):
        a, b, v = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        table[a][b] = v
    triple = least_violating_triple(table)
    assert check_associativity(table) == (triple is None, triple)
    assert _greedy_generators(table) == greedy_generators_by_fixpoint(table, right_cayley)
    if triple is None:
        assert _greedy_generators(table) == greedy_generators_by_fixpoint(table, magma)


@pytest.mark.parametrize("n", range(1, 6))
def test_associativity_decides_left_zero_bands_and_their_mutations(n):
    """Every row of a left-zero band is constant, so |gS| = 1 and Light's
    test reads one column through the one-position gather; every one-entry
    mutation must get the triple scan's verdict and witness.  An empty
    table has no elements to check and is refused."""
    with pytest.raises(MalformedTableError, match="^table is empty$"):
        check_associativity([])
    assert check_associativity([[0]]) == (True, None)
    band = [list(row) for row in left_zero(n).table]
    assert check_associativity(band) == (True, None)
    for a, b, v in itertools.product(range(n), repeat=3):
        table = [row[:] for row in band]
        table[a][b] = v
        triple = least_violating_triple(table)
        assert check_associativity(table) == (triple is None, triple)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.data())
def test_associativity_matches_triple_scan_on_mutated_brandt_tables(w, data):
    """One entry of a Brandt table redrawn: Light's test runs on the columns
    gS (|gS| = w + 1 of w^2 + 1), and must both accept and reject exactly."""
    table = [list(row) for row in brandt_semigroup(w).table]
    n = len(table)
    a, b, v = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    table[a][b] = v
    triple = least_violating_triple(table)
    assert check_associativity(table) == (triple is None, triple)


def test_right_cayley_and_magma_closures_agree_on_semigroups():
    """On an associative table every product is a left-bracketed product of
    generators, so both closures give the same generator list."""
    from semitop.obstruct import get_instance
    ids = ["exB", "odd_chain", "right_simple_zero:Z2", "right_simple_zero:R2",
           "right_simple_zero:S3", "brandt", "luke"]
    tables = [get_instance(i + suffix, w).presentation.base.table
              for i in ids for suffix in ("", "-discrete") for w in range(4, 13)]
    tables += [symmetric_inverse_monoid(4)[0].table, full_transformation_monoid(4)[0].table]
    for table in tables:
        assert _greedy_generators(table) == greedy_generators_by_fixpoint(table, magma)


def test_rank_ordered_generating_sets():
    """Scanning by decreasing |aS| puts the elements high in the R-order first:
    I4 needs 5 generators (84 in index order), the Brandt carrier 2w - 1."""
    from semitop.obstruct import get_instance
    assert len(_greedy_generators(symmetric_inverse_monoid(4)[0].table)) == 5
    for w in range(4, 13):
        assert len(_greedy_generators(brandt_semigroup(w).table)) == 2 * w - 1
        luke = get_instance("luke", w).presentation.base
        assert len(_greedy_generators(luke.table)) == 2 * w - 1
