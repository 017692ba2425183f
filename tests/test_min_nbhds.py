"""The minimal-neighborhood vector against the scans it replaced.

A finite space is determined by the smallest open set around each point, so
`TopSpec` and `TruncatedPresentation` keep that vector (`nbhds`) and every
topological check reads it.  Each test here restates the older, literal rule
(open-family scans, the pairwise intersection/union fixpoint and axioms, the
per-family openness rule, the 2^n subset scan, the open-by-open embedding
audit) and requires the same answer.
"""

import itertools
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    atom_open,
    audit_by_dispatch,
    basic_open_member,
    indiscrete,
    min_nbhd_mask,
    separating_atoms_by_all_pairs,
)
from semitop.core import NotInverse, inverse_structure
from semitop.embed import (
    RepresentationMap,
    adjoin_embed,
    cayley_right_regular,
    embcl_rep,
    product_embed,
    verify_embedding,
    wagner_preston,
)
from semitop.errors import DomainError
from semitop.obstruct import get_instance
from semitop.semigroups import (
    chain_semilattice,
    cyclic_group,
    embedding_catalog,
    symmetric_inverse_monoid,
)
from semitop.topo import (
    TopSemigroup,
    TopSpec,
    TruncatedPresentation,
    bundled_top_semigroups,
    is_topology,
)
from semitop.transforms import IN, NN, BasicOpen, FiniteTable, Identity, lazy_extend

FIXTURES = bundled_top_semigroups()
CATALOG = dict(embedding_catalog())
SMALL_CATALOG = [iid + suffix for iid in ("exB", "odd_chain", "right_simple_zero:Z2",
                                          "right_simple_zero:R2")
                 for suffix in ("", "-discrete")]


def generated_by_fixpoint(n, subbasis):
    """Close the subbasis and the carrier under pairwise intersection and
    union until nothing new appears, then add the empty set."""
    full = (1 << n) - 1
    sets = {full} | {s & full for s in subbasis}
    grew = True
    while grew:
        grew = False
        for a in list(sets):
            for b in list(sets):
                for c in (a & b, a | b):
                    if c not in sets:
                        sets.add(c)
                        grew = True
    sets.add(0)
    return frozenset(sets)


def open_by_family_rule(families, mask):
    """Every limit point inside the set keeps some listed neighborhood
    inside it."""
    return all(not (mask >> p) & 1 or any(v & ~mask == 0 for v in fam) for p, fam in families)


def opens_by_subset_scan(pres):
    return frozenset(m for m in range(1 << pres.base.n) if open_by_family_rule(pres.families, m))


subbases = st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=5)))


def test_nbhds_match_the_open_family_scan_on_fixtures():
    for name, ts in FIXTURES:
        top = ts.top
        assert top.nbhds == tuple(min_nbhd_mask(top.opens, top.n, x) for x in range(top.n)), name
    for iid in SMALL_CATALOG:
        pres = get_instance(iid, 4).presentation
        spec = TopSpec.generated(pres.base.n, pres.nbhds)
        assert spec.nbhds == tuple(min_nbhd_mask(spec.opens, spec.n, x) for x in range(spec.n))


@given(subbases)
def test_nbhds_match_the_open_family_scan_on_drawn_topologies(case):
    n, subbasis = case
    top = TopSpec(n, generated_by_fixpoint(n, subbasis))
    assert top.nbhds == tuple(min_nbhd_mask(top.opens, n, x) for x in range(n))


@given(subbases)
def test_generated_matches_the_pairwise_fixpoint(case):
    n, subbasis = case
    assert TopSpec.generated(n, subbasis).opens == generated_by_fixpoint(n, subbasis)


def is_topology_pairwise(n, opens):
    """The axioms read literally: subsets of the carrier, the empty set, the
    carrier, and the union and intersection of every pair of members."""
    full = (1 << n) - 1
    opens = set(opens)
    return (all(0 <= o <= full for o in opens) and {0, full} <= opens
            and all(a | b in opens and a & b in opens for a in opens for b in opens))


def test_is_topology_matches_the_pairwise_axioms_on_every_small_family():
    for n in range(5):
        for bits in range(1 << (1 << n)):
            fam = [m for m in range(1 << n) if bits >> m & 1]
            assert is_topology(n, fam)[0] == is_topology_pairwise(n, fam), (n, fam)


@given(subbases, st.integers(0, (1 << 6) - 1))
def test_is_topology_matches_the_pairwise_axioms_on_drawn_families(case, toggled):
    n, subbasis = case
    # a topology with one subset added or removed, which may break an axiom
    opens = generated_by_fixpoint(n, subbasis) ^ {toggled & ((1 << n) - 1)}
    ok, why = is_topology(n, opens)
    assert ok == is_topology_pairwise(n, opens)
    assert ok or any(w in why for w in ("empty", "carrier", "union", "intersection"))


@pytest.mark.parametrize("instance_id", SMALL_CATALOG)
def test_presentation_opens_match_the_family_rule_on_the_catalog(instance_id):
    pres = get_instance(instance_id, 4).presentation
    want = opens_by_subset_scan(pres)
    assert all(pres.is_open(m) == (m in want) for m in range(1 << pres.base.n))
    assert TopSpec.generated(pres.base.n, pres.nbhds).opens == want


def _descending(point, raw, extra):
    """A descending family through `point`, ending in `raw` plus the point."""
    fam = [raw | 1 << point]
    for r in extra:
        fam.insert(0, fam[0] | r)
    return tuple(fam)


@st.composite
def two_limit_families(draw):
    """A carrier size, two limit points and a descending family for each;
    the listed neighborhoods need not be open."""
    n = draw(st.integers(2, 7))
    p, q = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
    mask = st.integers(0, (1 << n) - 1)
    fams = tuple((x, _descending(x, draw(mask), draw(st.lists(mask, max_size=2)))) for x in (p, q))
    return n, (p, q), fams


def _presentation(n, limits, fams):
    return TruncatedPresentation(chain_semilattice(n), n, 0, limits, fams, (1 << n) - 1,
                                 strict=False)


@settings(max_examples=200)
@given(two_limit_families())
def test_presentations_accept_exactly_open_neighborhoods(case):
    n, limits, fams = case
    listed_open = all(open_by_family_rule(fams, v) for _, fam in fams for v in fam)
    try:
        _presentation(n, limits, fams)
        accepted = True
    except DomainError:
        accepted = False
    assert accepted == listed_open


@st.composite
def open_two_limit_presentations(draw):
    """Two-limit presentations whose listed neighborhoods are open: each is
    grown until it holds the last neighborhood of every limit point in it."""
    n, limits, fams = draw(two_limit_families())
    last = {x: fam[-1] for x, fam in fams}

    def hull(v):
        while True:
            grown = v
            for x in limits:
                if (grown >> x) & 1:
                    grown |= last[x]
            if grown == v:
                return v
            v = grown

    # each hull is the least superset closed under the drawn last
    # neighborhoods, so one pass makes the last neighborhoods open
    last = {x: hull(v) for x, v in last.items()}
    fams = tuple((x, tuple(hull(v | last[x]) for v in fam)) for x, fam in fams)
    return _presentation(n, limits, fams)


@settings(max_examples=200)
@given(open_two_limit_presentations())
def test_presentation_opens_match_the_family_rule_on_drawn_presentations(pres):
    want = opens_by_subset_scan(pres)
    assert all(pres.is_open(m) == (m in want) for m in range(1 << pres.base.n))
    spec = TopSpec.generated(pres.base.n, pres.nbhds)
    assert spec.opens == want
    assert spec.nbhds == pres.nbhds


AUDIT_CASES = [(name, cayley_right_regular(s), None) for name, s in embedding_catalog()]
_WP_I2 = wagner_preston(inverse_structure(symmetric_inverse_monoid(2)[0]))
AUDIT_CASES += [("wp_I2", _WP_I2, None)]
for _name, _ts in FIXTURES:
    AUDIT_CASES += [(_name, cayley_right_regular(_ts.sem), _ts),
                    (_name + "_spec", cayley_right_regular(_ts.sem), _ts.top)]
# lazy images: FiniteTable over AffineParity with Identity and Const (adjoin),
# PairBlock (product), FiniteTable over Const (embcl), and FiniteTable over
# the undefined map, whose holes inside the window give W atoms
_LAZY = [(f"adjoin{k}_{name}", r)
         for name in ("Z2", "R2")
         for k, r in zip("10", adjoin_embed(cayley_right_regular(CATALOG[name])))]
_LAZY += [("product_Z2xchain2", product_embed(
              [cayley_right_regular(CATALOG["Z2"]), cayley_right_regular(CATALOG["chain2"])])),
          ("embcl_I2", embcl_rep(2)),
          ("lazy_wp_I2", RepresentationMap(
              source=_WP_I2.source, images=tuple(map(lazy_extend, _WP_I2.images)),
              space=IN, window=_WP_I2.window + 1))]
for _name, _rep in _LAZY:  # the indiscrete source makes most traces fail to be open
    AUDIT_CASES += [(_name, _rep, None),
                    (_name + "_indiscrete", _rep, indiscrete(_rep.source.n))]


def assert_witness_replays(rep, top, witness):
    """The audit's witness against the definitions: x is the least point whose
    minimal neighborhood is not {x}, y the least other point in it, and the
    atom's preimage holds x but not y, so it is not open."""
    if isinstance(top, TopSemigroup):
        top = top.top
    n = rep.source.n
    nbhds = [min_nbhd_mask(top.opens, n, p) for p in range(n)]
    x, y, (k, v) = witness
    assert all(nbhds[p] == 1 << p for p in range(x)) and nbhds[x] != 1 << x
    assert y == min(p for p in range(n) if p != x and nbhds[x] >> p & 1)
    preimage = sum(1 << i for i, img in enumerate(rep.images)
                   if basic_open_member(img, atom_open(rep.space, k, v)))
    assert preimage >> x & 1 and not preimage >> y & 1
    assert preimage not in top.opens


@pytest.mark.parametrize("name,rep,source", AUDIT_CASES, ids=[c[0] for c in AUDIT_CASES])
def test_embedding_audit_matches_the_reference(name, rep, source):
    report = verify_embedding(rep, source)
    assert report.ok == audit_by_dispatch(rep, source)[0]
    if report.ok:
        assert report.witness is None
    else:
        assert_witness_replays(rep, source, report.witness)


def test_embedding_audit_matches_the_reference_on_drawn_topologies():
    """Drawn topologies on every Cayley and Wagner-Preston representation of
    the embedding catalog, in NN and IN.  A quarter of the subbases hold
    every singleton (discrete), half hold about half of the singletons, and
    each adds up to three random sets."""
    reps = [cayley_right_regular(s) for s in CATALOG.values()]
    reps += [wagner_preston(inv) for s in CATALOG.values()
             if not isinstance(inv := inverse_structure(s), NotInverse)]
    assert len(reps) == 25 and {rep.space for rep in reps} == {NN, IN}
    rng = random.Random(26)
    passed = failed = 0
    for rep in reps:
        n = rep.source.n
        for trial in range(64):
            keep = (1.0, 0.5, 0.0, 0.5)[trial % 4]
            subbasis = [1 << x for x in range(n) if rng.random() < keep]
            subbasis += [rng.getrandbits(n) for _ in range(rng.randint(0, 3))]
            top = TopSpec.generated(n, subbasis)
            report = verify_embedding(rep, top)
            assert report.ok == audit_by_dispatch(rep, top)[0], (rep.name, subbasis)
            if report.ok:
                passed += 1
            else:
                failed += 1
                assert_witness_replays(rep, top, report.witness)
    assert passed + failed == 1600 and passed >= 400 and failed >= 800


def test_reference_audit_flags_a_missing_trace_the_separating_opens_rule_out():
    """The state the relative-openness pass looked for: a family of target
    opens too thin to tell two images apart leaves a source neighborhood
    without a trace.  The separating atoms split every pair of images, which
    is the premise that makes it unreachable."""
    rep = cayley_right_regular(cyclic_group(2))
    thin = (BasicOpen(NN, ((0, 0),)),)
    ok, bad_pre, bad_rel = audit_by_dispatch(rep, None, thin)
    assert not ok and bad_pre == () and 0b10 in bad_rel
    assert audit_by_dispatch(rep, None) == (True, (), ())
    assert verify_embedding(rep).ok


def test_reference_audit_passes_every_family_of_distinct_value_tuples():
    """Injectivity alone passes the reference audit against the discrete
    source: every preimage is open, and tuples u != v that first differ at x
    are told apart by the separating open (x, u[x]), whose trace holds u but
    not v.  The images are read as lazy tables of the drawn tuples."""
    rng = random.Random(23)
    for trial in range(2400):
        space = (NN, IN)[trial % 2]
        window = rng.randint(1, 4)
        points = [*range(window)] + ([None] if space == IN else [])
        tuples = list(itertools.product(points, repeat=window))
        values = tuple(rng.sample(tuples, rng.randint(1, min(8, len(tuples)))))
        stand_in = SimpleNamespace(
            space=space, values=values, source=SimpleNamespace(n=len(values)),
            images=tuple(FiniteTable(tuple(enumerate(vals)), Identity()) for vals in values))
        pairs = itertools.combinations(range(len(values)), 2)
        traces = [sum(1 << i for i, img in enumerate(stand_in.images)
                      if basic_open_member(img, atom_open(space, x, v)))
                  for x, v in separating_atoms_by_all_pairs(values)]
        assert all(any((t >> i & 1) != (t >> j & 1) for t in traces) for i, j in pairs)
        assert audit_by_dispatch(stand_in, None) == (True, (), ()), (space, values)
