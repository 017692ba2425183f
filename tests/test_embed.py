"""Regular representations and their topological audits."""

import dataclasses
import itertools
import json
from types import SimpleNamespace

import pytest

from oracles import law_replay
from semitop import embed
from semitop.core import (
    NotInverse,
    idempotents,
    inverse_structure,
    is_clifford,
)
from semitop.embed import (
    FINITE,
    RepresentationMap,
    adjoin_embed,
    bundled_group_fixtures,
    cayley_right_regular,
    clifford_decompose,
    clifford_product_embed,
    embcl_map,
    embcl_rep,
    group_restriction,
    preserves_inversion,
    product_embed,
    representation_doc,
    semil_iso,
    separating_opens,
    shared_image_laws,
    transformation_group,
    verify_embedding,
    wagner_preston,
)
from semitop.errors import DomainError, KindError, SizeError, TheoremViolationError
from semitop.semigroups import (
    PRODUCT_BOUND,
    FinProduct,
    chain_semilattice,
    cyclic_group,
    embedding_catalog,
    full_transformation_monoid,
    left_zero,
    right_zero,
    signed_antichain_with_zero,
    symmetric_inverse_monoid,
)
from semitop.topo import TopSpec, bundled_top_semigroups
from semitop.transforms import (
    IN,
    NN,
    U_ATOM,
    BasicOpen,
    PartialPerm,
    Transformation,
    compose,
    identity_pp,
    lazy_eval,
    pair_index,
    pp_from_pairs,
)

CATALOG = dict(embedding_catalog())


def test_cayley_monoid_acts_on_its_own_carrier():
    rep = cayley_right_regular(cyclic_group(2))
    assert rep.window == 2
    assert [t.map for t in rep.images] == [(0, 1), (1, 0)]
    assert rep.images[rep.source.identity].map == (0, 1)


def test_cayley_adjoins_a_tag_point_without_identity():
    # left zeros all act as the identity on the carrier; the tag separates
    l2 = cayley_right_regular(left_zero(2))
    assert l2.window == 3
    assert [t.map for t in l2.images] == [(0, 1, 0), (0, 1, 1)]
    # right zeros become distinct constants
    r2 = cayley_right_regular(right_zero(2))
    assert [t.map for t in r2.images] == [(0, 0, 0), (1, 1, 1)]


def test_cayley_catalog_verifies_and_audits():
    for name, s in embedding_catalog():
        rep = cayley_right_regular(s)
        assert rep.verification == "exhaustive"
        report = verify_embedding(rep)
        assert report.ok, f"{name}: {report}"


def test_wagner_preston_values_and_inversion():
    for name in ["Z2", "S3", "I2", "B2", "chain4", "signed_antichain4"]:
        s = CATALOG[name]
        inv = inverse_structure(s)
        assert not isinstance(inv, NotInverse)
        rep = wagner_preston(inv)
        assert preserves_inversion(rep, inv)
        assert verify_embedding(rep).ok
        for e in idempotents(s):
            img = rep.images[e]
            assert all(v is None or v == x for x, v in enumerate(img.map))


def test_wagner_preston_domains_shrink_along_the_order():
    s = CATALOG["I2"]
    inv = inverse_structure(s)
    rep = wagner_preston(inv)
    t = s.table
    for a in range(s.n):
        dom = set(rep.images[a].dom())
        e = t[a][inv.inv[a]]
        assert dom == {x for x in range(s.n) if t[x][e] == x}


def test_embcl_map_values():
    e = embcl_map(pp_from_pairs(3, [(0, 2)]))
    assert [lazy_eval(e, x) for x in range(5)] == [0, 3, 0, 0, 0]
    empty = embcl_map(pp_from_pairs(2, []))
    assert [lazy_eval(empty, x) for x in range(4)] == [0, 0, 0, 0]
    ident = embcl_map(identity_pp(2))
    assert [lazy_eval(ident, x) for x in range(4)] == [0, 1, 2, 0]


def test_embcl_rep_verifies_small():
    rep = embcl_rep(2)
    assert rep.source.n == 7
    assert rep.verification == "exhaustive"
    assert verify_embedding(rep).ok


def test_adjoin_embed_values_and_audit():
    base = cayley_right_regular(chain_semilattice(2))
    one, zero = adjoin_embed(base)
    assert one.source.n == 3 and zero.source.n == 3
    assert [lazy_eval(one.images[0], x) for x in range(6)] == [0, 1, 0, 3, 4, 3]
    assert [lazy_eval(one.images[-1], x) for x in range(6)] == [0, 1, 2, 3, 4, 5]
    assert [lazy_eval(zero.images[-1], x) for x in range(6)] == [1, 1, 1, 1, 1, 1]
    assert verify_embedding(one).ok and verify_embedding(zero).ok
    with pytest.raises(KindError):
        adjoin_embed(wagner_preston(inverse_structure(CATALOG["I2"])))


def test_product_embed_acts_blockwise():
    z2 = cayley_right_regular(cyclic_group(2))
    c2 = cayley_right_regular(chain_semilattice(2))
    prod = product_embed([z2, c2])
    assert prod.source.n == 4 and prod.space == NN
    enc = prod.source.encode([1, 0])
    img = prod.images[enc]
    assert [lazy_eval(img, pair_index(0, j)) for j in range(2)] == [
        pair_index(0, 1), pair_index(0, 0)]
    assert [lazy_eval(img, pair_index(1, j)) for j in range(2)] == [
        pair_index(1, 0), pair_index(1, 0)]
    assert lazy_eval(img, pair_index(2, 0)) == pair_index(2, 0)
    assert verify_embedding(prod).ok
    both = prod.source.encode([z2.source.identity, c2.source.identity])
    assert all(lazy_eval(prod.images[both], x) == x for x in range(prod.window))


def test_clifford_decompose_structure():
    sa4 = CATALOG["signed_antichain4"]
    dec = clifford_decompose(inverse_structure(sa4))
    assert dec.idem == (0, 2, 4, 6, 8)
    assert dec.components == ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9))
    assert dec.semilattice.n == 5
    with pytest.raises(DomainError):
        clifford_decompose(inverse_structure(CATALOG["B2"]))


def test_clifford_product_embed_small():
    sa4 = CATALOG["signed_antichain4"]
    rep = clifford_product_embed(inverse_structure(sa4))
    assert rep.space == FINITE
    assert len(rep.target.factors) == 6 and rep.target.n == 1215
    assert rep.verification == "exhaustive"
    z3 = inverse_structure(cyclic_group(3))
    assert is_clifford(z3)
    # trivial semilattice times the zero-extended group
    assert clifford_product_embed(z3).target.n == 1 * 4


def test_shared_image_laws_match_replay():
    for name, maps in bundled_group_fixtures():
        unit_idx = transformation_group(maps)[1]
        unit = maps[unit_idx]
        assert unit.map != tuple(range(unit.window)), name
        laws = shared_image_laws(maps)
        oracle = law_replay(maps)
        assert oracle is not None
        assert len(laws) == 6
        for law, ok, wit in laws:
            assert ok and wit is None, (name, law, wit)
            assert oracle[law] is True


def test_transformation_group_rejections():
    with pytest.raises(DomainError):
        transformation_group(())
    with pytest.raises(DomainError):
        transformation_group((Transformation(2, (0, 1)), Transformation(3, (0, 1, 2))))
    with pytest.raises(DomainError):
        transformation_group((Transformation(2, (0, 1)), Transformation(2, (0, 1))))
    with pytest.raises(DomainError):  # not closed: (0,1),(1,0) need each other
        transformation_group((Transformation(3, (1, 0, 2)), Transformation(3, (2, 1, 0))))
    with pytest.raises(DomainError):  # no neutral element
        transformation_group((Transformation(2, (0, 0)), Transformation(2, (1, 1))))


def test_group_restriction_values():
    maps = dict(bundled_group_fixtures())["Z2_shared"]
    gr = group_restriction(maps)
    assert gr.image == (0, 1) and gr.unit == 0
    assert [p.map for p in gr.rep.images] == [(0, 1, None, None), (1, 0, None, None)]
    assert gr.rep.space == IN
    assert verify_embedding(gr.rep).ok


def test_semil_iso_is_a_min_isomorphism():
    for n in (2, 3):
        s, pperms = symmetric_inverse_monoid(n)
        es = idempotents(s)
        vecs = {e: semil_iso(pperms[e]) for e in es}
        assert sorted(vecs.values()) == sorted(
            tuple((m >> i) & 1 for i in range(n)) for m in range(1 << n))
        for e in es:
            for f in es:
                meet = semil_iso(pperms[s.mul(e, f)])
                assert meet == tuple(min(a, b) for a, b in zip(vecs[e], vecs[f]))
    with pytest.raises(DomainError):
        semil_iso(pp_from_pairs(2, [(0, 1)]))


def test_separating_opens_values_and_kind():
    rep = cayley_right_regular(chain_semilattice(2))
    seps = separating_opens(rep)
    assert set(seps) == {BasicOpen(NN, ((1, 0),)), BasicOpen(NN, ((1, 1),))}
    wp = wagner_preston(inverse_structure(CATALOG["I2"]))
    for b in separating_opens(wp):
        assert b.space == IN
    fin = clifford_product_embed(inverse_structure(cyclic_group(2)))
    with pytest.raises(KindError):
        separating_opens(fin)


def test_verify_embedding_flags_non_open_preimage():
    ts = dict(bundled_top_semigroups())["chain2_upper"]
    rep = cayley_right_regular(ts.sem)
    report = verify_embedding(rep, ts)
    assert not report.ok
    assert (BasicOpen(NN, ((1, 0),)), 0b01) in report.preimage_failures
    assert report.relative_failures == ()


def test_verify_embedding_flags_missing_trace(monkeypatch):
    # the separating opens split every pair of images, so only a thinner
    # family leaves a source neighborhood without a trace
    rep = cayley_right_regular(cyclic_group(2))
    monkeypatch.setattr(embed, "separating_opens", lambda _rep: (BasicOpen(NN, ((0, 0),)),))
    report = verify_embedding(rep, None)
    assert not report.ok
    assert report.preimage_failures == ()
    assert 0b10 in report.relative_failures


def test_verify_embedding_carrier_mismatch():
    rep = cayley_right_regular(cyclic_group(2))
    with pytest.raises(KindError):
        verify_embedding(rep, TopSpec.discrete(5))


def test_representation_map_rejections():
    z2 = cyclic_group(2)
    with pytest.raises(TheoremViolationError):  # constant images collide
        RepresentationMap(source=z2, images=(Transformation(2, (0, 0)),) * 2,
                          space=NN, window=2)
    with pytest.raises(TheoremViolationError):  # injective but no homomorphism
        RepresentationMap(source=z2,
                          images=(Transformation(2, (0, 1)), Transformation(2, (0, 0))),
                          space=NN, window=2)
    with pytest.raises(KindError):
        RepresentationMap(source=z2, images=(0, 1), space="XX")
    with pytest.raises(DomainError):
        RepresentationMap(source=z2, images=(0, 1), space=FINITE)
    with pytest.raises(KindError):  # the law is checked on generator pairs only
        RepresentationMap(source=SimpleNamespace(n=2, mul=z2.mul), images=(0, 1),
                          space=FINITE, target=z2)
    with pytest.raises(KindError):  # a finite target must compose associatively
        RepresentationMap(source=z2, images=(0, 1), space=FINITE,
                          target=SimpleNamespace(n=2, mul=z2.mul))
    with pytest.raises(KindError):  # ... and be a product, read by components
        RepresentationMap(source=z2, images=(0, 1), space=FINITE, target=z2)
    with pytest.raises(KindError, match="PartialPerm"):  # partial maps are not total
        RepresentationMap(source=z2, images=(PartialPerm(2, (0, 1)), PartialPerm(2, (1, 0))),
                          space=NN, window=2)
    with pytest.raises(KindError, match="Transformation"):  # total maps are not partial
        RepresentationMap(source=z2, images=(Transformation(2, (0, 1)),
                                             Transformation(2, (1, 0))),
                          space=IN, window=2)


def test_representation_doc_shape():
    rep = cayley_right_regular(cyclic_group(2))
    doc = json.loads(json.dumps(representation_doc(rep)))
    assert doc["schema"] == 1 and doc["space"] == NN
    assert doc["images"][0] == {"kind": "transformation", "window": 2, "map": [0, 1]}
    assert doc["verification"] == "exhaustive"


def test_large_product_is_checked_exhaustively():
    factors = [cayley_right_regular(CATALOG[n]) for n in ("S3", "I2", "chain3")]
    rep = product_embed(factors)
    assert rep.source.n == 6 * 7 * 3
    assert rep.verification == "exhaustive"
    assert verify_embedding(rep).ok
    assert "sample" not in {f.name for f in dataclasses.fields(RepresentationMap)}
    assert not hasattr(FinProduct, "mul")


def test_product_embed_refuses_a_product_past_the_bound():
    t3 = cayley_right_regular(full_transformation_monoid(3)[0])
    assert 27 ** 2 <= PRODUCT_BOUND < 27 ** 3
    assert product_embed([t3, t3]).verification == "exhaustive"
    with pytest.raises(SizeError):
        product_embed([t3, t3, t3])


def test_product_embed_needs_one_space():
    rz2 = cayley_right_regular(right_zero(2))  # NN
    wp_i2 = wagner_preston(inverse_structure(CATALOG["I2"]))  # IN
    for reps in ([rz2, wp_i2], [wp_i2, rz2]):
        with pytest.raises(KindError):  # a total map is no partial bijection
            product_embed(reps)
    wp_c2 = wagner_preston(inverse_structure(chain_semilattice(2)))
    rep = product_embed([wp_i2, wp_c2])
    assert rep.space == IN and rep.source.n == 14
    assert verify_embedding(rep).ok


def product_rows_by_decoding(prod):
    """The product table cell by cell: decode both indices, multiply the
    components in the factor tables, encode the result."""
    def mul(a, b):
        return prod.encode(tuple(f.table[x][y] for f, x, y in
                                 zip(prod.factors, prod.decode(a), prod.decode(b))))
    return tuple(tuple(mul(a, b) for b in range(prod.n)) for a in range(prod.n))


def test_product_table_matches_componentwise_multiplication():
    z2, l2, r2 = cyclic_group(2), left_zero(2), right_zero(2)
    for factors in ((z2,), (CATALOG["S3"], CATALOG["I2"]),
                    (chain_semilattice(3), FinProduct((z2, l2)), r2),
                    (FinProduct((CATALOG["B2"],)), z2)):
        prod = FinProduct(factors)
        # indices count the component tuples in lexicographic order
        parts = list(itertools.product(*(range(f.n) for f in factors)))
        assert [prod.decode(x) for x in range(prod.n)] == parts
        assert [prod.encode(p) for p in parts] == list(range(prod.n))
        assert prod.table == product_rows_by_decoding(prod), factors
    assert FinProduct((z2,)).table == z2.table


def test_clifford_product_check_is_exhaustive_and_names_the_least_failing_pair():
    s = signed_antichain_with_zero(40)
    rep = clifford_product_embed(inverse_structure(s))
    assert rep.source.n == 82 and rep.verification == "exhaustive"
    target = rep.target
    images = list(rep.images)
    images[5], images[8] = images[8], images[5]

    def composes(a, b):
        parts = zip(target.factors, target.decode(images[a]), target.decode(images[b]))
        return target.encode(tuple(f.table[x][y] for f, x, y in parts)) == images[s.mul(a, b)]

    a, b = next((a, b) for a in range(s.n) for b in range(s.n) if not composes(a, b))
    with pytest.raises(TheoremViolationError, match=rf"fails at \({a}, {b}\)$"):
        RepresentationMap(source=s, images=images, space=FINITE, target=target)
    with pytest.raises(DomainError):  # an index past the target is no element
        RepresentationMap(source=s, images=[target.n] + images[1:], space=FINITE,
                          target=target)


def test_idempotent_images_are_idempotent():
    for name, s in embedding_catalog():
        rep = cayley_right_regular(s)
        for e in idempotents(s):
            img = rep.images[e]
            assert compose(img, img) == img
