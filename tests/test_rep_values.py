"""RepresentationMap's reading rule and law check against the rules they
replaced.

A representation into NN or IN reads each image once, as its values on the
window: a window map must have the representation's window and gives its
map, and a lazy image is read with eval and must stay in the window.  It
checks injectivity, the homomorphism law (x)(fa*fb) = ((x)fa)fb and the
separating opens on those values, and a finite target's images on their
component tuples.  The law is checked on the pairs (a, g) with g in a
generating set of the source, and on every pair only when one of those
fails.  The older rules, restated here, built the composite for every pair
instead: `compose(fa, fb) == want` for window maps,
`agree_on_window(Compose(fa, fb), want, window)` for lazy maps and the
target's table for finite images, with injectivity keyed on a window map
itself or on a lazy map's window values.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import Compose, pp_from_pairs
from semitop import embed
from semitop.core import FinSemigroup, _greedy_generators, inverse_structure
from semitop.embed import (FINITE, RepresentationMap, cayley_right_regular,
                           clifford_product_embed, separating_opens, wagner_preston)
from semitop.errors import EvaluationError, KindError, TheoremViolationError
from semitop.semigroups import (commutative_inverse_monoid_catalog, symmetric_group,
                                symmetric_inverse_monoid)
from semitop.transforms import (
    IN,
    NN,
    U_ATOM,
    UNDEFINED,
    W_DOM,
    BasicOpen,
    FiniteTable,
    Identity,
    LazyMap,
    PartialPerm,
    Transformation,
    agree_on_window,
    compose,
    lazy_extend,
)

CAP = 12  # elements per drawn source; one map on five points generates at most 6


def composite_rule(source, images, window, target=None):
    """The older checks: None when the map passes, else the message."""
    seen = {}
    for i, img in enumerate(images):
        if isinstance(img, LazyMap):
            key = tuple(img.eval(x) for x in range(window))
        elif isinstance(img, int):
            key = img
        else:
            key = (type(img).__name__, img.window, img.map)
        if key in seen:
            return f"not injective: elements {seen[key]} and {i} share an image"
        seen[key] = i
    for a in range(source.n):
        for b in range(source.n):
            fa, fb, want = images[a], images[b], images[source.table[a][b]]
            if isinstance(fa, LazyMap):
                ok = agree_on_window(Compose(fa, fb), want, window)
            elif isinstance(fa, int):
                ok = target.table[fa][fb] == want
            else:
                ok = compose(fa, fb) == want
            if not ok:
                return f"homomorphism fails at ({a}, {b})"
    return None


def spy_on_gather(monkeypatch):
    """Every read of a _gather reader, as (positions, sequence read)."""
    reads = []
    real = embed._gather

    def gather(positions):
        positions = tuple(positions)
        read = real(positions)
        return lambda seq: reads.append((positions, seq)) or read(seq)

    monkeypatch.setattr(embed, "_gather", gather)
    return reads


def separating_opens_by_evaluation(rep):
    """The single-atom opens at the first window point where each pair of
    images differs, every image evaluated afresh."""
    def value(img, x):
        return img.eval(x) if isinstance(img, LazyMap) else img.map[x]

    def atom_open(img, x):
        v = value(img, x)
        if rep.space == NN:
            return BasicOpen(NN, ((x, v),))
        return BasicOpen(IN, ((W_DOM, x),) if v is None else ((U_ATOM, x, v),))

    out = set()
    for i, fi in enumerate(rep.images):
        for fj in rep.images[i + 1:]:
            x = next(x for x in range(rep.window) if value(fi, x) != value(fj, x))
            out.update((atom_open(fi, x), atom_open(fj, x)))
    return tuple(sorted(out, key=lambda b: (len(b.atoms), str(b.atoms))))


def _then(f, g):
    return tuple(None if v is None else g[v] for v in f)


def semigroup_of(elems):
    """The semigroup of value maps closed under _then, in the given order."""
    return FinSemigroup(tuple(tuple(elems.index(_then(f, g)) for g in elems) for f in elems))


@st.composite
def value_maps(draw, kind, span):
    if kind == "partial":
        perm = draw(st.permutations(range(span)))
        holes = draw(st.lists(st.booleans(), min_size=span, max_size=span))
        return tuple(None if h else v for v, h in zip(perm, holes))
    point = st.integers(0, span - 1)
    value = point if kind == "transformation" else st.none() | point
    return tuple(draw(st.lists(value, min_size=span, max_size=span)))


def closure(gens):
    """The semigroup the value maps generate under _then, or a list of more
    than CAP of its elements."""
    elems = list(dict.fromkeys(gens))
    for f in elems:  # grows while it is read
        for g in list(elems):
            for h in (_then(f, g), _then(g, f)):
                if h not in elems:
                    elems.append(h)
        if len(elems) > CAP:
            break
    return elems


@st.composite
def representations(draw):
    """The semigroup two drawn maps generate (the first alone when the two
    generate more than CAP elements), represented by its own maps, with one
    image's values sometimes redrawn.  Lazy maps act on a span past the
    window, fixing every point beyond it, so their values on the window may
    leave it."""
    kind = draw(st.sampled_from(("transformation", "partial", "lazy")))
    window = draw(st.integers(1, 3))
    span = window + (draw(st.integers(0, 2)) if kind == "lazy" else 0)
    drawn = draw(st.lists(value_maps(kind, span), min_size=1, max_size=2))
    elems = closure(drawn)
    if len(elems) > CAP:
        elems = closure(drawn[:1])
    source = semigroup_of(elems)
    if draw(st.booleans()):
        elems[draw(st.integers(0, len(elems) - 1))] = draw(value_maps(kind, span))
    if kind == "transformation":
        images, space = tuple(Transformation(span, e) for e in elems), NN
    elif kind == "partial":
        images, space = tuple(PartialPerm(span, e) for e in elems), IN
    else:
        images = tuple(FiniteTable(tuple(enumerate(e)), Identity()) for e in elems)
        space = draw(st.sampled_from((NN, IN)))
    past = any(v is not None and v >= window for e in elems for v in e[:window])
    return kind, past, source, images, space, window


def test_value_law_matches_the_composite_rule():
    """Values that stay in the window get the composite rule's verdict and
    message; a lazy image whose values leave the window is refused."""
    seen = set()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(representations())
    def check(case):
        kind, past, source, images, space, window = case
        try:
            rep = RepresentationMap(source=source, images=images, space=space, window=window)
        except EvaluationError as e:
            assert past and str(e) == f"a lazy image leaves the {window}-point window"
            seen.add((kind, "refused"))
            return
        except TheoremViolationError as e:
            got = str(e)
        else:
            got = None
            assert separating_opens(rep) == separating_opens_by_evaluation(rep)
        assert not past and got == composite_rule(source, images, window)
        seen.add((kind, got is None))

    check()
    for kind in ("transformation", "partial", "lazy"):
        assert (kind, True) in seen and (kind, False) in seen, kind
    assert ("lazy", "refused") in seen


@st.composite
def window_map_representations(draw):
    """The semigroup of one or two drawn window maps on 0 to 4 points,
    represented by its own maps, with one image sometimes redrawn.  The
    window they are read on is sometimes one point longer, or up to two
    shorter."""
    kind = draw(st.sampled_from(("transformation", "partial")))
    span = draw(st.integers(0, 4))
    window = max(0, span + draw(st.integers(-2, 1)))
    maps = st.just(()) if span == 0 else value_maps(kind, span)
    drawn = draw(st.lists(maps, min_size=1, max_size=2))
    elems = closure(drawn)
    if len(elems) > CAP:
        elems = closure(drawn[:1])
    source = semigroup_of(elems)
    if draw(st.booleans()):
        elems[draw(st.integers(0, len(elems) - 1))] = draw(maps)
    if kind == "transformation":
        images, space = tuple(Transformation(span, e) for e in elems), NN
    else:
        images, space = tuple(PartialPerm(span, e) for e in elems), IN
    return kind, span, source, images, space, window


def test_generator_verdict_matches_the_composite_rule(monkeypatch):
    """A window map read on its own window gets the composite rule's verdict
    and message, and a pass reads the generator pairs only; windows of zero
    and one point read fewer than two positions per lookup.  A window map
    read on any other window is refused."""
    seen = set()
    reads = spy_on_gather(monkeypatch)

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(window_map_representations())
    def check(case):
        kind, span, source, images, space, window = case
        reads.clear()
        try:
            RepresentationMap(source=source, images=images, space=space, window=window)
        except EvaluationError as e:
            assert window != span
            assert str(e) == f"a window map on {span} points is read on a {window}-point window"
            seen.add((kind, "longer" if window > span else "shorter"))
            return
        except TheoremViolationError as e:
            got = str(e)
        else:
            got = None
            assert len(reads) == source.n * len(source.generators)
        assert window == span and got == composite_rule(source, images, window)
        seen.add((kind, got is None or got[:4]))
        seen.add((kind, window, got is None))

    check()
    for kind in ("transformation", "partial"):
        for verdict in (True, "homo", "not ", "longer", "shorter"):
            assert (kind, verdict) in seen, (kind, verdict)
        assert (kind, 0, True) in seen and (kind, 1, True) in seen, kind


def test_window_closed_values_check_the_generator_pairs_only(monkeypatch):
    """The reader built from the values of each element a reads the
    hole-padded values of each generator g once, and no other pair."""
    i3, _ = symmetric_inverse_monoid(3)
    gens = _greedy_generators(i3.table)
    reads = spy_on_gather(monkeypatch)
    rep = cayley_right_regular(i3)  # a monoid: no holes, so positions are values
    element = {vals: a for a, vals in enumerate(rep.values)}
    generator = {rep.values[g] + (None,): g for g in gens}
    pairs = [(element[positions], generator[seq]) for positions, seq in reads]
    assert len(pairs) == i3.n * len(gens) == 34 * 4
    assert set(pairs) == {(a, g) for a in range(i3.n) for g in gens}


def test_window_closed_holes_need_no_scan(monkeypatch):
    """A hole reads position -1 of each padded tuple, so the Wagner-Preston
    images of I3, most of them partial, pass on the generator pairs alone."""
    rep = wagner_preston(inverse_structure(symmetric_inverse_monoid(3)[0]))
    assert sum(None in vals for vals in rep.values) == 34 - 6  # all but S3
    reads = spy_on_gather(monkeypatch)
    RepresentationMap(source=rep.source, images=rep.images, space=IN, window=rep.window)
    assert len(reads) == 34 * len(rep.source.generators)


def test_the_reading_rule_reads_each_kind_of_image():
    """A window map's values are its map; a lazy image is read with eval on
    the window, and a hole reads None."""
    t = Transformation(3, (2, 0, 1))
    cycle = [t.map, _then(t.map, t.map), (0, 1, 2)]
    rep = RepresentationMap(source=semigroup_of(cycle),
                            images=[Transformation(3, c) for c in cycle], space=NN, window=3)
    assert rep.values[0] is rep.images[0].map and rep.values[0] == (2, 0, 1)
    lazy = RepresentationMap(source=rep.source, images=map(lazy_extend, rep.images),
                             space=NN, window=5)
    assert lazy.values[0] == (2, 0, 1, 3, 4)
    p = pp_from_pairs(3, [(1, 2)])  # p*p is nowhere defined
    pair = [p.map, _then(p.map, p.map)]
    partial = RepresentationMap(source=semigroup_of(pair),
                                images=[PartialPerm(3, v) for v in pair], space=IN, window=3)
    assert partial.values == ((None, 2, None), (None, None, None))
    lazy = RepresentationMap(source=partial.source, images=map(lazy_extend, partial.images),
                             space=IN, window=5)
    assert lazy.values[0] == (None, 2, None, None, None)
    trivial = FinSemigroup(((0,),))
    assert RepresentationMap(source=trivial, images=[UNDEFINED], space=IN,
                             window=8).values == ((None,) * 8,)
    with pytest.raises(KindError, match="a tuple image does not live in NN"):
        RepresentationMap(source=trivial, images=[(0,)], space=NN, window=1)


def test_the_reading_rule_refuses_values_past_the_window():
    """S3 permuting three points: window maps read on a window of four (the
    maps' window is shorter) or of two (longer), and lazy maps read on a
    window of two, whose values reach 2.  Each refusal is one line."""
    s3 = symmetric_group(3)
    perms = [tuple(int(c) for c in name) for name in s3.names]
    maps = tuple(Transformation(3, p) for p in perms)
    for window in (4, 2):
        with pytest.raises(EvaluationError) as refused:
            RepresentationMap(source=s3, images=maps, space=NN, window=window)
        assert str(refused.value) == f"a window map on 3 points is read on a {window}-point window"
    lazy = tuple(FiniteTable(tuple(enumerate(p)), Identity()) for p in perms)
    with pytest.raises(EvaluationError, match="^a lazy image leaves the 2-point window$"):
        RepresentationMap(source=s3, images=lazy, space=NN, window=2)
    assert RepresentationMap(source=s3, images=lazy, space=NN, window=3).values == tuple(perms)


def test_clifford_products_match_the_composite_rule():
    """The Clifford product packing of each commutative inverse monoid
    passes, and every copy with one image redrawn (to another element's
    image, or to the next index of the target) gets the composite rule's
    verdict and message."""
    verdicts = set()
    for name, s in commutative_inverse_monoid_catalog():
        rep = clifford_product_embed(inverse_structure(s))
        assert composite_rule(s, rep.images, None, rep.target) is None, name
        size = rep.target.n
        for a in range(s.n):
            for drawn in sorted({*rep.images, (rep.images[a] + 1) % size} - {rep.images[a]}):
                images = rep.images[:a] + (drawn,) + rep.images[a + 1:]
                want = composite_rule(s, images, None, rep.target)
                try:
                    RepresentationMap(source=s, images=images, space=FINITE, target=rep.target)
                except TheoremViolationError as e:
                    got = str(e)
                else:
                    got = None
                assert got == want, (name, a, drawn)
                verdicts.add(got is None or got[:4])
    assert {"homo", "not "} <= verdicts
