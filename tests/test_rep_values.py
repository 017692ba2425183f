"""RepresentationMap's checks on value tuples against the rules they replaced.

A representation into NN or IN evaluates each image once on its window and
checks injectivity, the homomorphism law (x)(fa*fb) = ((x)fa)fb and the
separating opens on those values.  When the values stay in the window the
law is checked on the pairs (a, g) with g in a generating set of the
source only.  The older rules, restated here, built the composite for
every pair instead: `compose(fa, fb) == want` for window maps and
`agree_on_window(Compose(fa, fb), want, window)` for lazy maps, with
injectivity keyed on a window map itself or on a lazy map's window values.
"""

import itertools
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import Compose
from semitop import embed
from semitop.core import FinSemigroup, _greedy_generators, inverse_structure
from semitop.embed import (RepresentationMap, cayley_right_regular, separating_opens,
                           wagner_preston)
from semitop.errors import EvaluationError, TheoremViolationError
from semitop.semigroups import symmetric_group, symmetric_inverse_monoid
from semitop.transforms import (
    IN,
    NN,
    U_ATOM,
    W_DOM,
    BasicOpen,
    FiniteTable,
    Identity,
    LazyMap,
    PartialPerm,
    Transformation,
    _value_at,
    agree_on_window,
    compose,
)

CAP = 12  # elements per drawn source; one map on five points generates at most 6


def composite_rule(source, images, window):
    """The older checks: None when the map passes, else the message."""
    seen = {}
    for i, img in enumerate(images):
        if isinstance(img, LazyMap):
            key = tuple(img.eval(x) for x in range(window))
        else:
            key = (type(img).__name__, img.window, img.map)
        if key in seen:
            return f"not injective: elements {seen[key]} and {i} share an image"
        seen[key] = i
    for a in range(source.n):
        for b in range(source.n):
            fa, fb, want = images[a], images[b], images[source.mul(a, b)]
            if isinstance(fa, LazyMap):
                ok = agree_on_window(Compose(fa, fb), want, window)
            else:
                ok = compose(fa, fb) == want
            if not ok:
                return f"homomorphism fails at ({a}, {b})"
    return None


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
    source = FinSemigroup(tuple(tuple(elems.index(_then(f, g)) for g in elems)
                                for f in elems))
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
    seen = set()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(representations())
    def check(case):
        kind, past, source, images, space, window = case
        want = composite_rule(source, images, window)
        try:
            rep = RepresentationMap(source=source, images=images, space=space, window=window)
        except TheoremViolationError as e:
            got = str(e)
        else:
            got = None
            assert separating_opens(rep) == separating_opens_by_evaluation(rep)
        assert got == want
        seen.add((kind, want is None, past))

    check()
    for kind in ("transformation", "partial", "lazy"):
        assert (kind, True, False) in seen and (kind, False, False) in seen, kind
    assert ("lazy", True, True) in seen and ("lazy", False, True) in seen


def scan_with_composes(source, images, space, window):
    """The verdict of `RepresentationMap._composes`, the reference rule, on
    every pair in order, over values read point by point: None, or the
    message of the first failure."""
    try:
        values = tuple(tuple(_value_at(img, x) for x in range(window)) for img in images)
    except EvaluationError as e:
        return str(e)
    seen = {}
    for i, v in enumerate(values):
        if seen.setdefault(v, i) != i:
            return f"not injective: elements {seen[v]} and {i} share an image"
    rep = SimpleNamespace(source=source, images=images, space=space, window=window,
                          values=values)
    for a, b in itertools.product(range(source.n), repeat=2):
        if not RepresentationMap._composes(rep, a, b):
            return f"homomorphism fails at ({a}, {b})"
    return None


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
    source = FinSemigroup(tuple(tuple(elems.index(_then(f, g)) for g in elems)
                                for f in elems))
    if draw(st.booleans()):
        elems[draw(st.integers(0, len(elems) - 1))] = draw(maps)
    if kind == "transformation":
        images, space = tuple(Transformation(span, e) for e in elems), NN
    else:
        images, space = tuple(PartialPerm(span, e) for e in elems), IN
    closed = all(v is None or v < window for e in elems for v in e[:window])
    return kind, closed, source, images, space, window


def test_generator_verdict_matches_the_scan_with_composes():
    """The lookup of the generator pairs decides window-closed values and
    the ordered scan names the least failing pair, so every verdict and
    message is the one `_composes` gives on all pairs; windows of zero and
    one point read fewer than two positions per lookup."""
    seen = set()

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(window_map_representations())
    def check(case):
        kind, closed, source, images, space, window = case
        want = scan_with_composes(source, images, space, window)
        try:
            RepresentationMap(source=source, images=images, space=space, window=window)
        except (EvaluationError, TheoremViolationError) as e:
            got = str(e)
        else:
            got = None
        assert got == want
        seen.add((kind, closed, want is None or want[:4]))
        seen.add((kind, window, want is None))

    check()
    for kind in ("transformation", "partial"):
        for closed in (True, False):
            assert (kind, closed, True) in seen and (kind, closed, "homo") in seen, (kind, closed)
        assert (kind, 0, True) in seen and (kind, 1, True) in seen, kind
    assert ("transformation", True, "tran") in seen  # a window past the maps


def count_composes(monkeypatch):
    calls = []
    real = RepresentationMap._composes
    monkeypatch.setattr(RepresentationMap, "_composes",
                        lambda self, a, b: calls.append((a, b)) or real(self, a, b))
    return calls


def test_window_closed_values_check_the_generator_pairs_only(monkeypatch):
    """No pair goes through _composes: the reader built from the values of
    each element a reads the hole-padded values of each generator g once."""
    i3, _ = symmetric_inverse_monoid(3)
    gens = _greedy_generators(i3.table)
    calls = count_composes(monkeypatch)
    reads = []
    real = embed._gather

    def gather(positions):
        positions = tuple(positions)
        read = real(positions)
        return lambda seq: reads.append((positions, seq)) or read(seq)

    monkeypatch.setattr(embed, "_gather", gather)
    rep = cayley_right_regular(i3)  # a monoid: no holes, so positions are values
    element = {vals: a for a, vals in enumerate(rep.values)}
    generator = {rep.values[g] + (None,): g for g in gens}
    pairs = [(element[positions], generator[seq]) for positions, seq in reads]
    assert calls == []
    assert len(pairs) == i3.n * len(gens) == 34 * 4
    assert set(pairs) == {(a, g) for a in range(i3.n) for g in gens}


def test_window_closed_holes_need_no_scan(monkeypatch):
    """A hole reads position -1 of each padded tuple, so the Wagner-Preston
    images of I3, most of them partial, pass with no pair scanned."""
    calls = count_composes(monkeypatch)
    rep = wagner_preston(inverse_structure(symmetric_inverse_monoid(3)[0]))
    assert calls == [] and sum(None in vals for vals in rep.values) == 34 - 6  # all but S3


def test_values_past_the_window_check_every_pair(monkeypatch):
    """S3 permuting three points, read on a window of two: values reach 2."""
    s3 = symmetric_group(3)
    perms = [tuple(int(c) for c in name) for name in s3.names]
    images = tuple(FiniteTable(tuple(enumerate(p)), Identity()) for p in perms)
    calls = count_composes(monkeypatch)
    RepresentationMap(source=s3, images=images, space=NN, window=2)
    assert len(calls) == s3.n ** 2
