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

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import Compose
from semitop.core import FinSemigroup, _greedy_generators
from semitop.embed import RepresentationMap, cayley_right_regular, separating_opens
from semitop.errors import TheoremViolationError
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
    """The semigroup the value maps generate under _then."""
    elems = list(dict.fromkeys(gens))
    for f in elems:  # grows while it is read
        for g in list(elems):
            for h in (_then(f, g), _then(g, f)):
                if h not in elems:
                    elems.append(h)
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


def count_composes(monkeypatch):
    calls = []
    real = RepresentationMap._composes
    monkeypatch.setattr(RepresentationMap, "_composes",
                        lambda self, a, b: calls.append((a, b)) or real(self, a, b))
    return calls


def test_window_closed_values_check_the_generator_pairs_only(monkeypatch):
    i3, _ = symmetric_inverse_monoid(3)
    gens = _greedy_generators(i3.table)
    calls = count_composes(monkeypatch)
    cayley_right_regular(i3)
    assert len(calls) == i3.n * len(gens) == 34 * 4
    assert set(calls) == {(a, g) for a in range(i3.n) for g in gens}


def test_values_past_the_window_check_every_pair(monkeypatch):
    """S3 permuting three points, read on a window of two: values reach 2."""
    s3 = symmetric_group(3)
    perms = [tuple(int(c) for c in name) for name in s3.names]
    images = tuple(FiniteTable(tuple(enumerate(p)), Identity()) for p in perms)
    calls = count_composes(monkeypatch)
    RepresentationMap(source=s3, images=images, space=NN, window=2)
    assert len(calls) == s3.n ** 2
