"""Verified embeddings of finite semigroups into transformation windows, the
partial-bijection space, and product targets.

Every construction returns a RepresentationMap whose homomorphism and
injectivity properties were checked at build time; a violation raises
TheoremViolationError rather than producing a silently wrong map.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import getitem

from .core import (
    FinSemigroup,
    InverseStructure,
    _greedy_generators,
    adjoin_identity,
    adjoin_zero,
    is_clifford,
    maximal_subgroup,
    natural_order,
    subsemigroup,
)
from .errors import DomainError, KindError, TheoremViolationError
from .semigroups import FinProduct, composition_table, symmetric_inverse_monoid
from .topo import TopSemigroup, TopSpec, TruncatedPresentation, holds_nbhds, min_nbhds
from .transforms import (
    IN,
    NN,
    U_ATOM,
    W_DOM,
    AffineParity,
    BasicOpen,
    Const,
    FiniteTable,
    Identity,
    LazyMap,
    PairBlock,
    PartialPerm,
    Transformation,
    _value_at,
    compose,
    invert,
    lazy_extend_identity,
    lazy_extend_undefined,
    lazy_to_doc,
    pair_index,
)

FINITE = "finite"


@dataclass(frozen=True)
class RepresentationMap:
    """An injective homomorphism from a finite semigroup into a function
    space window (NN), the partial-bijection space (IN), or an abstract
    finite product (finite).

    The source must be a FinSemigroup or a FinProduct, whose table the
    checks read (a product past PRODUCT_BOUND elements raises SizeError
    before any image is evaluated), and a finite target a FinProduct.
    ``values`` is what the checks compare: each NN or IN image's values on
    ``window``, read as basic opens read them, or each finite image's
    component tuple in the target.

    When every value stays in the window (or is a hole, None), the value
    tuples compose as self-maps of a finite set, so the law on the pairs
    (a, g), g in a generating set of the source, gives it on all pairs by
    induction on the length of b as a product of generators; a finite
    target is a semigroup, so the same holds there.  Otherwise, or when
    that check fails, all pairs are scanned in order and the least failing
    one is reported.  Every check is exhaustive.
    """

    source: FinSemigroup | FinProduct
    images: tuple
    space: str
    window: int | None = None
    target: FinProduct | None = None
    name: str = ""
    values: tuple = field(init=False, repr=False, compare=False)
    verification = "exhaustive"
    # not a field: perfbench/tracer.py reads it to count embed.hom_pairs;
    # ROADMAP item 2 (the benchmark change) deletes it
    sample = 0

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        if not isinstance(self.source, (FinSemigroup, FinProduct)):
            raise KindError(f"a representation needs a semigroup source, not "
                            f"{type(self.source).__name__}")
        if self.space not in (NN, IN, FINITE):
            raise KindError(f"unknown target space {self.space!r}")
        n = self.source.n
        if len(self.images) != n:
            raise DomainError(f"{len(self.images)} images for {n} elements")
        if self.space == FINITE and self.target is None:
            raise DomainError("an abstract finite representation needs its target")
        if self.space == FINITE and not isinstance(self.target, FinProduct):
            raise KindError(f"a finite target must be a product, not "
                            f"{type(self.target).__name__}")
        if self.space != FINITE and self.window is None:
            raise DomainError("function-space images need an evaluation window")
        alien = {NN: PartialPerm, IN: Transformation}.get(self.space)
        if alien and any(isinstance(img, alien) for img in self.images):
            raise KindError(f"a {alien.__name__} image does not live in {self.space}")
        rows = self.source.table  # an oversized product refuses before any evaluation
        if self.space == FINITE:
            size = self.target.n
            if not all(type(img) is int and 0 <= img < size for img in self.images):
                raise DomainError(f"a finite image must index the {size}-element target")
            values = tuple(map(self.target.decode, self.images))
        else:
            values = tuple(tuple(_value_at(img, x) for x in range(self.window))
                           for img in self.images)
        object.__setattr__(self, "values", values)
        seen = {}
        for i, v in enumerate(values):
            j = seen.setdefault(v, i)
            if j != i:
                raise TheoremViolationError(
                    f"not injective: elements {j} and {i} share an image")
        # the generator pairs decide; the ordered scan names a witness
        pairs = itertools.product(range(n), repeat=2)
        win = self.window
        if self.space == FINITE or all(v is None or 0 <= v < win
                                       for vals in values for v in vals):
            gens = _greedy_generators(rows)
            if all(self._composes(a, g) for a in range(n) for g in gens):
                pairs = ()
        for a, b in pairs:
            if not self._composes(a, b):
                raise TheoremViolationError(f"homomorphism fails at ({a}, {b})")

    def _composes(self, a, b) -> bool:
        """In a finite target, the components of fa and fb multiply to those
        of f(a*b).  Otherwise (x)(fa*fb) = ((x)fa)fb at every window point
        x; fb is evaluated afresh only where fa leaves the window."""
        va, vb = self.values[a], self.values[b]
        want = self.values[self.source.table[a][b]]
        if self.space == FINITE:
            tables = self.target.factor_tables
            return tuple(map(getitem, map(getitem, tables, va), vb)) == want
        fb, win = self.images[b], self.window
        return tuple([None if v is None else vb[v] if 0 <= v < win else _value_at(fb, v)
                      for v in va]) == want


def representation_doc(rep: RepresentationMap) -> dict:
    imgs = []
    for img in rep.images:
        if isinstance(img, Transformation):
            imgs.append({"kind": "transformation", "window": img.window, "map": list(img.map)})
        elif isinstance(img, PartialPerm):
            imgs.append({"kind": "partial", "window": img.window, "map": list(img.map)})
        elif isinstance(img, LazyMap):
            imgs.append({"kind": "lazy", "map": lazy_to_doc(img)})
        else:
            imgs.append({"kind": "index", "value": img})
    return {
        "schema": 1,
        "name": rep.name,
        "space": rep.space,
        "window": rep.window,
        "source_size": rep.source.n,
        "source_name": getattr(rep.source, "name", ""),
        "verification": rep.verification,
        "images": imgs,
    }


def cayley_right_regular(s: FinSemigroup) -> RepresentationMap:
    """Right-regular action on the carrier.

    A declared identity already separates elements through its row, so
    monoids act on their own carrier and the identity goes to the identity
    transformation.  Otherwise one external point is adjoined and sent to
    the acting element, keeping the action faithful when table rows repeat
    (both elements of the two-point right-zero semigroup act identically on
    the carrier alone).
    """
    n = s.n
    if s.identity is not None:
        images = tuple(
            Transformation(n, tuple(s.mul(i, a) for i in range(n)))
            for a in range(n)
        )
        win = n
    else:
        images = tuple(
            Transformation(n + 1, tuple(s.mul(i, a) for i in range(n)) + (a,))
            for a in range(n)
        )
        win = n + 1
    return RepresentationMap(source=s, images=images, space=NN, window=win,
                             name=f"cayley_{s.name or n}")


def wagner_preston(inv: InverseStructure) -> RepresentationMap:
    """The classical faithful action of an inverse semigroup by partial
    bijections: a acts on {x : x*(a*a^-1) = x} by right multiplication."""
    n = inv.n
    t = inv.base.table
    images = []
    for a in range(n):
        e = t[a][inv.inv[a]]
        images.append(PartialPerm(n, tuple(
            t[x][a] if t[x][e] == x else None for x in range(n))))
    return RepresentationMap(source=inv.base, images=tuple(images), space=IN, window=n,
                             name=f"wp_{inv.base.name or n}")


def preserves_inversion(rep: RepresentationMap, inv: InverseStructure) -> bool:
    """Whether the image of a^-1 is always the converse partial bijection of
    the image of a."""
    return all(invert(rep.images[a]) == rep.images[inv.inv[a]] for a in range(inv.n))


def _as_lazy(img):
    if isinstance(img, Transformation):
        return lazy_extend_identity(img)
    if isinstance(img, PartialPerm):
        return lazy_extend_undefined(img)
    if isinstance(img, LazyMap):
        return img
    raise DomainError(f"cannot view {type(img).__name__} as a lazy map")


def product_embed(reps) -> RepresentationMap:
    """Join function-space representations of several factors along the
    pairing 2^i(2j+1)-1: factor i acts inside block i, blocks past the last
    factor stay pointwise fixed, so composition works blockwise.  All factors
    live in one space (a total map is no partial bijection), and the product
    of their sources has at most PRODUCT_BOUND elements."""
    reps = tuple(reps)
    if not reps:
        raise DomainError("need at least one factor")
    spaces = {r.space for r in reps}
    if len(spaces) > 1 or FINITE in spaces:
        raise KindError(f"factors must share one function space, not {sorted(spaces)}")
    (space,) = spaces
    prod = FinProduct(tuple(r.source for r in reps))
    inners = [tuple(_as_lazy(img) for img in r.images) for r in reps]
    wmax = max(r.window for r in reps)
    win = pair_index(len(reps) - 1, wmax - 1) + 2
    images = tuple(
        PairBlock(tuple(inners[i][p] for i, p in enumerate(prod.decode(x))))
        for x in range(prod.n)
    )
    return RepresentationMap(source=prod, images=images, space=space, window=win,
                             name="product_" + "x".join(
                                 getattr(r.source, "name", "?") or "?" for r in reps))


def adjoin_embed(rep: RepresentationMap) -> tuple[RepresentationMap, RepresentationMap]:
    """From a function-space representation of S, representations of S with
    an external identity and of S with an external zero.

    Each image t is re-seated on the doubled copy of the naturals (2q goes to
    twice the old value of q), the point 1 is fixed, and every other odd
    point is sent to 3.  The odd part is then a common trap: the constant-1
    map absorbs everything (the zero), while the genuine identity map stays
    distinct from all re-seated images because those crush 5 to 3.
    """
    if rep.space != NN:
        raise KindError("adjoining needs a function-space representation")
    s = rep.source
    if not isinstance(s, FinSemigroup):
        raise DomainError("adjoining needs a plain finite semigroup source")
    primed = tuple(
        FiniteTable(((1, 1),), AffineParity(2, ((0, _as_lazy(img), 0), (1, Const(1), 1))))
        for img in rep.images
    )
    win = max(8, 2 * rep.window + 2)
    with_one = RepresentationMap(
        source=adjoin_identity(s), images=primed + (Identity(),), space=NN,
        window=win, name=(rep.name or "rep") + "_adjoin1")
    with_zero = RepresentationMap(
        source=adjoin_zero(s), images=primed + (Const(1),), space=NN,
        window=win, name=(rep.name or "rep") + "_adjoin0")
    return with_one, with_zero


def embcl_map(g: PartialPerm) -> LazyMap:
    """A partial bijection as a total map: shift the graph up by one and send
    0 and every hole to 0.  Composition survives because 0 is a trap."""
    entries = ((0, 0),) + tuple((x + 1, v + 1) for x, v in g.graph())
    return FiniteTable(entries, Const(0))


def embcl_rep(n: int) -> RepresentationMap:
    """The whole symmetric inverse monoid on n points, pushed into the total
    function space through embcl_map."""
    source, pperms = symmetric_inverse_monoid(n)
    images = tuple(embcl_map(p) for p in pperms)
    return RepresentationMap(source=source, images=images, space=NN,
                             window=max(8, n + 2), name=f"embcl_I{n}")


# -- shared-image transformation groups ---------------------------------------

def transformation_group(maps, name=""):
    """Interpret a tuple of window transformations as a group: verify closure,
    locate the neutral element and all inverses, and return the abstract
    table together with unit index and inverse vector."""
    maps = tuple(maps)
    if not maps:
        raise DomainError("empty generator list")
    win = maps[0].window
    index = {}
    for i, m in enumerate(maps):
        if m.window != win:
            raise DomainError("mixed windows")
        if m.map in index:
            raise DomainError(f"element {i} repeats element {index[m.map]}")
        index[m.map] = i
    table = composition_table(maps)
    units = [e for e in range(len(maps))
             if all(table[e][x] == x and table[x][e] == x for x in range(len(maps)))]
    if len(units) != 1:
        raise DomainError(f"expected one neutral element, found {len(units)}")
    unit = units[0]
    inv = []
    for x in range(len(maps)):
        found = [y for y in range(len(maps)) if table[x][y] == unit and table[y][x] == unit]
        if len(found) != 1:
            raise DomainError(f"element {x} has {len(found)} inverses")
        inv.append(found[0])
    group = FinSemigroup(tuple(table), name=name, identity=unit)
    return group, unit, tuple(inv)


def shared_image_laws(maps):
    """The six structural laws of a subgroup of the function space, checked
    on window transformations.  Returns (law, ok, witness) triples:

    - unit-fixes-image: the neutral element fixes its image pointwise;
    - common-image: all elements share the unit's image;
    - restriction-permutes: each element permutes the common image;
    - inverse-restriction: the group inverse restricts to the inverse
      permutation;
    - restriction-separates: distinct elements differ on the common image;
    - value-transfer: if f merges x with an image point x', then every group
      element merges or separates the two points exactly as f does.
    """
    maps = tuple(maps)
    _, unit, inv = transformation_group(maps)
    e = maps[unit]
    image = tuple(sorted(set(e.map)))
    pairs = itertools.combinations(range(len(maps)), 2)
    witnesses = {  # the first violation in scan order, or None
        "unit-fixes-image": next(((x, e.map[x]) for x in image if e.map[x] != x), None),
        "common-image": next(
            (i for i, m in enumerate(maps) if tuple(sorted(set(m.map))) != image), None),
        "restriction-permutes": next(
            (i for i, m in enumerate(maps) if tuple(sorted(m.map[x] for x in image)) != image),
            None),
        "inverse-restriction": next(
            ((i, x) for i, m in enumerate(maps) for x in image
             if maps[inv[i]].map[m.map[x]] != x), None),
        "restriction-separates": next(
            ((i, j) for i, j in pairs
             if all(maps[i].map[x] == maps[j].map[x] for x in image)), None),
        "value-transfer": next(
            ((i, x, xp, j) for i, f in enumerate(maps) for x in range(f.window)
             for xp in image if f.map[x] == f.map[xp] for j, g in enumerate(maps)
             if (g.map[x] == f.map[x]) != (g.map[xp] == f.map[xp])), None),
    }
    return tuple((law, wit is None, wit) for law, wit in witnesses.items())


@dataclass(frozen=True)
class GroupRestriction:
    rep: RepresentationMap
    group: FinSemigroup
    maps: tuple
    unit: int
    image: tuple[int, ...]


def group_restriction(maps, name="G") -> GroupRestriction:
    """Cut a shared-image transformation group down to the partial
    permutations it induces on the common image; an isomorphism because
    distinct elements already differ there."""
    maps = tuple(maps)
    group, unit, _ = transformation_group(maps, name=name)
    image = tuple(sorted(set(maps[unit].map)))
    members = set(image)
    win = maps[0].window
    pperms = []
    for m in maps:
        vals = tuple(m.map[x] if x in members else None for x in range(win))
        pp = PartialPerm(win, vals)
        if pp.im() != image:
            raise TheoremViolationError("restriction does not permute the common image")
        pperms.append(pp)
    rep = RepresentationMap(source=group, images=tuple(pperms), space=IN, window=win,
                            name=f"restrict_{name}")
    return GroupRestriction(rep=rep, group=group, maps=maps, unit=unit, image=image)


def bundled_group_fixtures():
    """Transformation groups whose neutral element is a proper retraction,
    not the identity map."""
    z2 = (Transformation(4, (0, 1, 0, 1)), Transformation(4, (1, 0, 1, 0)))
    z3 = (
        Transformation(5, (0, 1, 2, 0, 0)),
        Transformation(5, (1, 2, 0, 1, 1)),
        Transformation(5, (2, 0, 1, 2, 2)),
    )
    s3 = tuple(
        Transformation(6, p + p) for p in itertools.permutations(range(3))
    )
    return (("Z2_shared", z2), ("Z3_shared", z3), ("S3_shared", s3))


# -- Clifford structure --------------------------------------------------------

@dataclass(frozen=True)
class CliffordDecomposition:
    inv: InverseStructure
    semilattice: FinSemigroup
    idem: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]


def clifford_decompose(inv: InverseStructure) -> CliffordDecomposition:
    """Split a Clifford semigroup into its idempotent semilattice and the
    maximal subgroup over each idempotent, verifying that the components
    partition the carrier and that products factor through the meet: x*y
    equals (x*ef)*(y*ef) for x over e and y over f."""
    if not is_clifford(inv):
        raise DomainError("not a Clifford semigroup: some x*x^-1 differs from x^-1*x")
    idem = inv.idempotents
    sl, _ = subsemigroup(inv.base, idem)
    comps = tuple(maximal_subgroup(inv, e) for e in idem)
    seen = {}
    for k, comp in enumerate(comps):
        for x in comp:
            if x in seen:
                raise TheoremViolationError(f"element {x} lies over two idempotents")
            seen[x] = k
    if len(seen) != inv.n:
        raise TheoremViolationError("maximal subgroups do not cover the carrier")
    t = inv.base.table
    for x in range(inv.n):
        e = t[x][inv.inv[x]]
        for y in range(inv.n):
            f = t[y][inv.inv[y]]
            ef = t[e][f]
            if t[x][y] != t[t[x][ef]][t[y][ef]]:
                raise TheoremViolationError(f"strong product law fails at ({x}, {y})")
    return CliffordDecomposition(inv=inv, semilattice=sl, idem=idem, components=comps)


def clifford_product_embed(inv: InverseStructure) -> RepresentationMap:
    """Pack a Clifford semigroup into the product of its idempotent
    semilattice with one zero-extended maximal subgroup per idempotent.

    Component e of the image of s carries s*e when e lies below s*s^-1 and
    the adjoined zero otherwise; the first component records s*s^-1 itself.
    The product target is virtual: the check multiplies components in the
    factor tables, so large factor counts stay cheap.
    """
    dec = clifford_decompose(inv)
    t = inv.base.table
    factors = [dec.semilattice]
    positions = []
    for comp in dec.components:
        grp, order = subsemigroup(inv.base, comp)
        factors.append(adjoin_zero(grp))
        positions.append({x: i for i, x in enumerate(order)})
    prod = FinProduct(tuple(factors))
    sl_pos = {e: i for i, e in enumerate(dec.idem)}
    images = []
    for s in range(inv.n):
        ss1 = t[s][inv.inv[s]]
        parts = [sl_pos[ss1]]
        for k, e in enumerate(dec.idem):
            if natural_order(inv.base, e, ss1):
                se = t[s][e]
                if se not in positions[k]:
                    raise TheoremViolationError(f"{s}*{e} escapes its component")
                parts.append(positions[k][se])
            else:
                parts.append(len(dec.components[k]))
        images.append(prod.encode(parts))
    return RepresentationMap(source=inv.base, images=tuple(images), space=FINITE,
                             target=prod, name=f"clifford_product_{inv.base.name or inv.n}")


def semil_iso(e: PartialPerm) -> tuple[int, ...]:
    """Characteristic vector of the domain of an idempotent partial
    bijection; composition of idempotents becomes pointwise minimum."""
    if compose(e, e) != e:
        raise DomainError("not an idempotent partial bijection")
    return tuple(0 if v is None else 1 for v in e.map)


# -- topological audit ---------------------------------------------------------

def separating_opens(rep: RepresentationMap) -> tuple[BasicOpen, ...]:
    """Canonical point-separating basic opens of the target: for each pair of
    images, the single-atom constraints at the first window point where
    their values differ."""
    if rep.space == FINITE:
        raise KindError("abstract finite targets have no basic opens")
    atoms = set()
    for i, vi in enumerate(rep.values):
        for vj in rep.values[i + 1:]:
            x = next(x for x, (p, q) in enumerate(zip(vi, vj)) if p != q)
            atoms.update(((x, vi[x]), (x, vj[x])))

    def atom_open(x, v):
        if rep.space == NN:
            return BasicOpen(NN, ((x, v),))
        if v is None:
            return BasicOpen(IN, ((W_DOM, x),))
        return BasicOpen(IN, ((U_ATOM, x, v),))

    opens = (atom_open(x, v) for x, v in atoms)
    return tuple(sorted(opens, key=lambda b: (len(b.atoms), str(b.atoms))))


@dataclass(frozen=True)
class EmbeddingReport:
    ok: bool
    preimage_failures: tuple  # (BasicOpen, preimage mask) pairs that are not open
    relative_failures: tuple  # source open masks whose image has no open trace


def verify_embedding(rep: RepresentationMap, source_top=None) -> EmbeddingReport:
    """Topological audit of an already-verified injective homomorphism.

    Preimages of the separating basic opens of the target must be open in
    the source, and the image of every source basic open must be a union of
    traces of those opens on the image set (relative openness).  Each
    separating open pins one window point to one value, so its trace is read
    off the value tuples and every membership is decided.  A None source
    means the discrete topology without materializing it.
    """
    if isinstance(source_top, TopSemigroup):
        source_top = source_top.top
    if source_top is None:
        nbhds = tuple(1 << x for x in range(rep.source.n))
    elif isinstance(source_top, (TopSpec, TruncatedPresentation)):
        nbhds = source_top.nbhds
    else:
        raise KindError(f"unsupported source topology {type(source_top).__name__}")
    if len(nbhds) != rep.source.n:
        raise KindError("source topology carrier does not match the representation source")

    traces = []
    bad_pre = []
    for b in separating_opens(rep):
        (atom,) = b.atoms  # (x, v) in NN, (U, x, v) or (W, x) with v = None in IN
        x, v = (atom[1], None) if atom[0] == W_DOM else atom[-2:]
        mask = 0
        for i, vals in enumerate(rep.values):
            if vals[x] == v:
                mask |= 1 << i
        traces.append(mask)
        if not holds_nbhds(nbhds, mask):
            bad_pre.append((b, mask))

    # every open is a union of minimal neighborhoods and the traces generate
    # a union-closed family, so auditing the minimal neighborhoods suffices;
    # a subset lies in that family iff it holds the least trace-generated
    # neighborhood of each of its points
    atoms = min_nbhds(rep.source.n, traces)
    bad_rel = tuple(u for u in sorted(set(nbhds)) if not holds_nbhds(atoms, u))
    return EmbeddingReport(
        ok=not bad_pre and not bad_rel,
        preimage_failures=tuple(bad_pre),
        relative_failures=bad_rel,
    )
