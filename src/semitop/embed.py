"""Verified embeddings of finite semigroups into transformation windows, the
partial-bijection space, and product targets.

RepresentationMap is the one certification point: every construction returns
one, its homomorphism and injectivity checked exhaustively at build time (a
violation raises TheoremViolationError).  The side verdicts that some
embeddings report are theorems (README, Scope (e)-(g)), not re-checked.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from operator import getitem, ne

from .core import (
    FinSemigroup,
    InverseStructure,
    _gather,
    _group_unit,
    adjoin_identity,
    adjoin_zero,
    clifford_check,
    maximal_subgroup,
    natural_order,
    subsemigroup,
)
from .errors import DomainError, EvaluationError, KindError, SizeError, TheoremViolationError
from .semigroups import FinProduct, composition_table, symmetric_inverse_monoid
from .topo import TopSemigroup, TopSpec, TruncatedPresentation, points_of
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
    compose,
    lazy_extend,
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
    ``values`` is what the checks compare: each finite image's component
    tuple in the target, or each NN or IN image's values on ``window``,
    read as basic opens read them.  A Transformation or PartialPerm image
    must have the representation's window, and its values are its map; a
    lazy image is read with ``eval`` on the window, and its values must stay
    in the window (or be holes, None).  Either refusal is an
    EvaluationError.

    The values then compose as self-maps of a finite set (a finite target is
    a semigroup), so the law on the pairs (a, g), g in a generating set of
    the source, gives it on all pairs by induction on the length of b as a
    product of generators.  When a generator pair fails, all pairs are
    scanned in order and the least failing one is reported (see
    _law_failure).  Every check is exhaustive.
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
        rows = self.source.table  # an oversized product refuses before any evaluation
        if self.space == FINITE:
            size = self.target.n
            if not all(type(img) is int and 0 <= img < size for img in self.images):
                raise DomainError(f"a finite image must index the {size}-element target")
            values = tuple(map(self.target.decode, self.images))
            tables = self.target.factor_tables

            def reader(va):  # the factor rows that a's components name
                rows_a = tuple(map(getitem, tables, va))
                return lambda vb: tuple(map(getitem, rows_a, vb))
            operand = values.__getitem__
        else:
            native = Transformation if self.space == NN else PartialPerm
            for img in self.images:
                if not isinstance(img, (native, LazyMap)):
                    raise KindError(f"a {type(img).__name__} image does not live in {self.space}")
                if isinstance(img, native) and img.window != self.window:
                    raise EvaluationError(f"a window map on {img.window} points is read "
                                          f"on a {self.window}-point window")
            window = range(self.window)
            values = tuple(img.map if isinstance(img, native) else tuple(map(img.eval, window))
                           for img in self.images)
            points = set(itertools.chain.from_iterable(
                vals for img, vals in zip(self.images, values) if not isinstance(img, native)))
            points.discard(None)
            if not points <= set(window):
                raise EvaluationError(f"a lazy image leaves the {self.window}-point window")

            def reader(va):  # a hole in a's values reads position -1
                return _gather(map(_HOLE_LAST.get, va, va))

            def operand(b):
                return values[b] + (None,)
        object.__setattr__(self, "values", values)
        seen = {}
        for i, v in enumerate(values):
            j = seen.setdefault(v, i)
            if j != i:
                raise TheoremViolationError(
                    f"not injective: elements {j} and {i} share an image")
        # the generator pairs decide; the ordered scan names a witness
        if _law_failure(values, rows, operand, reader, self.source.generators):
            a, b = _law_failure(values, rows, operand, reader, range(n))
            raise TheoremViolationError(f"homomorphism fails at ({a}, {b})")


_HOLE_LAST = {None: -1}  # position of a value in a hole-padded tuple


def _law_failure(values, rows, operand, reader, multipliers):
    """The least pair (a, b), b among the multipliers, at which the values
    break the law: the values of fa*fb, read by reader(values[a]) from
    operand(b), are the values of f(a*b).  None when the law holds.  Each
    reader lives for one element a and reads every multiplier at C speed."""
    operands = list(map(operand, multipliers))
    for a, (va, row) in enumerate(zip(values, rows)):
        got = list(map(reader(va), operands))
        want = [values[row[b]] for b in multipliers]
        if got != want:
            return a, next(b for b, g, w in zip(multipliers, got, want) if g != w)
    return None


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
    if s.identity is not None:  # column a of the table is the image of a
        images = tuple(Transformation(n, col) for col in s.columns)
        win = n
    else:
        images = tuple(Transformation(n + 1, col + (a,)) for a, col in enumerate(s.columns))
        win = n + 1
    return RepresentationMap(source=s, images=images, space=NN, window=win,
                             name=f"cayley_{s.name or n}")


def wagner_preston(inv: InverseStructure) -> RepresentationMap:
    """The classical faithful action of an inverse semigroup by partial
    bijections: a acts by right multiplication on {x : x*(a*a^-1) = x}, the
    domain of inv.dom[a] = a*a^-1 (maps compose left to right).

    The domain of each idempotent e is read once, from column e, as a
    reader of the points x with x*e == x that gives a hole (position -1)
    elsewhere; the image of a is column a, hole-padded, through the reader
    keyed by inv.dom[a]."""
    n = inv.n
    cols = inv.base.columns
    restrict = {}
    images = []
    for a, e in enumerate(inv.dom):
        if e not in restrict:
            restrict[e] = _gather([x if xe == x else -1 for x, xe in enumerate(cols[e])])
        images.append(PartialPerm(n, restrict[e](cols[a] + (None,))))
    return RepresentationMap(source=inv.base, images=tuple(images), space=IN, window=n,
                             name=f"wp_{inv.base.name or n}")


def preserves_inversion(rep: RepresentationMap, inv: InverseStructure) -> bool:
    """Whether the image of a^-1 is always the converse partial bijection of
    the image of a, compared on their value tuples: true for every
    representation of an inverse semigroup in IN (README, Scope (f))."""
    for a, vals in enumerate(rep.values):
        converse = [None] * rep.window
        for x, v in enumerate(vals):
            if v is not None:
                converse[v] = x
        if tuple(converse) != rep.values[inv.inv[a]]:
            return False
    return True


# measured so that `semitop embed product` at either bound stays under 5 s
PRODUCT_VALUES_BOUND = 2 ** 20
PRODUCT_READS_BOUND = 2 ** 24


def product_embed(reps) -> RepresentationMap:
    """Join function-space representations of several factors along the
    pairing 2^i(2j+1)-1: factor i acts inside block i, blocks past the last
    factor stay pointwise fixed, so composition works blockwise.  All factors
    live in one space (a total map is no partial bijection).

    The window doubles with each factor, so the work is bounded before any
    image is built: the n images hold at most PRODUCT_VALUES_BOUND values
    (n times the window), and the exact check, which reads one image's
    values per pair (a, g) with g a generator, reads at most
    PRODUCT_READS_BOUND of them.  Past either bound, or past PRODUCT_BOUND
    elements, a SizeError is raised."""
    reps = tuple(reps)
    if not reps:
        raise DomainError("need at least one factor")
    spaces = {r.space for r in reps}
    if len(spaces) > 1 or FINITE in spaces:
        raise KindError(f"factors must share one function space, not {sorted(spaces)}")
    (space,) = spaces
    prod = FinProduct(tuple(r.source for r in reps))
    wmax = max(r.window for r in reps)
    win = pair_index(len(reps) - 1, wmax - 1) + 2
    if prod.n * win > PRODUCT_VALUES_BOUND:
        raise SizeError(f"will not evaluate {prod.n} images on a {win}-point window; "
                        f"the bound is {PRODUCT_VALUES_BOUND} values")
    if prod.n * win * len(prod.generators) > PRODUCT_READS_BOUND:
        raise SizeError(f"will not check {prod.n} images against {len(prod.generators)} "
                        f"generators on a {win}-point window; the bound is "
                        f"{PRODUCT_READS_BOUND} value reads")
    inners = [tuple(lazy_extend(img) for img in r.images) for r in reps]
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
        FiniteTable(((1, 1),), AffineParity(2, ((0, lazy_extend(img), 0), (1, Const(1), 1))))
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
    """Interpret a tuple of window transformations as a group: verify closure
    and the group rule (see core._group_unit), and return the abstract table
    together with unit index and inverse vector."""
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
    unit = _group_unit(table, range(len(maps)))
    if unit is None:
        raise DomainError("not a group: the maps must hold one idempotent, neutral on all")
    # each row of a group table is a permutation, so x*y == unit once
    inv = tuple(row.index(unit) for row in table)
    return FinSemigroup(table, name=name, identity=unit), unit, inv


def shared_image_laws(maps):
    """The six structural laws of a subgroup of the function space, as
    (law, ok, witness) triples.  All six hold in every group of window maps
    (README, Scope (e)), so once transformation_group accepts the maps each
    triple is (law, True, None):

    - unit-fixes-image: the neutral element fixes its image pointwise;
    - common-image: all elements share the unit's image;
    - restriction-permutes: each element permutes the common image;
    - inverse-restriction: the group inverse restricts to the inverse
      permutation;
    - restriction-separates: distinct elements differ on the common image;
    - value-transfer: if f merges x with an image point x', then every group
      element merges or separates the two points exactly as f does.
    """
    transformation_group(maps)
    laws = ("unit-fixes-image", "common-image", "restriction-permutes",
            "inverse-restriction", "restriction-separates", "value-transfer")
    return tuple((law, True, None) for law in laws)


@dataclass(frozen=True)
class GroupRestriction:
    rep: RepresentationMap
    image: tuple[int, ...]


def group_restriction(maps, name="G") -> GroupRestriction:
    """Cut a shared-image transformation group down to the partial
    permutations it induces on the common image: each element permutes the
    image, and distinct elements already differ there (README, Scope (e)),
    so the restriction is an isomorphism."""
    maps = tuple(maps)
    group, unit, _ = transformation_group(maps, name=name)
    image = tuple(sorted(set(maps[unit].map)))
    members = set(image)
    win = maps[0].window
    pperms = tuple(PartialPerm(win, tuple(m.map[x] if x in members else None
                                          for x in range(win))) for m in maps)
    rep = RepresentationMap(source=group, images=pperms, space=IN, window=win,
                            name=f"restrict_{name}")
    return GroupRestriction(rep=rep, image=image)


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
    semilattice: FinSemigroup
    idem: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]


def clifford_decompose(inv: InverseStructure) -> CliffordDecomposition:
    """Split a Clifford semigroup into its idempotent semilattice and the
    maximal subgroup over each idempotent.  Once clifford_check passes, the
    subgroup over e is the fibre over e of x -> x*x^-1, a map onto the
    idempotents, so the components partition the carrier by construction,
    and products factor through the meet, x*y = (x*ef)*(y*ef) for x over e
    and y over f (README, Scope (g))."""
    ok, x = clifford_check(inv)
    if not ok:
        raise DomainError(f"not a Clifford semigroup: x*x^-1 differs from x^-1*x "
                          f"at x = {inv.base.label(x)}")
    idem = inv.idempotents
    sl, _ = subsemigroup(inv.base, idem)
    comps = tuple(maximal_subgroup(inv, e) for e in idem)
    return CliffordDecomposition(semilattice=sl, idem=idem, components=comps)


def clifford_product_embed(inv: InverseStructure) -> RepresentationMap:
    """Pack a Clifford semigroup into the product of its idempotent
    semilattice with one zero-extended maximal subgroup per idempotent.

    Component e of the image of s carries s*e, which lies in the subgroup
    over e (README, Scope (g)), when e lies below s*s^-1 and the adjoined
    zero otherwise; the first component records s*s^-1 itself.
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
    for s, ss1 in enumerate(inv.dom):
        parts = [sl_pos[ss1]]
        for k, e in enumerate(dec.idem):
            if natural_order(inv.base, e, ss1):
                parts.append(positions[k][t[s][e]])
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

_HOLE_LOW = {None: -math.inf}  # sort key of a value: a hole below every number


def separating_opens(rep: RepresentationMap) -> tuple[BasicOpen, ...]:
    """Canonical point-separating basic opens of the target: for each pair of
    images, the single-atom constraints at the first window point where
    their values differ.

    Only neighbours in the sorted order of the value tuples (a hole, None,
    below every value) are compared, in O(n log n * window) instead of
    O(n^2 * window), and they give the same atoms.  Take tuples u < v that
    first differ at x.  Every tuple sorted between them shares their
    length-x prefix, so the tuples with that prefix and value u[x] at x form
    a block that holds u and ends before v.  The last tuple of the block and
    its successor first differ at x, where the last one reads u[x];
    likewise the first tuple of v's block and its predecessor first differ
    at x, where the first one reads v[x].  Conversely, neighbours are one
    of the pairs, so they give no other atom."""
    if rep.space == FINITE:
        raise KindError("abstract finite targets have no basic opens")
    values = rep.values
    keys = [tuple(map(_HOLE_LOW.get, vals, vals)) if None in vals else vals
            for vals in values]  # a tuple without holes is its own key
    order = sorted(range(len(values)), key=keys.__getitem__)
    atoms = set()
    for i, j in zip(order, order[1:]):
        x = next(itertools.compress(itertools.count(), map(ne, keys[i], keys[j])))
        atoms.update(((x, values[i][x]), (x, values[j][x])))

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
    witness: tuple | None  # (x, y, (k, v)), set when ok is False: see verify_embedding


def verify_embedding(rep: RepresentationMap, source_top=None) -> EmbeddingReport:
    """Topological audit of an already-verified injective homomorphism into
    NN or IN: it passes iff every minimal neighborhood N_x of the source is
    {x}.  A None source is discrete, and passes.

    Images u != v first differ at some window point k, and the preimages of
    the atoms (k, u[k]) and (k, v[k]) each hold one of the two points and not
    the other.  So open preimages make the source T1, hence discrete (a
    finite T1 space is; Munkres, Topology, 2nd ed., 2000, section 17); and on
    a discrete source every preimage is open, and the traces of those atoms
    make each image point relatively open.

    The witness of a failure is (x, y, (k, v)): the least x with N_x != {x},
    the least y != x in N_x, and the atom at the first window point k where
    their values differ, v being x's value there (None for a hole).  Its
    preimage holds x but not y, so it is not open.
    """
    if isinstance(source_top, TopSemigroup):
        source_top = source_top.top
    if not isinstance(source_top, (TopSpec, TruncatedPresentation, type(None))):
        raise KindError(f"unsupported source topology {type(source_top).__name__}")
    if source_top is not None and len(source_top.nbhds) != rep.source.n:
        raise KindError("source topology carrier does not match the representation source")
    if rep.space == FINITE:
        raise KindError("abstract finite targets have no basic opens")
    nbhds = () if source_top is None else source_top.nbhds
    x = next((x for x, nb in enumerate(nbhds) if nb != 1 << x), None)
    if x is None:
        return EmbeddingReport(ok=True, witness=None)
    y = next(y for y in points_of(nbhds[x]) if y != x)
    u, v = rep.values[x], rep.values[y]
    k = next(itertools.compress(itertools.count(), map(ne, u, v)))
    return EmbeddingReport(ok=False, witness=(x, y, (k, u[k])))
