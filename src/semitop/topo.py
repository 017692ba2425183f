"""Finite topological spaces, window truncations of countable spaces, and the
topological predicates of the workbench.

Everything here is a finite analog: a check passing on a truncated instance
verifies the finite forcing/neighborhood argument at that window, not the
corresponding statement about the infinite space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import or_

from .core import (
    RIGHT,
    FinSemigroup,
    InverseStructure,
    _close,
    _derivation,
    _index,
    _point,
    _require_inverse,
    adjoin_zero,
    is_semilattice,
    parse_semigroup,
    semigroup_doc,
)
from .errors import DomainError, KindError, LoadError, SizeError
from .semigroups import (antichain_with_zero, brandt_semigroup, chain_semilattice,
                         cyclic_group, powerset_semilattice)


def mask_of(points) -> int:
    m = 0
    for p in points:
        m |= 1 << p
    return m


def points_of(mask) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def is_topology(n, opens) -> tuple[bool, str | None]:
    """Check a family of subset bitmasks for the finite topology axioms."""
    why, _ = _topology_check(n, opens)
    return why is None, why


def _carrier(n) -> int:
    """The full bitmask of an n-point carrier; checked before the shift."""
    if n < 0:
        raise DomainError(f"carrier size {n} is negative")
    return (1 << n) - 1


def _topology_check(n, opens) -> tuple[str | None, tuple[int, ...]]:
    """The reason a family of subset bitmasks is not a topology, or None,
    and the minimal neighborhood vector the check computed on the way.

    The check is linear in the family.  A family F is a topology iff it holds
    the empty set, the carrier, the minimal neighborhood N_x of each point
    (the intersection of the members holding x), and o | N for every member
    o and every distinct N.  Those unions put every union of neighborhoods in
    F, and each member is the union of the N_x of its points, so F is
    exactly the unions of the N_x.  That family is closed under union, and
    under intersection: a & b is the union of N_x over its points x, since
    N_x lies in every member holding x.  The converse is the definition.
    """
    if n < 0:
        return f"carrier size {n} is negative", ()
    full = (1 << n) - 1
    opens = set(opens)
    for o in opens:
        if o < 0 or o > full:
            return f"subset {o} is not within the {n}-point carrier", ()
    if 0 not in opens:
        return "the empty set is missing", ()
    if full not in opens:
        return "the carrier is missing", ()
    if len(opens) == (1 << n):
        return None, tuple(1 << x for x in range(n))
    nbhds = min_nbhds(n, opens)
    for x, v in enumerate(nbhds):
        if v not in opens:
            return f"intersection of the opens holding {x} is missing", nbhds
    members = sorted(opens)
    for v in sorted(set(nbhds)):
        for o in members:
            if (o | v) not in opens:
                return f"union of {points_of(o)} and {points_of(v)} is missing", nbhds
    return None, nbhds


def min_nbhds(n, sets) -> tuple[int, ...]:
    """Minimal neighborhood of each point in the topology the sets generate:
    the intersection of the sets holding it, or the whole carrier if none
    does.  On an open family this is the smallest open around each point."""
    nb = [(1 << n) - 1] * n
    for o in sets:
        for x in points_of(o):
            nb[x] &= o
    return tuple(nb)


def holds_nbhds(nbhds, mask) -> bool:
    """The openness rule of a finite space given by its minimal
    neighborhoods: a set is open iff it holds the neighborhood of each of its
    points."""
    return all(not nbhds[x] & ~mask for x in points_of(mask))


def _unions(nbhds) -> frozenset[int]:
    """Every union of the given neighborhoods, the empty one included: the
    open family of the finite space they are the minimal neighborhoods of."""
    opens = {0}
    for v in set(nbhds):
        opens |= {o | v for o in opens}
    return frozenset(opens)


@dataclass(frozen=True)
class TopSpec:
    """A finite topology: explicit open-set family over an n-point carrier,
    opens stored as bitmasks and verified closed under union and
    intersection.  `nbhds` holds the minimal open neighborhood of each
    point."""

    n: int
    opens: frozenset[int]
    nbhds: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "opens", frozenset(self.opens))
        why, nbhds = _topology_check(self.n, self.opens)
        if why is not None:
            raise DomainError(f"not a topology: {why}")
        object.__setattr__(self, "nbhds", nbhds)

    @staticmethod
    def discrete(n) -> "TopSpec":
        if n > 20:
            raise SizeError(f"will not materialize 2^{n} open sets; "
                            "audits against a discrete source can pass None instead")
        return TopSpec(n, frozenset(range(_carrier(n) + 1)))

    @staticmethod
    def generated(n, subbasis) -> "TopSpec":
        """Close a subbasis under finite intersection and arbitrary union."""
        full = _carrier(n)
        return TopSpec(n, _unions(min_nbhds(n, (s & full for s in subbasis))))

    def opens_sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.opens))

    def interior(self, mask) -> int:
        return mask_of(x for x, v in enumerate(self.nbhds) if (mask >> x) & 1 and not v & ~mask)

    def closure_of(self, mask) -> int:
        full = (1 << self.n) - 1
        return full ^ self.interior(full ^ mask)

    def is_clopen(self, mask) -> bool:
        full = (1 << self.n) - 1
        return mask in self.opens and (full ^ mask) in self.opens

    def isolated_points(self) -> int:
        return mask_of(x for x, v in enumerate(self.nbhds) if v == 1 << x)


def top_spec_doc(spec: TopSpec) -> dict:
    return {"n": spec.n, "opens": [list(points_of(o)) for o in spec.opens_sorted()]}


def top_spec_from_doc(doc) -> TopSpec:
    if not isinstance(doc, dict) or "n" not in doc or "opens" not in doc:
        raise LoadError("topology document needs 'n' and 'opens'")
    try:
        n = _index(doc["n"])
        opens = [[_index(z, n) for z in o] for o in doc["opens"]]
        # the carrier must be listed; checking before any shift bounds n
        if n > max(map(len, opens), default=0):
            raise LoadError("not a topology: the carrier is missing")
        return TopSpec(n, frozenset(map(mask_of, opens)))
    except DomainError as e:
        raise LoadError(str(e)) from e
    except (TypeError, ValueError) as e:
        raise LoadError(f"malformed topology document: {e}") from e


def up_set(s: FinSemigroup, x) -> int:
    """The upper cone of x in the natural semilattice order (y is above x
    when x*y = x)."""
    if not is_semilattice(s):
        raise DomainError("natural order requires a semilattice")
    out = 0
    for y in range(s.n):
        if s.mul(x, y) == x:
            out |= 1 << y
    return out


def continuity_check(s: FinSemigroup, top: TopSpec) -> tuple[bool, tuple | None]:
    """Exhaustive multiplication continuity on a finite space.

    Each point has a smallest open neighborhood N, so continuity at (a, b)
    is equivalent to N_a * N_b being inside N_ab.  Returns the
    lexicographically least witness (a, b, c, d) with c in N_a, d in N_b and
    c*d outside N_ab when the check fails.
    """
    if s.n != top.n:
        raise DomainError("semigroup and topology carriers differ in size")
    return _first_discontinuity(s, range(s.n), top.nbhds)


def _first_discontinuity(s: FinSemigroup, points, nb) -> tuple[bool, tuple | None]:
    """Scan the pairs (a, b) of `points` for the least (a, b, c, d) with c in
    nb[a], d in nb[b] and c*d outside nb[a*b]; nb lists minimal
    neighborhoods.  The mask of c*nb[b], built once per (c, b), finds the
    first failing (a, b, c); only its d are then scanned, in order."""
    t = s.table
    near = {x: points_of(nb[x]) for x in points}
    times = {b: [mask_of(map(row.__getitem__, near[b])) for row in t] for b in points}
    for a in points:
        for b in points:
            target, masks = nb[t[a][b]], times[b]  # masks[c]: the mask of c*nb[b]
            for c in near[a]:
                if masks[c] & ~target:
                    d = next(d for d in near[b] if not (target >> t[c][d]) & 1)
                    return False, (a, b, c, d)
    return True, None


@dataclass(frozen=True)
class TopSemigroup:
    """A finite semigroup with a verified-continuous finite topology."""

    sem: FinSemigroup
    top: TopSpec

    def __post_init__(self):
        ok, witness = continuity_check(self.sem, self.top)
        if not ok:
            a, b, c, d = witness
            raise DomainError(
                f"multiplication is not continuous at ({a},{b}): "
                f"{c}*{d}={self.sem.mul(c, d)} escapes the minimal neighborhood of {a}*{b}"
            )


def uparrow(ts: TopSemigroup, x) -> int:
    """Points with a whole open neighborhood above x: the interior of the
    upper cone."""
    return ts.top.interior(up_set(ts.sem, x))


def inversion_continuity_check(ts: TopSemigroup, inv) -> tuple[bool, tuple | None]:
    """Continuity of x -> x^-1 via minimal neighborhoods; witness is the
    least (x, y) with y near x but y^-1 outside the minimal neighborhood of
    x^-1."""
    inv_map = inv.inv if isinstance(inv, InverseStructure) else tuple(inv)
    nb = ts.top.nbhds
    for x in range(ts.sem.n):
        target = nb[inv_map[x]]
        for y in points_of(nb[x]):
            if not (target >> inv_map[y]) & 1:
                return False, (x, y)
    return True, None


@dataclass(frozen=True)
class DitopReport:
    ok: bool
    failure: tuple | None  # (x, escaping element), least such


def _ditop_core(ts: TopSemigroup, weak: bool) -> DitopReport:
    """The factorization property alone: inversion is continuous in every
    finite topological inverse semigroup (README, Scope), so not checked."""
    t = ts.sem.table
    inv = _require_inverse(ts.sem, "the weak ditopological check" if weak else "the ditopological check")
    nb = ts.top.nbhds
    emask = mask_of(inv.idempotents)
    # The displayed set grows with U and W (and with V), while the target O
    # shrinks to the minimal neighborhood of x; so minimal neighborhoods
    # decide the whole quantifier prefix.
    for x in range(inv.n):
        u = o = nb[x]
        w, v = nb[inv.dom[x]], nb[inv.ran[x]]
        for cand in range(inv.n):
            if not (w >> inv.dom[cand]) & 1 or weak and not (v >> inv.ran[cand]) & 1:
                continue
            if not (o >> cand) & 1 and any((u >> t[e][cand]) & 1 for e in points_of(w & emask)):
                return DitopReport(False, (x, cand))
    return DitopReport(True, None)


def ditopological_check(ts: TopSemigroup) -> DitopReport:
    """Neighborhood-factorization property of inverse topological semigroups:
    every x and open O around it admit opens U around x and W around x*x^-1
    with {s : s*s^-1 in W, some e in W meets E(S) with e*s in U} inside O.
    The definition also asks for continuous inversion, which every finite
    topological inverse semigroup has (see _ditop_core)."""
    return _ditop_core(ts, weak=False)


def weakly_ditopological_check(ts: TopSemigroup) -> DitopReport:
    """Same as ditopological_check with the extra constraint set
    {s : s^-1*s in V} for a neighborhood V of x^-1*x; a weaker requirement."""
    return _ditop_core(ts, weak=True)


def enumerate_clopen_ideals(ts: TopSemigroup) -> tuple[int, ...]:
    """All clopen subsets closed under multiplication by the whole carrier,
    ascending by bitmask: m qualifies when it holds x*S for each x in m."""
    below = [mask_of(row) for row in ts.sem.table]
    return tuple(m for m in ts.top.opens_sorted() if ts.top.is_clopen(m)
                 and not any(below[x] & ~m for x in points_of(m)))


def _least_near(ts: TopSemigroup, x, prop) -> tuple[int, int]:
    """(N_x, the product y of N_x) at a point x of a topological semilattice.
    Continuity at (x, x) puts N_x*N_x inside N_x, so y is in N_x and is its
    least element: N_x lies in the upper cone of y, and of no higher point."""
    if not is_semilattice(ts.sem):
        raise DomainError(f"{prop} property is defined for semilattices")
    nx = ts.top.nbhds[_point(x, ts.sem.n)]
    return nx, reduce(ts.sem.mul, points_of(nx))


def u_check(ts: TopSemigroup, x) -> tuple[bool, tuple | None]:
    """Local upper-cone witness at x: some y near x whose upper cone contains
    a whole neighborhood of x.  It always holds, with the witness (the least
    element y of N_x, N_x)."""
    nx, y = _least_near(ts, x, "U")
    return True, (y, nx)


def u2_check(ts: TopSemigroup, x) -> tuple[bool, tuple | None]:
    """Clopen-ideal variant: some y near x and clopen ideal I avoiding x with
    everything outside I above y.  The least y of N_x and the largest such
    I decide it: I_x, the union of the clopen ideals avoiding x, is one
    (clopen sets and ideals are closed under union).  Witness (y, I_x)."""
    _, y = _least_near(ts, x, "U2")
    ideal = reduce(or_, (m for m in enumerate_clopen_ideals(ts) if not (m >> x) & 1), 0)
    if ((1 << ts.sem.n) - 1) & ~ideal & ~up_set(ts.sem, y):
        return False, None
    return True, (y, ideal)


def cb_derivative(spec: TopSpec, subset: int) -> int:
    """Non-isolated points of the subspace on `subset`."""
    return mask_of(x for x in points_of(subset) if spec.nbhds[x] & subset != 1 << x)


def scattered_height(spec: TopSpec) -> int | None:
    """Number of derivative iterations needed to empty the space, or None if
    a nonempty set of accumulation points survives (not scattered)."""
    a = (1 << spec.n) - 1
    height = 0
    while a:
        nxt = cb_derivative(spec, a)
        if nxt == a:
            return None
        a = nxt
        height += 1
    return height


@dataclass(frozen=True)
class TruncatedPresentation:
    """A finite window of a countable topological semigroup.

    The carrier is the window truncation `base`.  Points outside
    `limit_points` are isolated; each limit point carries a descending family
    of admissible basic neighborhoods (bitmasks).  `guard` is the cutoff
    index below which the family's defining constraints live, while the
    neighborhoods themselves keep a nonempty tail at or beyond the guard --
    the room needed to replay forcing arguments that pick a fresh element
    outside any finite constraint set.  `core` marks the window positions
    whose neighborhood data survives truncation intact; continuity is only
    replayable on core pairs.  `strict=False` drops the tail requirement
    (used by discrete control instances).  `nbhds` holds the minimal open
    neighborhood of each point: the last listed neighborhood of a limit
    point, the singleton of any other.
    """

    base: FinSemigroup
    window: int
    guard: int
    limit_points: tuple[int, ...]
    families: tuple[tuple[int, tuple[int, ...]], ...]
    core: int
    name: str = ""
    strict: bool = True
    nbhds: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.base.n
        object.__setattr__(self, "limit_points", tuple(self.limit_points))
        object.__setattr__(
            self, "families", tuple((p, tuple(f)) for p, f in self.families))
        if self.window < 1:
            raise DomainError("window must be positive")
        if not 0 <= self.guard < n:
            raise DomainError("guard must be a carrier index")
        pts = [p for p, _ in self.families]
        if sorted(self.limit_points) != sorted(set(self.limit_points)) or pts != list(self.limit_points):
            raise DomainError("families must list each limit point exactly once, in order")
        for p in self.limit_points:
            if not 0 <= p < n:
                raise DomainError(f"limit point {p} is out of range")
        full = (1 << n) - 1
        limit_mask = mask_of(self.limit_points)
        last = {p: fam[-1] for p, fam in self.families if fam}
        nbhds = tuple(last.get(x, 1 << x) for x in range(n))
        object.__setattr__(self, "nbhds", nbhds)
        for p, fam in self.families:
            if not fam:
                raise DomainError(f"limit point {p} has an empty neighborhood family")
            prev = full
            for v in fam:
                if v & ~full:
                    raise DomainError(f"neighborhood of {p} leaves the carrier")
                if not (v >> p) & 1:
                    raise DomainError(f"a listed neighborhood of {p} does not contain it")
                if v & ~prev:
                    raise DomainError(f"neighborhood family of {p} is not descending")
                q = next((q for q in points_of(v & limit_mask) if nbhds[q] & ~v), None)
                if q is not None:
                    raise DomainError(f"a listed neighborhood of {p} holds limit point {q} "
                                      "but not its last neighborhood")
                if self.strict:
                    tail = v & ~limit_mask & ~((1 << self.guard) - 1)
                    if tail == 0:
                        raise DomainError(
                            f"a neighborhood of {p} has no tail at or beyond guard {self.guard}")
                prev = v
        if self.core & ~full:
            raise DomainError("core leaves the carrier")

    def family(self, p) -> tuple[int, ...]:
        for q, fam in self.families:
            if q == p:
                return fam
        raise DomainError(f"{p} is not a limit point")

    def is_open(self, mask) -> bool:
        return holds_nbhds(self.nbhds, mask)


def presentation_continuity_check(pres: TruncatedPresentation) -> tuple[bool, tuple | None]:
    """Multiplication continuity on core pairs of a truncated presentation.

    Pairs with a tail argument are excluded: their continuity witnesses in
    the full space are admissible neighborhoods whose cutoffs exceed the
    guard, which the truncation deliberately does not carry.
    """
    s = pres.base
    return _first_discontinuity(s, points_of(pres.core), pres.nbhds)


@dataclass(frozen=True)
class BasisReport:
    ok: bool
    classes: tuple[int, ...]  # mu's canonical class vector
    failures: tuple  # (x, witness element in [x] outside N_x, N_x mask)
    # on failure, the _close steps ((a, b), m, (a*m, b*m)) that join the
    # first failure's x and witness, starting from the open-class seeds
    derivation: tuple | None


def _carrier_and_nbhds(obj):
    if isinstance(obj, TopSemigroup):
        return obj.sem, obj.top.nbhds
    if isinstance(obj, TruncatedPresentation):
        return obj.base, obj.nbhds
    raise KindError(f"expected TopSemigroup or TruncatedPresentation, got {type(obj).__name__}")


def congruence_basis_check(obj) -> BasisReport:
    """Does some right congruence with all-open classes trap every point
    inside each of its neighborhoods?

    A right congruence has all classes open exactly when every class
    contains the minimal neighborhood of each of its members, i.e. when the
    congruence contains all pairs (y, z) with z in N_y.  Those congruences
    are closed under intersection, so the closure mu of the seed pairs is
    the least of them, and the basis property holds iff [x]_mu stays inside
    N_x for every x.  The report keeps mu's classes as _close builds them,
    right stable by construction.  On failure it keeps the derivation of the
    first failure (x, z): the steps (a, b) -> (a*m, b*m) that join x and z
    from the seeds.  Each step holds in every right congruence containing
    (a, b), so the derivation shows at once that every all-open-class right
    congruence puts z in the class of x.
    """
    s, nb = _carrier_and_nbhds(obj)
    seeds = []
    for y in range(s.n):
        for z in points_of(nb[y]):
            if z != y:
                seeds.append((y, z))
    classes, chain = _close(s, seeds, RIGHT)
    masks = [0] * s.n  # class id -> its members
    for x, c in enumerate(classes):
        masks[c] |= 1 << x
    failures = []
    for x in range(s.n):
        escaped = masks[classes[x]] & ~nb[x]
        if escaped:
            failures.append((x, points_of(escaped)[0], nb[x]))
    derivation = _derivation(s.n, seeds, chain, *failures[0][:2]) if failures else None
    return BasisReport(not failures, classes, tuple(failures), derivation)


def presentation_doc(pres: TruncatedPresentation) -> dict:
    return {
        "schema": 1,
        "kind": "truncated_presentation",
        "name": pres.name,
        "window": pres.window,
        "guard": pres.guard,
        "semigroup": semigroup_doc(pres.base),
        "limit_points": list(pres.limit_points),
        "neighborhoods": {
            str(p): [list(points_of(v)) for v in fam] for p, fam in pres.families
        },
        "core": list(points_of(pres.core)),
        "strict_tails": pres.strict,
    }


def presentation_from_doc(doc) -> TruncatedPresentation:
    if not isinstance(doc, dict) or doc.get("kind") != "truncated_presentation":
        raise LoadError("not a truncated presentation document")
    for key in ("window", "guard", "semigroup", "limit_points", "neighborhoods", "core"):
        if key not in doc:
            raise LoadError(f"presentation document is missing '{key}'")
    strict = doc.get("strict_tails", True)
    if not isinstance(strict, bool):
        raise LoadError(f"'strict_tails' must be true or false, not {strict!r}")
    base = parse_semigroup(doc["semigroup"])
    n = base.n
    try:
        limits = tuple(_index(p, n) for p in doc["limit_points"])
        fams = []
        for p in limits:
            key = str(p)
            if key not in doc["neighborhoods"]:
                raise LoadError(f"no neighborhood family for limit point {p}")
            fams.append((p, tuple(mask_of(_index(z, n) for z in v)
                                  for v in doc["neighborhoods"][key])))
        return TruncatedPresentation(
            base=base,
            window=_index(doc["window"]),
            guard=_index(doc["guard"]),
            limit_points=limits,
            families=tuple(fams),
            core=mask_of(_index(z, n) for z in doc["core"]),
            name=str(doc.get("name", "")),
            strict=strict,
        )
    except DomainError as e:
        raise LoadError(str(e)) from e
    except TypeError as e:
        raise LoadError(f"malformed presentation document: {e}") from e


def bundled_top_semigroups():
    """Small named topological semigroups with hand-written open families,
    used as checker fixtures."""
    def upsets(s: FinSemigroup) -> TopSpec:
        masks = [up_set(s, x) for x in range(s.n)]
        return TopSpec.generated(s.n, masks)

    z2 = cyclic_group(2)
    z3 = cyclic_group(3)
    z20 = adjoin_zero(z2)
    b2 = brandt_semigroup(2)
    chain2 = chain_semilattice(2)
    chain3 = chain_semilattice(3)
    anti = antichain_with_zero(3)
    diamond = powerset_semilattice(2)
    out = [
        ("Z2_discrete", TopSemigroup(z2, TopSpec.discrete(2))),
        ("Z3_discrete", TopSemigroup(z3, TopSpec.discrete(3))),
        ("Z2^0_discrete", TopSemigroup(z20, TopSpec.discrete(3))),
        ("B2_discrete", TopSemigroup(b2, TopSpec.discrete(5))),
        ("chain2_upper", TopSemigroup(chain2, upsets(chain2))),
        ("chain3_upper", TopSemigroup(chain3, upsets(chain3))),
        ("chain3_discrete", TopSemigroup(chain3, TopSpec.discrete(3))),
        ("antichain3^0_discrete", TopSemigroup(anti, TopSpec.discrete(4))),
        ("powerset2_upper", TopSemigroup(diamond, upsets(diamond))),
        ("powerset2_discrete", TopSemigroup(diamond, TopSpec.discrete(4))),
    ]
    return out


def bundled_top_semilattices():
    return [(name, ts) for name, ts in bundled_top_semigroups() if is_semilattice(ts.sem)]
