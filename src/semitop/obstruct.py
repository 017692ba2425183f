"""Forcing obstructions on truncated counterexample semigroups.

Each catalog instance is a finite window of a countable semigroup whose
topology admits no neighborhood basis of right-congruence classes.  The
finite argument runs per admissible basic neighborhood V of the limit point
p: the smallest right congruence putting V inside the class of p is forced,
step by step, to violate one of the instance's escape targets.  A
certificate records every branch with its forcing chain and final partition,
and can be replayed independently of the search.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

from .core import (
    RIGHT,
    Congruence,
    FinSemigroup,
    _index,
    _UnionFind,
    _close,
    canonical_classes,
    is_semilattice,
)
from .errors import DomainError, KindError, LoadError, SizeError, TheoremViolationError
from .semigroups import (
    FinProduct,
    brandt_semigroup,
    cyclic_group,
    right_zero,
    signed_antichain_with_zero,
    symmetric_group,
)
from .topo import (
    TruncatedPresentation,
    mask_of,
    points_of,
    presentation_doc,
)

CLASS_ESCAPES = "class-escapes"
ISOLATED_COLLAPSES = "isolated-collapses"


@dataclass(frozen=True)
class EscapeTarget:
    """What the forced congruence must violate.

    ``class-escapes``: the class of the limit point leaves the open set.
    ``isolated-collapses``: the class of an isolated point stops being a
    singleton.  Either way a family of all-open-class right congruences
    cannot separate the marked point into the marked neighborhood.
    """

    mode: str
    open_set: int | None = None
    point: int | None = None
    description: str = ""

    def __post_init__(self):
        if self.mode not in (CLASS_ESCAPES, ISOLATED_COLLAPSES):
            raise DomainError(f"unknown escape mode {self.mode!r}")
        if self.mode == CLASS_ESCAPES and self.open_set is None:
            raise DomainError("class-escapes needs an open set")
        if self.mode == ISOLATED_COLLAPSES and self.point is None:
            raise DomainError("isolated-collapses needs a point")


@dataclass(frozen=True)
class CatalogInstance:
    instance_id: str
    presentation: TruncatedPresentation
    limit: int
    targets: tuple[EscapeTarget, ...]
    notes: str = ""

    def __post_init__(self):
        pres = self.presentation
        if self.limit not in pres.limit_points:
            raise DomainError(f"{self.limit} is not a limit point of the presentation")
        for tgt in self.targets:
            if tgt.mode == CLASS_ESCAPES:
                if not (tgt.open_set >> self.limit) & 1:
                    raise DomainError("escape target open set misses the limit point")
                if not pres.is_open(tgt.open_set):
                    raise DomainError("escape target set is not open in the presentation")
            else:
                if tgt.point in pres.limit_points:
                    raise DomainError("collapse target must be an isolated point")

    def admissible(self) -> tuple[int, ...]:
        return self.presentation.family(self.limit)


def forcing_closure(pres: TruncatedPresentation, p: int, v_mask: int):
    """Smallest right congruence putting the admissible neighborhood V inside
    the class of p; returns (class vector, forcing chain).  The partition is
    left unchecked: verify_certificate checks the stability of its replay."""
    if v_mask not in pres.family(p):
        raise DomainError("neighborhood is not admissible for this limit point")
    seeds = [(p, z) for z in points_of(v_mask) if z != p]
    return _close(pres.base, seeds, RIGHT)


def _fires(target: EscapeTarget, classes, limit: int, x: int) -> bool:
    """Whether element x witnesses that the partition violates the target:
    x shares the limit's class outside the open set, or shares the isolated
    point's class without being it."""
    if target.mode == CLASS_ESCAPES:
        return classes[x] == classes[limit] and not (target.open_set >> x) & 1
    return classes[x] == classes[target.point] and x != target.point


def fired_target(inst: CatalogInstance, classes) -> tuple[int, int] | None:
    """The first target, in instance order, that the forced partition
    violates, with its least witness; None when no target fires."""
    for idx, target in enumerate(inst.targets):
        for x in range(len(classes)):
            if _fires(target, classes, inst.limit, x):
                return idx, x
    return None


@dataclass(frozen=True)
class ForcingBranch:
    neighborhood: int
    chain: tuple
    classes: tuple[int, ...]
    target_index: int
    witness: int


@dataclass(frozen=True)
class ObstructionCertificate:
    instance_id: str
    window: int
    guard: int
    limit: int
    branches: tuple[ForcingBranch, ...]


@dataclass(frozen=True)
class NoObstruction:
    instance_id: str
    window: int
    surviving: int  # the admissible neighborhood whose closure fires nothing
    classes: tuple[int, ...]


def escape_certificate(inst: CatalogInstance):
    """Run the forcing argument over every admissible neighborhood of the
    limit point, in family order.

    Success needs every branch to fire some target: larger neighborhoods
    force no less than smaller ones, so a single surviving branch means a
    congruence with the limit class inside that neighborhood exists and no
    obstruction can be claimed; it is returned as NoObstruction, whose
    partition no verifier replays, so it is checked here.  Obstruction
    branches are checked by verify_certificate alone.
    """
    branches = []
    for v in inst.admissible():
        classes, chain = forcing_closure(inst.presentation, inst.limit, v)
        hit = fired_target(inst, classes)
        if hit is None:
            return NoObstruction(
                instance_id=inst.instance_id,
                window=inst.presentation.window,
                surviving=v,
                classes=Congruence(inst.presentation.base, RIGHT, classes).classes,
            )
        idx, witness = hit
        branches.append(ForcingBranch(
            neighborhood=v, chain=chain, classes=classes,
            target_index=idx, witness=witness))
    return ObstructionCertificate(
        instance_id=inst.instance_id,
        window=inst.presentation.window,
        guard=inst.presentation.guard,
        limit=inst.limit,
        branches=tuple(branches),
    )


def verify_certificate(inst: CatalogInstance, cert: ObstructionCertificate) -> tuple[bool, str | None]:
    """Independent replay of a certificate against its instance.

    Checks instance identity, branch coverage of the whole admissible
    family, justification of every chain step (the derived pair really is
    the recorded multiplier applied to an already-merged pair), bit-exact
    reproduction of each branch partition by chain replay, right stability
    of the replay, and that the recorded target fires with the recorded
    witness.

    No closure is re-run: each replayed union right-translates a merged
    pair, so the replay lies inside the least right congruence containing
    the seeds, and a right-stable replay containing the seeds equals it.
    Right stability is checked by Congruence on the generators of the base
    alone, each read only on its column support (the x with x*g other than
    the zero, when the carrier has one), so a branch costs O(n + sum of the
    support sizes), not n per generator.  That rests on the associativity
    FinSemigroup checks when the carrier is built, not on the search engine
    being checked.  Indices must lie below len(classes), as
    certificate_from_doc ensures.
    """
    pres = inst.presentation
    if cert.instance_id != inst.instance_id:
        return False, "certificate names a different instance"
    if cert.window != pres.window or cert.guard != pres.guard or cert.limit != inst.limit:
        return False, "window, guard or limit point mismatch"
    fam = inst.admissible()
    if tuple(br.neighborhood for br in cert.branches) != fam:
        return False, "branches do not cover the admissible family in order"
    t = pres.base.table
    n = pres.base.n
    for br in cert.branches:
        if len(br.classes) != n:
            return False, "partition length differs from the carrier size"
        uf = _UnionFind(n)
        label = uf.label
        for z in points_of(br.neighborhood):
            uf.union(inst.limit, z)
        for (a, b), m, (da, db) in br.chain:
            if label[a] != label[b]:
                return False, f"chain step uses unmerged pair ({a}, {b})"
            if t[a][m] != da or t[b][m] != db:
                return False, f"chain step misapplies multiplier {m}"
            if label[da] != label[db]:
                uf.union(da, db)
        replayed = canonical_classes(label)
        if replayed != tuple(br.classes):
            return False, "chain replay does not reproduce the recorded partition"
        try:
            Congruence(pres.base, RIGHT, replayed)
        except KindError:
            return False, "replayed partition is not right-stable"
        if not 0 <= br.target_index < len(inst.targets):
            return False, "target index out of range"
        if not _fires(inst.targets[br.target_index], replayed, inst.limit, br.witness):
            return False, "recorded witness does not fire the recorded target"
    return True, None


# -- serialization -------------------------------------------------------------

def certificate_doc(cert) -> dict:
    if isinstance(cert, NoObstruction):
        return {
            "schema": 1,
            "kind": "no_obstruction",
            "instance": cert.instance_id,
            "window": cert.window,
            "surviving": points_of(cert.surviving),
            "classes": cert.classes,
        }
    return {
        "schema": 1,
        "kind": "obstruction_certificate",
        "instance": cert.instance_id,
        "window": cert.window,
        "guard": cert.guard,
        "limit": cert.limit,
        "branches": [
            {
                "neighborhood": points_of(b.neighborhood),
                "chain": b.chain,
                "classes": b.classes,
                "target": b.target_index,
                "witness": b.witness,
            }
            for b in cert.branches
        ],
    }


def _branch_from_doc(b):
    n = len(b["classes"])
    return ForcingBranch(
        neighborhood=mask_of(_index(z, n) for z in b["neighborhood"]),
        chain=tuple(((_index(a, n), _index(bb, n)), _index(m, n), (_index(da, n), _index(db, n)))
                    for (a, bb), m, (da, db) in b["chain"]),
        classes=tuple(_index(c, n) for c in b["classes"]),
        target_index=_index(b["target"]),
        witness=_index(b["witness"], n),
    )


def certificate_from_doc(doc):
    try:
        if type(doc["schema"]) is not int or doc["schema"] != 1:
            raise LoadError(f"unsupported certificate schema {doc['schema']!r}")
        if doc["kind"] == "no_obstruction":
            n = len(doc["classes"])
            return NoObstruction(
                instance_id=str(doc["instance"]),
                window=_index(doc["window"]),
                surviving=mask_of(_index(z, n) for z in doc["surviving"]),
                classes=tuple(_index(c, n) for c in doc["classes"]),
            )
        if doc["kind"] == "obstruction_certificate":
            return ObstructionCertificate(
                instance_id=str(doc["instance"]),
                window=_index(doc["window"]),
                guard=_index(doc["guard"]),
                limit=_index(doc["limit"]),
                branches=tuple(_branch_from_doc(b) for b in doc["branches"]),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise LoadError(f"malformed certificate document: {exc}") from exc
    raise LoadError(f"unknown certificate kind {doc.get('kind')!r}")


def instance_doc(inst: CatalogInstance) -> dict:
    return {
        "schema": 1,
        "kind": "catalog_instance",
        "instance": inst.instance_id,
        "limit": inst.limit,
        "notes": inst.notes,
        "presentation": presentation_doc(inst.presentation),
        "targets": [
            {
                "mode": t.mode,
                "open": None if t.open_set is None else list(points_of(t.open_set)),
                "point": t.point,
                "description": t.description,
            }
            for t in inst.targets
        ],
    }


# -- structural checks ---------------------------------------------------------

def right_simple_check(s: FinSemigroup | FinProduct) -> tuple[bool, int | None]:
    """a*S = S for every a, read off any square table with ``.n`` and
    ``.table`` (a FinProduct too); witness is the least failing element."""
    for a, row in enumerate(s.table):
        if len(set(row)) != s.n:
            return False, a
    return True, None


def chain_finite_check(s: FinSemigroup) -> tuple[bool, tuple[int, ...]]:
    """Longest chain of the natural order on a semilattice, top to bottom.

    Finite semilattices are always chain-finite; the witness documents how
    deep the bundled truncation actually is.
    """
    if not is_semilattice(s):
        raise DomainError("chain finiteness is a semilattice notion")
    t = s.table
    below = [tuple(y for y in range(s.n) if y != x and t[y][x] == y) for x in range(s.n)]

    def best_of(chains) -> tuple[int, ...]:
        best = ()
        for cand in chains:
            if len(cand) > len(best) or (len(cand) == len(best) and cand < best):
                best = cand
        return best

    # y < x makes below[y] a proper subset of below[x], so ascending size is a
    # linear extension: every chain below x is known before x is reached
    longest: list[tuple[int, ...]] = [()] * s.n
    for x in sorted(range(s.n), key=lambda x: len(below[x])):
        longest[x] = (x,) + best_of(longest[y] for y in below[x])
    return True, best_of(longest)


# -- the catalog ---------------------------------------------------------------

_MAX_WINDOW = 40  # brandt and luke then have 1601 elements


def _window_guard(window):
    if window < 4:
        raise DomainError(f"window {window} is too small; the families need at least 4")
    if window > _MAX_WINDOW:
        raise SizeError(f"window {window} is too large; the catalog stops at {_MAX_WINDOW}")
    return window - 2


# Each family maps a window w to (carrier, limit point, admissible family,
# core, escape target, notes); get_instance assembles the instance and
# derives the discrete control.

def _exB(w):
    """Signed antichain with zero: all points isolated except the positive
    zero, whose neighborhoods are even tails.  Forcing any tail into the
    class of (0,+) drives the matching negative tail into the class of the
    isolated point (0,-) via right multiplication by (x_i,-)."""
    base = signed_antichain_with_zero(w)
    p, q = 2 * w, 2 * w + 1
    fams = tuple(mask_of([p] + [2 * i for i in range(k, w)]) for k in range(w - 2))
    # negative-tail points have no small enough admissible neighborhoods
    # left in the window, so continuity is only replayable off them
    core = ((1 << base.n) - 1) ^ mask_of(2 * j + 1 for j in range(w - 3, w))
    target = EscapeTarget(
        ISOLATED_COLLAPSES, point=q,
        description="the isolated negative zero acquires a classmate")
    return (base, p, fams, core, target,
            "commutative inverse; discrete everywhere except one limit idempotent")


def _odd_chain(w):
    """Reciprocal chain under minimum: index i is 1/(i+1), index w is the
    limit 0, and the limit's neighborhoods hold only odd reciprocals (even
    indices).  Forcing an even index into the class of 0 drags in its odd
    successor, which no admissible neighborhood contains."""
    n = w + 1
    table = tuple(tuple(max(a, b) for b in range(n)) for a in range(n))
    names = tuple(f"1/{i + 1}" for i in range(w)) + ("0",)
    base = FinSemigroup(table, names=names, name=f"odd_chain{w}", identity=0)
    p = w
    m_count = max(1, (w - 2) // 2)
    fams = tuple(
        mask_of([p] + [2 * i for i in range(m, (w + 1) // 2)]) for m in range(m_count))
    core = ((1 << n) - 1) ^ mask_of(j for j in range(2 * m_count - 2, w) if j % 2 == 1)
    target = EscapeTarget(
        CLASS_ESCAPES, open_set=fams[0],
        description="the class of 0 leaves the largest odd-reciprocal neighborhood")
    return (base, p, fams, core, target,
            "locally compact chain semilattice with a single limit point")


_RS_GROUPS = {"Z2": lambda: cyclic_group(2), "R2": lambda: right_zero(2),
              "S3": lambda: symmetric_group(3)}


def _right_simple_zero(w, variant):
    """A right simple semigroup times a right-zero band, with adjoined zero.

    Continuity of multiplication at the non-isolated zero forces its only
    admissible neighborhood to be the whole carrier (any smaller one is
    blown open by a*S = S), so the single forcing branch collapses
    everything and every isolated point loses its singleton class.
    """
    g = _RS_GROUPS[variant]()
    body = FinProduct((g, right_zero(w)))  # (s, r) at s*w + r
    ok, bad = right_simple_check(body)
    if not ok:
        raise TheoremViolationError(f"carrier is not right simple at {bad}")
    zero = body.n
    table = tuple(row + (zero,) for row in body.table) + ((zero,) * (zero + 1),)
    names = tuple(f"({g.label(s)},{r})" for s in range(g.n) for r in range(w)) + ("0",)
    base = FinSemigroup(table, names=names, name=f"rs_{variant}{w}")
    target = EscapeTarget(
        ISOLATED_COLLAPSES, point=0,
        description="right simplicity spreads the zero class over the carrier")
    full = (1 << base.n) - 1
    return (base, zero, (full,), full, target,
            "the zero admits no proper open neighborhood compatible with continuity")


def _brandt(w):
    """Rank-at-most-one partial bijections with diagonal-tail neighborhoods
    of the empty map.  Forcing a diagonal into the class of 0 produces
    off-diagonal elements there, escaping every admissible neighborhood."""
    base = brandt_semigroup(w)
    p = w * w
    fams = tuple(mask_of([p] + [i * w + i for i in range(k, w)]) for k in range(w - 2))
    cut = w - 3
    core = mask_of(
        [p] + [i * w + i for i in range(w)]
        + [i * w + j for i in range(cut) for j in range(cut) if i != j])
    target = EscapeTarget(
        CLASS_ESCAPES, open_set=fams[0],
        description="an off-diagonal element joins the class of the empty map")
    return (base, p, fams, core, target,
            "inverse semigroup with compact idempotent set in the full space")


def _luke(w):
    """Same carrier as the diagonal instance, but with square-tail
    neighborhoods {g : dom g and im g avoid [0, k)} and the escape target
    'image avoids 0'.  Forcing (i,j) into the class of the empty map forces
    (i,0) there too, by right multiplication with (j,0)."""
    base = brandt_semigroup(w)
    p = w * w
    fams = tuple(
        mask_of([p] + [i * w + j for i in range(k, w) for j in range(k, w)])
        for k in range(w - 2))
    cut = w - 3
    low = mask_of(i * w + j for i in range(cut) for j in range(cut))
    high = mask_of(i * w + j for i in range(cut, w) for j in range(cut, w))
    image_avoids_0 = mask_of([p] + [i * w + j for i in range(w) for j in range(1, w)])
    target = EscapeTarget(
        CLASS_ESCAPES, open_set=image_avoids_0,
        description="the class of the empty map hits an element with 0 in its image")
    return (base, p, fams, (1 << p) | low | high, target,
            "the escape leaves a subbasic set rather than an admissible neighborhood")


_FAMILIES = {"exB": _exB, "odd_chain": _odd_chain, "right_simple_zero": _right_simple_zero,
             "brandt": _brandt, "luke": _luke}


def get_instance(instance_id: str, window: int = 6) -> CatalogInstance:
    """Build a catalog instance from its identifier.

    Identifiers are a family name, an optional ':variant' (right_simple_zero
    only, Z2 by default), and an optional '-discrete' suffix selecting the
    discrete control with the same carrier: the limit point's only
    neighborhood is itself, every point is core, and a class-escape target
    is the singleton of the limit point.
    """
    name = instance_id.removesuffix("-discrete")
    suffix = instance_id[len(name):]
    family, colon, variant = name.partition(":")
    if family not in _FAMILIES:
        raise LoadError(f"unknown instance {instance_id!r}")
    if family == "right_simple_zero":
        variant = variant if colon else "Z2"
        if variant not in _RS_GROUPS:
            raise DomainError(f"unknown right-simple variant {variant!r}")
        name = f"{family}:{variant}"
        build = partial(_right_simple_zero, variant=variant)
    elif colon:
        raise LoadError(f"family {family} takes no variant")
    else:
        build = _FAMILIES[family]
    guard = _window_guard(window)
    base, p, fams, core, target, notes = build(window)
    if suffix:
        fams, core = (1 << p,), (1 << base.n) - 1
        if target.mode == CLASS_ESCAPES:
            target = replace(target, open_set=1 << p)
    pres = TruncatedPresentation(
        base=base, window=window, guard=guard, limit_points=(p,), families=((p, fams),),
        core=core, name=f"{name}:{window}{suffix}", strict=not suffix)
    return CatalogInstance(
        instance_id=name + suffix, presentation=pres, limit=p, targets=(target,), notes=notes)


def catalog(window: int = 6) -> tuple[CatalogInstance, ...]:
    """The five bundled families at a common window."""
    return tuple(get_instance(fid, window) for fid in _FAMILIES)
