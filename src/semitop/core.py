"""Finite semigroups as dense multiplication tables, congruences, inverses.

Conventions: elements are the indices 0..n-1, ``table[a][b]`` is the product
a*b (row = left factor).  A monoid identity is declared data, never inferred.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, partial, reduce
from itertools import chain, compress, repeat
from operator import itemgetter, lt, ne

from .errors import (
    DomainError,
    KindError,
    LoadError,
    MalformedTableError,
    SizeError,
    TheoremViolationError,
)

RIGHT = "right"
TWO_SIDED = "two-sided"


def _greedy_generators(rows, sizes=None):
    """Scan the elements by decreasing size of their principal right ideal
    aS (the distinct entries of a's row; sizes[a] when the caller knows it),
    ties by index, and make each element not yet generated a generator.
    Elements high in the R-order come first, so they generate much of what
    follows: I4 needs 5 generators in this order and 84 in index order.

    The generated set is the right-Cayley closure: every reached element is
    multiplied on the right by every generator once, so the closure costs
    O(n |G|) lookups.  It holds the left-bracketed products of generators.
    That is exact for Light's test even before the table is known to be
    associative, because the set of elements that pass the test is closed
    under the product (see check_associativity).  On an associative table
    the left-bracketed products are all products, so the list equals the
    one a closure under the product on both sides would give.
    """
    if sizes is None:
        sizes = [len(set(row)) for row in rows]
    seen = [False] * len(rows)
    reached = []
    gens = []
    for x in sorted(range(len(rows)), key=lambda a: -sizes[a]):
        if seen[x]:
            continue
        gens.append(x)
        seen[x] = True
        todo = [x]
        for y in reached:  # the earlier closure times the new generator
            p = rows[y][x]
            if not seen[p]:
                seen[p] = True
                todo.append(p)
        while todo:
            y = todo.pop()
            reached.append(y)
            ry = rows[y]
            for g in gens:
                p = ry[g]
                if not seen[p]:
                    seen[p] = True
                    todo.append(p)
    return gens


def _light_holds(rows, g):
    """(x*g)*y == x*(g*y) for all x, y: Light's test at one generator g.

    When gS, the distinct entries of g's row, holds more than half the
    carrier (groups, full monoids), rows are compared directly; otherwise
    the comparison is restricted to gS (see _light_holds_on).
    """
    cols = sorted(set(rows[g]))
    if 2 * len(cols) > len(rows):
        times_g_row = _gather(rows[g])  # times_g_row(rows[x])[y] == x*(g*y)
        return all(rows[row[g]] == times_g_row(row) for row in rows)
    return _light_holds_on(rows, g, cols)


def _light_holds_on(rows, g, cols):
    """Light's test at g restricted to cols, the sorted distinct entries of
    g's row.  x*(g*y) reads row x only at those columns, so the check of x
    depends only on the key (x*g, row x on cols).  Each distinct key is
    expanded once through the positions of g's row and compared with row
    x*g: n |gS| + keys n lookups instead of n^2.
    """
    at = {c: i for i, c in enumerate(cols)}
    expand = _gather(map(at.get, rows[g]))  # expand(row x on cols)[y] == x*(g*y)
    keys = set(zip(map(itemgetter(g), rows), map(_gather(cols), rows)))
    return all(rows[xg] == expand(on_gs) for xg, on_gs in keys)


def _light_holds_at_zero(rows, z, supports, cols, g):
    """Light's test at g on rows with the two-sided zero z, read on the
    supports alone: supports[x] is R(x) = {y : x*y != z}, ascending, and
    cols[c] is C(c) = {x : x*c != z}.  (x*g)*y == x*(g*y) for all x, y
    exactly when
      (a) C(g*y) is inside C(g) for every y in R(g), and
      (b) (x*g)*y == x*(g*y) for every x in C(g), y in R(x*g) | R(g).
    For x outside C(g) the left side is z*y = z; so is the right side, x*z
    when y is outside R(g) and by (a) when y is in it.  For x in C(g) and y
    outside R(x*g) | R(g) both sides are z.  A y in R(x*g) outside R(g) has
    x*(g*y) = x*z = z != (x*g)*y, so (b) holds exactly when R(x*g) lies in
    R(g), which the count of non-zero entries of row x*g on R(g) decides,
    and the two sides agree on R(g).  The test reads sum |C(c)| over gS
    plus 2 |C(g)| |R(g)| entries: about 3 w^2 for a Brandt generator of
    window w, against n (w + 1) for the dense test (see _light_holds_on).
    """
    on_rg = _gather(supports[g])
    gy = on_rg(rows[g])  # g*y for y in R(g)
    cg = set(cols[g])
    if not all(map(cg.issuperset, map(cols.__getitem__, gy))):
        return False
    times_g = _gather(gy)  # times_g(row x) == x*(g*y) for y in R(g)
    for x in cols[g]:
        xg = rows[x][g]
        got = on_rg(rows[xg])
        if got != times_g(rows[x]) or len(supports[xg]) != len(gy) - got.count(z):
            return False
    return True


def check_associativity(table):
    """Return (True, None) or (False, first violating triple (a, b, c)).

    Raises MalformedTableError for non-square tables or entries that are not
    ints (bools included) in range, so the checks only ever see valid indices.
    A row of plain ints within range is accepted at C speed; any other row is
    read entry by entry, so the first bad entry is the one named.

    Light's test over a greedy generating set G decides the verdict: it
    checks (x*g)*y == x*(g*y) for every generator g and all x, y.  It is
    exact because A = {a : (x*a)*y == x*(a*y) for all x, y} is closed under
    the product: for a, b in A,
    (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y).
    So G within A, and every element a left-bracketed product of generators
    (see _greedy_generators), give A = S.  For each g the check is
    restricted to the columns gS (see _light_holds_on), which costs
    O(n |gS| + keys n) per generator, against O(n^2) for the direct row
    comparison it keeps when 2 |gS| > n.  Tables given here are always read
    this way; the catalog's Brandt carriers are built by
    FinSemigroup.from_supports, which runs the same test on the supports of
    their rows (see _light_holds_at_zero).  Only when the test fails does
    the triple scan run, so the witness is the lexicographically least
    violating triple.  An empty table is refused.
    """
    triple = _associativity(table)[0]
    return triple is None, triple


def _associativity(table):
    """(None, generating set) for an associative table, (first violating
    triple, None) otherwise; see check_associativity."""
    n = len(table)
    if not n:
        raise MalformedTableError("table is empty")
    for row in table:
        if len(row) != n:
            raise MalformedTableError(f"table is not square: row of length {len(row)}, expected {n}")
        _check_indices(row, n)
    rows = [tuple(row) for row in table]
    return _light_verdict(rows, _greedy_generators(rows), partial(_light_holds, rows))


def _check_indices(entries, n):
    """Raise MalformedTableError at the first entry that is not an int
    (bools excluded) in 0..n-1; entries of plain ints within range pass at
    C speed."""
    if set(map(type, entries)) == {int} and min(entries) >= 0 and max(entries) < n:
        return
    for v in entries:
        if type(v) is not int or not 0 <= v < n:
            raise MalformedTableError(f"entry {v!r} out of range 0..{n - 1}")


def _light_verdict(rows, gens, holds):
    """(None, gens) when holds(g), Light's test at g, is true for every
    generator; otherwise (the least violating triple, None) from the triple
    scan over the rows."""
    if all(map(holds, gens)):
        return None, tuple(gens)
    n = len(rows)
    for a in range(n):
        ra = rows[a]
        for b in range(n):
            rab = rows[ra[b]]
            rb = rows[b]
            for c in range(n):
                if rab[c] != ra[rb[c]]:
                    return (a, b, c), None
    return None, tuple(gens)


def _gather(positions):
    """A reader of a sequence at the given positions into a tuple.  It is
    itemgetter(*positions), which reads at C speed, for two or more
    positions; itemgetter alone gives a bare entry for one position and
    refuses none."""
    positions = tuple(positions)
    if len(positions) > 1:
        return itemgetter(*positions)
    return lambda seq: tuple([seq[p] for p in positions])


def _zero(rows):
    """The zero of a table, or None.  The left-bracketed product
    z = 0*1*...*(n-1) is a product with the zero as a factor, so it is the
    zero if there is one, and z is the zero iff its row and its column hold
    only z: 2n reads."""
    n = len(rows)
    z = reduce(lambda p, x: rows[p][x], range(n))
    return z if rows[z].count(z) == n and all(row[z] == z for row in rows) else None


class _Support(dict):
    """``support[a]``: the ascending positions where line a of the rows
    differs from the zero d of the rows (see _zero), listed the first time
    line a is asked for.  Line a is ``rows[a]``, or, with column set, the
    column ``rows[x][a]`` over x, read off the rows at C speed, so no
    transposed table is built; the zero of a table is the zero of its
    transpose.  Rows without a zero have d None, which every entry differs
    from, so their supports are whole lines.  d is found at the first ask,
    so a closure that merges nothing reads nothing.  A semigroup built by
    FinSemigroup.from_supports holds every row's and every column's support
    and d from the start.
    """

    def __init__(self, rows, column=False):
        super().__init__()
        self.rows = rows
        self.column = column

    @cached_property
    def d(self):
        return _zero(self.rows)

    def __missing__(self, a):
        rows = self.rows
        line = map(itemgetter(a), rows) if self.column else rows[a]
        got = self[a] = list(compress(range(len(rows)), map(ne, line, repeat(self.d))))
        return got


def _rows_from_supports(z, supports, values):
    """Check the sparse data of FinSemigroup.from_supports and derive from
    it (dense rows, supports as tuples, column supports, sizes of aS).

    Every support and value entry must be an int (not a bool) in range,
    each support strictly ascending and as long as its values, no value z,
    z's row empty and z in no support: then z is a two-sided zero.  The
    checks read each support and value entry a bounded number of times, at
    C speed within a row.  Row a is [z] * n with values[a] written at
    supports[a]; it differs from z exactly on its support, so aS is its
    distinct values, plus z when the support is not the whole row.
    """
    n = len(supports)
    if not n:
        raise MalformedTableError("empty carrier")
    if len(values) != n:
        raise MalformedTableError(f"{len(values)} value rows for {n} supports")
    if type(z) is not int or not 0 <= z < n:
        raise MalformedTableError(f"zero {z!r} out of range 0..{n - 1}")
    supports = [tuple(sup) for sup in supports]  # a tuple is kept, not copied
    values = [tuple(vals) for vals in values]
    for a, (sup, vals) in enumerate(zip(supports, values)):
        if len(sup) != len(vals):
            raise MalformedTableError(f"row {a}: {len(sup)} support places for {len(vals)} values")
        _check_indices(sup, n)
        _check_indices(vals, n)
        if not all(map(lt, sup, sup[1:])):
            raise MalformedTableError(f"support of row {a} is not strictly ascending")
        if z in vals:
            raise MalformedTableError(f"row {a} holds the zero {z} on its support")
    if supports[z]:
        raise MalformedTableError(f"the row of the zero {z} has a non-empty support")
    rows, cols = [], [[] for _ in range(n)]
    for x, (sup, vals) in enumerate(zip(supports, values)):
        row = [z] * n
        for y, v in zip(sup, vals):
            row[y] = v
            cols[y].append(x)
        rows.append(tuple(row))
    if cols[z]:
        raise MalformedTableError(f"the zero {z} lies in the support of row {cols[z][0]}")
    sizes = [len(set(vals)) + (len(sup) < n) for sup, vals in zip(supports, values)]
    return rows, supports, cols, sizes


@dataclass(frozen=True)
class FinSemigroup:
    """A finite semigroup given by its full multiplication table, or, when it
    has a zero, by the supports of its rows (see from_supports)."""

    table: tuple[tuple[int, ...], ...]
    names: tuple[str, ...] | None = None
    name: str = ""
    identity: int | None = None
    generators: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(tuple(row) for row in self.table))
        self._settle(*_associativity(self.table))

    @classmethod
    def from_supports(cls, z, supports, values, names=None, name=""):
        """The semigroup with the two-sided zero z whose row a differs from
        z exactly at the ascending positions supports[a], where it holds
        values[a].

        Only the sparse data is read: _rows_from_supports checks it and
        derives the dense table, so the table is never taken on trust.
        Light's test runs on the supports (_light_holds_at_zero) over the
        greedy generators, ranked by the sizes of aS read off the values,
        and the row_support and column_support caches are seeded with the
        given supports and the column supports derived from them.  A
        non-associative table raises the same error, naming the same least
        triple, as FinSemigroup(table) would.
        """
        rows, supports, cols, sizes = _rows_from_supports(z, supports, values)
        holds = partial(_light_holds_at_zero, rows, z, supports, cols)
        s = cls.__new__(cls)
        for key, value in (("table", tuple(rows)), ("names", names), ("name", name),
                           ("identity", None)):
            object.__setattr__(s, key, value)
        s._settle(*_light_verdict(rows, _greedy_generators(rows, sizes), holds))
        for key, lines, column in (("row_support", supports, False),
                                   ("column_support", cols, True)):
            support = _Support(s.table, column)
            support.update(enumerate(lines))
            support.d = z
            object.__setattr__(s, key, support)
        return s

    def _settle(self, triple, gens):
        """Finish a construction from the associativity verdict: refuse a
        violating triple, keep the generators, check labels and identity."""
        if self.names is not None:
            object.__setattr__(self, "names", tuple(self.names))
        if triple is not None:
            raise MalformedTableError(f"not associative at {triple}")
        object.__setattr__(self, "generators", gens)
        n = len(self.table)
        if self.names is not None and len(self.names) != n:
            raise MalformedTableError(f"{len(self.names)} labels for {n} elements")
        e = self.identity
        if e is not None:
            if not 0 <= e < n:
                raise MalformedTableError(f"identity {e} out of range")
            for x in range(n):
                if self.table[e][x] != x or self.table[x][e] != x:
                    raise MalformedTableError(f"declared identity {e} is not neutral at {x}")

    @property
    def n(self):
        return len(self.table)

    def mul(self, a, b):
        return self.table[a][b]

    def label(self, x):
        return self.names[x] if self.names else str(x)

    # Caches of derived tables.  They live on the semigroup, so they go when
    # it goes, and each is built on first use.

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """The transposed table: ``columns[b][a]`` is a*b."""
        return tuple(zip(*self.table))

    @cached_property
    def row_support(self) -> _Support:
        """Where each row differs from the zero: the whole row without one."""
        return _Support(self.table)

    @cached_property
    def column_support(self) -> _Support:
        """Where each column differs from the zero: the whole column
        without one.  Each is read off the rows, not off columns."""
        return _Support(self.table, column=True)


def is_commutative(s: FinSemigroup) -> bool:
    t = s.table
    return all(t[a][b] == t[b][a] for a in range(s.n) for b in range(a + 1, s.n))


def idempotents(s: FinSemigroup) -> tuple[int, ...]:
    return tuple(x for x in range(s.n) if s.table[x][x] == x)


def is_semilattice(s: FinSemigroup) -> bool:
    return is_commutative(s) and len(idempotents(s)) == s.n


@dataclass(frozen=True)
class NotInverse:
    """Witness that a semigroup is not inverse: an element together with its
    number of generalized inverses (0 or >= 2)."""

    witness: int
    inverse_count: int


@dataclass(frozen=True)
class InverseStructure:
    """An inverse semigroup: the base table, the unique inverse map, and the
    idempotents dom[x] = x*x^-1 and ran[x] = x^-1*x of each x.  Maps compose
    left to right, so in I_N x*x^-1 is the identity on the domain of x."""

    base: FinSemigroup
    inv: tuple[int, ...]
    idempotents: tuple[int, ...]
    dom: tuple[int, ...] = field(init=False, repr=False, compare=False)
    ran: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t = self.base.table
        object.__setattr__(self, "dom", tuple(t[x][y] for x, y in enumerate(self.inv)))
        object.__setattr__(self, "ran", tuple(t[y][x] for x, y in enumerate(self.inv)))

    @property
    def n(self):
        return self.base.n


def inverse_structure(s: FinSemigroup):
    """Return the InverseStructure of s, or NotInverse with a witness element
    having zero or several generalized inverses."""
    t = s.table
    inv = []
    for x in range(s.n):
        found = [y for y in range(s.n) if t[t[x][y]][x] == x and t[t[y][x]][y] == y]
        if len(found) != 1:
            return NotInverse(witness=x, inverse_count=len(found))
        inv.append(found[0])
    return InverseStructure(base=s, inv=tuple(inv), idempotents=idempotents(s))


def _require_inverse(s: FinSemigroup, need: str) -> InverseStructure:
    """The InverseStructure of s, or one DomainError naming need and a witness."""
    got = inverse_structure(s)
    if isinstance(got, NotInverse):
        raise DomainError(f"{need} needs an inverse semigroup: element "
                          f"{s.label(got.witness)} has {got.inverse_count} inverses")
    return got


def clifford_check(inv: InverseStructure) -> tuple[bool, int | None]:
    """x*x^-1 == x^-1*x for every x; witness is the least failing x."""
    x = next(compress(range(inv.n), map(ne, inv.dom, inv.ran)), None)
    return x is None, x


def natural_order(s: FinSemigroup, e: int, f: int) -> bool:
    """e <= f in the natural partial order on idempotents: e*f == e."""
    t = s.table
    if t[e][e] != e:
        raise DomainError(f"{e} is not idempotent")
    if t[f][f] != f:
        raise DomainError(f"{f} is not idempotent")
    return t[e][f] == e


def _group_unit(rows, members):
    """The identity of members under the associative table rows when they
    form a group, else None: they must be closed, hold exactly one
    idempotent e, and e must be neutral on them.  Every x of a finite
    semigroup has an idempotent power x^k (Howie, Fundamentals of Semigroup
    Theory, 1995, 1.2), which can only be e, so x^(k-1) (e when k = 1)
    inverts x."""
    members = tuple(members)
    idem = [x for x in members if rows[x][x] == x]
    if len(idem) != 1:
        return None
    e, inside = idem[0], set(members)
    neutral = all(rows[e][x] == x == rows[x][e] for x in members)
    closed = all(rows[x][y] in inside for x in members for y in members)
    return e if neutral and closed else None


def maximal_subgroup(inv: InverseStructure, e: int) -> tuple[int, ...]:
    """H_e = all x with x*x^-1 == e == x^-1*x, verified to be a group with identity e."""
    t = inv.base.table
    if t[e][e] != e:
        raise DomainError(f"{e} is not idempotent")
    h = tuple(x for x in range(inv.n) if inv.dom[x] == e == inv.ran[x])
    if _group_unit(t, h) != e:
        raise TheoremViolationError(f"H_{e} is not a group with identity {e}")
    return h


def adjoin_zero(s: FinSemigroup) -> FinSemigroup:
    """Add a new absorbing element at index n."""
    n = s.n
    rows = [tuple(row) + (n,) for row in s.table]
    rows.append(tuple([n] * (n + 1)))
    names = (s.names + ("0",)) if s.names else None
    return FinSemigroup(tuple(rows), names=names, name=s.name + "^0" if s.name else "", identity=s.identity)


def adjoin_identity(s: FinSemigroup) -> FinSemigroup:
    """Add a new neutral element at index n and declare it as the identity."""
    n = s.n
    rows = [tuple(row) + (i,) for i, row in enumerate(s.table)]
    rows.append(tuple(range(n + 1)))
    names = (s.names + ("1",)) if s.names else None
    return FinSemigroup(tuple(rows), names=names, name=s.name + "^1" if s.name else "", identity=n)


def canonical_classes(vec) -> tuple[int, ...]:
    """Relabel a class-id vector so ids appear in first-occurrence order."""
    seen = {}
    out = []
    for v in vec:
        if v not in seen:
            seen[v] = len(seen)
        out.append(seen[v])
    return tuple(out)


def _translate_holds(c, size, support, images, d):
    """Whether a translation sends each class of the class vector c into
    one class, when it sends the x of the ascending list support to images,
    in order, and every other x to the zero d; size[a] is the number of
    members of class a.  With no zero, d is None and the support is the
    whole carrier.

    The members in the support must send each class to one class.  A class
    with members outside the support also goes to the class cd of d, so a
    class sent elsewhere must lie inside the support: counting the support
    members sent outside cd checks that for all such classes at once.  The
    cost is O(len(support)) whatever the size of c.
    """
    cd = None if d is None else c[d]
    src = map(c.__getitem__, support)
    dst = tuple(map(c.__getitem__, images))
    pairs = set(zip(src, dst))
    image = dict(pairs)
    return (len(image) == len(pairs)
            and len(dst) - dst.count(cd) == sum(size[a] for a, b in image.items() if b != cd))


def _stable_on_generators(base, kind, c):
    """Whether the class vector c is right stable under every generator g
    of base, and left stable too for the two-sided kind (see Congruence).
    x*g is read off row x for the x in g's column support, and g*x off row
    g on its row support, so no column of the table is built."""
    t, cols, rows = base.table, base.column_support, base.row_support
    holds = partial(_translate_holds, c, Counter(c))
    right = (holds(cols[g], map(itemgetter(g), map(t.__getitem__, cols[g])), cols.d)
             for g in base.generators)
    left = (holds(rows[g], map(t[g].__getitem__, rows[g]), rows.d) for g in base.generators)
    return all(right) and (kind != TWO_SIDED or all(left))


@dataclass(frozen=True)
class Congruence:
    """A right or two-sided congruence, stored as a canonical partition.

    ``classes[x]`` is the class id of x; ids are numbered by first occurrence.
    Stability for the declared kind is checked on construction.

    The check reads only the generators of the base, the list its
    associativity check kept (FinSemigroup.generators): the partition is
    right stable iff x rho y gives x*g rho y*g for every generator g.  For
    then x*g1 rho y*g1, (x*g1)*g2 rho (y*g1)*g2, and so on, and since the
    table is associative the left-bracketed products of generators are all
    of S (Howie, Fundamentals of Semigroup Theory, 1995, 1.5).  Left
    stability is the mirror image.  Each generator g is checked on its
    column support alone (its row support for the left side), the x with
    x*g other than the zero of the table, every x when there is none, and
    each x*g there is read off row x (see _stable_on_generators); the class
    sizes are counted once per partition.  A Brandt column of window w has
    a support of w places, so a branch of that carrier costs
    O(n + w |G|) = O(w^2) reads, not n |G|.
    The block-by-block scan, which names a failure, reads one row per
    member that is not its block's representative: it runs when that is no
    more rows than there are generators (the diagonal of a discrete control
    reads none), or when some generator fails.
    """

    base: FinSemigroup
    kind: str
    classes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        if self.kind not in (RIGHT, TWO_SIDED):
            raise KindError(f"unknown congruence kind {self.kind!r}")
        if len(self.classes) != self.base.n:
            raise MalformedTableError("class vector length differs from carrier size")
        if self.classes != canonical_classes(self.classes):
            raise MalformedTableError("class vector is not in canonical first-occurrence form")
        n = self.base.n
        c = self.classes
        k = self.num_classes
        gens = self.base.generators
        # stable under g: the class of x*g (and of g*x) is a function of the
        # class of x.  The block scan below reads n - k rows, so the
        # generators go first only when they are fewer.
        if len(gens) < n - k and _stable_on_generators(self.base, self.kind, c):
            return
        # comparing every member against its block representative covers all
        # same-class pairs by transitivity and names the first failure
        sides = [(self.base.table, "not right-stable: ({rep},{x}) * {s}")]
        if self.kind == TWO_SIDED:
            sides.append((self.base.columns, "not left-stable: {s} * ({rep},{x})"))
        for block in self.blocks():
            if len(block) == 1:  # no member to compare with the representative
                continue
            rep = block[0]
            for rows, message in sides:
                want = _gather(rows[rep])(c)
                for x in block[1:]:
                    got = _gather(rows[x])(c)
                    if got != want:
                        s = next(i for i in range(n) if got[i] != want[i])
                        raise KindError(message.format(rep=rep, x=x, s=s))

    @property
    def num_classes(self):
        return max(self.classes) + 1 if self.classes else 0

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        out = [[] for _ in range(self.num_classes)]
        for x, cx in enumerate(self.classes):
            out[cx].append(x)
        return tuple(tuple(b) for b in out)


def diagonal(s: FinSemigroup, kind=RIGHT) -> Congruence:
    return Congruence(s, kind, tuple(range(s.n)))


def universal(s: FinSemigroup, kind=RIGHT) -> Congruence:
    return Congruence(s, kind, tuple([0] * s.n))


class _UnionFind:
    """Quick-find with union by size: ``label[x]`` is the class id of x, read
    directly by callers, and ``union`` relabels the members of the smaller
    class.  Class ids are arbitrary; callers canonicalize the label vector."""

    def __init__(self, n):
        self.label = list(range(n))
        self.members = [[x] for x in range(n)]

    def union(self, a, b):
        label, members = self.label, self.members
        la, lb = label[a], label[b]
        if la == lb:
            return False
        if len(members[la]) < len(members[lb]):
            la, lb = lb, la
        moved = members[lb]
        for x in moved:
            label[x] = la
        members[la] += moved
        members[lb] = None
        return True


def _close(s: FinSemigroup, seeds, kind):
    """Worklist closure engine: (class vector, chain) of the smallest
    congruence of the given kind containing the seed pairs, not re-checked.

    Merging (a, b) derives (a*m, b*m) for every multiplier m in ascending
    order (then (m*a, m*b) for the two-sided kind).  Each chain step is
    ((a, b), multiplier, (a*m, b*m)), recorded at the moment the derived pair
    still joins two distinct classes, judged by the labels right after the
    union of (a, b); replaying the steps in order rebuilds the same
    partition.  The worklist is the seeds, then the chain's derived pairs.

    Only the multipliers in E[a] | E[b] are read, where E[x] is the support
    of row x: the positions where it differs from the zero d of the table
    (s.row_support; s.column_support, whose zero is the same, for the left
    side), the whole row when there is no zero.  Any m outside both has
    a*m == d == b*m, a pair that joins nothing, so the scan finds the same
    multipliers in the same order.  Supports are ascending, so when one is
    empty (a forcing closure always joins the zero, whose row is empty) the
    other is read as it stands.  A Brandt row of window w has a support
    of w out of w*w + 1 places, so a union costs O(w) instead of O(w^2).
    """
    if kind not in (RIGHT, TWO_SIDED):
        raise KindError(f"unknown congruence kind {kind!r}")
    n = s.n
    sides = [(s.table, s.row_support)]
    if kind == TWO_SIDED:
        sides.append((s.columns, s.column_support))
    uf = _UnionFind(n)
    label = uf.label
    pairs = []
    for a, b in seeds:
        if not (type(a) is type(b) is int and 0 <= a < n and 0 <= b < n):
            raise DomainError(f"seed pair ({a!r}, {b!r}) out of range")
        pairs.append((a, b))
    steps = []
    for a, b in chain(pairs, map(itemgetter(2), steps)):
        if label[a] == label[b]:
            continue
        uf.union(a, b)
        merged = (a, b)
        for rows, support in sides:
            ra, rb = rows[a], rows[b]
            sa, sb = support[a], support[b]
            for m in sorted({*sa, *sb}) if sa and sb else sa or sb:
                x, y = ra[m], rb[m]
                if label[x] != label[y]:
                    steps.append((merged, m, (x, y)))
    return canonical_classes(label), tuple(steps)


def _derivation(n, seeds, chain, x, z):
    """The steps of a _close chain that join x and z, in chain order.

    Replaying the seeds and then the chain with a union-find keeps one
    forest edge per merge, labelled by its chain step (None for a seed).  A
    forest has one path between two points, so the kept steps are those on
    the path from x to z and, recursively, on the path joining each kept
    step's pair (a, b).  That pair was joined before its step, by a seed or
    by an earlier step, so its path uses only earlier labels and the
    recursion ends.  Replayed in chain order after the seeds, every kept
    step's pair is already joined and the last one joins x and z: the steps
    hold in every congruence containing the seeds (McConnell, Mehlhorn,
    Naher and Schweitzer, "Certifying algorithms", Computer Science Review
    5, 2011).  Returns () when the seeds alone join x and z.
    """
    links = [(a, b, None) for a, b in seeds]
    links += [(da, db, j) for j, (_, _, (da, db)) in enumerate(chain)]
    uf = _UnionFind(n)
    adjacent = [[] for _ in range(n)]
    for a, b, j in links:
        if uf.union(a, b):
            adjacent[a].append((b, j))
            adjacent[b].append((a, j))
    if uf.label[x] != uf.label[z]:
        raise DomainError(f"the chain does not join {x} and {z}")
    # root each tree, so a path climbs from its deeper end to the meeting point
    parent, depth = [None] * n, [0] * n
    for root in range(n):
        if parent[root] is None:
            parent[root] = (root, None)
            todo = [root]
            while todo:
                u = todo.pop()
                for v, j in adjacent[u]:
                    if parent[v] is None:
                        parent[v], depth[v] = (u, j), depth[u] + 1
                        todo.append(v)
    kept = set()
    todo = [(x, z)]
    while todo:
        a, b = todo.pop()
        while a != b:
            if depth[a] < depth[b]:
                a, b = b, a
            a, j = parent[a]
            if j is not None and j not in kept:
                kept.add(j)
                todo.append(chain[j][0])
    return tuple(chain[j] for j in sorted(kept))


def congruence_closure(s: FinSemigroup, seeds, kind=RIGHT) -> Congruence:
    """Smallest congruence of the given kind containing the seed pairs."""
    return Congruence(s, kind, _close(s, seeds, kind)[0])


def _require_same_lattice(r1: Congruence, r2: Congruence):
    if r1.base is not r2.base and r1.base != r2.base:
        raise DomainError("congruences live on different semigroups")
    if r1.kind != r2.kind:
        raise KindError(f"kind mismatch: {r1.kind} vs {r2.kind}")


def congruence_meet(r1: Congruence, r2: Congruence) -> Congruence:
    """Intersection of two congruences over the same base and kind."""
    _require_same_lattice(r1, r2)
    combo = [(r1.classes[x], r2.classes[x]) for x in range(r1.base.n)]
    return Congruence(r1.base, r1.kind, canonical_classes(combo))


def _join(u, v):
    """Canonical class vector of the join of two partitions given as
    canonical class vectors: one union-find pass over the classes of u links
    the u-classes of the points that share a class of v."""
    uf = _UnionFind(len(u))
    first = {}
    for cu, cv in zip(u, v):
        uf.union(first.setdefault(cv, cu), cu)
    label = uf.label
    return canonical_classes([label[cu] for cu in u])


def congruence_join(r1: Congruence, r2: Congruence) -> Congruence:
    """Join: transitive closure of the union of the two partitions.  The join
    of two congruences of the same kind is again one."""
    _require_same_lattice(r1, r2)
    return Congruence(r1.base, r1.kind, _join(r1.classes, r2.classes))


ENUMERATION_BOUND = 10  # largest carrier whose lattice is enumerated
ENUMERATION_LIMIT = 512  # largest lattice returned


def enumerate_congruences(s: FinSemigroup, kind=RIGHT) -> list[Congruence]:
    """All congruences of the given kind, in lexicographic class-vector order.

    The lattice is the join-closure of the principal congruences Cg(a, b):
    every congruence is the join of the principal congruences of its pairs,
    and the join of two congruences of one kind is again one.  One closure
    per pair gives the distinct principal congruences p_1 < ... < p_m.  The
    set starts from the diagonal, the empty join, and takes them one at a
    time: step j adds x v p_j for every member x found before it.  By
    induction, after step j the set holds exactly the joins of the subsets
    of p_1..p_j, since a join that uses p_j is (join of the rest) v p_j and
    the rest was found by step j - 1.  A member with x[a] == x[b], for the
    pair (a, b) that gave p_j, already contains p_j (it is a congruence
    holding (a, b)), so x v p_j == x and that join is skipped (Freese,
    "Computing congruences efficiently", Algebra Universalis 59, 2008).  On
    the odd_chain presentation of window 9 this is 1,479 joins for 512
    members, against 23,040 for every (member, principal congruence) pair.
    Carriers above ENUMERATION_BOUND points and lattices above
    ENUMERATION_LIMIT members raise SizeError; right-zero blocks make every
    partition stable, so the count can reach Bell-number scale even under
    the carrier bound.
    """
    if s.n > ENUMERATION_BOUND:
        raise SizeError(f"carrier size {s.n} exceeds enumeration bound {ENUMERATION_BOUND}")
    start = diagonal(s, kind)
    principal = {}
    for a in range(s.n):
        for b in range(a + 1, s.n):
            principal.setdefault(_close(s, [(a, b)], kind)[0], (a, b))
    found = {start.classes: start}
    for p in sorted(principal):
        a, b = principal[p]
        for vec in [vec for vec in found if vec[a] != vec[b]]:
            tau = _join(vec, p)
            if tau not in found:
                if len(found) >= ENUMERATION_LIMIT:
                    raise SizeError(f"congruence lattice exceeded {ENUMERATION_LIMIT} members")
                found[tau] = Congruence(s, kind, tau)
    return [found[k] for k in sorted(found)]


def quotient(s: FinSemigroup, rho: Congruence):
    """Quotient semigroup and the projection vector; needs a two-sided kind."""
    if rho.kind != TWO_SIDED:
        raise KindError("quotient needs a two-sided congruence")
    if rho.base != s:
        raise DomainError("congruence lives on a different semigroup")
    k = rho.num_classes
    reps = [block[0] for block in rho.blocks()]
    table = tuple(
        tuple(rho.classes[s.table[reps[a]][reps[b]]] for b in range(k)) for a in range(k)
    )
    ident = rho.classes[s.identity] if s.identity is not None else None
    q = FinSemigroup(table, name=(s.name + "/rho") if s.name else "", identity=ident)
    return q, rho.classes


def is_vagner_preston(inv: InverseStructure, rho: Congruence) -> bool:
    """Right-congruence test on an inverse monoid: for each s, either every t
    in [s] has the identity in [t*t^-1], or [s*t] == [s] for every t."""
    m = inv.base
    if m.identity is None:
        raise DomainError("needs a designated identity element")
    t = m.table
    c = rho.classes
    one = c[m.identity]
    for block in rho.blocks():
        if all(c[inv.dom[y]] == one for y in block):
            continue
        if all(c[t[x][y]] == c[x] for x in block for y in range(m.n)):
            continue
        return False
    return True


@dataclass(frozen=True)
class VPClassification:
    """Outcome of classifying a quotient by a Vagner-Preston congruence."""

    kind: str  # "group" | "group-with-zero"
    quotient: FinSemigroup


def classify_vp_quotient(inv: InverseStructure, rho: Congruence) -> VPClassification:
    """Classify M/rho as a group or a group with adjoined zero.

    Preconditions: M commutative inverse monoid, rho a Vagner-Preston right
    congruence.  On a commutative semigroup every right congruence is two
    sided, so the quotient is well defined.  Any other outcome raises
    TheoremViolationError.
    """
    m = inv.base
    if not is_commutative(m):
        raise DomainError("classification needs a commutative monoid")
    if not is_vagner_preston(inv, rho):
        raise DomainError("congruence is not Vagner-Preston")
    q = quotient(m, Congruence(m, TWO_SIDED, rho.classes))[0]
    z = _zero(q.table)
    if z is not None and q.n > 1:
        if _group_unit(q.table, (x for x in range(q.n) if x != z)) is not None:
            return VPClassification("group-with-zero", q)
        raise TheoremViolationError("quotient has a zero but the rest is not a group")
    if _group_unit(q.table, range(q.n)) is not None:
        return VPClassification("group", q)
    raise TheoremViolationError("quotient is neither a group nor a group with zero")


def subsemigroup(s: FinSemigroup, subset):
    """Relabelled table on a product-closed subset; returns (semigroup, the
    element list in table order)."""
    subset = sorted(subset)
    pos = {x: i for i, x in enumerate(subset)}
    for a in subset:
        for b in subset:
            if s.table[a][b] not in pos:
                raise DomainError(f"subset not closed: {a}*{b} escapes")
    table = tuple(tuple(pos[s.table[a][b]] for b in subset) for a in subset)
    names = tuple(s.label(x) for x in subset) if s.names else None
    ident = pos.get(s.identity) if s.identity is not None and s.identity in pos else None
    return FinSemigroup(table, names=names, identity=ident), tuple(subset)


# -- file format -------------------------------------------------------------

def _index(x, n=None):
    """The one index rule of loaded documents: a JSON integer (not a bool),
    not negative, and below n when n is given."""
    if type(x) is not int or x < 0 or (n is not None and x >= n):
        raise LoadError(f"expected an index{'' if n is None else f' below {n}'}, got {x!r}")
    return x


def parse_semigroup(doc) -> FinSemigroup:
    """Build a verified FinSemigroup from a JSON document; first violation
    fails the load."""
    if not isinstance(doc, dict):
        raise LoadError("semigroup document must be an object")
    table = doc.get("table")
    if not isinstance(table, list) or not table:
        raise LoadError("missing or empty 'table'")
    names = doc.get("elements")
    if names is not None:
        if not isinstance(names, list) or len(names) != len(table):
            raise LoadError("'elements' must label every row")
        names = tuple(str(x) for x in names)
    identity = doc.get("identity")
    if identity is not None:
        _index(identity, len(table))
    declared = doc.get("inverse")
    if declared is not None:
        if not isinstance(declared, list):
            raise LoadError("'inverse' must be a list of indices")
        declared = tuple(_index(v, len(table)) for v in declared)
    try:
        s = FinSemigroup(table, names=names, name=str(doc.get("name", "")), identity=identity)
    except (MalformedTableError, TypeError) as exc:
        raise LoadError(str(exc)) from exc
    if declared is not None:
        got = inverse_structure(s)
        if isinstance(got, NotInverse):
            raise LoadError(f"declared inverse but element {got.witness} has {got.inverse_count} inverses")
        if declared != got.inv:
            raise LoadError("declared inverse map disagrees with the computed one")
    return s


def semigroup_doc(s: FinSemigroup) -> dict:
    return {
        "schema": 1,
        "name": s.name,
        "elements": list(s.names) if s.names else [str(i) for i in range(s.n)],
        "table": [list(r) for r in s.table],
        "identity": s.identity,
        "inverse": None,
    }

