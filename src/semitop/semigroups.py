"""Bundled finite semigroups used across the package and its test suite."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .core import FinSemigroup, adjoin_identity, adjoin_zero
from .errors import DomainError, SizeError
from .transforms import PartialPerm, Transformation


def trivial_monoid() -> FinSemigroup:
    return FinSemigroup(((0,),), names=("1",), name="trivial", identity=0)


def cyclic_group(n) -> FinSemigroup:
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    names = tuple("1" if i == 0 else f"g{i}" for i in range(n))
    return FinSemigroup(table, names=names, name=f"Z{n}", identity=0)


def symmetric_group(n) -> FinSemigroup:
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(
        tuple(index[tuple(q[p[x]] for x in range(n))] for q in perms) for p in perms
    )
    names = tuple("".join(map(str, p)) for p in perms)
    return FinSemigroup(table, names=names, name=f"S{n}", identity=index[tuple(range(n))])


def left_zero(n) -> FinSemigroup:
    table = tuple(tuple(i for _ in range(n)) for i in range(n))
    return FinSemigroup(table, names=tuple(f"l{i}" for i in range(n)), name=f"L{n}")


def right_zero(n) -> FinSemigroup:
    table = tuple(tuple(range(n)) for _ in range(n))
    return FinSemigroup(table, names=tuple(f"r{i}" for i in range(n)), name=f"R{n}")


def chain_semilattice(n) -> FinSemigroup:
    """Chain 0 < 1 < ... < n-1 under minimum; the top is the identity."""
    table = tuple(tuple(min(i, j) for j in range(n)) for i in range(n))
    return FinSemigroup(table, names=tuple(f"c{i}" for i in range(n)), name=f"chain{n}",
                        identity=n - 1 if n else None)


def antichain_with_zero(n) -> FinSemigroup:
    """n incomparable idempotents whose pairwise products all hit a bottom
    zero (at index n)."""
    z = n
    table = tuple(
        tuple((i if i == j else z) for j in range(n)) + (z,) for i in range(n)
    ) + (tuple([z] * (n + 1)),)
    names = tuple(f"x{i}" for i in range(n)) + ("0",)
    return FinSemigroup(table, names=names, name=f"antichain{n}0")


def signed_antichain_with_zero(w) -> FinSemigroup:
    """The antichain-with-zero semilattice paired with a sign group.

    Element 2*t + b is (x_t, +) for b = 0 and (x_t, -) for b = 1, with t = w
    standing for the semilattice zero.  Signs multiply, semilattice parts
    meet; a commutative inverse semigroup that is not a monoid for w >= 2.
    """
    z = w

    def mul(a, b):
        ta, sa = divmod(a, 2)
        tb, sb = divmod(b, 2)
        t = ta if ta == tb else z
        return 2 * t + (sa ^ sb)

    n = 2 * (w + 1)
    table = tuple(tuple(mul(a, b) for b in range(n)) for a in range(n))
    names = tuple(
        f"{'x%d' % t if t < w else '0'}{'+' if s == 0 else '-'}"
        for t in range(w + 1) for s in range(2)
    )
    return FinSemigroup(table, names=names, name=f"signed_antichain{w}")


def composition_table(maps):
    """Indices of the left-to-right composites of window maps, read off
    their value tuples: x goes to g[f[x]], and a hole (None) stays a hole.
    Raises DomainError when a composite is not among the maps."""
    index = {m.map: i for i, m in enumerate(maps)}
    padded = [m.map + (None,) for m in maps]  # position -1 reads the hole
    table = []
    for f in maps:
        at = [-1 if v is None else v for v in f.map]
        try:
            table.append(tuple(index[tuple(map(g.__getitem__, at))] for g in padded))
        except KeyError:
            raise DomainError("not closed under composition") from None
    return tuple(table)


def full_transformation_monoid(n):
    """All self-maps of an n-point set; returns (semigroup, the maps)."""
    maps = [Transformation(n, m) for m in itertools.product(range(n), repeat=n)]
    index = {t.map: i for i, t in enumerate(maps)}
    table = composition_table(maps)
    names = tuple("".join(map(str, t.map)) for t in maps)
    ident = index[tuple(range(n))]
    return FinSemigroup(table, names=names, name=f"T{n}", identity=ident), tuple(maps)


def symmetric_inverse_monoid(n):
    """All injective partial maps of an n-point set; returns
    (semigroup, the partial permutations)."""
    elems = []
    for vals in itertools.product((None, *range(n)), repeat=n):
        defined = [v for v in vals if v is not None]
        if len(set(defined)) == len(defined):
            elems.append(PartialPerm(n, vals))
    elems.sort(key=lambda p: tuple(-1 if v is None else v for v in p.map))
    index = {p.map: i for i, p in enumerate(elems)}
    table = composition_table(elems)
    names = tuple(
        "{" + ",".join(f"{x}>{v}" for x, v in p.graph()) + "}" for p in elems
    )
    ident = index[tuple(range(n))]
    return FinSemigroup(table, names=names, name=f"I{n}", identity=ident), tuple(elems)


def brandt_semigroup(w) -> FinSemigroup:
    """Partial bijections of cardinality at most one on a w-point set:
    {(i, j)} at index i*w + j, the empty map at index w*w.

    (i, j)*(k, l) is (i, l) when j == k and empty otherwise, so the row of
    (i, j) is empty except for block j, which holds (i, 0) .. (i, w-1)."""
    empty = w * w
    empty_row = (empty,) * (empty + 1)
    table = tuple(
        empty_row[:j * w] + tuple(range(i * w, i * w + w)) + empty_row[j * w + w:]
        for i in range(w) for j in range(w)) + (empty_row,)
    names = tuple(f"({i},{j})" for i in range(w) for j in range(w)) + ("0",)
    return FinSemigroup(table, names=names, name=f"B{w}")


PRODUCT_BOUND = 2048  # elements of the largest product whose table is built


@dataclass(frozen=True)
class FinProduct:
    """Direct product of finitely many finite semigroups on packed
    mixed-radix indices: with F the last factor, (a, x) is a*|F| + x, so
    row (a, x) of the table holds ab*|F| + xy.  The table is built once,
    on first use, from the factor tables."""

    factors: tuple[FinSemigroup | FinProduct, ...]

    @property
    def n(self):
        return math.prod(f.n for f in self.factors)

    def encode(self, parts) -> int:
        x = 0
        for f, p in zip(self.factors, parts):
            x = x * f.n + p
        return x

    def decode(self, x) -> tuple[int, ...]:
        parts = []
        for f in reversed(self.factors):
            x, r = divmod(x, f.n)
            parts.append(r)
        return tuple(reversed(parts))

    @cached_property
    def factor_tables(self) -> tuple:
        return tuple(f.table for f in self.factors)

    @cached_property
    def table(self) -> tuple[tuple[int, ...], ...]:
        if self.n > PRODUCT_BOUND:
            raise SizeError(f"will not build the {self.n}-row table of a product; "
                            f"the bound is {PRODUCT_BOUND}")
        rows = ((0,),)
        for f in self.factors:
            # blocks[x][c] is c*|F| + (row x of F); row (a, x) chains the
            # blocks of x named by row a, so its cells are shared ints
            m = f.n
            blocks = [[tuple([c * m + xy for xy in row]) for c in range(len(rows))]
                      for row in f.table]
            rows = tuple(tuple(itertools.chain.from_iterable(map(bx.__getitem__, ra)))
                         for ra in rows for bx in blocks)
        return rows


def semilattice_from_sets(sets) -> FinSemigroup:
    """Meet semilattice of an intersection-closed family of sets, ordered by
    a deterministic (size, sorted-members) key."""
    family = sorted(set(frozenset(s) for s in sets), key=lambda s: (len(s), tuple(sorted(s))))
    index = {s: i for i, s in enumerate(family)}
    for a in family:
        for b in family:
            if (a & b) not in index:
                raise DomainError("family is not intersection-closed")
    table = tuple(tuple(index[a & b] for b in family) for a in family)
    names = tuple("{" + ",".join(map(str, sorted(s))) + "}" for s in family)
    return FinSemigroup(table, names=names, name="meet_family")


def commutative_inverse_monoid_catalog():
    """Named commutative inverse monoids of size at most 6."""
    z2 = cyclic_group(2)
    out = [
        ("trivial", trivial_monoid()),
        ("Z2", z2),
        ("Z3", cyclic_group(3)),
        ("Z4", cyclic_group(4)),
        ("Z2^0", adjoin_zero(z2)),
        ("Z3^0", adjoin_zero(cyclic_group(3))),
        ("chain2", chain_semilattice(2)),
        ("chain3", chain_semilattice(3)),
        ("chain4", chain_semilattice(4)),
        ("chain5", chain_semilattice(5)),
        ("antichain3^01", adjoin_identity(antichain_with_zero(3))),
        ("powerset2", powerset_semilattice(2)),
    ]
    return out


def powerset_semilattice(k) -> FinSemigroup:
    """All subsets of a k-point set under intersection; the full set is the
    identity."""
    base = semilattice_from_sets(
        frozenset(s) for r in range(k + 1) for s in itertools.combinations(range(k), r))
    return FinSemigroup(base.table, names=base.names, name=f"powerset{k}",
                        identity=base.n - 1)


def embedding_catalog():
    """Named semigroups exercised by the regular-representation builders."""
    out = [
        ("Z2", cyclic_group(2)),
        ("S3", symmetric_group(3)),
        ("L2", left_zero(2)),
        ("R2", right_zero(2)),
        ("T2", full_transformation_monoid(2)[0]),
        ("I2", symmetric_inverse_monoid(2)[0]),
        ("B2", brandt_semigroup(2)),
    ]
    for k in range(2, 6):
        out.append((f"chain{k}", chain_semilattice(k)))
    for w in (4, 5, 6):
        out.append((f"signed_antichain{w}", signed_antichain_with_zero(w)))
    return out
