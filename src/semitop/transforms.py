"""Finite transformations, partial permutations, and lazily evaluated maps.

Composition is read left to right throughout: (x)(f*g) = ((x)f)g.  A
Transformation on window n is a total map n -> n; a PartialPerm is an
injective partial map whose domain and image live inside the window.  LazyMap
is a small closed combinator language for window-evaluable elements of the
full function space on the naturals and of the partial-bijection space;
``eval`` returns None where the map is undefined.  A representation reads a
window map's values from its map and a lazy map's by ``eval`` at each
window point.  Lazy maps are written to representation documents but never
read back.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class Transformation:
    window: int
    map: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "map", tuple(self.map))
        if len(self.map) != self.window:
            raise DomainError(f"map of length {len(self.map)} on window {self.window}")
        for x, v in enumerate(self.map):
            if type(v) is not int or not 0 <= v < self.window:
                raise DomainError(f"value {v!r} at {x} outside window {self.window}")

    def __call__(self, x):
        return self.map[x]


@dataclass(frozen=True)
class PartialPerm:
    """Injective partial map; ``map[x] is None`` marks undefined points."""

    window: int
    map: tuple[int | None, ...]

    def __post_init__(self):
        object.__setattr__(self, "map", tuple(self.map))
        if len(self.map) != self.window:
            raise DomainError(f"map of length {len(self.map)} on window {self.window}")
        seen = set()
        for x, v in enumerate(self.map):
            if v is None:
                continue
            if type(v) is not int or not 0 <= v < self.window:
                raise DomainError(f"value {v!r} at {x} outside window {self.window}")
            if v in seen:
                raise DomainError(f"not injective: value {v} repeats")
            seen.add(v)

    def __call__(self, x):
        return self.map[x]

    def graph(self) -> tuple[tuple[int, int], ...]:
        return tuple((x, v) for x, v in enumerate(self.map) if v is not None)


def compose(f, g):
    """Left-to-right composition of two same-window maps of the same type."""
    if type(f) is not type(g):
        raise DomainError(f"cannot compose {type(f).__name__} with {type(g).__name__}")
    if isinstance(f, (Transformation, PartialPerm)):
        if f.window != g.window:
            raise DomainError("window mismatch")
        if isinstance(f, Transformation):
            return Transformation(f.window, tuple(g.map[v] for v in f.map))
        vals = tuple(None if v is None else g.map[v] for v in f.map)
        return PartialPerm(f.window, vals)
    raise DomainError(f"cannot compose {type(f).__name__}")


# -- lazy maps ---------------------------------------------------------------

class LazyMap:
    """Base class of the combinator AST; subclasses implement ``eval``."""

    def eval(self, x: int) -> int | None:
        raise NotImplementedError

    def __call__(self, x):
        return self.eval(x)


@dataclass(frozen=True)
class Identity(LazyMap):
    def eval(self, x):
        return x


@dataclass(frozen=True)
class Const(LazyMap):
    value: int

    def eval(self, x):
        return self.value


@dataclass(frozen=True)
class FiniteTable(LazyMap):
    """Finitely many listed exceptions over a fallback map.  A None value in
    the table makes the point undefined."""

    entries: tuple[tuple[int, int | None], ...]
    fallback: LazyMap

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple((int(k), v) for k, v in self.entries))
        keys = [k for k, _ in self.entries]
        if len(set(keys)) != len(keys):
            raise DomainError("duplicate table keys")

    def eval(self, x):
        for k, v in self.entries:
            if k == x:
                return v
        return self.fallback.eval(x)


@dataclass(frozen=True)
class AffineParity(LazyMap):
    """Block map on residue classes: a rule (r, inner, r_out) sends
    x = q*modulus + r to inner(q)*modulus + r_out.  Residues without a rule
    are undefined."""

    modulus: int
    rules: tuple[tuple[int, LazyMap, int], ...]

    def __post_init__(self):
        if self.modulus < 1:
            raise DomainError("modulus must be positive")
        seen = set()
        for r, _, r_out in self.rules:
            if not (0 <= r < self.modulus and 0 <= r_out < self.modulus):
                raise DomainError(f"residue pair ({r}, {r_out}) outside modulus {self.modulus}")
            if r in seen:
                raise DomainError(f"duplicate rule for residue {r}")
            seen.add(r)

    def eval(self, x):
        q, r = divmod(x, self.modulus)
        for rr, inner, r_out in self.rules:
            if rr == r:
                v = inner.eval(q)
                return None if v is None else v * self.modulus + r_out
        return None


UNDEFINED = AffineParity(1, ())  # nowhere-defined map


def pair_index(i, j) -> int:
    """The pairing 2^i * (2j + 1) - 1; row i sweeps the block A_i."""
    return (1 << i) * (2 * j + 1) - 1


def unpair_index(x):
    """Inverse of pair_index: block and offset of a natural number."""
    v = x + 1
    i = (v & -v).bit_length() - 1
    return i, ((v >> i) - 1) // 2


@dataclass(frozen=True)
class PairBlock(LazyMap):
    """Acts blockwise through the pairing function: block i is moved by
    ``inners[i]``; blocks past the list are left pointwise fixed."""

    inners: tuple[LazyMap, ...]

    def eval(self, x):
        i, j = unpair_index(x)
        if i >= len(self.inners):
            return x
        v = self.inners[i].eval(j)
        return None if v is None else pair_index(i, v)


def agree_on_window(f, g, n) -> bool:
    return all(f.eval(x) == g.eval(x) for x in range(n))


def lazy_extend(img) -> LazyMap:
    """View an image as a lazy map; a lazy map is itself.  A window
    transformation goes into the full function space by fixing every point
    beyond the window, which respects composition because the window maps
    into itself.  A window partial permutation goes into the
    partial-bijection space by leaving everything beyond the window
    undefined."""
    if isinstance(img, LazyMap):
        return img
    if isinstance(img, (Transformation, PartialPerm)):
        fallback = Identity() if isinstance(img, Transformation) else UNDEFINED
        return FiniteTable(tuple(enumerate(img.map)), fallback)
    raise DomainError(f"cannot view {type(img).__name__} as a lazy map")


def lazy_to_doc(m: LazyMap) -> dict:
    if isinstance(m, Identity):
        return {"kind": "identity"}
    if isinstance(m, Const):
        return {"kind": "const", "value": m.value}
    if isinstance(m, FiniteTable):
        return {"kind": "table", "entries": [[k, v] for k, v in m.entries],
                "fallback": lazy_to_doc(m.fallback)}
    if isinstance(m, AffineParity):
        return {"kind": "affine", "modulus": m.modulus,
                "rules": [[r, lazy_to_doc(inner), r_out] for r, inner, r_out in m.rules]}
    if isinstance(m, PairBlock):
        return {"kind": "pairblock", "inners": [lazy_to_doc(i) for i in m.inners]}
    raise DomainError(f"not a serializable lazy map: {type(m).__name__}")


# -- basic open sets ---------------------------------------------------------

NN = "NN"  # the space of total maps on the naturals
IN = "IN"  # the space of partial bijections of the naturals

U_ATOM = "U"        # (x, y) belongs to the graph
W_DOM = "W"         # x is outside the domain


@dataclass(frozen=True)
class BasicOpen:
    """A basic open set of one of the two target spaces.

    For NN the atoms are graph constraints (x, y) and the set is
    {g : g(x) = y for all listed pairs}.  For IN each atom is (U, x, y) or
    (W, x) from the canonical subbasis: x maps to y, or x is outside the
    domain.  The subbasis's image atoms are not represented, since the
    separating opens of an audit never need one.
    """

    space: str
    atoms: tuple[tuple, ...]

    def __post_init__(self):
        if self.space not in (NN, IN):
            raise DomainError(f"unknown space {self.space!r}")
        for atom in self.atoms:
            if self.space == NN:
                if len(atom) != 2:
                    raise DomainError(f"NN atom must be a pair, got {atom!r}")
            elif atom[0] not in (U_ATOM, W_DOM):
                raise DomainError(f"unknown IN atom {atom!r}")

