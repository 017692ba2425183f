"""The bundled obstruction instances, written out a second time.

The certificate checker replays chains against these tables, so it must not
take them from the package it checks.  Each spec is the instance's carrier
table, limit point, admissible neighbourhood family (bitmasks, in order) and
escape targets, exactly as the catalog defines them; `smoke.py` compares the
two definitions at small windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

CLASS_ESCAPES = "class-escapes"
ISOLATED_COLLAPSES = "isolated-collapses"

OBSTRUCTED = ("exB", "odd_chain", "right_simple_zero:Z2", "right_simple_zero:R2",
              "right_simple_zero:S3", "brandt", "luke")


@dataclass(frozen=True)
class Spec:
    instance_id: str
    window: int
    guard: int
    table: tuple
    limit: int
    family: tuple      # admissible neighbourhoods of the limit, as bitmasks
    targets: tuple     # (mode, open mask or None, point or None)

    @property
    def n(self) -> int:
        return len(self.table)


def mask(points) -> int:
    out = 0
    for p in points:
        out |= 1 << p
    return out


def points(m: int) -> list[int]:
    return [i for i in range(m.bit_length()) if (m >> i) & 1]


def _table(n, mul):
    return tuple(tuple(mul(a, b) for b in range(n)) for a in range(n))


def _exb(w, discrete):
    def mul(a, b):
        ta, sa = divmod(a, 2)
        tb, sb = divmod(b, 2)
        return 2 * (ta if ta == tb else w) + (sa ^ sb)

    n = 2 * (w + 1)
    p, q = 2 * w, 2 * w + 1
    fam = ((1 << p,) if discrete else
           tuple(mask([p] + [2 * i for i in range(k, w)]) for k in range(w - 2)))
    return _table(n, mul), p, fam, ((ISOLATED_COLLAPSES, None, q),)


def _odd_chain(w, discrete):
    p = w
    if discrete:
        fam = (1 << p,)
    else:
        fam = tuple(mask([p] + [2 * i for i in range(m, (w + 1) // 2)])
                    for m in range(max(1, (w - 2) // 2)))
    return _table(w + 1, max), p, fam, ((CLASS_ESCAPES, fam[0], None),)


def _group(variant):
    if variant == "Z2":
        return _table(2, lambda a, b: (a + b) % 2)
    if variant == "R2":
        return _table(2, lambda a, b: b)
    perms = list(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return tuple(tuple(index[tuple(q[p[x]] for x in range(3))] for q in perms)
                 for p in perms)


def _right_simple_zero(w, discrete, variant):
    g = _group(variant)
    k = len(g)
    zero = k * w

    def mul(a, b):
        if a == zero or b == zero:
            return zero
        return g[a // w][b // w] * w + b % w

    n = k * w + 1
    p = n - 1
    fam = (1 << p,) if discrete else ((1 << n) - 1,)
    return _table(n, mul), p, fam, ((ISOLATED_COLLAPSES, None, 0),)


def _brandt_table(w):
    empty = w * w

    def mul(a, b):
        if a == empty or b == empty:
            return empty
        i, j = divmod(a, w)
        k, l = divmod(b, w)
        return i * w + l if j == k else empty

    return _table(w * w + 1, mul)


def _brandt(w, discrete):
    p = w * w
    fam = ((1 << p,) if discrete else
           tuple(mask([p] + [i * w + i for i in range(k, w)]) for k in range(w - 2)))
    return _brandt_table(w), p, fam, ((CLASS_ESCAPES, fam[0], None),)


def _luke(w, discrete):
    p = w * w
    if discrete:
        fam = (1 << p,)
        open0 = 1 << p
    else:
        fam = tuple(mask([p] + [i * w + j for i in range(k, w) for j in range(k, w)])
                    for k in range(w - 2))
        open0 = mask([p] + [i * w + j for i in range(w) for j in range(1, w)])
    return _brandt_table(w), p, fam, ((CLASS_ESCAPES, open0, None),)


def spec(instance_id: str, window: int) -> Spec:
    """Spec of a catalog identifier such as ``brandt`` or
    ``right_simple_zero:S3-discrete``."""
    name = instance_id
    discrete = name.endswith("-discrete")
    if discrete:
        name = name[: -len("-discrete")]
    if name.startswith("right_simple_zero:"):
        parts = _right_simple_zero(window, discrete, name.split(":", 1)[1])
    else:
        parts = {"exB": _exb, "odd_chain": _odd_chain, "brandt": _brandt,
                 "luke": _luke}[name](window, discrete)
    table, limit, fam, targets = parts
    return Spec(instance_id, window, window - 2, table, limit, fam, targets)
