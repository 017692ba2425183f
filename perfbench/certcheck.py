"""Independent checker for obstruction certificates and NoObstruction reports.

Uses only the instance spec from `families` and its own union-find and
closure; it calls nothing in the package under test.  A valid certificate
replays: every index is an int in 0..n-1, every chain step applies its
multiplier to an already merged pair, the replayed partition equals the
recorded one and is right-stable (so it is the least right congruence
containing the seeds), and the recorded witness fires the recorded target.
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter

from families import CLASS_ESCAPES, Spec, points


class _UF:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)
            return True
        return False


def _canonical(vec):
    seen = {}
    return tuple(seen.setdefault(v, len(seen)) for v in vec)


def _is_index(v, n) -> bool:
    return type(v) is int and 0 <= v < n


def _same_ints(got, want) -> bool:
    """Equal lists of ints; 6.0 and True do not pass for 6 and 1."""
    return (isinstance(got, list) and len(got) == len(want)
            and all(type(g) is int and g == w for g, w in zip(got, want)))


def _right_stable(rows, classes) -> bool:
    """Every member's row, read through the partition, equals its class
    representative's."""
    want = {}
    for x, c in enumerate(classes):
        got = rows[x](classes)
        if want.setdefault(c, got) != got:
            return False
    return True


def _fires(sp: Spec, target, classes, witness) -> bool:
    mode, open_mask, point = target
    if mode == CLASS_ESCAPES:
        return classes[witness] == classes[sp.limit] and not (open_mask >> witness) & 1
    return witness != point and classes[witness] == classes[point]


def _least_right_congruence(table, seeds):
    uf = _UF(len(table))
    work = deque(seeds)
    while work:
        a, b = work.popleft()
        if uf.union(a, b):
            work.extend(zip(table[a], table[b]))
    return _canonical([uf.find(x) for x in range(len(table))])


def _seeds(sp: Spec, nbhd: int):
    return [(sp.limit, z) for z in points(nbhd) if z != sp.limit]


class Checker:
    """Checks documents against one instance spec; builds the row getters
    once so the stability test runs at C speed."""

    def __init__(self, sp: Spec):
        self.sp = sp
        self.rows = [itemgetter(*row) for row in sp.table]

    def check(self, doc) -> str | None:
        """None when the document is a valid answer for the instance, else
        the first problem found."""
        sp = self.sp
        if not isinstance(doc, dict):
            return "document is not an object"
        if doc.get("instance") != sp.instance_id or not _same_ints([doc.get("window")], [sp.window]):
            return "instance or window mismatch"
        if doc.get("kind") == "no_obstruction":
            return self._check_survivor(doc)
        if doc.get("kind") != "obstruction_certificate":
            return "unknown document kind"
        if not _same_ints([doc.get("guard"), doc.get("limit")], [sp.guard, sp.limit]):
            return "guard or limit mismatch"
        branches = doc.get("branches")
        if not isinstance(branches, list) or len(branches) != len(sp.family):
            return "branches do not cover the admissible family"
        for k, (br, nbhd) in enumerate(zip(branches, sp.family)):
            why = self._check_branch(br, nbhd)
            if why:
                return f"branch {k}: {why}"
        return None

    def _check_branch(self, br, nbhd) -> str | None:
        sp = self.sp
        n = sp.n
        if not isinstance(br, dict) or not _same_ints(br.get("neighborhood"), points(nbhd)):
            return "neighbourhood differs from the admissible family"
        uf = _UF(n)
        for a, b in _seeds(sp, nbhd):
            uf.union(a, b)
        chain = br.get("chain")
        if not isinstance(chain, list):
            return "chain is not a list"
        for step in chain:
            try:
                (a, b), m, (da, db) = step
            except (TypeError, ValueError):
                return "malformed chain step"
            if not all(_is_index(v, n) for v in (a, b, m, da, db)):
                return "chain index out of range"
            if uf.find(a) != uf.find(b):
                return f"step uses unmerged pair ({a}, {b})"
            if sp.table[a][m] != da or sp.table[b][m] != db:
                return f"step misapplies multiplier {m}"
            uf.union(da, db)
        classes = _canonical([uf.find(x) for x in range(n)])
        if not _same_ints(br.get("classes"), classes):
            return "replay does not reproduce the recorded partition"
        if not _right_stable(self.rows, classes):
            return "recorded partition is not right-stable"
        t, w = br.get("target"), br.get("witness")
        if not _is_index(t, len(sp.targets)) or not _is_index(w, n):
            return "target or witness out of range"
        if not _fires(sp, sp.targets[t], classes, w):
            return "witness does not fire the target"
        return None

    def _check_survivor(self, doc) -> str | None:
        sp = self.sp
        surviving = doc.get("surviving")
        fam = [points(v) for v in sp.family]
        if not any(_same_ints(surviving, f) for f in fam):
            return "surviving set is not an admissible neighbourhood"
        k = fam.index(surviving)
        for j, nbhd in enumerate(sp.family[: k + 1]):
            classes = _least_right_congruence(sp.table, _seeds(sp, nbhd))
            fired = any(_fires(sp, tgt, classes, w)
                        for tgt in sp.targets for w in range(sp.n))
            if j < k and not fired:
                return f"an earlier neighbourhood ({j}) already survives"
            if j == k and (fired or not _same_ints(doc.get("classes"), classes)):
                return "surviving branch fires a target or has the wrong partition"
        return None
