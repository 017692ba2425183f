"""Independent reference implementations.

Everything here quantifies literally over the objects named in the
definitions (all partitions, all open sets, all subsets), trading speed for
directness, so the fast library paths can be cross-checked against them.
Nothing in this module calls the library code under test except for plain
data access (tables, open-set families, labels) and the point values of
lazy maps.
"""

import itertools
from dataclasses import dataclass

from semitop.errors import EvaluationError
from semitop.topo import TopSemigroup, TopSpec
from semitop.transforms import (
    IN,
    NN,
    U_ATOM,
    W_DOM,
    BasicOpen,
    LazyMap,
    PartialPerm,
    Transformation,
)


def growth_vectors(n):
    """All canonical partition vectors of [0, n) in lexicographic order."""
    if n == 0:
        yield ()
        return
    stack = [((0,), 0)]
    while stack:
        prefix, mx = stack.pop()
        if len(prefix) == n:
            yield prefix
            continue
        for v in range(min(mx + 1, n - 1), -1, -1):
            stack.append((prefix + (v,), max(mx, v)))


def right_stable(table, vec):
    n = len(vec)
    for a in range(n):
        for b in range(a + 1, n):
            if vec[a] != vec[b]:
                continue
            for s in range(n):
                if vec[table[a][s]] != vec[table[b][s]]:
                    return False
    return True


def left_stable(table, vec):
    n = len(vec)
    for a in range(n):
        for b in range(a + 1, n):
            if vec[a] != vec[b]:
                continue
            for s in range(n):
                if vec[table[s][a]] != vec[table[s][b]]:
                    return False
    return True


def congruences_by_filter(table, two_sided=False):
    """Partition-filter enumeration: every canonical partition vector of the
    carrier, kept when stable under right (and optionally left) translation."""
    n = len(table)
    out = []
    for vec in growth_vectors(n):
        if right_stable(table, vec) and (not two_sided or left_stable(table, vec)):
            out.append(vec)
    return out


def assoc_by_triple_loop(table):
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return False
    return True


def vp_by_replay(table, inv, identity, vec):
    """Right-congruence dichotomy replay: for every s, either every t in the
    class of s satisfies 1 ~ t*t^-1, or right-translating s never leaves its
    class."""
    n = len(table)
    for a in range(n):
        first = all(vec[identity] == vec[table[t][inv[t]]]
                    for t in range(n) if vec[t] == vec[a])
        second = all(vec[table[a][t]] == vec[a] for t in range(n))
        if not (first or second):
            return False
    return True


def inverses_by_search(table, x):
    """Every y with x*y*x == x and y*x*y == y; one in an inverse semigroup."""
    return [y for y in range(len(table))
            if table[table[x][y]][x] == x and table[table[y][x]][y] == y]


def clifford_failures_by_replay(table):
    """The elements x of an inverse semigroup at which x*x^-1 != x^-1*x, the
    inverse found by search."""
    out = []
    for x in range(len(table)):
        (y,) = inverses_by_search(table, x)
        if table[x][y] != table[y][x]:
            out.append(x)
    return out


# -- topology helpers ----------------------------------------------------------


def bits(mask):
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def first_discontinuity_by_four_loops(table, points, nb):
    """(True, None), or (False, the least (a, b, c, d)) with a and b among
    points, c in nb[a], d in nb[b] and c*d outside nb[a*b]: every quadruple
    scanned in order."""
    for a in points:
        for b in points:
            target = nb[table[a][b]]
            for c in bits(nb[a]):
                for d in bits(nb[b]):
                    if not (target >> table[c][d]) & 1:
                        return False, (a, b, c, d)
    return True, None


def upper_cone(table, y):
    """{z : z >= y} in a meet-semilattice: y*z = y."""
    return {z for z in range(len(table)) if table[y][z] == y}


def all_subsets(n):
    return range(1 << n)


def clopen_ideals_by_filter(table, opens):
    """Every subset that is open, has open complement, and absorbs right
    multiplication by the whole carrier."""
    n = len(table)
    full = (1 << n) - 1
    out = []
    for mask in all_subsets(n):
        if mask not in opens or (full & ~mask) not in opens:
            continue
        if all((1 << table[x][s]) & mask for x in bits(mask) for s in range(n)):
            out.append(mask)
    return out


def u_at_point_by_replay(table, opens, x):
    """For every open U containing x there are y in U and an open V containing
    x with V inside the upper cone of y."""
    for u_mask in opens:
        if not (u_mask >> x) & 1:
            continue
        good = False
        for y in bits(u_mask):
            cone = 0
            for z in upper_cone(table, y):
                cone |= 1 << z
            if any((v >> x) & 1 and not (v & ~cone) for v in opens):
                good = True
                break
        if not good:
            return False
    return True


def u2_at_point_by_replay(table, opens, x):
    """For every open U containing x there are y in U and a clopen ideal I
    with x outside I and the complement of I inside the upper cone of y."""
    n = len(table)
    full = (1 << n) - 1
    ideals = clopen_ideals_by_filter(table, opens)
    for u_mask in opens:
        if not (u_mask >> x) & 1:
            continue
        good = False
        for y in bits(u_mask):
            cone = 0
            for z in upper_cone(table, y):
                cone |= 1 << z
            for i_mask in ideals:
                rest = full & ~i_mask
                if not (i_mask >> x) & 1 and not (rest & ~cone):
                    good = True
                    break
            if good:
                break
        if not good:
            return False
    return True


def u_witness_by_product(table, opens, x):
    """U's witness at x on a topological semilattice: (y, N_x), where y is
    the product of every point of the minimal neighbourhood N_x."""
    nx = min_nbhd_mask(opens, len(table), x)
    first, *rest = bits(nx)
    y = first
    for z in rest:
        y = table[y][z]
    return y, nx


def u2_by_one_pair(table, opens, x):
    """U2 at x decided by the one pair (y, I_x): y from u_witness_by_product
    and I_x the union of the clopen ideals that avoid x.  (True, (y, I_x))
    when everything outside I_x lies above y, else (False, None)."""
    y, _ = u_witness_by_product(table, opens, x)
    ideal = 0
    for m in clopen_ideals_by_filter(table, opens):
        if not (m >> x) & 1:
            ideal |= m
    outside = set(range(len(table))) - set(bits(ideal))
    return (True, (y, ideal)) if outside <= upper_cone(table, y) else (False, None)


def idempotent_mask(table):
    return sum(1 << e for e in range(len(table)) if table[e][e] == e)


def factor_set(table, inv, u_mask, w_mask):
    """{s : some b in U factors as b = e*s with e idempotent in W} meeting
    {s : s*s^-1 in W}."""
    n = len(table)
    emask = idempotent_mask(table) & w_mask
    out = 0
    for s in range(n):
        if not (w_mask >> table[s][inv[s]]) & 1:
            continue
        if any((u_mask >> table[e][s]) & 1 for e in bits(emask)):
            out |= 1 << s
    return out


def inversion_continuous_by_replay(table, inv, opens):
    n = len(table)
    for x in range(n):
        for o_mask in opens:
            if not (o_mask >> inv[x]) & 1:
                continue
            inv_ok = False
            for u_mask in opens:
                if not (u_mask >> x) & 1:
                    continue
                if all((o_mask >> inv[y]) & 1 for y in bits(u_mask)):
                    inv_ok = True
                    break
            if not inv_ok:
                return False
    return True


def power(table, x, k):
    """x^k for k >= 1."""
    out = x
    for _ in range(k - 1):
        out = table[out][x]
    return out


def idempotent_exponent(table):
    """The least N >= n with x^N idempotent for every x."""
    n = len(table)
    return next(k for k in itertools.count(n)
                if all(table[p][p] == p for p in (power(table, x, k) for x in range(n))))


def inversion_proof_replays(table, inv):
    """Replay README's proof that a -> c gives a^-1 -> c^-1 in every compatible
    preorder of an inverse semigroup, for every pair (a, c): a chain of
    one-step rewrites s*a*t -> s*c*t from a^-1 that ends at c^-1.  Each
    rewrite checks that the current term is s*a*t, and the identities of
    steps 2 and 3 are checked in between.  Returns the number of rewrites."""
    def mul(*xs):
        out = xs[0]
        for y in xs[1:]:
            out = table[out][y]
        return out

    def rewrite(term, a, c, s, t):
        assert mul(s, a, t) == term, (a, c, term, s, t)
        return mul(s, c, t)

    big_n = idempotent_exponent(table)
    rewrites = 0
    for a in range(len(table)):
        for c in range(len(table)):
            a_inv, c_inv = inv[a], inv[c]
            u = mul(a_inv, c)
            # step 1: u^k*a^-1 = (u^k*a^-1)*a*a^-1 -> u^k*a^-1*c*a^-1 = u^(k+1)*a^-1
            term = a_inv
            for _ in range(2 * big_n - 1):
                want = mul(u, term)
                term = rewrite(term, a, c, term, a_inv)
                assert term == want
            # step 2: u^(2N-1) and (u^-1)^(N+1) are both the inverse of u^(N+1)
            v, w = power(table, u, big_n + 1), power(table, u, 2 * big_n - 1)
            assert mul(v, w, v) == v and mul(w, v, w) == w and inv[v] == w
            assert inv[u] == mul(c_inv, a) and w == power(table, inv[u], big_n + 1)
            # step 3: (c^-1*a)^(N+1)*a^-1 = c^-1*p*a*a^-1 = c^-1*p, p = (a*c^-1)^N
            p = power(table, mul(a, c_inv), big_n)
            assert table[p][p] == p and mul(a, a_inv, p) == p and mul(p, a, a_inv) == p
            assert term == mul(c_inv, p, a, a_inv) == mul(c_inv, p)
            # step 4: c^-1*(a*c^-1)^(k+1) = c^-1*a*t -> c^-1*c*t = t with
            # t = c^-1*(a*c^-1)^k, so N rewrites turn p into (c*c^-1)^N
            tails = [c_inv]
            for _ in range(big_n - 1):
                tails.append(mul(c_inv, a, tails[-1]))
            for t in reversed(tails):
                term = rewrite(term, a, c, c_inv, t)
            assert term == c_inv, (a, c)
            rewrites += 3 * big_n - 1
    return rewrites


def ditop_by_replay(table, inv, opens, weak=False):
    """Literal definition: inversion continuous, and for every point x and
    every open O containing x there are opens U around x and W around x*x^-1
    (plus V around x^-1*x for the weak form) whose factorization set lies in
    O."""
    n = len(table)
    if not inversion_continuous_by_replay(table, inv, opens):
        return False
    for x in range(n):
        xx = table[x][inv[x]]
        xi = table[inv[x]][x]
        for o_mask in opens:
            if not (o_mask >> x) & 1:
                continue
            found = False
            for u_mask in opens:
                if not (u_mask >> x) & 1:
                    continue
                for w_mask in opens:
                    if not (w_mask >> xx) & 1:
                        continue
                    d = factor_set(table, inv, u_mask, w_mask)
                    if not weak:
                        if not (d & ~o_mask):
                            found = True
                            break
                        continue
                    for v_mask in opens:
                        if not (v_mask >> xi) & 1:
                            continue
                        dv = d & sum(1 << s for s in range(n)
                                     if (v_mask >> table[inv[s]][s]) & 1)
                        if not (dv & ~o_mask):
                            found = True
                            break
                    if found:
                        break
                if found:
                    break
            if not found:
                return False
    return True


def min_nbhd_mask(opens, n, x):
    full = (1 << n) - 1
    out = full
    for o in opens:
        if (o >> x) & 1:
            out &= o
    return out


def basis_by_candidate_filter(table, opens):
    """Some right congruence has all classes open and every class inside each
    member's minimal neighborhood.  Checked by filtering every partition."""
    n = len(table)
    nb = [min_nbhd_mask(opens, n, x) for x in range(n)]
    for vec in congruences_by_filter(table):
        blocks = {}
        for x, c in enumerate(vec):
            blocks[c] = blocks.get(c, 0) | (1 << x)
        if all(not (nb[y] & ~blocks[vec[y]]) for y in range(n)) and \
                all(not (blocks[vec[x]] & ~nb[x]) for x in range(n)):
            return True
    return False


def open_class_seeds(nb):
    """The pairs (y, w), w in N_y, that every right congruence with all
    classes open holds."""
    return [(y, w) for y in range(len(nb)) for w in bits(nb[y])]


def derivation_replays(table, seeds, steps, x, z):
    """A derivation of (x, z) from the seed pairs holds.  A union-find of its
    own starts from the seeds; each step ((a, b), m, (da, db)) needs a and b
    already joined and da == a*m, db == b*m, and then joins da and db; the
    last step leaves x and z in one class."""
    parent = list(range(len(table)))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for a, b in seeds:
        parent[find(a)] = find(b)
    for (a, b), m, (da, db) in steps:
        if find(a) != find(b) or table[a][m] != da or table[b][m] != db:
            return False
        parent[find(da)] = find(db)
    return find(x) == find(z)


# -- every small input ---------------------------------------------------------


def associative_tables(n):
    """Every associative table on [0, n), as a tuple of rows: all n^(n*n)
    tables, kept when the triple loop passes.  Labelled, so isomorphic
    copies each count: 1, 8 and 113 for n = 1, 2, 3 (OEIS A023814)."""
    for cells in itertools.product(range(n), repeat=n * n):
        table = tuple(cells[i:i + n] for i in range(0, n * n, n))
        if assoc_by_triple_loop(table):
            yield table


def topologies(n):
    """Every topology on [0, n) as a frozenset of open masks: each family of
    subsets that holds the empty set and the carrier, kept when it is closed
    under union and intersection.  1, 4 and 29 for n = 1, 2, 3 (OEIS
    A000798)."""
    full = (1 << n) - 1
    middle = range(1, full)
    out = []
    for pick in range(1 << len(middle)):
        opens = {0, full} | {m for i, m in enumerate(middle) if (pick >> i) & 1}
        if all(a | b in opens and a & b in opens for a in opens for b in opens):
            out.append(frozenset(opens))
    return out


# -- separating atoms of an embedding ------------------------------------------


def separating_atoms_by_all_pairs(values):
    """The (point, value) atoms at the first point where each pair of
    distinct value tuples differs, every pair scanned."""
    atoms = set()
    for i, u in enumerate(values):
        for v in values[i + 1:]:
            x = next(x for x in range(len(u)) if u[x] != v[x])
            atoms.update(((x, u[x]), (x, v[x])))
    return atoms


# -- lazy maps and basic opens --------------------------------------------------


@dataclass(frozen=True)
class Compose(LazyMap):
    """The left-to-right composite of two lazy maps, evaluated point by point."""

    first: LazyMap
    second: LazyMap

    def eval(self, x):
        v = self.first.eval(x)
        return None if v is None else self.second.eval(v)


def basic_open_member(h, b):
    """Membership of a window map or a lazy map in a basic open set, one atom
    at a time.  Raises EvaluationError when the element does not live in b's
    space or is a window transformation that cannot see a mentioned point."""
    if isinstance(h, PartialPerm if b.space == NN else Transformation):
        raise EvaluationError(f"a {type(h).__name__} does not live in {b.space}")

    def value(x):
        if isinstance(h, LazyMap):
            return h.eval(x)
        if x < h.window:
            return h.map[x]
        if isinstance(h, Transformation):
            raise EvaluationError(f"transformation window {h.window} cannot see point {x}")
        return None  # a window partial permutation is undefined beyond it

    if b.space == NN:
        return all(value(x) == y for x, y in b.atoms)
    return all(value(atom[1]) == (atom[2] if atom[0] == U_ATOM else None) for atom in b.atoms)


# -- the embedding audit, open by open -----------------------------------------


def atom_open(space, x, v):
    """The basic open of the space that pins window point x to the value v,
    which in IN may be a hole (None)."""
    if space == NN:
        return BasicOpen(NN, ((x, v),))
    return BasicOpen(IN, ((W_DOM, x),) if v is None else ((U_ATOM, x, v),))


def audit_by_dispatch(rep, source_top, opens=None):
    """The embedding audit with one openness rule per kind of source: None
    (discrete, everything open), a TopSpec (membership in the open family,
    minimal neighborhoods from the family scan) or a TopSemigroup.  The
    target opens default to the separating atoms of every pair of images, and
    each image is read through `basic_open_member`, not through its value
    tuple.  Returns (ok, the (open, preimage mask) pairs whose preimage is not
    open, the minimal neighborhoods of the source whose image is no union of
    traces)."""
    if isinstance(source_top, TopSemigroup):
        source_top = source_top.top
    n = rep.source.n
    if source_top is None:
        def is_open(_mask):
            return True
        basis = tuple(1 << x for x in range(n))
    else:
        is_open = source_top.opens.__contains__
        basis = tuple(sorted({min_nbhd_mask(source_top.opens, n, x) for x in range(n)}))
    if opens is None:
        atoms = separating_atoms_by_all_pairs(rep.values)
        opens = sorted((atom_open(rep.space, x, v) for x, v in atoms), key=str)
    traces, bad_pre = [], []
    for b in opens:
        mask = 0
        for i, img in enumerate(rep.images):
            if basic_open_member(img, b):
                mask |= 1 << i
        traces.append(mask)
        if not is_open(mask):
            bad_pre.append((b, mask))
    atom = [(1 << n) - 1] * n
    for mask in traces:
        for x in bits(mask):
            atom[x] &= mask
    bad_rel = tuple(u for u in basis if any(atom[x] & ~u for x in bits(u)))
    return not bad_pre and not bad_rel, tuple(bad_pre), bad_rel


# -- shared-image transformation group laws ------------------------------------


def law_replay(maps):
    """The six shared-image laws, replayed from scratch on concrete window
    maps: (unit, image, permutation, inverse, separation, transfer)."""
    maps = list(maps)
    win = maps[0].window
    table = {}
    for f in maps:
        for g in maps:
            h = tuple(g(f(x)) for x in range(win))
            table[(f.map, g.map)] = h
    units = [u for u in maps
             if all(table[(u.map, f.map)] == f.map and table[(f.map, u.map)] == f.map
                    for f in maps)]
    if len(units) != 1:
        return None
    unit = units[0]
    image = sorted(set(unit(x) for x in range(win)))
    results = {}
    results["unit-fixes-image"] = all(unit(x) == x for x in image)
    results["common-image"] = all(sorted(set(f(x) for x in range(win))) == image
                                  for f in maps)
    results["restriction-permutes"] = all(
        sorted(f(x) for x in image) == image for f in maps)
    inverses = {}
    for f in maps:
        cands = [g for g in maps if table[(f.map, g.map)] == unit.map
                 and table[(g.map, f.map)] == unit.map]
        if len(cands) != 1:
            return None
        inverses[f.map] = cands[0]
    results["inverse-restriction"] = all(
        inverses[f.map](f(x)) == x for f in maps for x in image)
    results["restriction-separates"] = all(
        f.map == g.map or any(f(x) != g(x) for x in image)
        for f in maps for g in maps)
    ok = True
    for f in maps:
        back = {f(x): x for x in image}
        for x in range(win):
            xp = back[f(x)]
            for g in maps:
                if (f(x) == g(x)) != (f(xp) == g(xp)):
                    ok = False
    results["value-transfer"] = ok
    return results


def scattered_height_by_replay(n, opens):
    """Iterate literal Cantor-Bendixson derivatives on the raw open family.

    A point is isolated in a subspace A when some open meets A exactly in
    that point.  Returns the number of derivative steps needed to empty the
    carrier, or None if the sequence stalls on a nonempty perfect kernel.
    """
    alive = frozenset(range(n))
    steps = 0
    while alive:
        isolated = set()
        for x in alive:
            for u in opens:
                if {p for p in alive if (u >> p) & 1} == {x}:
                    isolated.add(x)
                    break
        if not isolated:
            return None
        alive = alive - isolated
        steps += 1
    return steps


# -- chains of the natural order -----------------------------------------------


def longest_chain_by_search(table):
    """The lexicographically least of the longest chains x0 > x1 > ... of a
    semilattice's natural order (y <= x iff y*x = y), every chain listed."""
    n = len(table)
    best = ()
    stack = [(x,) for x in range(n)]
    while stack:
        chain = stack.pop()
        if len(chain) > len(best) or (len(chain) == len(best) and chain < best):
            best = chain
        top = chain[-1]
        stack.extend(chain + (y,) for y in range(n) if y != top and table[y][top] == y)
    return best


# -- README's Scope proofs (e)-(h), replayed from the tables -------------------


def cyclic_subgroups(n):
    """Every cyclic subgroup of the full transformation monoid T_n, once:
    for each self-map t of [0, n), the powers of t from the first one that
    recurs, as window maps.  Their neutral element is the idempotent power
    of t, a proper retraction unless t permutes [0, n)."""
    found = {}
    for t in itertools.product(range(n), repeat=n):
        powers = [t]
        while (nxt := tuple(t[v] for v in powers[-1])) not in powers:
            powers.append(nxt)
        cycle = powers[powers.index(nxt):]
        found.setdefault(frozenset(cycle), cycle)
    return [[Transformation(n, m) for m in cycle] for cycle in found.values()]


def wp_images_are_converse(table, inv):
    """(f) on the Wagner-Preston action: the image of a is x -> x*a on the x
    with x*(a*a^-1) = x, and the graph of the image of a^-1 is the graph of
    the image of a reversed, for every a.  Returns each image's values on
    [0, n), a hole None."""
    n = len(table)

    def graph(a):
        e = table[a][inv[a]]
        return {x: table[x][a] for x in range(n) if table[x][e] == x}

    for a in range(n):
        assert {(v, x) for x, v in graph(a).items()} == set(graph(inv[a]).items()), a
    return [tuple(map(graph(a).get, range(n))) for a in range(n)]


def maximal_subgroups_by_definition(table, inv):
    """(g), first part, in any inverse semigroup: H_e, the x with
    x*x^-1 = e = x^-1*x, is closed, has e as its identity, and holds an
    inverse of each member.  Returns H_e for each idempotent e, ascending."""
    n = len(table)
    groups = {}
    for e in (e for e in range(n) if table[e][e] == e):
        h = [x for x in range(n) if table[x][inv[x]] == e == table[inv[x]][x]]
        assert all(table[x][y] in h for x in h for y in h), e
        assert all(table[e][x] == x == table[x][e] for x in h), e
        assert all(any(table[x][y] == e == table[y][x] for y in h) for x in h), e
        groups[e] = tuple(h)
    return groups


def clifford_facts_replay(table, inv):
    """(g) in a Clifford semigroup, x*x^-1 = x^-1*x for every x: idempotents
    are central; x*y = (x*ef)*(y*ef) for x over e and y over f; and s*e lies
    in H_e whenever e <= s*s^-1.  Returns the H_e as
    maximal_subgroups_by_definition does."""
    n = len(table)
    over = [table[x][inv[x]] for x in range(n)]
    assert over == [table[inv[x]][x] for x in range(n)], "not a Clifford semigroup"
    groups = maximal_subgroups_by_definition(table, inv)
    for e in groups:
        assert all(table[e][x] == table[x][e] for x in range(n)), e
    for x, y in itertools.product(range(n), repeat=2):
        ef = table[over[x]][over[y]]
        assert table[x][y] == table[table[x][ef]][table[y][ef]], (x, y)
    for s in range(n):
        for e, h in groups.items():
            if table[e][over[s]] == e:
                assert table[s][e] in h, (s, e)
    return groups


def vp_classes_are_units_or_zero(table, identity, vec):
    """(h) on a right congruence vec of a commutative monoid that passes
    vp_by_replay: each class of the quotient is a unit (some class times it
    is the class of the identity) or the zero (it absorbs every element).
    Returns whether the quotient has a zero and more than one class."""
    n = len(table)
    first = {}  # class -> its least member
    for x in range(n):
        first.setdefault(vec[x], x)
    zero = False
    for c, a in first.items():
        unit = any(vec[table[a][b]] == vec[identity] for b in first.values())
        absorbs = all(vec[table[a][b]] == c for b in range(n))
        assert unit or absorbs, (vec, c)
        zero = zero or absorbs
    return zero and len(first) > 1


# -- constructors and readers the tests share ----------------------------------
# Unlike the references above, the constructors build library values, so the
# library checks each map they return.


def pp_from_pairs(n, pairs):
    """The partial permutation of an n-point window with the given graph."""
    vals = [None] * n
    for x, y in pairs:
        if vals[x] is not None:
            raise ValueError(f"point {x} mapped twice")
        vals[x] = y
    return PartialPerm(n, tuple(vals))


def identity_pp(n):
    return PartialPerm(n, tuple(range(n)))


def empty_pp(n):
    return PartialPerm(n, (None,) * n)


def invert(f):
    """Relational converse of an injective partial map."""
    vals = [None] * f.window
    for x, v in enumerate(f.map):
        if v is not None:
            vals[v] = x
    return PartialPerm(f.window, tuple(vals))


def identity_transformation(n):
    return Transformation(n, tuple(range(n)))


def indiscrete(n):
    return TopSpec(n, {0, (1 << n) - 1})


def domain(f):
    """The points where a partial permutation is defined, ascending."""
    return tuple(x for x, v in enumerate(f.map) if v is not None)


def same_class_pairs(classes):
    """The pairs a < b of one class of a class vector: the pairs of the
    congruence it describes, without its diagonal."""
    n = len(classes)
    return tuple((a, b) for a in range(n) for b in range(a + 1, n) if classes[a] == classes[b])
