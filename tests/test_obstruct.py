"""Forcing certificates for the non-embeddability catalog."""

import json
import sys
from dataclasses import replace

import pytest

import semitop.core
import semitop.obstruct
from oracles import longest_chain_by_search
from semitop.core import FinSemigroup, _UnionFind, canonical_classes, is_semilattice
from semitop.errors import DomainError, LoadError, SizeError
from semitop.obstruct import (
    CatalogInstance,
    EscapeTarget,
    NoObstruction,
    ObstructionCertificate,
    catalog,
    certificate_doc,
    certificate_from_doc,
    chain_finite_check,
    escape_certificate,
    fired_target,
    forcing_closure,
    get_instance,
    instance_doc,
    right_simple_check,
    verify_certificate,
)
from semitop.semigroups import (
    FinProduct,
    antichain_with_zero,
    chain_semilattice,
    commutative_inverse_monoid_catalog,
    cyclic_group,
    embedding_catalog,
    powerset_semilattice,
    right_zero,
)
from semitop.topo import bundled_top_semigroups, mask_of, points_of, presentation_doc

FAMILIES = ["exB", "odd_chain", "right_simple_zero:Z2", "brandt", "luke"]


def test_catalog_lists_the_five_families():
    insts = catalog(4)
    assert [i.instance_id for i in insts] == FAMILIES
    for inst in insts:
        assert inst.presentation.window == 4
        assert inst.limit in inst.presentation.limit_points


def test_get_instance_variants_and_errors():
    assert get_instance("right_simple_zero:S3", 4).presentation.base.n == 25
    assert get_instance("exB-discrete", 5).instance_id == "exB-discrete"
    with pytest.raises(LoadError):
        get_instance("unknown_family", 4)
    with pytest.raises(DomainError):
        get_instance("exB", 3)
    # only an absent variant defaults to Z2; an empty one is unknown
    for bad in ("right_simple_zero:", "right_simple_zero:-discrete", "right_simple_zero:Z3"):
        with pytest.raises(DomainError, match="unknown right-simple variant"):
            get_instance(bad, 6)


def test_branch_counts_grow_with_the_window():
    expected = {
        4: {"exB": 2, "odd_chain": 1, "right_simple_zero:Z2": 1, "brandt": 2, "luke": 2},
        6: {"exB": 4, "odd_chain": 2, "right_simple_zero:Z2": 1, "brandt": 4, "luke": 4},
    }
    for w, counts in expected.items():
        for inst in catalog(w):
            cert = escape_certificate(inst)
            assert isinstance(cert, ObstructionCertificate)
            assert len(cert.branches) == counts[inst.instance_id]
            assert len(cert.branches) == len(inst.admissible())


def test_certificates_verify_on_all_families():
    for w in (4, 5, 6):
        for inst in catalog(w):
            cert = escape_certificate(inst)
            assert verify_certificate(inst, cert) == (True, None)


def test_discrete_controls_survive():
    for fam in FAMILIES:
        inst = get_instance(fam + "-discrete", 4)
        res = escape_certificate(inst)
        assert isinstance(res, NoObstruction)
        assert res.surviving in inst.admissible()
        assert res.classes[inst.limit] == inst.limit  # limit class stays put


def test_forcing_closure_chain_is_sound():
    inst = get_instance("exB", 5)
    v = inst.admissible()[0]
    classes, chain = forcing_closure(inst.presentation, inst.limit, v)
    t = inst.presentation.base.table
    n = inst.presentation.base.n
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = sorted((find(x), find(y)))
        parent[ry] = rx

    for z in points_of(v):
        if z != inst.limit:
            union(inst.limit, z)
    for (a, b), m, (da, db) in chain:
        assert t[a][m] == da and t[b][m] == db
        union(da, db)
    assert canonical_classes(tuple(find(x) for x in range(n))) == classes
    with pytest.raises(DomainError):
        forcing_closure(inst.presentation, inst.limit, 0b1)


def test_target_fired_witnesses():
    inst = get_instance("exB", 4)
    cert = escape_certificate(inst)
    for br in cert.branches:
        fired = fired_target(
            inst, forcing_closure(inst.presentation, inst.limit, br.neighborhood)[0])
        assert fired == (br.target_index, br.witness)


def test_tampered_certificates_are_rejected():
    inst = get_instance("exB", 4)
    cert = escape_certificate(inst)

    def rebuild(branches):
        return ObstructionCertificate(
            instance_id=cert.instance_id, window=cert.window,
            guard=cert.guard, limit=cert.limit, branches=tuple(branches))

    dropped = rebuild(cert.branches[:-1])
    ok, why = verify_certificate(inst, dropped)
    assert not ok and "cover" in why

    br = cert.branches[0]
    (pair, m, derived) = br.chain[0]
    bad_step = (pair, (m + 1) % inst.presentation.base.n, derived)
    patched = replace(br, chain=(bad_step,) + br.chain[1:])
    ok, why = verify_certificate(inst, rebuild([patched] + list(cert.branches[1:])))
    assert not ok and "multiplier" in why

    other = get_instance("exB", 5)
    ok, why = verify_certificate(other, cert)
    assert not ok and "mismatch" in why

    renamed = ObstructionCertificate(
        instance_id="odd_chain", window=cert.window, guard=cert.guard,
        limit=cert.limit, branches=cert.branches)
    ok, why = verify_certificate(inst, renamed)
    assert not ok and "different instance" in why


def test_verifier_runs_no_closure(monkeypatch):
    honest = [(inst, certificate_doc(escape_certificate(inst))) for inst in catalog(6)]

    def engine(*args, **kwargs):
        raise AssertionError("the verifier called the search engine")

    monkeypatch.setattr(semitop.obstruct, "forcing_closure", engine)
    monkeypatch.setattr(semitop.core, "congruence_closure", engine)
    monkeypatch.setattr(semitop.obstruct, "_close", engine)
    monkeypatch.setattr(semitop.core, "_close", engine)
    for inst, doc in honest:
        assert verify_certificate(inst, certificate_from_doc(doc)) == (True, None), inst.instance_id


def test_unstable_partition_is_rejected():
    """A chain cut before its last merging step, recorded together with the
    partition it does reproduce: only the stability check can refuse it."""
    inst = get_instance("brandt", 5)
    cert = escape_certificate(inst)
    br = cert.branches[0]
    n = inst.presentation.base.n

    def replay(chain):
        uf = _UnionFind(n)
        for z in points_of(br.neighborhood):
            uf.union(inst.limit, z)
        merging = [k for k, (_, _, (da, db)) in enumerate(chain) if uf.union(da, db)]
        return canonical_classes(uf.label), merging

    last = replay(br.chain)[1][-1]
    cut = replace(br, chain=br.chain[:last], classes=replay(br.chain[:last])[0])
    ok, why = verify_certificate(inst, replace(cert, branches=(cut,) + cert.branches[1:]))
    assert not ok and "right-stable" in why


def test_certificate_doc_round_trip():
    inst = get_instance("brandt", 5)
    cert = escape_certificate(inst)
    doc = json.loads(json.dumps(certificate_doc(cert)))
    again = certificate_from_doc(doc)
    assert again == cert
    assert verify_certificate(inst, again) == (True, None)
    no = escape_certificate(get_instance("brandt-discrete", 5))
    doc2 = json.loads(json.dumps(certificate_doc(no)))
    assert certificate_from_doc(doc2) == no
    with pytest.raises(LoadError):
        certificate_from_doc({"schema": 1})


def test_instance_doc_records_the_instance():
    inst = get_instance("luke", 4)
    doc = json.loads(json.dumps(instance_doc(inst)))
    assert (doc["instance"], doc["limit"]) == (inst.instance_id, inst.limit)
    assert doc["presentation"] == json.loads(json.dumps(presentation_doc(inst.presentation)))
    assert [(t["mode"], None if t["open"] is None else mask_of(t["open"]), t["point"])
            for t in doc["targets"]] == [(t.mode, t.open_set, t.point) for t in inst.targets]


def test_escape_target_validation():
    with pytest.raises(DomainError):
        EscapeTarget(mode="sideways")
    with pytest.raises(DomainError):
        EscapeTarget(mode="class-escapes")
    with pytest.raises(DomainError):
        EscapeTarget(mode="isolated-collapses")
    inst = get_instance("exB", 4)
    with pytest.raises(DomainError):  # collapse target must be isolated
        CatalogInstance(
            instance_id="x", presentation=inst.presentation, limit=inst.limit,
            targets=(EscapeTarget(mode="isolated-collapses", point=inst.limit),))


def test_right_simple_check():
    assert right_simple_check(right_zero(3)) == (True, None)
    assert right_simple_check(cyclic_group(3)) == (True, None)
    ok, wit = right_simple_check(chain_semilattice(3))
    assert not ok and wit == 0
    # a FinProduct is read through its table: a right group passes, and a
    # chain factor fails at the least element
    assert right_simple_check(FinProduct((cyclic_group(2), right_zero(3)))) == (True, None)
    assert right_simple_check(FinProduct((right_zero(2), chain_semilattice(2)))) == (False, 0)


def test_chain_finite_check_values():
    assert chain_finite_check(antichain_with_zero(3)) == (True, (0, 3))
    assert chain_finite_check(powerset_semilattice(2)) == (True, (3, 1, 0))
    assert chain_finite_check(chain_semilattice(5)) == (True, (4, 3, 2, 1, 0))


def test_chain_finite_check_on_the_bundled_semilattices():
    """The least longest chain, as found by enumerating every chain."""
    sems = [s for _, s in embedding_catalog() + commutative_inverse_monoid_catalog()]
    sems += [t.sem for _, t in bundled_top_semigroups()]
    sems += [get_instance("odd_chain", w).presentation.base for w in range(4, 11)]
    sems += [powerset_semilattice(3), antichain_with_zero(4)]
    checked = 0
    for s in filter(is_semilattice, sems):
        assert chain_finite_check(s) == (True, longest_chain_by_search(s.table))
        checked += 1
    assert checked >= 20


def test_chain_finite_check_does_not_recurse_per_element():
    """Under max, element 0 is the top and the longest chain runs through
    every element; it is found with far less stack than it has elements."""
    n = 150
    s = FinSemigroup(tuple(tuple(max(i, j) for j in range(n)) for i in range(n)))
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        ok, chain = chain_finite_check(s)
    finally:
        sys.setrecursionlimit(limit)
    assert ok and chain == tuple(range(n))


def test_window_bounds():
    for fam in FAMILIES:
        with pytest.raises(DomainError):
            get_instance(fam, 3)
        inst = get_instance(fam, 12)
        cert = escape_certificate(inst)
        assert verify_certificate(inst, cert) == (True, None)


def test_windows_above_the_bound_raise_before_any_table(monkeypatch):
    def no_table(w):
        raise AssertionError(f"built a table at window {w}")

    monkeypatch.setattr(semitop.obstruct, "brandt_semigroup", no_table)
    for fam in ("brandt", "luke", "brandt-discrete"):
        with pytest.raises(SizeError):
            get_instance(fam, 41)
    with pytest.raises(SizeError):
        catalog(41)


@pytest.mark.parametrize("fam", FAMILIES)
def test_verifier_accepts_exactly_the_firing_witnesses(fam):
    """Any element may stand as a branch's witness iff it shares the limit's
    class outside the open set (class-escapes) or shares the isolated
    point's class without being it (isolated-collapses)."""
    inst = get_instance(fam, 5)
    cert = escape_certificate(inst)
    br = cert.branches[-1]
    tgt = inst.targets[br.target_index]
    c = br.classes
    for x in range(len(c)):
        if tgt.mode == "class-escapes":
            fires = c[x] == c[inst.limit] and x not in points_of(tgt.open_set)
        else:
            fires = c[x] == c[tgt.point] and x != tgt.point
        forged = replace(cert, branches=cert.branches[:-1] + (replace(br, witness=x),))
        expected = (True, None) if fires else (
            False, "recorded witness does not fire the recorded target")
        assert verify_certificate(inst, forged) == expected
