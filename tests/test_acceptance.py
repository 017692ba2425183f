"""Acceptance gate: ten end-to-end criteria, one line of output apiece.

Each criterion re-derives its expected facts through the independent oracles
in oracles.py or through literal replays, asserts them, and must finish in
under ten seconds.  The PASS lines are written past pytest's capture so the
gate stays readable in plain ``pytest -v`` output.
"""

import filecmp
import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

from oracles import (
    congruences_by_filter,
    ditop_by_replay,
    law_replay,
    u2_at_point_by_replay,
    u_at_point_by_replay,
)
from semitop.core import (
    RIGHT,
    TWO_SIDED,
    NotInverse,
    classify_vp_quotient,
    enumerate_congruences,
    idempotents,
    inverse_structure,
    is_vagner_preston,
)
from semitop.embed import (
    bundled_group_fixtures,
    cayley_right_regular,
    embcl_rep,
    preserves_inversion,
    semil_iso,
    shared_image_laws,
    transformation_group,
    verify_embedding,
    wagner_preston,
)
from semitop.obstruct import (
    NoObstruction,
    ObstructionCertificate,
    escape_certificate,
    get_instance,
    verify_certificate,
)
from semitop.semigroups import (
    commutative_inverse_monoid_catalog,
    embedding_catalog,
    symmetric_inverse_monoid,
)
from semitop.topo import (
    TopSpec,
    bundled_top_semigroups,
    bundled_top_semilattices,
    congruence_basis_check,
    ditopological_check,
    u2_check,
    u_check,
    weakly_ditopological_check,
)

FAMILIES = ("exB", "odd_chain", "right_simple_zero:Z2", "brandt", "luke")
LIMIT_SECONDS = 10.0


def _gate(capsys, num, label, started):
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        print(f"criterion {num:>2}: PASS - {label} ({elapsed:.2f}s)")
    assert elapsed < LIMIT_SECONDS, f"criterion {num} took {elapsed:.2f}s"


def test_criterion_01_certificates_across_the_window_range(capsys):
    t0 = time.perf_counter()
    for fam in FAMILIES:
        for w in range(4, 13):
            inst = get_instance(fam, w)
            cert = escape_certificate(inst)
            assert isinstance(cert, ObstructionCertificate), (fam, w)
            assert verify_certificate(inst, cert) == (True, None), (fam, w)
            ctrl = get_instance(fam + "-discrete", w)
            assert isinstance(escape_certificate(ctrl), NoObstruction), (fam, w)
    _gate(capsys, 1, "5 families certify on windows 4..12; discrete controls survive", t0)


def test_criterion_02_regular_representations_on_the_catalog(capsys):
    t0 = time.perf_counter()
    reps = wps = 0
    for name, s in embedding_catalog():
        rep = cayley_right_regular(s)
        assert rep.verification == "exhaustive", name
        assert verify_embedding(rep).ok, name
        reps += 1
        inv = inverse_structure(s)
        if not isinstance(inv, NotInverse):
            wp = wagner_preston(inv)
            assert wp.verification == "exhaustive", name
            assert preserves_inversion(wp, inv), name
            assert verify_embedding(wp).ok, name
            wps += 1
    assert reps == 14 and wps >= 8
    _gate(capsys, 2, f"{reps} regular actions and {wps} partial-bijection actions audit clean", t0)


def test_criterion_03_symmetric_inverse_monoid_window_3(capsys):
    t0 = time.perf_counter()
    rep = embcl_rep(3)
    assert rep.source.n == 34
    # exhaustive over all 1156 ordered pairs, decided on the 34 * |G| pairs
    # (a, g) with g in a generating set, since every value stays in the window
    assert rep.verification == "exhaustive"
    assert verify_embedding(rep).ok
    _gate(capsys, 3, "I_3 (34 elements) verifies exhaustively in the function space", t0)


def test_criterion_04_shared_image_laws(capsys):
    t0 = time.perf_counter()
    fixtures = bundled_group_fixtures()
    assert len(fixtures) >= 3
    for name, maps in fixtures:
        assert 4 <= maps[0].window <= 6
        unit = maps[transformation_group(maps)[1]]
        assert unit.map != tuple(range(unit.window)), name
        laws = shared_image_laws(maps)
        oracle = law_replay(maps)
        assert len(laws) == 6 and oracle is not None
        for law, ok, _ in laws:
            assert ok and oracle[law], (name, law)
    _gate(capsys, 4, "six subgroup laws hold on all fixtures, units are proper retractions", t0)


def test_criterion_05_vp_classification_never_errors(capsys):
    t0 = time.perf_counter()
    classified = 0
    for name, s in commutative_inverse_monoid_catalog():
        if s.n > 6:
            continue
        inv = inverse_structure(s)
        assert not isinstance(inv, NotInverse), name
        for rho in enumerate_congruences(s, RIGHT):
            if is_vagner_preston(inv, rho):
                kind = classify_vp_quotient(inv, rho).kind
                assert isinstance(kind, str) and kind
                classified += 1
    assert classified > 0
    _gate(capsys, 5, f"{classified} quotient structures classified without an exception", t0)


def test_criterion_06_topological_checks_match_replays(capsys):
    t0 = time.perf_counter()
    points = 0
    for name, ts in bundled_top_semigroups():
        inv = inverse_structure(ts.sem)
        assert not isinstance(inv, NotInverse)
        assert ditopological_check(ts).ok == ditop_by_replay(
            ts.sem.table, inv.inv, ts.top.opens, weak=False), name
        assert weakly_ditopological_check(ts).ok == ditop_by_replay(
            ts.sem.table, inv.inv, ts.top.opens, weak=True), name
    for name, ts in bundled_top_semilattices():
        for x in range(ts.sem.n):
            u_ok = u_check(ts, x)[0]
            u2_ok = u2_check(ts, x)[0]
            assert u_ok == u_at_point_by_replay(ts.sem.table, ts.top.opens, x), (name, x)
            assert u2_ok == u2_at_point_by_replay(ts.sem.table, ts.top.opens, x), (name, x)
            assert u_ok or not u2_ok, (name, x)
            points += 1
        if len(ts.top.opens) == 1 << ts.sem.n:
            assert all(u2_check(ts, x)[0] for x in range(ts.sem.n)), name
    assert points >= 20
    _gate(capsys, 6, "ditop, U and U2 agree with definition replays; no U2-without-U point", t0)


def test_criterion_07_congruence_enumeration_matches_partition_filter(capsys):
    t0 = time.perf_counter()
    tables = 0
    for name, s in embedding_catalog():
        if s.n > 6:
            continue
        for kind, two_sided in ((RIGHT, False), (TWO_SIDED, True)):
            got = sorted(r.classes for r in enumerate_congruences(s, kind))
            want = sorted(congruences_by_filter(s.table, two_sided=two_sided))
            assert got == want, (name, kind)
        tables += 1
    assert tables >= 9
    _gate(capsys, 7, f"lattice enumeration equals the partition filter on {tables} tables", t0)


def test_criterion_08_basis_failure_iff_certificate(capsys):
    t0 = time.perf_counter()
    variants = [f for f in FAMILIES] + ["right_simple_zero:R2", "right_simple_zero:S3"]
    checked = 0
    for iid in variants + [v + "-discrete" for v in variants]:
        for w in (4, 5, 6):
            inst = get_instance(iid, w)
            basis_ok = congruence_basis_check(inst.presentation).ok
            cert = escape_certificate(inst)
            obstructed = isinstance(cert, ObstructionCertificate)
            assert basis_ok == (not obstructed), (iid, w)
            checked += 1
    assert checked == 42
    _gate(capsys, 8, "basis check fails exactly where the forcing argument certifies", t0)


def test_criterion_09_idempotents_form_the_boolean_cube(capsys):
    t0 = time.perf_counter()
    for n in (1, 2, 3, 4):
        s, pperms = symmetric_inverse_monoid(n)
        vecs = {e: semil_iso(pperms[e]) for e in idempotents(s)}
        assert sorted(vecs.values()) == sorted(
            tuple((m >> i) & 1 for i in range(n)) for m in range(1 << n))
        for e, ve in vecs.items():
            for f, vf in vecs.items():
                assert vecs[s.mul(e, f)] == tuple(map(min, ve, vf)), (n, e, f)
    _gate(capsys, 9, "E(I_n) is the boolean cube under min, exhaustively for n <= 4", t0)


def test_criterion_10_reproduction_is_byte_deterministic(capsys, tmp_path):
    t0 = time.perf_counter()
    script = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_all.py"
    trees = []
    for run in ("a", "b"):
        dest = tmp_path / run
        proc = subprocess.run([sys.executable, str(script), str(dest)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        trees.append(dest)
    first, second = trees
    files = sorted(p.relative_to(first) for p in first.rglob("*.json"))
    assert len(files) == 73
    assert files == sorted(p.relative_to(second) for p in second.rglob("*.json"))
    mismatch = [f for f in files
                if not filecmp.cmp(first / f, second / f, shallow=False)]
    assert mismatch == []
    for f in files:
        json.loads((first / f).read_text())
    _gate(capsys, 10, f"two artifact runs agree byte-for-byte on {len(files)} files", t0)


# sha256 over the reproduction tree: each file, sorted by relative path, fed
# as path + NUL + bytes + NUL (73 files, 762,366 bytes)
ARTIFACT_DIGEST = "0e70f2ed43d73964d15b3d2e3667c75dea58cad543d32004f45c0f1536ec33d8"


def test_reproduction_matches_the_pinned_digest(tmp_path):
    """A refactor must leave every artifact byte as it was; two runs of the
    same code agreeing (criterion 10) cannot show that."""
    script = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_all.py"
    proc = subprocess.run([sys.executable, str(script), str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256()
    for rel in sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")
                      if p.is_file()):
        digest.update(rel.encode() + b"\0" + (tmp_path / rel).read_bytes() + b"\0")
    assert digest.hexdigest() == ARTIFACT_DIGEST
