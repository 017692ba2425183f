"""End-to-end command line behaviour: exit codes, determinism, formats."""

import ast
import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import semitop
from semitop import cli
from semitop.cli import EMBED_KINDS, main
from semitop.core import Congruence, FinSemigroup, inverse_structure, semigroup_doc
from semitop.semigroups import (
    brandt_semigroup,
    chain_semilattice,
    cyclic_group,
    full_transformation_monoid,
    left_zero,
    symmetric_inverse_monoid,
    trivial_monoid,
)
from semitop.transforms import PairBlock
from semitop.obstruct import (
    ForcingBranch,
    ObstructionCertificate,
    catalog,
    certificate_doc,
    escape_certificate,
    get_instance,
    instance_doc,
)
from semitop.topo import TopSpec, bundled_top_semigroups, presentation_doc, top_spec_doc


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def sem_file(tmp_path, s, name="sem.json"):
    return write(tmp_path, name, semigroup_doc(s))


def bundle_file(tmp_path, s, top, name="bundle.json", **extra):
    doc = {"semigroup": semigroup_doc(s), "topology": top_spec_doc(top)}
    doc.update(extra)
    return write(tmp_path, name, doc)


def test_catalog_table_and_json(capsys):
    assert main(["catalog"]) == 0
    text = capsys.readouterr().out
    assert "exB" in text and "luke" in text and "window 6" in text
    assert main(["catalog", "--json", "-w", "4"]) == 0
    text = capsys.readouterr().out
    assert text == reference_bytes([instance_doc(inst) for inst in catalog(4)])
    docs = json.loads(text)
    assert [d["instance"] for d in docs] == [
        "exB", "odd_chain", "right_simple_zero:Z2", "brandt", "luke"]
    assert all(d["schema"] == 1 for d in docs)


def test_catalog_rejects_small_windows(capsys):
    assert main(["catalog", "-w", "3"]) == 1
    assert "error:" in capsys.readouterr().err


def test_obstruct_transcript_and_exit_codes(capsys):
    assert main(["obstruct", "exB", "-w", "4"]) == 0
    text = capsys.readouterr().out
    assert "obstruction certificate with 2 branch(es)" in text
    assert "forced by multiplier" in text
    assert "verified: chain replay reproduces every branch partition" in text

    assert main(["obstruct", "exB-discrete", "-w", "4"]) == 2
    text = capsys.readouterr().out
    assert "no obstruction" in text and "survives forcing" in text

    assert main(["obstruct", "no_such_family"]) == 1
    assert "error:" in capsys.readouterr().err


def test_obstruct_long_chains_are_elided(capsys):
    assert main(["obstruct", "right_simple_zero:S3", "-w", "6"]) == 0
    text = capsys.readouterr().out
    assert "more forcing steps" in text


def test_obstruct_json_deterministic(capsys):
    assert main(["obstruct", "luke", "-w", "5", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["obstruct", "luke", "-w", "5", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["schema"] == 1 and doc["instance"] == "luke"


def test_obstruct_out_and_replay(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    assert main(["obstruct", "brandt", "-w", "4", "--out", str(cert)]) == 0
    capsys.readouterr()
    assert main(["obstruct", "brandt", "-w", "4", "--replay", str(cert)]) == 0
    assert "verified" in capsys.readouterr().out

    twice = tmp_path / "cert2.json"
    assert main(["obstruct", "brandt", "-w", "4", "--out", str(twice)]) == 0
    assert cert.read_bytes() == twice.read_bytes()

    doc = json.loads(cert.read_text())
    n = len(doc["branches"][0]["classes"])
    doc["branches"][0]["chain"][0][1] = (doc["branches"][0]["chain"][0][1] + 1) % n
    tampered = tmp_path / "bad.json"
    tampered.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["obstruct", "brandt", "-w", "4", "--replay", str(tampered)]) == 1
    assert "rejected" in capsys.readouterr().out

    assert main(["obstruct", "brandt", "-w", "5", "--replay", str(cert)]) == 1
    assert main(["obstruct", "brandt", "-w", "4", "--replay", str(tmp_path / "nope.json")]) == 1


def test_replay_lines_and_the_self_check_error(tmp_path, capsys, monkeypatch):
    """The replay verdicts are stdout lines through the one output rule; a
    certificate that fails its own replay is one error line from main."""
    cert, none = tmp_path / "cert.json", tmp_path / "none.json"
    assert main(["obstruct", "brandt", "-w", "4", "--out", str(cert)]) == 0
    assert main(["obstruct", "brandt-discrete", "-w", "4", "--out", str(none)]) == 2
    capsys.readouterr()
    assert main(["obstruct", "brandt", "-w", "4", "--replay", str(cert)]) == 0
    assert capsys.readouterr() == ("certificate for brandt verified\n", "")
    assert main(["obstruct", "brandt", "-w", "4", "--replay", str(none)]) == 1
    assert capsys.readouterr() == (
        "replay target is a NoObstruction report; nothing to verify\n", "")
    monkeypatch.setattr("semitop.cli.verify_certificate", lambda inst, cert: (False, "why"))
    assert main(["obstruct", "brandt", "-w", "4", "--replay", str(cert)]) == 1
    assert capsys.readouterr() == ("certificate rejected: why\n", "")
    assert main(["obstruct", "brandt", "-w", "4", "--out", str(tmp_path / "x.json")]) == 1
    assert capsys.readouterr() == ("", "error: generated certificate failed replay: why\n")
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("flag", [["--out", "again.json"], ["--json"], ["--out", ""]])
def test_replay_refuses_out_and_json(tmp_path, capsys, flag):
    """--replay prints a verdict only, so a flag asking for a document is
    refused with one error line rather than silently dropped."""
    cert = tmp_path / "cert.json"
    assert main(["obstruct", "brandt", "-w", "4", "--out", str(cert)]) == 0
    capsys.readouterr()
    flag = [str(tmp_path / f) if f.endswith(".json") else f for f in flag]
    assert main(["obstruct", "brandt", "-w", "4", "--replay", str(cert), *flag]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: --replay")
    assert not (tmp_path / "again.json").exists()


@pytest.mark.parametrize("argv, prog", [
    (["obstruct"], "semitop obstruct"),
    (["check", "nosuch", "x.json"], "semitop check"),
    (["obstruct", "brandt", "-w", "abc"], "semitop obstruct"),
], ids=["no-instance", "unknown-kind", "window-not-int"])
def test_usage_error_is_one_error_line(capsys, argv, prog):
    """A bad command line is an error like any other: one line and exit 1,
    not argparse's usage block and exit 2, the code of a false verdict."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: {prog}: ")


def test_help_still_prints_the_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["obstruct", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: semitop obstruct")


@pytest.fixture
def collector():
    """The collector's state before the test, given back after it."""
    enabled = gc.isenabled()
    yield enabled
    (gc.enable if enabled else gc.disable)()


def test_main_pauses_the_collector_during_a_command(monkeypatch, capsys, collector):
    seen = []

    def recording(inst):
        seen.append(gc.isenabled())
        return escape_certificate(inst)

    monkeypatch.setattr("semitop.cli.escape_certificate", recording)
    gc.enable()
    assert main(["obstruct", "brandt", "-w", "4"]) == 0
    assert seen == [False] and gc.isenabled()


def raising(inst):
    raise RuntimeError("escapes main")


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("argv,outcome", [
    (["obstruct", "brandt", "-w", "4"], 0),
    (["obstruct", "brandt", "-w", "4", "--replay", "missing.json"], 1),
    (["obstruct", "exB-discrete", "-w", "4"], 2),
    (["obstruct", "exB", "-w", "4"], RuntimeError),
    (["obstruct", "--help"], SystemExit)], ids=["exit0", "exit1", "exit2", "exception", "argparse"])
def test_main_gives_back_the_collector_state(tmp_path, monkeypatch, capsys, collector,
                                             enabled, argv, outcome):
    """After every way out of main, the collector is as the caller left it:
    on stays on, off stays off."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("semitop.cli.escape_certificate",
                        raising if outcome is RuntimeError else escape_certificate)
    (gc.enable if enabled else gc.disable)()
    if isinstance(outcome, int):
        assert main(argv) == outcome
    else:
        with pytest.raises(outcome):
            main(argv)
    assert gc.isenabled() == enabled


@pytest.mark.parametrize("path, change", [
    (("branches", 0, "chain", 0, 0, 0), lambda v, n: v - n),
    (("branches", 0, "witness"), lambda v, n: -1),
    (("branches", 0, "chain", 0, 1), lambda v, n: v + n),
    (("window",), lambda v, n: str(v)),
    (("branches", 0, "classes", 0), lambda v, n: float(v)),
    (("branches", 0, "classes", 0), lambda v, n: bool(v)),
], ids=["index-alias", "witness-negative", "multiplier-high", "window-str",
        "class-float", "class-bool"])
def test_replay_rejects_malformed_indices(tmp_path, capsys, path, change):
    """Each of these was accepted or crashed the verifier before the loader
    checked every index; now it is one line and exit 1."""
    cert = tmp_path / "cert.json"
    assert main(["obstruct", "brandt", "-w", "4", "--json", "--out", str(cert)]) == 0
    doc = json.loads(cert.read_text())
    *outer, key = path
    box = doc
    for k in outer:
        box = box[k]
    box[key] = change(box[key], len(doc["branches"][0]["classes"]))
    cert.write_text(json.dumps(doc))
    assert main(["obstruct", "brandt", "-w", "4", "--replay", str(cert)]) == 1
    captured = capsys.readouterr()
    assert (captured.out + captured.err).count("\n") == 1


def test_check_assoc(tmp_path, capsys):
    good = write(tmp_path, "good.json", {"table": [[0, 1], [1, 0]]})
    assert main(["check", "assoc", good]) == 0
    assert "PASS" in capsys.readouterr().out
    bad = write(tmp_path, "bad.json", {"table": [[0, 1], [0, 0]]})
    assert main(["check", "assoc", bad, "--json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] is False and doc["witness"] is not None
    ragged = write(tmp_path, "ragged.json", {"table": [[0, 1], [0]]})
    assert main(["check", "assoc", ragged]) == 1
    assert main(["check", "assoc", write(tmp_path, "no.json", {})]) == 1


@pytest.mark.parametrize("bad", [True, 1.0, -1, 2, "0"])
def test_check_assoc_names_the_bad_entry(tmp_path, capsys, bad):
    doc = {"table": [[0, 1], [1, bad]]}
    assert main(["check", "assoc", write(tmp_path, "bad.json", doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: entry {bad!r} out of range 0..1\n"


def test_check_inverse_and_clifford(tmp_path, capsys):
    i2 = sem_file(tmp_path, symmetric_inverse_monoid(2)[0])
    assert main(["check", "inverse", i2]) == 0
    l2 = sem_file(tmp_path, left_zero(2), "l2.json")
    assert main(["check", "inverse", l2]) == 2
    assert "generalized inverses" in capsys.readouterr().out
    b2 = sem_file(tmp_path, brandt_semigroup(2), "b2.json")
    assert main(["check", "clifford", b2]) == 2
    # (0,1)*(0,1)^-1 = (0,0), while (0,1)^-1*(0,1) = (1,1)
    assert capsys.readouterr().out.splitlines()[1:] == [
        "  x*x^-1 differs from x^-1*x at x = (0,1)"]
    assert main(["check", "clifford", b2, "--json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert (doc["verdict"], doc["witness"]) == (False, 1)
    # a semigroup that is not inverse is named as `check inverse` names it
    assert main(["check", "inverse", l2]) == 2
    inverse_text = capsys.readouterr().out.splitlines()[1:]
    assert main(["check", "clifford", l2]) == 2
    assert capsys.readouterr().out.splitlines()[1:] == inverse_text == [
        "  element l0 has 2 generalized inverses"]
    assert main(["check", "clifford", l2, "--json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert (doc["verdict"], doc["witness"]) == (False, 0)
    z2 = sem_file(tmp_path, cyclic_group(2), "z2.json")
    assert main(["check", "clifford", z2, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["verdict"], doc["witness"]) == (True, None)


def test_check_vp(tmp_path, capsys):
    c3 = chain_semilattice(3)
    doc = {"semigroup": semigroup_doc(c3), "congruence": [0, 0, 1]}
    f = write(tmp_path, "vp.json", doc)
    assert main(["check", "vp", f, "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] is True and rep["quotient"] == "group-with-zero"

    i2 = symmetric_inverse_monoid(2)[0]
    g = write(tmp_path, "vp2.json", {
        "semigroup": semigroup_doc(i2), "congruence": [0, 0, 0, 1, 2, 3, 4]})
    assert main(["check", "vp", g]) == 2

    missing = write(tmp_path, "vp3.json", {"semigroup": semigroup_doc(c3)})
    assert main(["check", "vp", missing]) == 1
    capsys.readouterr()
    unstable = write(tmp_path, "vp4.json", {
        "semigroup": semigroup_doc(c3), "congruence": [0, 1, 0]})
    assert main(["check", "vp", unstable]) == 1
    assert "error:" in capsys.readouterr().err


def test_check_topological_kinds(tmp_path, capsys):
    fixtures = dict(bundled_top_semigroups())
    up = fixtures["chain3_upper"]
    f = bundle_file(tmp_path, up.sem, up.top)
    assert main(["check", "u", f]) == 0
    capsys.readouterr()
    assert main(["check", "u2", f, "--json"]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert rep["failure"] == 1
    assert main(["check", "ditop", f]) == 0
    assert main(["check", "weak-ditop", f]) == 0
    no_top = sem_file(tmp_path, up.sem, "bare.json")
    assert main(["check", "u", no_top]) == 1


def test_check_chain_finite(tmp_path, capsys):
    c5 = sem_file(tmp_path, chain_semilattice(5))
    assert main(["check", "chain-finite", c5]) == 0
    assert "longest chain: c4 > c3 > c2 > c1 > c0" in capsys.readouterr().out


def test_check_cong_basis(tmp_path, capsys):
    fixtures = dict(bundled_top_semigroups())
    up = fixtures["chain2_upper"]
    f = bundle_file(tmp_path, up.sem, up.top)
    assert main(["check", "cong-basis", f]) == 2
    text = capsys.readouterr().out
    assert text.splitlines()[1:] == [
        "  no all-open-class right congruence keeps c1 inside {c1}: c0 is forced in",
        "    the neighborhoods alone put c0 in the class of c1"]
    disc = fixtures["chain3_discrete"]
    g = bundle_file(tmp_path, disc.sem, disc.top, "disc.json")
    assert main(["check", "cong-basis", g]) == 0


def test_check_cong_basis_on_presentation(tmp_path, capsys):
    assert main(["catalog", "--json", "-w", "4", "--out",
                 str(tmp_path / "cat.json")]) == 0
    docs = json.loads((tmp_path / "cat.json").read_text())
    pres = next(d for d in docs if d["instance"] == "exB")["presentation"]
    f = write(tmp_path, "pres.json", pres)
    assert main(["check", "cong-basis", f, "--json"]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert rep["check"] == "cong-basis" and rep["verdict"] is False
    assert rep["derivation"] == []


def test_check_cong_basis_prints_one_line_per_step(tmp_path, capsys):
    f = write(tmp_path, "pres.json", presentation_doc(get_instance("brandt", 4).presentation))
    assert main(["check", "cong-basis", f, "--json"]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert rep["failure"]["point"] == 4 and rep["failure"]["witness"] == 5
    assert rep["derivation"] == [[[16, 5], 4, [16, 4]]]
    assert main(["check", "cong-basis", f]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and lines[2].startswith("    (") and " * " in lines[2]


# sha256 of the `check cong-basis --json --out` bytes on the odd_chain
# presentations of windows 8 and 9, each explained by a one-step derivation
CONG_BASIS_DIGESTS = {
    8: "024ba6c7509ae51bb274ef9788cbb8bb78e45e13542e02f793c788547b6cd767",
    9: "ab78aff5749f5aea22bb948e4bcdc411164144ea470f2ea136495e8b9e85341e",
}


@pytest.mark.parametrize("window", sorted(CONG_BASIS_DIGESTS))
def test_cong_basis_report_matches_the_pinned_digest(tmp_path, window):
    pres = presentation_doc(get_instance("odd_chain", window).presentation)
    f = write(tmp_path, "pres.json", pres)
    out = tmp_path / "report.json"
    assert main(["check", "cong-basis", f, "--json", "--out", str(out)]) == 2
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CONG_BASIS_DIGESTS[window]


# sha256 of the `obstruct FAMILY -w 24 --out` bytes (carrier 577), where the
# closure engine skips most multipliers of each merged row
OBSTRUCT_W24_DIGESTS = {
    "brandt": "dc39678a6adaeec08085ef78ddebca1110f06906b3dae8498cfefb7b35b99e42",
    "luke": "7ce89532c686c25f61d8c062622bd70bdaaf9b25a976fab4ac155cdbf7310cba",
}


@pytest.mark.parametrize("family", sorted(OBSTRUCT_W24_DIGESTS))
def test_window_24_certificate_matches_the_pinned_digest(tmp_path, family):
    out = tmp_path / "cert.json"
    assert main(["obstruct", family, "-w", "24", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == OBSTRUCT_W24_DIGESTS[family]


def test_embed_cayley_and_wp(tmp_path, capsys):
    z2 = sem_file(tmp_path, cyclic_group(2))
    assert main(["embed", "cayley", z2, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["homomorphism"] == "exhaustive"

    i2 = sem_file(tmp_path, symmetric_inverse_monoid(2)[0], "i2.json")
    assert main(["embed", "wp", i2, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["preserves_inversion"] is True

    l2 = sem_file(tmp_path, left_zero(2), "l2.json")
    assert main(["embed", "wp", l2]) == 1


def test_embed_product_adjoin_embcl(tmp_path, capsys):
    prod = write(tmp_path, "prod.json", {
        "kind": "product",
        "factors": [semigroup_doc(cyclic_group(2)), semigroup_doc(chain_semilattice(2))]})
    assert main(["embed", "product", prod]) == 0
    assert "2 factor blocks" in capsys.readouterr().out

    c2 = sem_file(tmp_path, chain_semilattice(2))
    assert main(["embed", "adjoin", c2]) == 0
    assert "external identity and external zero" in capsys.readouterr().out

    emb = write(tmp_path, "emb.json", {"kind": "symmetric_inverse", "window": 2})
    assert main(["embed", "embcl", emb]) == 0
    assert "7 partial bijections" in capsys.readouterr().out
    too_big = write(tmp_path, "big.json", {"kind": "symmetric_inverse", "window": 9})
    assert main(["embed", "embcl", too_big]) == 1


def test_embed_product_past_the_bound_is_refused_unevaluated(tmp_path, capsys, monkeypatch):
    t3 = semigroup_doc(full_transformation_monoid(3)[0])
    prod = write(tmp_path, "t3cubed.json", {"kind": "product", "factors": [t3, t3, t3]})
    evaluated = []
    real = PairBlock.eval

    def spy(img, x):
        evaluated.append(x)
        return real(img, x)

    monkeypatch.setattr(PairBlock, "eval", spy)
    assert main(["embed", "product", prod]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and evaluated == []  # no product image was evaluated
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "19683" in captured.err


# sha256 of the `embed --json --out` bytes whose images are lazy maps: the
# adjoin pair on Z2 (FiniteTable over AffineParity, Identity, Const) and the
# product Z2 x chain2 (PairBlock)
EMBED_DIGESTS = {
    "adjoin": "883155640f14ab1504ef54e64b43739334bda9419d292462913b3a6f1bda92f1",
    "product": "71152f79b16c1971b291f1859175ae16ae54ec1baa0c179eb03bdaf990514ba8",
}


@pytest.mark.parametrize("kind", sorted(EMBED_DIGESTS))
def test_lazy_embed_report_matches_the_pinned_digest(tmp_path, kind):
    if kind == "adjoin":
        f = sem_file(tmp_path, cyclic_group(2))
    else:
        f = write(tmp_path, "prod.json", {"kind": "product", "factors": [
            semigroup_doc(cyclic_group(2)), semigroup_doc(chain_semilattice(2))]})
    out = tmp_path / "report.json"
    assert main(["embed", kind, f, "--json", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EMBED_DIGESTS[kind]


# sha256 of the `embed --json --out` bytes at the smallest sizes, where a
# lookup reads fewer than two positions: transformation groups on zero and
# on one point, and the one-element semigroup with and without a declared
# identity (without one, the right-regular action adjoins a point)
SMALL_EMBED_DIGESTS = {
    ("cayley", "one"): "381ebfb94acb11d16ab5bb31145f97da134c687f2bf1b77636e5bd9672b3108c",
    ("cayley", "trivial"): "92e129ce36b9b062616e1d4df5c7bb105c60b4ccdfa84114697a21234adb74bc",
    ("group-restrict", "window0"):
        "0f2d8e51066b2c4a42a8e3c988ec305acd9f57a719bc35bb461f164252dd8638",
    ("group-restrict", "window1"):
        "b1a1b246a49e81c291e7708f0fb90981eb4a847c8e9f1d374af3a4559f88c6f8",
    ("wp", "one"): "becc467f121147075effade50dc0c2aa244343fac542f3a79e00978ca22a04f4",
    ("wp", "trivial"): "0a9b6f251acb0324d282e3b686fb1488a83c1d7536c69913df0161198987cd78",
}
SMALL_EMBED_INPUTS = {
    "one": semigroup_doc(FinSemigroup(((0,),))),
    "trivial": semigroup_doc(trivial_monoid()),
    "window0": {"kind": "transformation_group", "window": 0, "maps": [[]]},
    "window1": {"kind": "transformation_group", "window": 1, "maps": [[0]]},
}


@pytest.mark.parametrize("kind,name", sorted(SMALL_EMBED_DIGESTS))
def test_smallest_embed_reports_match_the_pinned_digest(tmp_path, capsys, kind, name):
    f = write(tmp_path, f"{name}.json", SMALL_EMBED_INPUTS[name])
    out = tmp_path / "report.json"
    assert main(["embed", kind, f, "--json", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SMALL_EMBED_DIGESTS[kind, name]


def test_embed_clifford_product_and_group_restrict(tmp_path, capsys):
    z2 = sem_file(tmp_path, cyclic_group(2))
    assert main(["embed", "clifford-product", z2, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["factor_sizes"] == [1, 3]

    grp = write(tmp_path, "grp.json", {
        "kind": "transformation_group", "window": 4,
        "maps": [[0, 1, 0, 1], [1, 0, 1, 0]]})
    assert main(["embed", "group-restrict", grp, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["common_image"] == [0, 1]
    assert all(doc["laws"].values()) and len(doc["laws"]) == 6

    b2 = sem_file(tmp_path, brandt_semigroup(2), "b2.json")
    assert main(["embed", "clifford-product", b2]) == 1
    assert capsys.readouterr().err == ("error: not a Clifford semigroup: "
                                       "x*x^-1 differs from x^-1*x at x = (0,1)\n")


# one input per embed kind, and the report keys that kind decides beside its
# representations
EMBED_CASES = {
    "cayley": (semigroup_doc(cyclic_group(2)), set()),
    "wp": (semigroup_doc(symmetric_inverse_monoid(2)[0]), {"preserves_inversion"}),
    "product": ({"kind": "product", "factors": [
        semigroup_doc(cyclic_group(2)), semigroup_doc(chain_semilattice(2))]}, set()),
    "adjoin": (semigroup_doc(chain_semilattice(2)), set()),
    "embcl": ({"kind": "symmetric_inverse", "window": 2}, set()),
    "clifford-product": (semigroup_doc(cyclic_group(2)), {"factor_sizes"}),
    "group-restrict": ({"kind": "transformation_group", "window": 4,
                        "maps": [[0, 1, 0, 1], [1, 0, 1, 0]]}, {"laws", "common_image"}),
}


@pytest.mark.parametrize("kind", EMBED_KINDS)
def test_embed_report_holds_only_what_its_kind_decides(tmp_path, capsys, kind):
    """Each representation writes its document and how its homomorphism law
    was checked, and no topological audit: on a finite source that audit
    passes exactly when the source is discrete, so it decides nothing."""
    doc, decided = EMBED_CASES[kind]
    assert main(["embed", kind, write(tmp_path, "in.json", doc), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    summary = {"representation", "homomorphism"}
    reps = {"with_identity", "with_zero"} if kind == "adjoin" else summary
    assert set(report) == {"schema", "embed"} | reps | decided
    if kind == "adjoin":
        assert set(report["with_identity"]) == set(report["with_zero"]) == summary


def test_semitop_color_changes_no_byte(tmp_path, capsys, monkeypatch):
    """The program reads no environment variable: the colour switch of
    earlier versions is gone, and setting it leaves every line as it was."""
    cert = tmp_path / "cert.json"
    assert main(["obstruct", "brandt", "-w", "4", "--out", str(cert)]) == 0
    capsys.readouterr()
    f = sem_file(tmp_path, cyclic_group(2))
    runs = [["catalog", "-w", "4"], ["obstruct", "exB", "-w", "4"],
            ["obstruct", "brandt", "-w", "4", "--replay", str(cert)],
            ["check", "inverse", f], ["embed", "cayley", f]]

    def outputs():
        return [(main(argv), capsys.readouterr()) for argv in runs]

    monkeypatch.delenv("SEMITOP_COLOR", raising=False)
    plain = outputs()
    monkeypatch.setenv("SEMITOP_COLOR", "1")
    assert outputs() == plain
    assert all(code == 0 and "\x1b" not in out for code, (out, _) in plain)


def _owners(tree):
    """(name of the enclosing top-level function or None, node) for every
    node of a module."""
    for top in tree.body:
        owner = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            yield owner, node


def test_cli_has_one_stdout_writer_and_one_error_printer():
    """Every human line goes through _emit and every error line is printed
    by main from a raised SemitopError, so cli.py has two print calls."""
    tree = ast.parse(Path(cli.__file__).read_text())
    prints = [owner for owner, node in _owners(tree) if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name) and node.func.id == "print"]
    stderr = [owner for owner, node in _owners(tree) if isinstance(node, ast.Attribute)
              and node.attr == "stderr" and isinstance(node.value, ast.Name)
              and node.value.id == "sys"]
    assert sorted(prints) == ["_emit", "main"]
    assert stderr == ["main"]


def test_no_module_reads_the_environment():
    reads = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([node.attr] if isinstance(node, ast.Attribute) else
                     [a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                     and node.module == "os" else [])
            reads += [(path.name, name) for name in names if name in {"environ", "getenv"}]
    assert reads == []


def test_text_and_json_verdicts_agree(tmp_path, capsys):
    fixtures = dict(bundled_top_semigroups())
    up = fixtures["powerset2_upper"]
    f = bundle_file(tmp_path, up.sem, up.top)
    code_text = main(["check", "u2", f])
    text = capsys.readouterr().out
    code_json = main(["check", "u2", f, "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code_text == code_json == 2
    assert ("FAIL" in text) == (doc["verdict"] is False)


def test_check_out_file_is_deterministic(tmp_path):
    fixtures = dict(bundled_top_semigroups())
    up = fixtures["chain3_upper"]
    f = bundle_file(tmp_path, up.sem, up.top)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["check", "u", f, "--json", "--out", str(a)]) == 0
    assert main(["check", "u", f, "--json", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().endswith("\n")


def exB4_presentation(key, value):
    doc = presentation_doc(get_instance("exB", 4).presentation)
    doc[key] = value
    return doc


@pytest.mark.parametrize("command, kind, doc", [
    ("embed", "embcl", {"kind": "symmetric_inverse", "window": "x"}),
    ("embed", "embcl", {"kind": "symmetric_inverse"}),
    ("embed", "embcl", {"kind": "symmetric_inverse", "window": 2.7}),
    ("embed", "embcl", {"kind": "symmetric_inverse", "window": True}),
    ("embed", "group-restrict", {"kind": "transformation_group", "window": "x",
                                 "maps": [[0, 1]]}),
    ("embed", "group-restrict", {"kind": "transformation_group", "maps": [[0, 1]]}),
    ("embed", "product", {"kind": "product"}),
    ("embed", "group-restrict", {"kind": "transformation_group", "window": 2}),
    ("check", "assoc", {"table": [1, 2]}),
    ("check", "u", {"semigroup": semigroup_doc(chain_semilattice(2)),
                    "topology": {"n": "x", "opens": [[], [0, 1]]}}),
    ("embed", "group-restrict", {"kind": "transformation_group", "window": 2,
                                 "maps": [5, [1, 0]]}),
    ("embed", "group-restrict", {"kind": "transformation_group", "window": 2,
                                 "maps": [["x", 1], [1, 0]]}),
    ("embed", "group-restrict", {"kind": "transformation_group", "window": 2,
                                 "maps": [[0, 1], [1, 0.0]]}),
    ("check", "u", {"semigroup": semigroup_doc(chain_semilattice(2)),
                    "topology": {"n": 2.5, "opens": [[], [0, 1]]}}),
    ("check", "cong-basis", exB4_presentation("neighborhoods", {"8": [[-1, 2, 4, 6, 8]]})),
    ("check", "cong-basis", exB4_presentation("limit_points", ["x"])),
    ("check", "cong-basis", exB4_presentation("window", 4.5)),
    ("check", "inverse", {"table": [[0, 0], [0, 1]], "identity": True}),
    ("check", "assoc", {"table": [[True, False], [False, True]]}),
    ("check", "assoc", {"table": []}),
    ("check", "inverse", {"table": [[0]], "inverse": 5}),
    ("check", "inverse", {"table": [[0]], "inverse": [False]}),
    ("check", "vp", {"semigroup": semigroup_doc(cyclic_group(2)), "congruence": 5}),
    ("check", "vp", {"semigroup": semigroup_doc(cyclic_group(2)), "congruence": "ab"}),
    ("check", "vp", {"semigroup": semigroup_doc(cyclic_group(2)), "congruence": [0.5, 0.5]}),
    ("check", "u", {"semigroup": {"table": [[0]]}, "topology": {"n": 2**62, "opens": [[], [0]]}}),
    ("check", "cong-basis", {
        "kind": "truncated_presentation", "window": 4, "guard": 2,
        "semigroup": semigroup_doc(chain_semilattice(4)), "limit_points": [0, 1],
        "neighborhoods": {"0": [[0, 1]], "1": [[1, 2, 3]]}, "core": [0, 1, 2, 3],
        "strict_tails": False}),
    ("check", "cong-basis", exB4_presentation("strict_tails", "no")),
    ("check", "cong-basis", exB4_presentation("strict_tails", 0)),
], ids=["embcl-window-str", "embcl-window-missing", "embcl-window-float",
        "embcl-window-bool", "restrict-window-str",
        "restrict-window-missing", "product-no-factors", "restrict-no-maps",
        "assoc-flat-table", "u-topology-n-str", "restrict-map-int",
        "restrict-map-str-entry", "restrict-map-float-entry", "u-topology-n-float",
        "presentation-point-negative", "presentation-limit-str", "presentation-window-float",
        "semigroup-identity-bool", "assoc-bool-entries", "assoc-empty-table",
        "semigroup-inverse-int", "semigroup-inverse-bool", "vp-congruence-int", "vp-congruence-str",
        "vp-congruence-float", "u-topology-n-huge", "presentation-nbhd-not-open",
        "presentation-strict-str", "presentation-strict-int"])
def test_malformed_inputs_give_one_error_line(tmp_path, capsys, command, kind, doc):
    assert main([command, kind, write(tmp_path, "bad.json", doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command, kind, need", [
    ("check", "vp", "the Vagner-Preston test"),
    ("check", "ditop", "the ditopological check"),
    ("check", "weak-ditop", "the weak ditopological check"),
    ("embed", "wp", "the partial-bijection action"),
    ("embed", "clifford-product", "the Clifford product packing"),
])
def test_non_inverse_input_is_refused_with_its_witness(tmp_path, capsys, command, kind, need):
    l2 = left_zero(2)
    got = inverse_structure(l2)
    assert got.inverse_count == 2  # each element is an inverse of each
    if command == "check":
        f = bundle_file(tmp_path, l2, TopSpec.discrete(2), congruence=[0, 1])
    else:
        f = sem_file(tmp_path, l2)
    assert main([command, kind, f]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {need} needs an inverse semigroup: element "
                            f"{l2.label(got.witness)} has {got.inverse_count} inverses\n")


def test_unreadable_input_gives_one_error_line(tmp_path, capsys):
    assert main(["check", "assoc", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_obstruct_checks_each_branch_once(tmp_path, monkeypatch):
    """The search builds no Congruence for an obstruction branch; the
    verifier's replay is the one stability check per branch."""
    calls = []
    validate = Congruence.__post_init__

    def counting(self):
        calls.append(self.classes)
        validate(self)

    monkeypatch.setattr(Congruence, "__post_init__", counting)
    assert main(["obstruct", "brandt", "-w", "6", "--out", str(tmp_path / "cert.json")]) == 0
    branches = json.loads((tmp_path / "cert.json").read_text())["branches"]
    assert len(branches) == 4
    assert calls == [tuple(br["classes"]) for br in branches]
    calls.clear()  # a NoObstruction partition is replayed by no verifier
    assert main(["obstruct", "brandt-discrete", "-w", "6", "--out", str(tmp_path / "no.json")]) == 2
    assert calls == [tuple(json.loads((tmp_path / "no.json").read_text())["classes"])]


def _output_rule_case(command, tmp_path):
    """argv and the first human line of one quick run of each subcommand."""
    if command == "catalog":
        return ["catalog", "-w", "4"], "bundled instances at window 4"
    if command == "obstruct":
        return ["obstruct", "exB", "-w", "4"], "instance exB window 4"
    if command == "check":
        return ["check", "chain-finite", sem_file(tmp_path, chain_semilattice(3))], "chain-finite: PASS"
    return ["embed", "cayley", sem_file(tmp_path, cyclic_group(2))], "embed cayley: OK"


@pytest.mark.parametrize("flags", [("--out",), ("--json",), ("--json", "--out")],
                         ids=["out", "json", "json-out"])
@pytest.mark.parametrize("command", ["catalog", "obstruct", "check", "embed"])
def test_one_output_rule(tmp_path, capsys, command, flags):
    argv, human = _output_rule_case(command, tmp_path)
    out = tmp_path / "report.json"
    if "--json" in flags:
        argv.append("--json")
    if "--out" in flags:
        argv += ["--out", str(out)]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    if "--out" in flags:
        assert is_one_compact_line(out.read_text())
    else:
        assert not out.exists()
    if "--json" not in flags:
        assert stdout.startswith(human)
    elif "--out" in flags:
        assert stdout == ""
    else:
        assert is_one_compact_line(stdout)


@pytest.mark.parametrize("command", ["catalog", "obstruct", "check", "embed"])
def test_an_empty_out_path_is_opened_and_fails(tmp_path, capsys, command):
    """--out "" names a file like any other path: opening it fails with one
    error line, rather than the document being dropped."""
    argv, _ = _output_rule_case(command, tmp_path)
    assert main(argv + ["--out", ""]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("out", [False, True], ids=["replay", "replay-out"])
def test_an_empty_replay_path_is_still_a_replay(tmp_path, capsys, out):
    """--replay "" replays the file "", which cannot be opened, and still
    refuses --out, rather than certifying as if --replay were absent."""
    written = tmp_path / "cert.json"
    argv = ["obstruct", "exB", "-w", "4", "--replay", ""] + (["--out", str(written)] if out else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: --replay" if out else "error: ")
    assert not written.exists()


@pytest.mark.parametrize("command", ["catalog", "obstruct", "check", "embed"])
def test_successive_calls_share_no_parser_state(tmp_path, capsys, command):
    # the parser is built once per process: --json and --out on one call
    # must not carry over to the next call without them
    argv, human = _output_rule_case(command, tmp_path)
    out = tmp_path / "report.json"
    assert main(argv + ["--json", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    out.unlink()
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith(human)
    assert not out.exists()
    assert main(argv + ["--json"]) == 0
    assert is_one_compact_line(capsys.readouterr().out)
    assert not out.exists()


def is_one_compact_line(text):
    """The JSON writer's format: sorted keys, compact separators, one line."""
    return (text.count("\n") == 1
            and text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n")


@pytest.mark.parametrize("flag", ["--out", "--json"])
def test_certificate_is_written_as_one_compact_line(tmp_path, capsys, flag):
    out = tmp_path / "cert.json"
    argv = ["obstruct", "brandt", "-w", "5"] + (["--out", str(out)] if flag == "--out" else ["--json"])
    assert main(argv) == 0
    text = out.read_text() if flag == "--out" else capsys.readouterr().out
    doc = certificate_doc(escape_certificate(get_instance("brandt", 5)))
    assert text == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    assert text.count("\n") == 1


def reference_bytes(doc):
    """What the JSON writer must produce for doc, by its definition."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


WRITER_CASES = [(family + suffix, window)
                for family in ("exB", "odd_chain", "right_simple_zero:Z2", "brandt", "luke")
                for suffix in ("", "-discrete") for window in range(4, 17)]


@pytest.mark.parametrize("iid, window", WRITER_CASES + [("brandt", 24), ("luke", 24)])
def test_written_certificate_equals_the_reference(tmp_path, capsys, iid, window):
    """The certificate written branch by branch, and the NoObstruction
    report of the discrete twin, are byte for byte the json.dumps of
    certificate_doc, through --out and through --json on stdout."""
    code = 2 if iid.endswith("-discrete") else 0
    want = reference_bytes(certificate_doc(escape_certificate(get_instance(iid, window))))
    out = tmp_path / "cert.json"
    argv = ["obstruct", iid, "-w", str(window)]
    assert main(argv + ["--out", str(out)]) == code
    assert out.read_text() == want
    capsys.readouterr()
    assert main(argv + ["--json"]) == code
    assert capsys.readouterr().out == want


def test_certificate_fields_keep_the_order_the_writer_relies_on():
    """The writer puts 'branches' first in the document and 'chain' first in
    each branch, where sort_keys puts them."""
    doc = certificate_doc(escape_certificate(get_instance("brandt", 4)))
    assert min(doc) == "branches"
    assert all(min(br) == "chain" for br in doc["branches"])


@pytest.mark.parametrize("chains", [
    [()],
    [(((0, 2), 1, (0, 1)),)],
    [(), (((0, 2), 1, (0, 1)), ((1, 2), 0, (2, 2))), ()],
], ids=["empty-chain", "one-step", "mixed"])
def test_certificate_writer_on_hand_built_chains(tmp_path, capsys, chains):
    """Chains of no step and of one step, on a 3-element carrier; the writer
    checks nothing, so the other fields need not fit."""
    cert = ObstructionCertificate(
        instance_id="hand", window=4, guard=1, limit=0,
        branches=tuple(ForcingBranch(neighborhood=0b101, chain=chain, classes=(0, 0, 2),
                                     target_index=k, witness=2)
                       for k, chain in enumerate(chains)))
    want = reference_bytes(certificate_doc(cert))
    out = tmp_path / "cert.json"
    cli._emit_json(cli._certificate_pieces(cert, 3), out)
    assert out.read_text() == want
    capsys.readouterr()
    cli._emit_json(cli._certificate_pieces(cert, 3))
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("argv", [
    ["check", "assoc"], ["embed", "cayley"], ["obstruct", "exB", "-w", "4", "--replay"]])
def test_deeply_nested_json_gives_one_error_line(tmp_path, capsys, argv):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)  # deeper than json.dumps can write
    assert main(argv + [str(deep)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid JSON") and captured.err.count("\n") == 1


@pytest.mark.parametrize("contents", [b"\xff\xfe{}", b"1" * 5000],
                         ids=["utf16-bom", "int-digit-limit"])
@pytest.mark.parametrize("argv", [
    ["check", "assoc"], ["embed", "cayley"], ["obstruct", "exB", "-w", "4", "--replay"]])
def test_undecodable_json_gives_one_error_line(tmp_path, capsys, argv, contents):
    bad = tmp_path / "bad.json"
    bad.write_bytes(contents)
    assert main(argv + [str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid JSON") and captured.err.count("\n") == 1


@pytest.mark.parametrize("encode", [
    lambda doc: json.dumps(doc, ensure_ascii=False).encode("utf-8"),
    lambda doc: json.dumps(doc).encode("ascii")], ids=["utf-8", "ascii-escaped"])
def test_non_ascii_labels_under_the_c_locale(tmp_path, encode):
    """An input is read as UTF-8 whatever the locale, and a label that stdout
    cannot encode is escaped, so neither form ends in a traceback."""
    doc = semigroup_doc(FinSemigroup(((0, 0), (0, 1)), names=("\u00e9", "b")))
    path = tmp_path / "chain.json"
    path.write_bytes(encode(doc))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    env.update(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=str(Path(semitop.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "semitop.cli", "check", "chain-finite",
                           str(path)], env=env, capture_output=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == b"chain-finite: PASS\n  longest chain: b > \\xe9\n"


@pytest.mark.parametrize("argv", [["obstruct", "brandt", "-w", "41"], ["catalog", "-w", "41"]])
def test_windows_above_the_bound_give_one_error_line(capsys, monkeypatch, argv):
    def no_table(w):
        raise AssertionError(f"built a table at window {w}")

    monkeypatch.setattr("semitop.obstruct.brandt_semigroup", no_table)
    monkeypatch.setattr("semitop.obstruct.signed_antichain_with_zero", no_table)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: window 41") and captured.err.count("\n") == 1
