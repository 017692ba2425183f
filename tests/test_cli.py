"""End-to-end command line behaviour: exit codes, determinism, formats."""

import hashlib
import json

import pytest

from semitop import embed
from semitop.cli import main
from semitop.core import Congruence, semigroup_doc
from semitop.semigroups import (
    brandt_semigroup,
    chain_semilattice,
    cyclic_group,
    full_transformation_monoid,
    left_zero,
    symmetric_inverse_monoid,
)
from semitop.transforms import PairBlock
from semitop.obstruct import certificate_doc, escape_certificate, get_instance
from semitop.topo import bundled_top_semigroups, presentation_doc, top_spec_doc


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


@pytest.fixture(autouse=True)
def plain_output(monkeypatch):
    monkeypatch.delenv("SEMITOP_COLOR", raising=False)


def test_catalog_table_and_json(capsys):
    assert main(["catalog"]) == 0
    text = capsys.readouterr().out
    assert "exB" in text and "luke" in text and "window 6" in text
    assert main(["catalog", "--json", "-w", "4"]) == 0
    docs = json.loads(capsys.readouterr().out)
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
    z2 = sem_file(tmp_path, cyclic_group(2), "z2.json")
    assert main(["check", "clifford", z2]) == 0


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
    assert "candidate" in text and "forced in" in text
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


# sha256 of the `check cong-basis --json --out` bytes on the odd_chain
# presentations whose reports list 256 and 512 candidates; w=9 sits exactly at
# the enumeration limit
CONG_BASIS_DIGESTS = {
    8: "cac625c919d19d8c7943b066a3ad25e8f101101bfe2f82e7b0192a476f5e1610",
    9: "2b18e94757a4460c0851acb79833961b54ae8b344c292f79f86f1313b9fa6d3a",
}


@pytest.mark.parametrize("window", sorted(CONG_BASIS_DIGESTS))
def test_cong_basis_report_matches_the_pinned_digest(tmp_path, window):
    pres = presentation_doc(get_instance("odd_chain", window).presentation)
    f = write(tmp_path, "pres.json", pres)
    out = tmp_path / "report.json"
    assert main(["check", "cong-basis", f, "--json", "--out", str(out)]) == 2
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CONG_BASIS_DIGESTS[window]


def test_embed_cayley_and_wp(tmp_path, capsys):
    z2 = sem_file(tmp_path, cyclic_group(2))
    assert main(["embed", "cayley", z2, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["preimages_open"] and doc["images_relatively_open"]
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
    assert main(["embed", "adjoin", c2, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["with_identity"]["preimages_open"]
    assert doc["with_zero"]["preimages_open"]

    emb = write(tmp_path, "emb.json", {"kind": "symmetric_inverse", "window": 2})
    assert main(["embed", "embcl", emb]) == 0
    assert "7 partial bijections" in capsys.readouterr().out
    too_big = write(tmp_path, "big.json", {"kind": "symmetric_inverse", "window": 9})
    assert main(["embed", "embcl", too_big]) == 1


def test_embed_product_past_the_bound_is_refused_unevaluated(tmp_path, capsys, monkeypatch):
    t3 = semigroup_doc(full_transformation_monoid(3)[0])
    prod = write(tmp_path, "t3cubed.json", {"kind": "product", "factors": [t3, t3, t3]})
    evaluated = []
    real = embed._value_at

    def spy(img, x):
        if isinstance(img, PairBlock):
            evaluated.append(x)
        return real(img, x)

    monkeypatch.setattr(embed, "_value_at", spy)
    assert main(["embed", "product", prod]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and evaluated == []  # no product image was evaluated
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "19683" in captured.err


# sha256 of the `embed --json --out` bytes whose images are lazy maps: the
# adjoin pair on Z2 (FiniteTable over AffineParity, Identity, Const) and the
# product Z2 x chain2 (PairBlock)
EMBED_DIGESTS = {
    "adjoin": "f6d185454e2cf904d282764ae21c182240a3f7b9fefe7b8a0ae54cf77d11c3a4",
    "product": "1fabb8403b29869b6a46999a44eec3e884dc045b225354b87acbdf78871b2dfb",
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


def test_color_toggle(capsys, monkeypatch):
    monkeypatch.setenv("SEMITOP_COLOR", "1")
    main(["obstruct", "exB", "-w", "4"])
    assert "\x1b[32m" in capsys.readouterr().out
    monkeypatch.setenv("SEMITOP_COLOR", "off")
    main(["obstruct", "exB", "-w", "4"])
    assert "\x1b[" not in capsys.readouterr().out


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
        "semigroup-identity-bool", "assoc-bool-entries", "semigroup-inverse-int",
        "semigroup-inverse-bool", "vp-congruence-int", "vp-congruence-str",
        "vp-congruence-float", "u-topology-n-huge", "presentation-nbhd-not-open",
        "presentation-strict-str", "presentation-strict-int"])
def test_malformed_inputs_give_one_error_line(tmp_path, capsys, command, kind, doc):
    assert main([command, kind, write(tmp_path, "bad.json", doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


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


@pytest.mark.parametrize("argv", [
    ["check", "assoc"], ["embed", "cayley"], ["obstruct", "exB", "-w", "4", "--replay"]])
def test_deeply_nested_json_gives_one_error_line(tmp_path, capsys, argv):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)  # deeper than json.dumps can write
    assert main(argv + [str(deep)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid JSON") and captured.err.count("\n") == 1


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
