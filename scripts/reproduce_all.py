#!/usr/bin/env python3
"""Regenerate every JSON artifact the test suite pins down.

Writes obstruction certificates for the five bundled families across the
whole window range, NoObstruction reports for their discrete controls, the
instance catalog, and a set of check/embed reports over small inputs.  All
output goes through the CLI's deterministic JSON writer, so two runs of this
script produce byte-identical trees; the acceptance suite relies on that.

Usage: reproduce_all.py [OUTDIR]   (default: ./artifacts)
"""

import sys
from pathlib import Path

# run from a checkout without installing: the package lives in ../src
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from semitop.cli import _dumps, _emit_json, main
from semitop.core import semigroup_doc
from semitop.semigroups import cyclic_group, embedding_catalog, symmetric_inverse_monoid
from semitop.topo import bundled_top_semigroups, top_spec_doc

FAMILIES = ["exB", "odd_chain", "right_simple_zero:Z2", "brandt", "luke"]
WINDOWS = range(4, 13)


def run(argv, expect):
    code = main(argv)
    if code != expect:
        raise SystemExit(f"step {' '.join(argv)} exited {code}, wanted {expect}")


def write_json(path: Path, doc) -> Path:
    _emit_json((_dumps(doc),), path)
    return path


def build(outdir: Path) -> int:
    certs = outdir / "certs"
    inputs = outdir / "inputs"
    reports = outdir / "reports"
    for d in (certs, inputs, reports):
        d.mkdir(parents=True, exist_ok=True)

    count = 0
    for fam in FAMILIES:
        slug = fam.replace(":", "_")
        for w in WINDOWS:
            run(["obstruct", fam, "-w", str(w), "--out",
                 str(certs / f"{slug}_w{w}.json")], expect=0)
            count += 1
        run(["obstruct", fam + "-discrete", "-w", "6", "--out",
             str(certs / f"{slug}_discrete_w6.json")], expect=2)
        count += 1

    run(["catalog", "--json", "-w", "6", "--out", str(outdir / "catalog_w6.json")],
        expect=0)
    count += 1

    fixtures = dict(bundled_top_semigroups())
    for name in ("chain3_upper", "powerset2_upper", "chain3_discrete"):
        ts = fixtures[name]
        bundle = write_json(inputs / f"{name}.json", {
            "semigroup": semigroup_doc(ts.sem), "topology": top_spec_doc(ts.top)})
        expect_u2 = 0 if name.endswith("discrete") else 2
        run(["check", "u", str(bundle), "--json", "--out",
             str(reports / f"u_{name}.json")], expect=0)
        run(["check", "u2", str(bundle), "--json", "--out",
             str(reports / f"u2_{name}.json")], expect=expect_u2)
        run(["check", "cong-basis", str(bundle), "--json", "--out",
             str(reports / f"basis_{name}.json")], expect=expect_u2)
        count += 3

    cat = dict(embedding_catalog())
    z2 = write_json(inputs / "Z2.json", semigroup_doc(cyclic_group(2)))
    i2 = write_json(inputs / "I2.json", semigroup_doc(symmetric_inverse_monoid(2)[0]))
    sa4 = write_json(inputs / "signed_antichain4.json",
                     semigroup_doc(cat["signed_antichain4"]))
    grp = write_json(inputs / "Z2_shared.json", {
        "kind": "transformation_group", "window": 4,
        "maps": [[0, 1, 0, 1], [1, 0, 1, 0]]})
    emb = write_json(inputs / "I2_window.json",
                     {"kind": "symmetric_inverse", "window": 2})

    run(["embed", "cayley", str(z2), "--json", "--out",
         str(reports / "embed_cayley_Z2.json")], expect=0)
    run(["embed", "wp", str(i2), "--json", "--out",
         str(reports / "embed_wp_I2.json")], expect=0)
    run(["embed", "embcl", str(emb), "--json", "--out",
         str(reports / "embed_embcl_I2.json")], expect=0)
    run(["embed", "clifford-product", str(sa4), "--json", "--out",
         str(reports / "embed_clifford_sa4.json")], expect=0)
    run(["embed", "group-restrict", str(grp), "--json", "--out",
         str(reports / "embed_restrict_Z2.json")], expect=0)
    count += 5
    return count


if __name__ == "__main__":
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("artifacts")
    written = build(target)
    print(f"wrote {written} artifacts under {target}")
