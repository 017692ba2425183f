"""The four workloads: their inputs, job lists and pinned known answers.

A job is one call into semitop, through `semitop.cli.main` or the public
library functions.  Every expected exit code and verdict below is fixed
data, taken from `scripts/reproduce_all.py` and the acceptance criteria, or
derived once from the definition replays in `tests/oracles.py`; nothing is
recomputed from semitop at run time.  The seed shuffles job order and, for
replay-tamper, draws the mutations.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

from families import OBSTRUCTED
from tamper import PLAN, tamper

WORKLOADS = ("certify-large", "catalog-sweep", "replay-tamper", "structure")

CERT, NO_OBSTRUCTION = "obstruction_certificate", "no_obstruction"


@dataclass
class Job:
    id: str
    kind: str                      # "cli", "build" or "verify"
    expect_exit: int | None        # cli exit code; None for library calls
    expect_verdict: object         # see `verdict_from`
    verdict_from: str              # "obstruct", "check", "embed" or "outcome"
    argv: list[str] = field(default_factory=list)   # "{out}" is the output path
    instance: tuple | None = None  # (id, window) the output must certify for
    text: str | None = None        # verify jobs: the document to load
    tamper: str | None = None      # verify jobs: what was changed, if anything
    doc_path: str | None = None    # honest verify jobs: the file to check independently

    @property
    def slug(self) -> str:
        return re.sub(r"[^A-Za-z0-9_.-]+", "_", self.id)

    def meta(self) -> dict:
        return {"id": self.id, "kind": self.kind, "expect_exit": self.expect_exit,
                "expect_verdict": self.expect_verdict, "verdict_from": self.verdict_from,
                "instance": self.instance, "tamper": self.tamper, "doc_path": self.doc_path,
                "slug": self.slug}


def _obstruct(iid: str, w: int) -> Job:
    """reproduce_all.py: every family certifies (exit 0) at windows 4..12 and
    its discrete control is a NoObstruction (exit 2); criteria 1 and 8 pin the
    same split for the right_simple_zero variants."""
    discrete = iid.endswith("-discrete")
    return Job(id=f"obstruct {iid} -w {w}", kind="cli",
               expect_exit=2 if discrete else 0,
               expect_verdict=NO_OBSTRUCTION if discrete else CERT,
               verdict_from="obstruct",
               argv=["obstruct", iid, "-w", str(w), "--out", "{out}"],
               instance=(iid, w))


def certify_large(seed, tiny, work):
    w = 6 if tiny else 24
    return [[_obstruct(fam, w)] for fam in ("brandt", "luke")]


def catalog_sweep(seed, tiny, work):
    windows = range(4, 6) if tiny else range(4, 13)
    return [[_obstruct(fam + suffix, w)] for fam in OBSTRUCTED
            for suffix in ("", "-discrete") for w in windows]


# -- replay-tamper ---------------------------------------------------------------

TAMPER_WINDOWS = (6, 9, 12)

# Open verifier defects (ROADMAP item 3), pinned from the seed commit over
# seeds 1-20: the mutations the verifier mishandles, and the wrong outcomes
# they may have.  A carrier index x written as x - n aliases x (the `-1`
# alias) and is accepted, or for a witness raises ValueError; an index of n
# or more raises IndexError; a str, float or bool where an integer belongs is
# coerced by int() and accepted.  These count as failures but leave the run
# correct.  Every other tampered document must be rejected with a verdict.
KNOWN_DEFECTS = {
    "index_negative": ("accept", "crash: ValueError", "crash: IndexError"),
    "index_high": ("accept", "crash: ValueError", "crash: IndexError"),
    "header_type": ("accept",),
    "wrong_type": ("accept",),
}
COERCED_TYPES = ("str", "float", "bool")


def known_defect(label: str, outcome: str) -> bool:
    """Whether a tampered document's wrong outcome is a pinned defect."""
    kind, *variant = label.split(":")
    if kind in ("header_type", "wrong_type") and variant[-1] not in COERCED_TYPES:
        return False
    return outcome.startswith(KNOWN_DEFECTS.get(kind, ()))


def replay_tamper(seed, tiny, work):
    """Honest certificates for every obstruction family at mid windows, and
    the seeded tampered copies of each that `tamper.PLAN` lists.  Per pass each instance is built
    once (a "build" job) and every document is loaded and verified against it
    (a "verify" job): honest ones must be accepted, tampered ones rejected
    with a verdict, never accepted and never by an escaping exception."""
    from semitop.obstruct import certificate_doc, escape_certificate, get_instance

    rng = random.Random(seed)
    windows = (6,) if tiny else TAMPER_WINDOWS
    groups = []
    for w in windows:
        for iid in OBSTRUCTED:
            jobs = [Job(id=f"build {iid} -w {w}", kind="build", expect_exit=None,
                        expect_verdict="built", verdict_from="outcome", instance=(iid, w))]
            honest = json.dumps(certificate_doc(escape_certificate(get_instance(iid, w))))
            path = work / f"honest_{iid.replace(':', '_')}_w{w}.json"
            path.write_text(honest)
            jobs.append(Job(id=f"verify {iid} -w {w} honest", kind="verify",
                            expect_exit=None, expect_verdict="accept",
                            verdict_from="outcome", instance=(iid, w), text=honest,
                            doc_path=str(path)))
            for k in range(len(PLAN)):
                doc, label = tamper(honest, k, rng, OBSTRUCTED)
                jobs.append(Job(id=f"verify {iid} -w {w} tampered {label}",
                                kind="verify", expect_exit=None, expect_verdict="reject",
                                verdict_from="outcome", instance=(iid, w),
                                text=json.dumps(doc),
                                tamper=label))
            groups.append(jobs)
    return groups


# -- structure --------------------------------------------------------------------

# check verdicts on the bundled topological fixtures.  ditop, weak-ditop,
# u, u2, cong-basis and vp come from the definition replays in
# tests/oracles.py; inverse and clifford from a brute-force inverse search;
# chain-finite holds on every finite semilattice.  vp runs with the diagonal
# congruence on the fixtures that declare an identity.
FIXTURE_VERDICTS = {
    "Z2_discrete": dict(ditop=1, weak_ditop=1, cong_basis=1, inverse=1, clifford=1, vp=1),
    "Z3_discrete": dict(ditop=1, weak_ditop=1, cong_basis=1, inverse=1, clifford=1, vp=1),
    "Z2^0_discrete": dict(ditop=1, weak_ditop=1, cong_basis=1, inverse=1, clifford=1, vp=1),
    "B2_discrete": dict(ditop=1, weak_ditop=1, cong_basis=1, inverse=1, clifford=0),
    "chain2_upper": dict(ditop=1, weak_ditop=1, cong_basis=0, inverse=1, clifford=1,
                         u=1, u2=0, chain_finite=1, vp=1),
    "chain3_upper": dict(ditop=1, weak_ditop=1, cong_basis=0, inverse=1, clifford=1,
                         u=1, u2=0, chain_finite=1, vp=0),
    "chain3_discrete": dict(ditop=1, weak_ditop=1, cong_basis=1, inverse=1, clifford=1,
                            u=1, u2=1, chain_finite=1, vp=0),
    "antichain3^0_discrete": dict(ditop=1, weak_ditop=1, cong_basis=1, inverse=1,
                                  clifford=1, u=1, u2=1, chain_finite=1),
    "powerset2_upper": dict(ditop=1, weak_ditop=1, cong_basis=0, inverse=1, clifford=1,
                            u=1, u2=0, chain_finite=1, vp=0),
    "powerset2_discrete": dict(ditop=1, weak_ditop=1, cong_basis=1, inverse=1, clifford=1,
                               u=1, u2=1, chain_finite=1, vp=0),
}

# embed jobs: (kind, input).  All audit clean (exit 0): criterion 2 for the
# regular and Wagner-Preston actions on the embedding catalog, criterion 3
# and reproduce_all.py for embcl, criterion 4 and reproduce_all.py for the
# shared-image groups, reproduce_all.py for clifford-product.  I4 (209
# elements) and embcl at window 4 are the heavy jobs.
EMBEDS = (
    [("cayley", s) for s in ("Z2", "S3", "L2", "R2", "T2", "I2", "B2", "I4")]
    + [("wp", s) for s in ("Z2", "S3", "I2", "B2", "I4")]
    + [("adjoin", "Z2"), ("adjoin", "R2"),
       ("product", "prod_Z2_chain2"), ("product", "prod_R2_L2"),
       ("clifford-product", "signed_antichain4"), ("clifford-product", "chain3"),
       ("group-restrict", "Z2_shared"), ("group-restrict", "Z3_shared"),
       ("group-restrict", "S3_shared"),
       ("embcl", "I2_window"), ("embcl", "I4_window")]
)
HEAVY = {"I4", "I4_window"}

# cong-basis on odd_chain presentations fails wherever the forcing argument
# certifies (criterion 8), after enumerating every candidate congruence.
PRESENTATION_WINDOWS = (8, 9)


def _write(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def structure(seed, tiny, work):
    from semitop.core import semigroup_doc
    from semitop.embed import bundled_group_fixtures
    from semitop.obstruct import get_instance
    from semitop.semigroups import embedding_catalog, symmetric_inverse_monoid
    from semitop.topo import bundled_top_semigroups, presentation_doc, top_spec_doc

    sems = dict(embedding_catalog())
    if not tiny:
        sems["I4"] = symmetric_inverse_monoid(4)[0]
    for name, s in sems.items():
        _write(work / f"{name}.json", semigroup_doc(s))
    for name, factors in (("prod_Z2_chain2", ("Z2", "chain2")), ("prod_R2_L2", ("R2", "L2"))):
        _write(work / f"{name}.json", {"kind": "product",
                                       "factors": [semigroup_doc(sems[f]) for f in factors]})
    for name, maps in bundled_group_fixtures():
        _write(work / f"{name}.json", {"kind": "transformation_group",
                                       "window": maps[0].window,
                                       "maps": [list(m.map) for m in maps]})
    for w in (2, 4):
        _write(work / f"I{w}_window.json", {"kind": "symmetric_inverse", "window": w})
    for name, ts in bundled_top_semigroups():
        _write(work / f"{name}.json", {"semigroup": semigroup_doc(ts.sem),
                                       "topology": top_spec_doc(ts.top),
                                       "congruence": list(range(ts.sem.n))})
    windows = (5,) if tiny else PRESENTATION_WINDOWS
    for w in windows:
        _write(work / f"odd_chain_w{w}.json",
               presentation_doc(get_instance("odd_chain", w).presentation))

    def cli(command, kind, name, exit_code, verdict):
        return Job(id=f"{command} {kind} {name}", kind="cli", expect_exit=exit_code,
                   expect_verdict=verdict, verdict_from=command,
                   argv=[command, kind, str(work / f"{name}.json"), "--json", "--out", "{out}"])

    jobs = [cli("embed", kind, name, 0, True) for kind, name in EMBEDS
            if not (tiny and name in HEAVY)]
    for name, verdicts in FIXTURE_VERDICTS.items():
        for kind, ok in verdicts.items():
            jobs.append(cli("check", kind.replace("_", "-"), name, 0 if ok else 2, bool(ok)))
    jobs += [cli("check", "cong-basis", f"odd_chain_w{w}", 2, False) for w in windows]
    return [[job] for job in jobs]


BUILDERS = {"certify-large": certify_large, "catalog-sweep": catalog_sweep,
            "replay-tamper": replay_tamper, "structure": structure}


def build(name: str, seed: int, tiny: bool, work: Path) -> list[Job]:
    """Write the workload's inputs under `work` and return its jobs in the
    seeded order.  Builders return groups; a group's build job stays first,
    since the group's verify jobs use the instance it builds."""
    rng = random.Random(seed)
    groups = BUILDERS[name](seed, tiny, work)
    rng.shuffle(groups)
    jobs = []
    for group in groups:
        rest = [j for j in group if j.kind != "build"]
        rng.shuffle(rest)
        jobs += [j for j in group if j.kind == "build"] + rest
    return jobs
