"""Command line interface.

Subcommands: ``catalog`` lists the bundled obstruction instances, ``obstruct``
runs the forcing argument and emits a certificate, ``check`` runs a named
predicate over a JSON input, ``embed`` builds and checks a representation.

Exit codes: 0 when the run produced a certificate or a true verdict, 2 for
NoObstruction or a false verdict, 1 for a usage error, malformed input or
a failed verification.  JSON output is byte-deterministic: sorted keys,
compact separators, one line plus a newline (``python -m json.tool``
re-indents it).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import sys

from .core import (
    RIGHT,
    Congruence,
    NotInverse,
    _index,
    _require_inverse,
    canonical_classes,
    check_associativity,
    classify_vp_quotient,
    clifford_check,
    inverse_structure,
    is_commutative,
    is_vagner_preston,
    parse_semigroup,
)
from .embed import (
    adjoin_embed,
    cayley_right_regular,
    clifford_product_embed,
    embcl_rep,
    group_restriction,
    product_embed,
    representation_doc,
    shared_image_laws,
    wagner_preston,
)
from .errors import DomainError, LoadError, SemitopError, TheoremViolationError
from .obstruct import (
    NoObstruction,
    catalog,
    certificate_doc,
    certificate_from_doc,
    chain_finite_check,
    escape_certificate,
    get_instance,
    instance_doc,
    verify_certificate,
)
from .topo import (
    TopSemigroup,
    congruence_basis_check,
    ditopological_check,
    points_of,
    presentation_from_doc,
    top_spec_from_doc,
    u2_check,
    u_check,
    weakly_ditopological_check,
)
from .transforms import Transformation

CHECK_KINDS = ("assoc", "inverse", "clifford", "vp", "ditop", "weak-ditop",
               "u", "u2", "chain-finite", "cong-basis")
EMBED_KINDS = ("cayley", "wp", "product", "adjoin", "embcl",
               "clifford-product", "group-restrict")


def _dumps(doc) -> str:
    """The JSON settings of every document: sorted keys on one compact line,
    which CPython encodes in C.  Every document is a fresh tree built from
    frozen dataclasses, so no container can hold itself and the encoder's
    cycle check is skipped."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), check_circular=False)


def _emit_json(pieces, out=None):
    """The one JSON writer: the text pieces of one document, then a newline,
    to the file out or else to stdout.  The pieces are written as they come
    and never joined, so a document made of many pieces is never held whole;
    an ordinary document is the one piece (_dumps(doc),).  Whatever the
    pieces, the bytes are _dumps of the whole document plus a newline, which
    ``python -m json.tool`` indents for reading."""
    with open(out, "w") if out is not None else contextlib.nullcontext(sys.stdout) as fh:
        fh.writelines(pieces)
        fh.write("\n")


def _certificate_pieces(cert, n):
    """The text of certificate_doc(cert), an obstruction certificate on a
    carrier of n elements, one branch at a time.

    A chain step is written from a table of the n index strings, which is
    what json.dumps would write for each index, and every other field goes
    through _dumps.  The fields come from certificate_doc itself, so the
    bytes are _dumps(certificate_doc(cert)) as long as 'branches' sorts
    first among the document's keys and 'chain' first among a branch's."""
    doc = certificate_doc(cert)
    branches = doc.pop("branches")
    s = [str(x) for x in range(n)]
    yield '{"branches":['
    for k, br in enumerate(branches):
        chain = br.pop("chain")
        yield '{"chain":[' if k == 0 else ',{"chain":['
        yield ",".join([f"[[{s[a]},{s[b]}],{s[m]},[{s[x]},{s[y]}]]"
                        for (a, b), m, (x, y) in chain])
        yield "]," + _dumps(br)[1:]
    yield "]," + _dumps(doc)[1:]


def _emit(args, pieces, lines):
    """The one output rule: the JSON document, as the text pieces
    _emit_json takes, goes to --out when given, else to stdout under --json;
    the human lines are printed unless --json."""
    if args.out is not None or args.json:
        _emit_json(pieces, args.out)
    if not args.json:
        for line in lines:
            print(line)


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:  # JSON is UTF-8 (RFC 8259)
            return json.load(fh)
    except (ValueError, RecursionError) as exc:  # also non-UTF-8 bytes, over-long integers
        raise LoadError(f"invalid JSON in {path}: {exc}") from exc


def _labels(sem, mask):
    return "{" + ", ".join(sem.label(x) for x in points_of(mask)) + "}"


# -- catalog -------------------------------------------------------------------

def cmd_catalog(args) -> int:
    instances = catalog(args.window)
    lines = [f"bundled instances at window {args.window} "
             f"(guard {instances[0].presentation.guard}):"]
    for inst in instances:
        pres = inst.presentation
        fam = inst.admissible()
        lines.append(f"  {inst.instance_id:<28} carrier {pres.base.n:>3}  "
                     f"limit {pres.base.label(inst.limit):<4} "
                     f"{len(fam)} admissible neighborhood{'s' if len(fam) != 1 else ''}")
        for tgt in inst.targets:
            lines.append(f"      target: {tgt.description}")
    _emit(args, _catalog_pieces(instances), lines)
    return 0


def _catalog_pieces(instances):
    """The catalog's JSON list, one instance document at a time, so each is
    freed once it is written."""
    for k, inst in enumerate(instances):
        yield ("," if k else "[") + _dumps(instance_doc(inst))
    yield "]"


# -- obstruct ------------------------------------------------------------------

def _transcript(inst, cert) -> list[str]:
    sem = inst.presentation.base
    lines = [f"instance {inst.instance_id} window {cert.window}: "
             f"obstruction certificate with {len(cert.branches)} branch(es)"]
    for k, br in enumerate(cert.branches):
        lines.append(f"  branch {k}: force {_labels(sem, br.neighborhood)} "
                     f"into the class of {sem.label(inst.limit)}")
        shown = br.chain[:10]
        for (a, b), m, (da, db) in shown:
            lines.append(f"    pair ({sem.label(a)}, {sem.label(b)}) forced by multiplier "
                         f"{sem.label(m)} -> ({sem.label(da)}, {sem.label(db)})")
        if len(br.chain) > len(shown):
            lines.append(f"    ... {len(br.chain) - len(shown)} more forcing steps")
        tgt = inst.targets[br.target_index]
        lines.append(f"    fired: {tgt.description}  [witness {sem.label(br.witness)}]")
    lines.append("verified: chain replay reproduces every branch partition")
    return lines


def cmd_obstruct(args) -> int:
    if args.replay is not None and (args.out is not None or args.json):
        raise DomainError("--replay prints a verdict line only; it takes neither --out nor --json")
    inst = get_instance(args.instance, window=args.window)
    if args.replay is not None:
        cert = certificate_from_doc(_load_json(args.replay))
        if isinstance(cert, NoObstruction):
            _emit(args, (), ["replay target is a NoObstruction report; nothing to verify"])
            return 1
        ok, why = verify_certificate(inst, cert)
        _emit(args, (), [f"certificate for {inst.instance_id} verified" if ok
                         else f"certificate rejected: {why}"])
        return 0 if ok else 1
    result = escape_certificate(inst)
    if isinstance(result, NoObstruction):
        sem = inst.presentation.base
        _emit(args, (_dumps(certificate_doc(result)),), [
            f"instance {inst.instance_id} window {result.window}: no obstruction; "
            f"neighborhood {_labels(sem, result.surviving)} survives forcing"])
        return 2
    ok, why = verify_certificate(inst, result)
    if not ok:
        raise TheoremViolationError(f"generated certificate failed replay: {why}")
    _emit(args, _certificate_pieces(result, inst.presentation.base.n),
          _transcript(inst, result))
    return 0


# -- check ---------------------------------------------------------------------

def _bundle_parts(doc):
    """(presentation, semigroup, topology, congruence) of a check input: a
    semigroup document, or a bundle with 'semigroup' plus optional
    'topology' and 'congruence', or a truncated presentation."""
    if not isinstance(doc, dict):
        raise LoadError("check input must be a JSON object")
    if doc.get("kind") == "truncated_presentation":
        pres = presentation_from_doc(doc)
        return pres, pres.base, None, None
    if "semigroup" in doc:
        sem = parse_semigroup(doc["semigroup"])
        top = top_spec_from_doc(doc["topology"]) if doc.get("topology") else None
        return None, sem, top, doc.get("congruence")
    return None, parse_semigroup(doc), None, None


def _need_topology(sem, top):
    if top is None:
        raise LoadError("this check needs a bundle with a 'topology' entry")
    return TopSemigroup(sem, top)


def cmd_check(args) -> int:
    doc = _load_json(args.file)
    kind = args.kind
    lines: list[str] = []
    report = {"schema": 1, "check": kind}

    if kind == "assoc":
        table = doc.get("table") if isinstance(doc, dict) else None
        if not isinstance(table, list) or not all(isinstance(row, list) for row in table):
            raise LoadError("associativity check needs a 'table' of rows")
        ok, triple = check_associativity(table)
        report["witness"] = list(triple) if triple else None
        if triple:
            lines.append(f"fails at ({triple[0]}, {triple[1]}, {triple[2]})")
    else:
        pres, sem, top, cong = _bundle_parts(doc)

        if kind in ("inverse", "clifford"):
            got = inverse_structure(sem)
            ok = not isinstance(got, NotInverse)
            if not ok:
                report["witness"] = got.witness
                lines.append(f"element {sem.label(got.witness)} has "
                             f"{got.inverse_count} generalized inverses")
            elif kind == "inverse":
                report["inverse"] = list(got.inv)
            else:
                ok, x = clifford_check(got)
                report["witness"] = x
                if not ok:
                    lines.append(f"x*x^-1 differs from x^-1*x at x = {sem.label(x)}")
        elif kind == "vp":
            got = _require_inverse(sem, "the Vagner-Preston test")
            if not isinstance(cong, list):
                raise LoadError("the Vagner-Preston test needs a 'congruence' list of class ids")
            rho = Congruence(sem, RIGHT, canonical_classes([_index(c, sem.n) for c in cong]))
            ok = is_vagner_preston(got, rho)
            report["classes"] = list(rho.classes)
            if ok and is_commutative(sem) and sem.identity is not None:
                cls = classify_vp_quotient(got, rho)
                report["quotient"] = cls.kind
                lines.append(f"quotient is a {cls.kind} on {cls.quotient.n} element(s)")
        elif kind in ("ditop", "weak-ditop"):
            ts = _need_topology(sem, top)
            checker = ditopological_check if kind == "ditop" else weakly_ditopological_check
            rep = checker(ts)
            ok = rep.ok
            report["failure"] = list(rep.failure) if rep.failure else None
            if rep.failure:
                x, s = rep.failure
                lines.append(f"factorized set at {sem.label(x)} catches {sem.label(s)} "
                             f"outside its minimal neighborhood")
        elif kind in ("u", "u2"):
            ts = _need_topology(sem, top)
            checker = u_check if kind == "u" else u2_check
            x = next((x for x in range(sem.n) if not checker(ts, x)[0]), None)
            ok = x is None
            report["failure"] = x
            if not ok:
                lines.append(f"fails at {sem.label(x)}")
        elif kind == "chain-finite":
            ok, chain = chain_finite_check(sem)
            report["longest_chain"] = list(chain)
            lines.append("longest chain: " + " > ".join(sem.label(x) for x in chain))
        else:  # cong-basis; argparse's choices refuse any other kind
            target = pres if pres is not None else _need_topology(sem, top)
            rep = congruence_basis_check(target)
            ok = rep.ok
            if not ok:
                x, z, nbhd = rep.failures[0]
                report["failure"] = {"point": x, "neighborhood": list(points_of(nbhd)),
                                     "witness": z}
                lines.append(f"no all-open-class right congruence keeps "
                             f"{sem.label(x)} inside {_labels(sem, nbhd)}: "
                             f"{sem.label(z)} is forced in")
                report["derivation"] = [[list(ab), m, list(d)] for ab, m, d in rep.derivation]
                if not rep.derivation:
                    lines.append(f"  the neighborhoods alone put {sem.label(z)} "
                                 f"in the class of {sem.label(x)}")
                for (a, b), m, (da, db) in rep.derivation:
                    lines.append(f"  ({sem.label(a)}, {sem.label(b)}) * {sem.label(m)} "
                                 f"= ({sem.label(da)}, {sem.label(db)})")

    report["verdict"] = ok
    _emit(args, (_dumps(report),), [f"{kind}: {'PASS' if ok else 'FAIL'}"] + ["  " + line for line in lines])
    return 0 if ok else 2


# -- embed ---------------------------------------------------------------------

def cmd_embed(args) -> int:
    doc = _load_json(args.file)
    kind = args.kind
    out = {"schema": 1, "embed": kind}
    lines = []
    reps = {}  # report key -> representation; None is the top level

    if kind == "cayley":
        rep = reps[None] = cayley_right_regular(parse_semigroup(doc))
        lines.append(f"acts on window {rep.window}; verification {rep.verification}")
    elif kind == "wp":
        got = _require_inverse(parse_semigroup(doc), "the partial-bijection action")
        reps[None] = wagner_preston(got)
        # a homomorphism into IN sends a^-1 to the converse (README, Scope (f))
        out["preserves_inversion"] = True
        lines.append("inversion becomes the relational converse: True")
    elif kind == "product":
        if (not isinstance(doc, dict) or doc.get("kind") != "product"
                or not isinstance(doc.get("factors"), list)):
            raise LoadError("product input needs {'kind': 'product', 'factors': [...]}")
        factors = [cayley_right_regular(parse_semigroup(d)) for d in doc["factors"]]
        rep = reps[None] = product_embed(factors)
        lines.append(f"{len(factors)} factor blocks, evaluation window {rep.window}")
    elif kind == "adjoin":
        base = cayley_right_regular(parse_semigroup(doc))
        reps["with_identity"], reps["with_zero"] = adjoin_embed(base)
        lines.append("external identity and external zero both represented")
    elif kind == "embcl":
        if not isinstance(doc, dict) or doc.get("kind") != "symmetric_inverse":
            raise LoadError("input needs {'kind': 'symmetric_inverse', 'window': n}")
        n = _index(doc.get("window"))
        if not 1 <= n <= 4:
            raise LoadError("symmetric inverse monoids are materialized for windows 1..4")
        rep = reps[None] = embcl_rep(n)
        lines.append(f"all {rep.source.n} partial bijections pushed into the "
                     f"total function space; verification {rep.verification}")
    elif kind == "clifford-product":
        got = _require_inverse(parse_semigroup(doc), "the Clifford product packing")
        rep = reps[None] = clifford_product_embed(got)
        out["factor_sizes"] = [f.n for f in rep.target.factors]
        lines.append(f"target product of {len(rep.target.factors)} factors, "
                     f"size {rep.target.n}; verification {rep.verification}")
    else:  # group-restrict; argparse's choices refuse any other kind
        if (not isinstance(doc, dict) or doc.get("kind") != "transformation_group"
                or not isinstance(doc.get("maps"), list)):
            raise LoadError("input needs {'kind': 'transformation_group', 'window': n, 'maps': [...]}")
        win = _index(doc.get("window"))
        maps = []
        for m in doc["maps"]:
            if not isinstance(m, list):
                raise LoadError(f"map {m!r} is not a list of indices")
            maps.append(Transformation(win, tuple(_index(v, win) for v in m)))
        laws = shared_image_laws(maps)
        gr = group_restriction(maps)
        reps[None] = gr.rep
        out["laws"] = {name: ok for name, ok, _ in laws}
        out["common_image"] = list(gr.image)
        lines += [f"{name}: ok" for name, _, _ in laws]  # each holds (README, Scope (e))

    # no topological audit: a finite source embeds topologically exactly
    # when it is discrete (see verify_embedding), so it would decide nothing
    for key, rep in reps.items():
        summary = {"representation": representation_doc(rep), "homomorphism": rep.verification}
        out.update(summary if key is None else {key: summary})

    _emit(args, (_dumps(out),), [f"embed {kind}: OK"] + ["  " + line for line in lines])
    return 0


# -- entry point ---------------------------------------------------------------

def _usage_error(parser, message):
    """ArgumentParser.error for the program's parsers: a usage error raises,
    so main prints it as one error: line and exits 1.  -h still prints the
    usage and exits 0."""
    raise DomainError(f"{parser.prog}: {message}")


class _Parser(argparse.ArgumentParser):
    # add_subparsers makes the subcommands' parsers of this class too
    error = _usage_error


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process; parse_args keeps no state between calls
    ap = _Parser(
        prog="semitop",
        description="finite windows of topological-semigroup embedding arguments")
    sub = ap.add_subparsers(dest="command", required=True)
    # options declared once; a parent's options come before the subcommand's own
    windowed = argparse.ArgumentParser(add_help=False)
    windowed.add_argument("--window", "-w", type=int, default=6)
    outputs = argparse.ArgumentParser(add_help=False)  # all four subcommands
    outputs.add_argument("--json", action="store_true")
    outputs.add_argument("--out", default=None)

    p = sub.add_parser("catalog", parents=[windowed, outputs],
                       help="list the bundled obstruction instances")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("obstruct", parents=[windowed, outputs],
                       help="run the forcing argument on an instance")
    p.add_argument("instance", help="e.g. exB, odd_chain, right_simple_zero:S3, "
                                    "brandt, luke, or any with -discrete appended")
    p.add_argument("--replay", default=None, metavar="CERT",
                   help="verify a stored certificate instead of searching")
    p.set_defaults(func=cmd_obstruct)

    p = sub.add_parser("check", parents=[outputs], help="run a predicate over a JSON input")
    p.add_argument("kind", choices=CHECK_KINDS)
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("embed", parents=[outputs], help="build and check a representation")
    p.add_argument("kind", choices=EMBED_KINDS)
    p.add_argument("file")
    p.set_defaults(func=cmd_embed)
    return ap


def main(argv=None) -> int:
    """Run one command with the cyclic garbage collector paused, and give
    the caller back the collector as it was, even when the command raises.

    A command builds only acyclic data: frozen dataclasses, tuples, lists
    of ints and JSON trees (_dumps skips the encoder's cycle check for
    the same reason), so reference counting frees all of it, and the
    collector would only rescan the many small containers of a certificate
    while they live.  The few cycles a failed command leaves, such as an
    exception's traceback, are freed by the first collection after main
    returns.  Library functions keep the collector as their caller set it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        if hasattr(sys.stdout, "reconfigure"):  # a label the locale cannot encode is escaped
            sys.stdout.reconfigure(errors="backslashreplace")
        try:
            args = _parser().parse_args(argv)
            return args.func(args)
        except (SemitopError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
