"""Spans around calls into semitop's modules, installed from outside.

`Tracer.install` replaces each traced function on its defining module and on
every semitop module that imported it by name (cli imports
`verify_certificate`, obstruct imports `congruence_closure`, and so on), and
each traced `__post_init__` on its class.  A span records its id, parent id,
name, job index, start and end; spans stay in memory until `write`.  Self
time (a span minus its child spans) is charged to exactly one per-layer
metric, so the metrics plus the unattributed remainder add up to the traced
wall time.  `compose` runs once per table cell, so it keeps a time and a
count but no span records; `agree_on_window` keeps a count only, and the
per-point `lazy_eval` is not wrapped at all.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
from collections import defaultdict
from statistics import median
from time import perf_counter

VERIFY = "obstruct.verify_certificate"


def _closure_metric(parent):
    return "obstruct.verify_closure_s" if parent and parent[1] == VERIFY else "core.closure_s"


# module -> ((attribute, self-time metric), ...); "Class.method" patches a class
TARGETS = {
    "semitop.core": (
        ("check_associativity", "core.assoc_s"),
        ("congruence_closure", _closure_metric),
        ("Congruence.__post_init__", "core.congruence_validate_s"),
        ("enumerate_congruences", "core.enumerate_s"),
        ("inverse_structure", "core.inverse_s"),
        ("FinSemigroup.__post_init__", "semigroups.table_s"),
        ("adjoin_zero", "semigroups.table_s"),
        ("adjoin_identity", "semigroups.table_s"),
        ("subsemigroup", "semigroups.table_s"),
        ("parse_semigroup", "cli.load_s"),
    ),
    "semitop.semigroups": tuple((name, "semigroups.table_s") for name in (
        "cyclic_group", "symmetric_group", "left_zero", "right_zero", "chain_semilattice",
        "antichain_with_zero", "signed_antichain_with_zero", "full_transformation_monoid",
        "symmetric_inverse_monoid", "brandt_semigroup", "semilattice_from_sets",
        "powerset_semilattice")),
    "semitop.topo": (
        ("TruncatedPresentation.__post_init__", "topo.presentation_s"),
        ("presentation_from_doc", "topo.presentation_s"),
        ("presentation_doc", "topo.presentation_s"),
        ("congruence_basis_check", "topo.basis_check_s"),
        ("top_spec_from_doc", "topo.checks_s"),
        ("continuity_check", "topo.checks_s"),
        ("presentation_continuity_check", "topo.checks_s"),
        ("inversion_continuity_check", "topo.checks_s"),
        ("ditopological_check", "topo.checks_s"),
        ("weakly_ditopological_check", "topo.checks_s"),
        ("u_check", "topo.checks_s"),
        ("u2_check", "topo.checks_s"),
    ),
    "semitop.obstruct": (
        ("get_instance", "obstruct.instance_s"),
        ("escape_certificate", "obstruct.search_s"),
        ("verify_certificate", "obstruct.verify_s"),
        ("certificate_doc", "obstruct.doc_s"),
        ("certificate_from_doc", "obstruct.doc_s"),
        ("chain_finite_check", "topo.checks_s"),
    ),
    "semitop.embed": tuple((name, "embed.build_s") for name in (
        "cayley_right_regular", "wagner_preston", "product_embed", "adjoin_embed",
        "embcl_rep", "clifford_product_embed", "group_restriction", "shared_image_laws",
        "preserves_inversion", "representation_doc", "RepresentationMap.__post_init__",
    )) + (
        ("verify_embedding", "embed.audit_s"),
        ("separating_opens", "embed.separating_opens_s"),
    ),
    "semitop.cli": (
        ("main", "cli.main_self_s"),
        ("_emit_json", "cli.emit_s"),
        ("_load_json", "cli.load_s"),
    ),
}


class Tracer:
    def __init__(self):
        self.stack = []                  # open spans: [id, name, child seconds]
        self.spans = []                  # (id, parent id, name, job, start, end)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.job = None
        self._ids = itertools.count()
        self._patches = []

    # -- counters read off arguments and results ---------------------------------

    def _after(self, name, args, kwargs, result):
        c = self.counts
        if name == "core.check_associativity":
            c["core.assoc_calls"] += 1
        elif name == "core.congruence_closure":
            cong, chain = result if isinstance(result, tuple) else (result, None)
            unions = cong.base.n - cong.num_classes
            c["core.closure_calls"] += 1
            c["core.closure_unions"] += unions
            seeds = args[1] if len(args) > 1 else kwargs.get("seeds", ())
            if chain is not None and hasattr(seeds, "__len__"):
                c["chained_unions"] += unions
                c["chained_attempts"] += len(seeds) + len(chain)
        elif name == "core.Congruence.__post_init__":
            c["core.congruence_validate_calls"] += 1
        elif name == "core.enumerate_congruences":
            c["core.enumerate_lattice_size"] += len(result)
        elif name == "core.FinSemigroup.__post_init__":
            c["semigroups.carrier_max"] = max(c["semigroups.carrier_max"], len(args[0].table))
        elif name == "obstruct.escape_certificate" and hasattr(result, "branches"):
            c["obstruct.branches"] += len(result.branches)
            c["obstruct.chain_steps"] += sum(len(b.chain) for b in result.branches)
        elif name == VERIFY:
            c["obstruct.verify_rejects"] += not result[0]
        elif name == "embed.RepresentationMap.__post_init__":
            rep = args[0]
            pairs = rep.source.n ** 2
            c["embed.hom_pairs"] += min(pairs, rep.sample) if rep.sample else pairs
        elif name == "cli._emit_json":
            out = args[1] if len(args) > 1 else kwargs.get("out")
            if out:
                c["cli.emit_bytes"] += os.path.getsize(out)

    # -- wrappers ------------------------------------------------------------------

    def _span(self, fn, name, metric):
        stack, spans, self_s, ids = self.stack, self.spans, self.self_s, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [next(ids), name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[2] += end - start
                self_s[metric(parent) if callable(metric) else metric] += end - start - frame[2]
                spans.append((frame[0], parent and parent[0], name, self.job, start, end))
            self._after(name, args, kwargs, result)
            return result
        return wrapper

    def _compose(self, fn):
        stack, self_s, counts = self.stack, self.self_s, self.counts

        @functools.wraps(fn)
        def wrapper(f, g):
            start = perf_counter()
            result = fn(f, g)
            took = perf_counter() - start
            if stack:
                stack[-1][2] += took
            self_s["transforms.compose_s"] += took
            counts["transforms.compose_calls"] += 1
            return result
        return wrapper

    def _count(self, fn, counter):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ----------------------------------------------------------------

    def _patch_everywhere(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if modname == "semitop" or modname.startswith("semitop."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, replacement)

    def install(self):
        for modname, targets in TARGETS.items():
            mod = sys.modules[modname]
            short = modname.split(".", 1)[1]
            for attr, metric in targets:
                name = f"{short}.{attr}"
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(mod, cls_name)
                    original = cls.__dict__[method]
                    self._patches.append((cls, method, original))
                    setattr(cls, method, self._span(original, name, metric))
                else:
                    original = getattr(mod, attr)
                    self._patch_everywhere(original, self._span(original, name, metric))
        transforms = sys.modules["semitop.transforms"]
        self._patch_everywhere(transforms.compose, self._compose(transforms.compose))
        self._patch_everywhere(transforms.agree_on_window,
                               self._count(transforms.agree_on_window,
                                           "transforms.agree_calls"))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------------

    def layer_metrics(self, traced_walls, untraced_walls) -> dict:
        """Per-pass averages of the self times and counters over the traced
        passes; ratios and maxima as they are.  The unattributed remainder
        makes the self times add up to the mean traced pass; the overhead
        compares median pass walls (traced passes are not speed-scaled)."""
        passes = len(traced_walls)
        out = {name: seconds / passes for name, seconds in self.self_s.items()}
        for name, value in self.counts.items():
            if name.startswith("chained_"):
                continue
            out[name] = value if name == "semigroups.carrier_max" else value / passes
        attempts = self.counts["chained_attempts"]
        out["core.closure_merge_ratio"] = self.counts["chained_unions"] / attempts if attempts else 0.0
        out["trace.unattributed_s"] = (sum(traced_walls) - sum(self.self_s.values())) / passes
        out["trace.overhead_frac"] = median(traced_walls) / median(untraced_walls) - 1
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(("id", "parent", "name", "job", "start", "end"),
                                             span))) + "\n")
