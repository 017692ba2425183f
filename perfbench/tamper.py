"""Seeded tampering of honest obstruction certificates.

Every mutation makes the document invalid by construction, so the known
answer for a tampered document is always "rejected", whatever the verifier
says.  No draw is filtered out, including the ones that hit known verifier
defects.

Each honest document gets the same menu of mutations (`PLAN`).  Mutations
inside a branch are spread over the branches by a fixed stratified design,
so every seed asks the verifier for about the same amount of work; the seed
picks the chain step, class entry, header field and replacement value.
"""

from __future__ import annotations

import json
import random

TYPES = ("str", "float", "bool", "null", "list")

# (kind, variant); kinds whose variant is None take no variant
PLAN = (
    [("rename", None),              # another catalog identifier
     ("window", None),              # window off by one
     ("guard", None),               # guard off by one
     ("drop_branch", None),         # one branch removed
     ("reorder_branches", None)]    # two branches swapped
    + [("header_type", t) for t in TYPES]          # window, guard or limit retyped
    + [("partition", None),                        # one recorded class id changed
       ("destination", None)]                      # a destination that is not the product
    + [("index_negative", f) for f in ("pair", "multiplier", "destination", "witness")]
    + [("index_high", f) for f in ("pair", "multiplier", "destination", "witness")]
    + [("wrong_type", t) for t in TYPES]           # a branch field retyped
)
IN_BRANCH = [p for p in PLAN if p[0] in
             ("partition", "destination", "index_negative", "index_high", "wrong_type")]


def _retype(v, t):
    return {"str": str(v), "float": float(v), "bool": bool(v), "null": None, "list": [v]}[t]


def _branch(doc, k):
    """The branch at stratum k of the in-branch mutations, moved to the
    nearest branch with a chain if it has none."""
    branches = doc["branches"]
    want = min(len(branches) - 1, (2 * k + 1) * len(branches) // (2 * len(IN_BRANCH)))
    with_chain = [i for i, br in enumerate(branches) if br["chain"]] or [want]
    return branches[min(with_chain, key=lambda i: (abs(i - want), i))]


def _slot(br, field, rng):
    """(container, key) of one carrier index of the given field."""
    if field == "witness":
        return br, "witness"
    if not br["chain"]:
        raise ValueError("no branch has a chain to tamper with")
    step = rng.choice(br["chain"])
    if field == "pair":
        return step[0], rng.randrange(2)
    if field == "multiplier":
        return step, 1
    return step[2], rng.randrange(2)


def tamper(honest_text: str, index: int, rng: random.Random, others: tuple[str, ...]):
    """Copy of the honest document with mutation `PLAN[index]` applied, and a
    label naming it, as "kind:variant"."""
    kind, variant = PLAN[index]
    doc = json.loads(honest_text)
    branches = doc["branches"]
    n = len(branches[0]["classes"])
    if (kind, variant) in IN_BRANCH:
        br = _branch(doc, IN_BRANCH.index((kind, variant)))
    if kind == "rename":
        doc["instance"] = rng.choice([o for o in others if o != doc["instance"]])
    elif kind in ("window", "guard"):
        doc[kind] += rng.choice((-1, 1))
    elif kind == "drop_branch" or (kind == "reorder_branches" and len(branches) < 2):
        del branches[rng.randrange(len(branches))]
        kind = "drop_branch"
    elif kind == "reorder_branches":
        i, j = sorted(rng.sample(range(len(branches)), 2))
        branches[i], branches[j] = branches[j], branches[i]
    elif kind == "header_type":
        field = rng.choice(("window", "guard", "limit"))
        doc[field] = _retype(doc[field], variant)
        variant = f"{field}:{variant}"
    elif kind == "partition":
        classes = br["classes"]
        i = rng.randrange(n)
        classes[i] = rng.choice([c for c in range(max(classes) + 2) if c != classes[i]])
    elif kind == "destination":
        box, key = _slot(br, "destination", rng)
        box[key] = rng.choice([v for v in range(n) if v != box[key]])
    elif kind in ("index_negative", "index_high"):
        box, key = _slot(br, variant, rng)
        box[key] += -n if kind == "index_negative" else n   # x - n aliases x
    else:                                                  # wrong_type
        field = rng.choice(("target", "witness", "classes", "chain"))
        if field == "classes":
            box, key = br["classes"], rng.randrange(n)
        elif field == "chain":
            box, key = _slot(br, rng.choice(("pair", "multiplier", "destination")), rng)
        else:
            box, key = br, field
        box[key] = _retype(box[key], variant)
        variant = f"{field}:{variant}"
    return doc, f"{kind}:{variant}" if variant else kind
