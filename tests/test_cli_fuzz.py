"""Mutation fuzzing of the `check` and `embed` inputs.

The seed documents are the ones `scripts/reproduce_all.py` feeds to `check`
and `embed`, built here from the builders.  Each fuzzed document is a seed
with one to three mutations (Zeller et al., *The Fuzzing Book*, 2019,
"Mutation-Based Fuzzing"): a value replaced by -1, a value past the range, a
bool, null, a string, a float, 2**70, a list or a dict; a key or an item
deleted; or an item duplicated.  Each runs in process through `main`.

The contract: no exception leaves `main`, the exit code is 0, 1 or 2, and an
exit 1 writes nothing on stdout and one `error:` line on stderr.  `embed`
exits 0 with its report or 1 with that one line, never 2: its side verdicts
are theorems (README, Scope (e)-(g)), and a representation that fails its
check is refused with an error.
"""

import copy
import json
import random

from semitop.cli import main
from semitop.core import semigroup_doc
from semitop.semigroups import cyclic_group, embedding_catalog, symmetric_inverse_monoid
from semitop.topo import bundled_top_semigroups, top_spec_doc

SEED = 1
COUNT = 3000


def seed_jobs():
    """(command, kind, document) of every check and embed job that
    reproduce_all.py runs."""
    fixtures = dict(bundled_top_semigroups())
    jobs = []
    for name in ("chain3_upper", "powerset2_upper", "chain3_discrete"):
        ts = fixtures[name]
        bundle = {"semigroup": semigroup_doc(ts.sem), "topology": top_spec_doc(ts.top)}
        jobs += [("check", kind, bundle) for kind in ("u", "u2", "cong-basis")]
    sa4 = dict(embedding_catalog())["signed_antichain4"]
    jobs += [
        ("embed", "cayley", semigroup_doc(cyclic_group(2))),
        ("embed", "wp", semigroup_doc(symmetric_inverse_monoid(2)[0])),
        ("embed", "embcl", {"kind": "symmetric_inverse", "window": 2}),
        ("embed", "clifford-product", semigroup_doc(sa4)),
        ("embed", "group-restrict", {"kind": "transformation_group", "window": 4,
                                     "maps": [[0, 1, 0, 1], [1, 0, 1, 0]]}),
    ]
    return jobs


def _containers(doc):
    """Every non-empty list and dict in the document, the root included."""
    found, stack = [], [doc]
    while stack:
        node = stack.pop()
        if isinstance(node, (list, dict)) and node:
            found.append(node)
            stack.extend(node.values() if isinstance(node, dict) else node)
    return found


def _ints(node):
    """Every integer in the document, bools aside."""
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        return [v for x in node for v in _ints(x)]
    return [node] if type(node) is int else []


def mutate(rng, doc):
    """One mutation in place: a slot of a container drawn uniformly is
    replaced, deleted or (in a list) duplicated."""
    node = rng.choice(_containers(doc))
    slot = rng.choice(list(node) if isinstance(node, dict) else range(len(node)))
    op = rng.choice(("replace", "delete", "duplicate"))
    if op == "delete":
        del node[slot]
    elif op == "duplicate" and isinstance(node, list):
        node.insert(slot, copy.deepcopy(node[slot]))
    else:
        past = max(_ints(doc), default=0) + 1
        node[slot] = rng.choice([-1, past, True, False, None, "x", 1.5, 2**70, [0], {"n": 1}])


def test_mutated_check_and_embed_inputs_keep_the_exit_contract(tmp_path, capsys):
    rng = random.Random(SEED)
    jobs = seed_jobs()
    path = tmp_path / "fuzz.json"
    breaks = []
    for i in range(COUNT):
        command, kind, seed_doc = jobs[i % len(jobs)]
        doc = copy.deepcopy(seed_doc)
        for _ in range(rng.randint(1, 3)):
            if not _containers(doc):
                break
            mutate(rng, doc)
        path.write_text(json.dumps(doc))
        argv = [command, kind, str(path)] + (["--json"] if rng.random() < 0.5 else [])
        try:
            code = main(argv)
        except Exception as exc:  # noqa: BLE001 - any escape breaks the contract
            capsys.readouterr()
            breaks.append((argv[:2], doc, repr(exc)))
            continue
        out, err = capsys.readouterr()
        if code not in ((0, 1) if command == "embed" else (0, 1, 2)):
            breaks.append((argv[:2], doc, f"exit {code}"))
        elif code == 1 and (out or not err.startswith("error: ") or err.count("\n") != 1):
            breaks.append((argv[:2], doc, out + err))
    assert breaks == [], f"{len(breaks)} of {COUNT} documents broke the contract: {breaks[:3]}"
