#!/usr/bin/env python3
"""Smoke test of the benchmark itself, in well under a minute.

    python3 perfbench/smoke.py

Runs every workload at its tiny size, untraced and traced, and checks that
each run prints every metric by name with its unit, that fail_frac stays in
its expected range, and that the last line has the agreed shape.  It also
checks the benchmark's own data: the instance specs against the catalog,
every tampered document against the independent checker, and that the
benchmark refuses to run without the sources.  Exits non-zero on the first
failure.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from certcheck import Checker  # noqa: E402
from families import OBSTRUCTED, spec  # noqa: E402
from metrics import EXPECTS  # noqa: E402
from tamper import PLAN, tamper  # noqa: E402
from workloads import WORKLOADS, known_defect  # noqa: E402

# printed fail_frac per workload, known defects included; replay-tamper shows the
# open verifier defects
FAIL_FRAC = {"certify-large": (0, 0), "catalog-sweep": (0, 0), "structure": (0, 0),
             "replay-tamper": (0, 0.5)}


def check(ok, message):
    if not ok:
        raise SystemExit(f"smoke: {message}")


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          cwd=cwd, timeout=170)


def check_runs():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in bench["workloads"]] == list(WORKLOADS), "workload list")
    check(set(EXPECTS) == {m["name"] for m in bench["per_layer"]}, "per-layer expectations")
    for workload in WORKLOADS:
        for trace, names in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            proc = run("perfbench/run.py", "--workload", workload, "--seed", "3",
                       "--seconds", "1", "--trace", str(trace), "--tiny")
            check(proc.returncode == 0, f"{workload} trace {trace}: {proc.stderr[-2000:]}")
            lines = proc.stdout.strip().splitlines()
            last = json.loads(lines[-1])
            check(set(last) == {"correct", "attempted", "failed", "metrics"}, "result keys")
            check(last["correct"] is True and last["attempted"] >= 1, f"{workload} not correct")
            check(list(last["metrics"]) == [m["name"] for m in names], f"{workload} metric names")
            for name, unit in ((m["name"], m["unit"]) for m in names):
                check(last["metrics"][name]["unit"] == unit, f"{workload} unit of {name}")
                check(any(line.split()[:1] == [name] and unit in line.split()
                          for line in lines[:-1]), f"{workload} does not print {name}")
            check(last["failed"] == 0, f"{workload} has unexpected failures")
            shown = [line.split() for line in lines if line.split()[:1] == ["fail_frac"]]
            check(len(shown) == 1, f"{workload} fail_frac line")
            low, high = FAIL_FRAC[workload]
            frac = float(shown[0][1])
            check(low <= frac <= high, f"{workload} fail_frac {frac}")


def check_specs_and_tampering():
    sys.path.insert(0, str(ROOT / "src"))
    from semitop.obstruct import certificate_doc, escape_certificate, get_instance

    for iid in OBSTRUCTED + tuple(i + "-discrete" for i in OBSTRUCTED):
        for w in range(4, 9):
            inst, sp = get_instance(iid, w), spec(iid, w)
            pres = inst.presentation
            check((sp.table, sp.limit, sp.family, sp.guard) ==
                  (pres.base.table, inst.limit, inst.admissible(), pres.guard)
                  and sp.targets == tuple((t.mode, t.open_set, t.point) for t in inst.targets),
                  f"spec of {iid} at window {w} differs from the catalog")
            doc = certificate_doc(escape_certificate(inst))
            check(Checker(sp).check(json.loads(json.dumps(doc))) is None,
                  f"honest document for {iid} at {w} fails the checker")
            if iid.endswith("-discrete"):
                continue
            text = json.dumps(doc)
            rng = random.Random(w)
            for k in range(len(PLAN)):
                bad, label = tamper(text, k, rng, OBSTRUCTED)
                check(Checker(sp).check(bad) is not None,
                      f"tampered {iid} at {w} ({label}) passes the checker")
                pinned = label.startswith(("index_", "header_type", "wrong_type")) and \
                    label.rsplit(":", 1)[-1] not in ("null", "list")
                check(known_defect(label, "accept") == pinned
                      and not known_defect(label, "crash: TypeError: x"),
                      f"{label} is {'not ' * pinned}exempted as a known defect")


def check_refuses_without_sources():
    bare = ROOT / ".perfbench-work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(f"{HERE.name}/run.py", "--workload", "catalog-sweep", "--seed", "1",
                   "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          "runs without the semitop sources")


def main() -> int:
    check_specs_and_tampering()
    check_refuses_without_sources()
    check_runs()
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
