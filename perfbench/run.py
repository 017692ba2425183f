#!/usr/bin/env python3
"""The semitop benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Defaults: all four workloads, seed 1, 20 seconds each, tracing off.

Each workload runs in a fresh worker process (perfbench/worker.py), one
after another, single-threaded, with semitop imported from this checkout's
`src/`.  The worker times passes over the workload's job list; this process
then checks every job against its pinned known answer, checks every
certificate written in pass 1 with the independent checker, and compares
later passes with pass 1 byte for byte.

With `--trace 0` it prints the end-to-end metrics (wall_s, job_p50_s,
job_p90_s, setup_s, peak_rss_mb, and fail_frac with its counts); set-up is
timed in the main worker and in two more set-up-only workers, and the
median is reported.  wall_s, the job percentiles and setup_s are scaled
to the nominal speed of a fixed reference (see speed.py), because this kind
of shared host drifts by 15-50% between runs; the raw seconds are printed
beside them.  With `--trace 1` the worker spends half the time
untraced and half traced, and the per-layer metrics are printed.  Metric
names and units come from BENCHMARK.json.  The last stdout line is one JSON
object: correct, attempted, failed, metrics.

A job fails when its outcome is not its pinned known answer, with one
exception: a tampered document in replay-tamper whose mutation is one of
the open verifier defects pinned in `workloads.KNOWN_DEFECTS` and whose
outcome is the one pinned there.  Such a known-defect outcome counts in the
printed fail_frac and in the printed counts of false accepts and crashes,
but not in the JSON `failed`, which counts only unexpected failures; so a
seed's tamper draws do not move `failed`, and `correct` is true exactly
when `failed` is 0.  Any other tampered document that is accepted, or that
crashes the verifier, is an unexpected failure.  `--tiny` shrinks every
workload for the smoke test.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from certcheck import Checker  # noqa: E402
from families import spec  # noqa: E402
from metrics import EXPECTS  # noqa: E402
from workloads import WORKLOADS, known_defect  # noqa: E402

SETUP_SAMPLES = 3
DEADLINE_S = 175


def _git_revision() -> str:
    """Read from .git without running git; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _worker(args, work: Path, setup_only: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work),
           "--started", repr(time.monotonic())]
    if args.tiny:
        cmd.append("--tiny")
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"worker for {args.workload} failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def percentile(sorted_values, q):
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


# -- checking ---------------------------------------------------------------------

def _flags_ok(doc) -> bool:
    """An embed report is a pass when every boolean flag in it is true."""
    if isinstance(doc, bool):
        return doc
    if isinstance(doc, dict):
        return all(_flags_ok(v) for v in doc.values())
    if isinstance(doc, list):
        return all(_flags_ok(v) for v in doc)
    return True


def _file_verdict(job, doc):
    if job["verdict_from"] == "obstruct":
        return doc.get("kind")
    if job["verdict_from"] == "check":
        return doc.get("verdict")
    return _flags_ok(doc)


class Outcomes:
    """Every (job, pass) judged against the pinned answers."""

    def __init__(self, report, work: Path):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.examples = []
        self.tamper = Counter()
        checkers = {}
        for job, recs in zip(report["jobs"], report["records"]):
            first = work / "p1" / f"{job['slug']}.json"
            problem = None                      # wrong in pass 1, so wrong in every pass
            if job["kind"] == "cli":
                try:
                    doc = json.loads(first.read_text())
                except (OSError, ValueError):
                    doc = None
                if doc is None or _file_verdict(job, doc) != job["expect_verdict"]:
                    problem = "wrong verdict or no output"
            check_path = first if job["kind"] == "cli" else job["doc_path"]
            if problem is None and job["instance"] and check_path:
                key = tuple(job["instance"])
                if key not in checkers:
                    checkers[key] = Checker(spec(*key))
                why = checkers[key].check(json.loads(Path(check_path).read_text()))
                if why:
                    problem = f"independent check: {why}"
            for k, (_, _, code, outcome, digest) in enumerate(recs):
                self.attempted += 1
                why = problem
                if outcome and outcome.split(":")[0] != job["expect_verdict"]:
                    why = outcome if outcome.startswith("crash") else f"verdict {outcome!r}"
                elif job["kind"] == "cli" and code != job["expect_exit"]:
                    why = f"exit code {code}, expected {job['expect_exit']}"
                elif digest != recs[0][4] or outcome != recs[0][3]:
                    why = "output differs from pass 1"
                if job["tamper"] and k == 0:
                    self.tamper[(job["tamper"].split(":")[0], outcome.split(":")[0])] += 1
                if why is None:
                    continue
                self.failed += 1
                known = (job["tamper"] and why != "output differs from pass 1"
                         and known_defect(job["tamper"], outcome))
                if not known:
                    self.unexpected += 1
                if k == 0 or why == "output differs from pass 1":
                    self.examples.append((bool(known), f"pass {k + 1}: {job['id']}: {why}"
                                          + (" (known defect)" if known else "")))


# -- reporting --------------------------------------------------------------------

def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(args, bench) -> tuple[dict, Outcomes]:
    """Run one workload and return its metrics and judged outcomes."""
    base = ROOT / ".perfbench-work"
    work = base / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    started = time.monotonic()
    try:
        report = _worker(args, work, False, DEADLINE_S)
        outcomes = Outcomes(report, work)
        setups = [report["setup"]]
        if not args.trace:
            for k in range(SETUP_SAMPLES - 1):
                left = DEADLINE_S - (time.monotonic() - started)
                setups.append(_worker(args, base / f"{work.name}-setup{k}", True, left)["setup"])
    finally:
        for path in base.glob(f"{work.name}*"):
            shutil.rmtree(path, ignore_errors=True)

    passes = report["passes"]
    untraced = [p for p in passes if not p["traced"]]
    samples = [rec for recs in report["records"]
               for rec, p in zip(recs, passes) if not p["traced"]]
    times = sorted(rec[1] for rec in samples)
    raw_times = sorted(rec[0] for rec in samples)
    setup_s = statistics.median(scaled for scaled, _ in setups)
    p50, beyond50 = percentile(times, 0.5)
    p90, beyond90 = percentile(times, 0.9)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "python": platform.python_version(),
        "git_revision": _git_revision(), "nproc": os.cpu_count(),
        "passes": len(untraced), "traced_passes": len(passes) - len(untraced),
        "jobs_per_pass": len(report["jobs"]),
        "reference_samples": [p["samples"] for p in passes],
        "raw": {"wall_s": statistics.median(p["wall_s"] for p in untraced),
                "job_p50_s": percentile(raw_times, 0.5)[0],
                "job_p90_s": percentile(raw_times, 0.9)[0],
                "setup_s": statistics.median(raw for _, raw in setups)},
        "samples": {"job_p50_s": [len(times), beyond50], "job_p90_s": [len(times), beyond90],
                    "wall_s": len(untraced), "setup_s": len(setups)},
    }
    print(f"== {args.workload}: seed {args.seed}, {len(untraced)} untraced pass(es) of "
          f"{len(report['jobs'])} jobs")
    print("meta " + json.dumps(meta, sort_keys=True))

    if args.trace:
        layers = report["layers"]
        metrics = {}
        for m in bench["per_layer"]:
            name = m["name"]
            metrics[name] = layers.get(name, 0.0)
            moves, where = EXPECTS[name]
            print(f"  {name:32} {_fmt(metrics[name]):>12} {m['unit']:6} moves {moves}; {where}")
        print(f"  spans: {report['span_count']} written to {report['spans_file']}")
    else:
        metrics = {
            "wall_s": statistics.median(p["scaled_s"] for p in untraced),
            "job_p50_s": p50,
            "job_p90_s": p90,
            "setup_s": setup_s,
            "peak_rss_mb": report["peak_rss_mb"],
        }
        notes = {
            "wall_s": f"median of {len(untraced)} pass(es)",
            "job_p50_s": f"n={len(times)}, {beyond50} beyond",
            "job_p90_s": f"n={len(times)}, {beyond90} beyond",
            "setup_s": f"median of {len(setups)} workers",
            "peak_rss_mb": "main worker",
        }
        for m in bench["end_to_end"]:
            name, unit = m["name"], m["unit"]
            shown = _fmt(metrics[name])
            if name in ("job_p50_s", "job_p90_s") and meta["samples"][name][1] < 10:
                shown = "-"          # fewer than ten samples beyond: not printed
            raw = f"; raw {_fmt(meta['raw'][name])}" if name in meta["raw"] else ""
            print(f"  {name:12} {shown:>12} {unit:3} ({notes[name]}{raw})")
    print(f"  {'fail_frac':12} {_fmt(outcomes.failed / outcomes.attempted):>12}     "
          f"({outcomes.failed}/{outcomes.attempted} jobs: "
          f"{outcomes.failed - outcomes.unexpected} known defects, "
          f"{outcomes.unexpected} unexpected)")
    for _, line in sorted(outcomes.examples, key=lambda e: e[0])[:8]:
        print("    " + line)
    if outcomes.tamper:
        accepts = sum(v for (kind, verdict), v in outcomes.tamper.items() if verdict == "accept")
        crashes = sum(v for (kind, verdict), v in outcomes.tamper.items() if verdict == "crash")
        print(f"  tampered documents: {sum(outcomes.tamper.values())}, "
              f"{accepts} false accepts, {crashes} crashes")
        for (kind, verdict), count in sorted(outcomes.tamper.items()):
            print(f"    {kind:18} {verdict:7} {count}")
    return metrics, outcomes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="semitop benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "semitop" / "__init__.py").is_file():
        print(f"error: no semitop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(argparse.Namespace(**{**vars(args), "workload": name}),
                                     bench)
    attempted = sum(o.attempted for _, o in results.values())
    failed = sum(o.unexpected for _, o in results.values())
    correct = failed == 0
    if len(names) == 1:
        metrics = results[names[0]][0]
    else:
        metrics = {f"{name}.{m}": v for name, (ms, _) in results.items() for m, v in ms.items()}
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m.split(".", 1)[1] if len(names) > 1 else m]}
                    for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
