"""A speed reference for hosts whose speed drifts.

On the shared 2-vCPU Xeon VM where this benchmark was written, the same
pure-Python loop ran in two speed states about 1.4x apart, switching every
few seconds, with slower drift on top: raw run times of one workload moved
by 15-30% from run to run, whatever the run length.  So while the worker
times jobs it also samples a fixed stdlib-only reference: an interval
timer fires every PERIOD_S and its handler runs the reference twice,
timing the second run.  The handler's time is taken out of the job it
interrupted, and each stretch of about STRETCH_S of job time is scaled by
NOMINAL_S over the mean reference time sampled during it.  Long jobs are
sampled all the way through, so a 14 s job is scaled by the speed it
actually saw.  Set-up is sampled the same way, topped up to SETUP_SAMPLES
samples right after it, and its time scaled by them.

The reference is table lookups in a triple loop, like the associativity
check, plus building an argparse parser and a JSON round trip, like a
small CLI job.
"""

from __future__ import annotations

import argparse
import json
import signal
import time

NOMINAL_S = 0.0016          # the reference's typical time there, mid-run
PERIOD_S = 0.1
STRETCH_S = 1.0
SETUP_SAMPLES = 5           # at least this many samples scale a set-up time

_N = 20
_TABLE = tuple(tuple((a * b + a + b) % _N for b in range(_N)) for a in range(_N))
_DOC = {"table": [list(row[:8]) for row in _TABLE[:8]], "name": "reference",
        "elements": [str(i) for i in range(8)], "identity": None}


def reference():
    t = _TABLE
    hits = 0
    for a in range(_N):
        ta = t[a]
        for b in range(_N):
            ab, tb = ta[b], t[b]
            for c in range(_N):
                if t[ab][c] == ta[tb[c]]:
                    hits += 1
    ap = argparse.ArgumentParser(prog="reference")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("catalog", "obstruct", "check", "embed"):
        p = sub.add_parser(name)
        p.add_argument("kind", choices=("a", "b", "c"))
        p.add_argument("--window", "-w", type=int, default=6)
        p.add_argument("--json", action="store_true")
        p.add_argument("--out", default=None)
    ap.parse_args(["check", "a", "--json"])
    json.loads(json.dumps(_DOC, indent=2, sort_keys=True))
    return hits


class Sampler:
    """Runs the reference from a SIGALRM handler while started.  `stolen`
    is the handler's total time, for callers to take out of their timings."""

    def __init__(self):
        self.durations = []
        self.stolen = 0.0

    def sample(self, signum=None, frame=None):
        """One untimed run to bring the reference back into cache, so the
        timed run does not depend on what the interrupted job evicted."""
        start = time.perf_counter()
        reference()
        warm = time.perf_counter()
        reference()
        end = time.perf_counter()
        self.durations.append(end - warm)
        self.stolen += end - start

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale_since(self, k: int) -> float:
        """Scale factor from the samples taken since `k` samples were in;
        samples once more if there are none."""
        if len(self.durations) == k:
            self.sample()
        fresh = self.durations[k:]
        return NOMINAL_S * len(fresh) / sum(fresh)
