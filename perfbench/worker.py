"""One workload in a fresh process: set up, run timed passes, report.

Started by run.py, never by hand.  The worker imports semitop from the
checkout's `src/`, writes the workload's inputs, and runs the job list in
passes for about `--seconds` (at least one pass).  It samples the speed
reference during set-up too, so setup_s is scaled like the job times.
With `--trace 1` the first half of the time runs untraced and the second
half traced.
Untraced passes sample the speed reference from a timer signal (speed.py)
and report scaled times beside raw ones; traced passes do not, so the
reference never lands in a span.  It judges nothing: it reports every
job's time, exit code, outcome and output digest, and run.py checks them.
Its last stdout line is JSON.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import shutil
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent


def _import_semitop():
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import semitop
    if not Path(semitop.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"semitop was imported from {semitop.__file__}, not {src}")


class Runner:
    """Runs jobs through module attributes looked up at call time, so a
    tracer installed later sees every call."""

    def __init__(self):
        import semitop.cli
        import semitop.errors
        import semitop.obstruct
        self.cli = semitop.cli
        self.obstruct = semitop.obstruct
        self.SemitopError = semitop.errors.SemitopError
        self.instances = {}
        self.sampler = None            # a started speed.Sampler, if any

    def clock(self) -> float:
        """perf_counter minus the time the sampler's handler has taken."""
        return time.perf_counter() - (self.sampler.stolen if self.sampler else 0.0)

    def run(self, job, out: Path):
        """(seconds, exit code, outcome, captured text); outcome is the
        verdict of a library job or the exception that escaped."""
        if job.kind == "cli":
            return self._cli(job, out)
        start = self.clock()
        try:
            if job.kind == "build":
                self.instances[job.instance] = self.obstruct.get_instance(*job.instance)
                outcome = "built"
            else:
                cert = self.obstruct.certificate_from_doc(json.loads(job.text))
                ok, why = self.obstruct.verify_certificate(self.instances[job.instance], cert)
                outcome = "accept" if ok else f"reject: {why}"
        except self.SemitopError as exc:
            outcome = f"reject: {type(exc).__name__}: {exc}"
        except Exception as exc:  # escaped semitop: a crash, reported as the job's outcome
            outcome = f"crash: {type(exc).__name__}: {exc}"
        return self.clock() - start, None, outcome, ""

    def _cli(self, job, out: Path):
        argv = [a.replace("{out}", str(out)) for a in job.argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        outcome = None
        with redirect_stdout(stdout), redirect_stderr(stderr):
            start = self.clock()
            try:
                code = self.cli.main(argv)
            except (Exception, SystemExit) as exc:  # escaped semitop: a failed job
                code, outcome = None, f"crash: {type(exc).__name__}: {exc}"
            took = self.clock() - start
        return took, code, outcome, stdout.getvalue() + "\0" + stderr.getvalue()


def _peak_rss_mb() -> float:
    """VmHWM of this process.  ru_maxrss is no use here: Linux carries it
    across exec, so a worker would report its parent's peak."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _digest(text: str, out: Path) -> str:
    h = hashlib.sha256(text.encode())
    if out.exists():
        h.update(out.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--started", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--work", required=True)
    args = ap.parse_args(argv)

    sampler = speed.Sampler()
    sampler.start()
    try:
        work = Path(args.work)
        work.mkdir(parents=True, exist_ok=True)
        _import_semitop()
        import workloads
        jobs = workloads.build(args.workload, args.seed, args.tiny, work)
        runner = Runner()
        raw_setup_s = time.monotonic() - args.started - sampler.stolen
    finally:
        sampler.stop()
    # [scaled, raw] seconds; the scale comes from the samples taken during
    # set-up, topped up right after it, since short set-ups get few
    while len(sampler.durations) < speed.SETUP_SAMPLES:
        sampler.sample()
    setup = [raw_setup_s * sampler.scale_since(0), raw_setup_s]
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0

    # per job, per pass: [seconds, scaled seconds, exit, outcome, digest]
    records = [[] for _ in jobs]
    passes = []                    # per pass: {"wall_s", "scaled_s", "samples", "traced"}

    def run_pass(tracer=None):
        k = len(passes) + 1
        pdir = work / f"p{k}"
        pdir.mkdir()
        runner.instances.clear()
        gc.collect()
        sampler = runner.sampler = None if tracer else speed.Sampler()
        captured, scales = [], []
        wall = scaled = 0.0
        if sampler:
            sampler.start()
        try:
            start, seen = runner.clock(), 0
            for i, job in enumerate(jobs):
                if tracer:
                    tracer.job = i
                captured.append(runner.run(job, pdir / f"{job.slug}.json"))
                took = runner.clock() - start
                if took >= speed.STRETCH_S or i == len(jobs) - 1:
                    scale = sampler.scale_since(seen) if sampler else 1.0
                    wall += took
                    scaled += took * scale
                    scales += [scale] * (len(captured) - len(scales))
                    seen = len(sampler.durations) if sampler else 0
                    start = runner.clock()
        finally:
            if sampler:
                sampler.stop()
        for i, (job, (took, code, outcome, text), scale) in enumerate(
                zip(jobs, captured, scales)):
            records[i].append([took, took * scale, code, outcome,
                               _digest(text, pdir / f"{job.slug}.json")])
        if k > 1:                  # pass 1's files are the ones run.py checks
            shutil.rmtree(pdir)
        passes.append({"wall_s": wall, "scaled_s": scaled, "traced": tracer is not None,
                       "samples": len(sampler.durations) if sampler else 0})

    def run_passes(budget_s, tracer=None):
        """At least one pass; another only if it should end within budget."""
        began, done = time.perf_counter(), 0
        while not done or (time.perf_counter() - began) * (done + 1) / done <= budget_s:
            run_pass(tracer)
            done += 1

    run_passes(args.seconds / 2 if args.trace else args.seconds)
    report = {"setup": setup, "jobs": [j.meta() for j in jobs],
              "records": records, "passes": passes}
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            run_passes(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        report["layers"] = tracer.layer_metrics(
            [p["wall_s"] for p in passes if p["traced"]],
            [p["wall_s"] for p in passes if not p["traced"]])
        spans = work.parent / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans)
        report["spans_file"] = str(spans.relative_to(ROOT))
        report["span_count"] = len(tracer.spans)
    report["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
