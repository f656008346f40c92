"""CLI job-mix benchmark for gkmcalc.

Run from the root of a checkout:

    python3 gkmbench/run.py --workload field-solve --seed 1 --seconds 20 --trace 0

Each job is one gkmcalc command line, run through gkmcalc.cli.main in a child
forked from a parent that has only imported gkmcalc.cli; output is captured
in memory and checked by the benchmark's own oracle.  Each pass has a fresh
parent with a PYTHONHASHSEED drawn from --seed and the pass number.  Jobs run
one at a time (a closed loop with one client) in whole passes over the
workload's job list, until --seconds have passed and at least MIN_JOBS jobs
have run.  The last line of stdout is a JSON object with the keys correct,
attempted, failed and metrics: with --trace 0 the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced pass, set against an untraced one.

The end-to-end times are CPU times of the process doing the work: the job's
child for a job, a fresh interpreter for setup_s.  gkmcalc is single-threaded,
so on an idle machine they equal the wall time a user waits; on a shared host
they leave out the time other processes hold the CPU.  On a shared 2-core VM
the middle half of ten runs of the same code spread over 40% of the median in
wall time and 4-14% in CPU time.  Wall times are printed as well.

--all-jobs runs one pass that adds the jobs failing at the seed commit (the
known failures), so that failed_frac shows what a fix changes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import workloads
from harness import run_pass

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".gkmbench"
MIN_JOBS = 100
SETUP_SAMPLES = 5  # per pass

# how the known failures fail at the seed commit; anything else is a new fault
KNOWN_OUTCOMES = ("killed at the deadline", "exit code 4")

COMMAND_METRICS = {
    "solve": "solve_s",
    "check-formality": "formality_s",
    "integrate": "integrate_s",
    "fgl": "fgl_s",
}

_SETUP_SNIPPET = (
    "import time; t = time.process_time(); import gkmcalc.cli; "
    "print(time.process_time() - t)"
)


def _fail(msg: str) -> None:
    print(f"gkmbench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def setup_samples(count: int) -> list[float]:
    """CPU times to import gkmcalc.cli, each in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-s", "-c", _SETUP_SNIPPET]
    samples = []
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            _fail(f"import gkmcalc.cli failed:\n{proc.stderr}")
        samples.append(float(proc.stdout))
    return samples


def hash_seed(seed: int, pass_no: int) -> int:
    """The PYTHONHASHSEED of a pass, drawn from the run's seed."""
    return random.Random(f"{seed}/{pass_no}").randrange(2**32)


def run_passes(jobs, seconds, start, seed, workdir, traced=False, min_jobs=MIN_JOBS, setup=None):
    """Whole passes over the jobs until `seconds` have passed since `start`
    and at least min_jobs jobs have run.  Returns one list of results per
    pass, in job order.  With a setup list, SETUP_SAMPLES import times are
    added to it before each pass, so that they spread over the run."""
    argvs = [j.argv for j in jobs]
    passes = []
    while True:
        if setup is not None:
            setup.extend(setup_samples(SETUP_SAMPLES))
        passes.append(run_pass(argvs, traced, hash_seed(seed, len(passes)), SRC, workdir))
        if time.monotonic() - start >= seconds and len(passes) * len(jobs) >= min_jobs:
            return passes


def judge(jobs, passes) -> tuple[int, int, list[tuple]]:
    """(attempted, failed, distinct (job, reason) problems): a job fails when
    it is killed, raises, exits with an unexpected code or answers wrongly."""
    attempted = failed = 0
    problems = []
    for results in passes:
        for job, r in zip(jobs, results):
            attempted += 1
            if r.killed:
                reason = "killed at the deadline"
            elif r.error:
                reason = "exception: " + r.error.strip().splitlines()[-1]
            else:
                reason = job.check(r.rc, r.out)
            if reason is not None:
                failed += 1
                problems.append((job, reason))
    return attempted, failed, list(dict.fromkeys(problems))


def per_job_medians(jobs, passes, clock: str = "cpu_seconds") -> dict[str, float]:
    """Each job's median time over the passes, by CPU time or by wall time
    (clock="seconds")."""
    return {
        j.id: statistics.median(getattr(p[i], clock) for p in passes)
        for i, j in enumerate(jobs)
    }


def hd_quantile(values, p: float, steps: int = 32) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by a Beta((n+1)p, (n+1)(1-p)) density.  Job times
    cluster by graph and theory with gaps between the clusters; a plain
    sample quantile jumps across a gap when one job shifts, this one does not."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    weights = []
    for i in range(n):
        mids = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(
            math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta) for x in mids
        ))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def job_times(jobs, passes, clock: str, prefix: str) -> dict:
    """One pass's total and the median and 90th percentile of a job."""
    medians = per_job_medians(jobs, passes, clock)
    samples_ms = [1000 * getattr(r, clock) for p in passes for r in p]
    return {
        f"{prefix}_s": (sum(medians.values()), "s"),
        f"job_{prefix}_ms_p50": (hd_quantile(samples_ms, 0.5), "ms"),
        f"job_{prefix}_ms_p90": (hd_quantile(samples_ms, 0.9), "ms"),
    }


def end_to_end(jobs, passes, setup) -> dict:
    metrics = {
        **job_times(jobs, passes, "cpu_seconds", "cpu"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (
            statistics.median(max(r.maxrss_kb for r in p) / 1024 for p in passes),
            "MB",
        ),
    }
    return metrics


def command_split(jobs, passes) -> dict:
    medians = per_job_medians(jobs, passes)
    split = {name: 0.0 for name in COMMAND_METRICS.values()}
    for j in jobs:
        split[COMMAND_METRICS[j.spec.command]] += medians[j.id]
    return {name: (value, "s") for name, value in split.items()}


LAYER_UNITS = {"_ms": "ms", "_bits": "bits", "_cells": "cells"}  # otherwise "count"


def _layer_unit(name: str) -> str:
    return next((u for suffix, u in LAYER_UNITS.items() if name.endswith(suffix)), "count")


def per_layer(jobs, traced, untraced) -> tuple[dict, list[str]]:
    """Layer metrics summed over the job list: times are each job's median
    over the traced passes, counts come from the first traced pass and
    maxima are taken over jobs."""
    totals: dict[str, float] = defaultdict(float)
    absent: set[str] = set()
    for i, _job in enumerate(jobs):
        first = traced[0][i].trace
        absent.update(first.get("absent", []))
        for name, value in first.get("metrics", {}).items():
            if name.endswith("_ms"):
                value = statistics.median(p[i].trace["metrics"][name] for p in traced)
            if name.startswith("lattice.max_"):
                totals[name] = max(totals[name], value)
            else:
                totals[name] += value
    traced_cpu = sum(per_job_medians(jobs, traced).values())
    untraced_cpu = sum(per_job_medians(jobs, untraced).values())
    metrics = {name: (value, _layer_unit(name)) for name, value in sorted(totals.items())}
    metrics.update(command_split(jobs, untraced))
    metrics["trace.overhead_frac"] = (traced_cpu / untraced_cpu - 1, "ratio")
    return metrics, sorted(absent)


def stdout_mismatches(jobs, traced, untraced) -> list[tuple]:
    """Jobs whose stdout differs between the traced and the untraced run."""
    return [
        (j, "stdout differs under tracing")
        for i, j in enumerate(jobs)
        if any(p[i].out != untraced[0][i].out for p in traced)
    ]


def write_spans(path: Path, jobs, traced) -> None:
    """The spans of the first traced pass, by job id (see Tracer.collect)."""
    out = {
        job.id: {k: traced[0][i].trace.get(k, []) for k in ("spans", "totals")}
        for i, job in enumerate(jobs)
    }
    path.write_text(json.dumps(out))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all-jobs", action="store_true",
                        help="include the jobs known to fail at the seed commit")
    args = parser.parse_args(argv)

    if not (SRC / "gkmcalc" / "cli.py").is_file():
        _fail(f"no gkmcalc sources under {SRC}; run from the root of a checkout")
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    specs = workloads.specs(args.workload)
    if args.all_jobs:
        specs += workloads.specs(args.workload, known_failures=True)

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        jobs = workloads.materialize(specs, args.seed, workdir)
        setup_samples(1)  # compiles the bytecode; not counted
        setup = []
        start = time.monotonic()
        at = dict(seed=args.seed, workdir=workdir)
        if args.trace:
            untraced = run_passes(jobs, args.seconds / 2, start, min_jobs=1, **at)
            traced = run_passes(jobs, args.seconds, start, traced=True, min_jobs=1, **at)
            passes = untraced + traced
        elif args.all_jobs:  # one pass: the known failures include stalls
            passes = run_passes(jobs, 0, start, min_jobs=1, setup=setup, **at)
        else:
            passes = run_passes(jobs, args.seconds, start, setup=setup, **at)
    except RuntimeError as exc:
        _fail(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, problems = judge(jobs, passes)
    if args.trace:
        problems += stdout_mismatches(jobs, traced, untraced)
    unexpected = [
        (job, reason) for job, reason in problems
        if not (job.spec.known_failure and reason in KNOWN_OUTCOMES)
    ]
    if args.trace:
        metrics, absent = per_layer(jobs, traced, untraced)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        write_spans(spans_path, jobs, traced)
        for name in absent:
            print(f"absent: {name} (its metrics read 0)")
        print(f"spans: {spans_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(jobs, passes, setup)
        extra = {**command_split(jobs, passes), **job_times(jobs, passes, "seconds", "wall")}
    medians = per_job_medians(jobs, passes if not args.trace else untraced)
    for job in jobs:
        print(f"job {1000 * medians[job.id]:10.2f} ms  {job.id}")
    for job, reason in problems:
        print(f"failed: {job.id}: {reason}")
    print(f"passes: {len(passes)}  jobs per pass: {len(jobs)}  attempted: {attempted}  "
          f"failed: {failed}  failed_frac: {failed / attempted:.4f} ratio")
    if not args.trace:
        for name, (value, unit) in extra.items():
            print(f"{name}: {value:.6g} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
