"""Run every workload untraced, traced and with its known failures, and
write the results to gkmbench/baseline.json.

    python3 gkmbench/record.py --commit <id of the measured commit>

Each workload gets three runs of gkmbench/run.py: --trace 0 (end-to-end
metrics), --trace 1 (per-layer metrics) and --all-jobs (one pass that
includes the jobs known to fail, for failed_frac).  Per-job times and the
failing jobs are taken from the runs' output.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, specs  # noqa: E402

MODES = {
    "untraced": ["--trace", "0"],
    "traced": ["--trace", "1"],
    "all_jobs": ["--trace", "0", "--all-jobs"],
}


def run(workload: str, seed: int, seconds: float, mode: str) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), *MODES[mode]]
    proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    jobs = {}
    failed = []
    for line in lines:
        if line.startswith("job "):
            ms, _unit, job_id = line[4:].strip().split(None, 2)
            jobs[job_id] = float(ms)
        elif line.startswith("failed: "):
            failed.append(line[len("failed: "):])
    out = {"result": result}
    if mode == "untraced":
        out["job_ms"] = jobs
    if mode == "all_jobs":
        out["failed_jobs"] = failed
        out["failed_frac"] = result["failed"] / result["attempted"]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--commit", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args()
    record = {
        "commit": args.commit,
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": f"{platform.machine()}, Python {platform.python_version()}",
        "workloads": {},
    }
    for workload in WORKLOADS:
        entry = {
            "known_failures": {s.id: s.known_failure for s in specs(workload, True)},
        }
        for mode in MODES:
            entry[mode] = run(workload, args.seed, args.seconds, mode)
            print(f"{workload} {mode}: {json.dumps(entry[mode]['result']['metrics'])}")
        record["workloads"][workload] = entry
    (BENCH / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
