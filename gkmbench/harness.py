"""Running CLI jobs one at a time, each in a child forked from a parent that
has only imported gkmcalc.cli, so every job starts with cold caches.

The child calls gkmcalc.cli.main with stdout and stderr captured in memory,
times the call in wall and CPU time, and sends its result back through a
pipe.  The parent kills a child that outlives the per-job deadline and reads
its peak RSS from wait4.

run_pass runs one pass over a job list in a fresh parent interpreter (serve)
with its own PYTHONHASHSEED.  The hash seed sets the iteration order of sets
and dicts keyed by strings, and with it some jobs' times by a third; a new
hash seed per pass averages that over the passes instead of fixing it for a
whole run.
"""

from __future__ import annotations

import io
import os
import pickle
import select
import signal
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent

DEADLINE_S = 20.0


@dataclass
class JobResult:
    rc: int | None  # None: exception or killed
    out: str
    err: str
    seconds: float  # wall time; the deadline when killed
    maxrss_kb: int
    cpu_seconds: float = 0.0  # CPU time of the call; the deadline when killed
    killed: bool = False
    error: str | None = None  # traceback of an exception escaping main
    trace: dict = field(default_factory=dict)  # filled by a traced child


def _child(argv, tracer, wfd) -> None:
    from gkmcalc import cli

    out, err = io.StringIO(), io.StringIO()
    sys.stdout, sys.stderr = out, err
    rc, error = None, None
    if tracer is not None:
        tracer.install()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        rc = cli.main(argv, out, err)
    except Exception:  # reported to the parent as the job's failure
        error = traceback.format_exc()
    seconds = time.perf_counter() - t0
    cpu_seconds = time.process_time() - c0
    trace = tracer.collect(seconds) if tracer is not None else {}
    payload = pickle.dumps(
        (rc, out.getvalue(), err.getvalue(), seconds, cpu_seconds, error, trace)
    )
    with os.fdopen(wfd, "wb") as fh:
        fh.write(payload)


def run_job(argv: list[str], tracer=None, deadline: float = DEADLINE_S) -> JobResult:
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never return into the parent's code
        code = 1
        try:
            os.close(rfd)
            _child(argv, tracer, wfd)
            code = 0
        finally:
            os._exit(code)
    os.close(wfd)
    chunks = []
    killed = False
    end = time.monotonic() + deadline
    try:
        while True:
            left = end - time.monotonic()
            if left <= 0:
                os.kill(pid, signal.SIGKILL)
                killed = True
                break
            ready, _, _ = select.select([rfd], [], [], left)
            if ready:
                chunk = os.read(rfd, 1 << 20)
                if not chunk:
                    break
                chunks.append(chunk)
    finally:
        os.close(rfd)
        _, status, usage = os.wait4(pid, 0)
    maxrss = usage.ru_maxrss
    if killed:
        return JobResult(None, "", "", deadline, maxrss, deadline, killed=True)
    if not chunks:
        return JobResult(None, "", "", 0.0, maxrss, error=f"child exited with status {status}")
    rc, out, err, seconds, cpu_seconds, error, trace = pickle.loads(b"".join(chunks))
    return JobResult(rc, out, err, seconds, maxrss, cpu_seconds, error=error, trace=trace)


def serve(src: str, jobs_path: str, results_path: str) -> None:
    """A pass's parent: import gkmcalc.cli from src, run the pickled
    (argv list, traced) jobs one at a time and pickle their results."""
    import gkmcalc.cli
    from tracing import Tracer

    where = Path(gkmcalc.cli.__file__).resolve().parent.parent
    if where != Path(src).resolve():
        sys.exit(f"imported gkmcalc from {where}, not from {src}")
    argvs, traced = pickle.loads(Path(jobs_path).read_bytes())
    results = [run_job(argv, Tracer() if traced else None) for argv in argvs]
    Path(results_path).write_bytes(pickle.dumps(results))


def run_pass(argvs, traced: bool, hash_seed: int, src: Path, workdir: Path) -> list[JobResult]:
    """Run the jobs in a fresh interpreter with the given PYTHONHASHSEED."""
    jobs_path, results_path = workdir / "pass-jobs.pickle", workdir / "pass-results.pickle"
    jobs_path.write_bytes(pickle.dumps((list(argvs), traced)))
    results_path.unlink(missing_ok=True)
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(src), str(BENCH)]),
        PYTHONHASHSEED=str(hash_seed),
    )
    code = (
        "import sys, harness; "
        "harness.serve(sys.argv[1], sys.argv[2], sys.argv[3])"
    )
    proc = subprocess.run(
        [sys.executable, "-s", "-c", code, str(src), str(jobs_path), str(results_path)],
        env=env, capture_output=True, text=True,
        timeout=len(argvs) * (DEADLINE_S + 5) + 60,
    )
    if proc.returncode != 0 or not results_path.is_file():
        raise RuntimeError(f"pass worker failed ({proc.returncode}):\n{proc.stderr}")
    return pickle.loads(results_path.read_bytes())
