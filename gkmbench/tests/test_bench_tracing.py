"""The tracing helper: stdout unchanged, self times that add up, wrappers
placed by object identity, and removed functions reported as absent."""

import sys

import pytest

import harness
import oracle
import workloads
from tracing import Tracer
from workloads import JobSpec

# one small job per command and path: field, lattice with divisors and a
# primitive re-solve, localization and a formal group law
SPECS = [
    JobSpec("solve", oracle.K1P2, "Gr2_4"),
    JobSpec("check-formality", oracle.MOD3, "CP3"),
    JobSpec("solve", oracle.ORDINARY, "CP3x2"),
    JobSpec("solve", oracle.MULT, "CP2x3"),
    JobSpec("integrate", oracle.K1P3, "Fl3", "pt"),
    JobSpec("integrate", oracle.ORDINARY, "CP3", "Hn"),
    JobSpec("fgl", oracle.K1P2, trunc=16),
]

SELF_TIME_TOLERANCE = 0.05  # share of the job's traced time, plus 2 ms


@pytest.fixture(scope="module")
def traced_pairs(tmp_path_factory):
    jobs = workloads.materialize(SPECS, 5, tmp_path_factory.mktemp("jobs"))
    return [(job, harness.run_job(job.argv), harness.run_job(job.argv, Tracer())) for job in jobs]


def test_tracing_leaves_stdout_byte_identical(traced_pairs):
    for job, plain, traced in traced_pairs:
        assert plain.rc == traced.rc == 0, job.id
        assert job.check(traced.rc, traced.out) is None, job.id
        assert traced.out == plain.out, job.id


def test_self_times_sum_to_the_traced_job_time(traced_pairs):
    for job, _plain, traced in traced_pairs:
        metrics = traced.trace["metrics"]
        total_ms = sum(v for k, v in metrics.items() if k.endswith(".self_ms"))
        job_ms = 1000 * traced.seconds
        assert abs(total_ms - job_ms) <= SELF_TIME_TOLERANCE * job_ms + 2.0, job.id


def test_the_root_span_is_cli_main(traced_pairs):
    for job, _plain, traced in traced_pairs:
        first = traced.trace["spans"][0]
        assert first[1] == "cli.main" and first[4] == -1, job.id


def test_imported_references_are_wrapped(traced_pairs):
    by_id = {job.id: traced.trace for job, _plain, traced in traced_pairs}
    lattice = by_id["solve ordinary CP3x2"]["metrics"]
    # gkm calls integer_kernel and hermite_row_basis through its own imports
    assert lattice["lattice.solver_calls"] > 0
    assert lattice["lattice.max_cells"] > 0
    assert lattice["gkm.solves"] == 2  # with the primitive-kernel re-solve
    assert lattice["gkm.matrix_cells"] > 0


def test_zero_predictions(traced_pairs):
    by_id = {job.id: traced.trace["metrics"] for job, _plain, traced in traced_pairs}
    for job_id in ("integrate K1p3 Fl3 pt", "integrate ordinary CP3 Hn", "fgl K1p2 D16"):
        assert by_id[job_id]["gkm.solves"] == 0
        assert by_id[job_id]["lattice.calls"] == 0
    for job_id in ("solve K1p2 Gr2_4", "check-formality mod3 CP3"):
        assert by_id[job_id]["lattice.solver_calls"] == 0
        assert by_id[job_id]["classifying.transports"] > 0


class _WithoutEulerClasses(Tracer):
    def install(self):
        del sys.modules["gkmcalc.localization"].euler_classes
        super().install()


def test_a_removed_function_is_reported_absent(tmp_path):
    [job] = workloads.materialize([JobSpec("fgl", oracle.K1P2, trunc=8)], 1, tmp_path)
    result = harness.run_job(job.argv, _WithoutEulerClasses())
    assert result.error is None and result.rc == 0
    assert result.trace["absent"] == ["localization.euler_classes"]
    assert result.trace["metrics"]["localization.euler_ms"] == 0
