"""The answer oracle against the library: the window count against
formality_prediction, the precision budget against the smallest --trunc
that succeeds, and the known failures of the seed commit."""

import io

import pytest

import corpus
import harness
import oracle
import workloads

from gkmcalc import cli
from gkmcalc.gkm import formality_prediction
from gkmcalc.scalars import TheoryConfig, make_theory

THEORIES = (
    oracle.ORDINARY, oracle.MULT, oracle.K1P2, oracle.K1P3, oracle.K2P2,
    oracle.MOD3, oracle.MOD5,
)


def _library_theory(th, trunc):
    return make_theory(TheoryConfig(cli._THEORY_FLAGS[th.kind], trunc, th.p, th.n))


@pytest.mark.parametrize("name", sorted(corpus.GRAPHS))
def test_window_count_matches_formality_prediction(name):
    g = corpus.graph(name)
    for th in THEORIES:
        trunc = oracle.solver_trunc(th, g, workloads.QMAX)
        lib = _library_theory(th, trunc)
        expected = {
            q: formality_prediction(lib, g.rank, list(g.betti), q)
            for q in range(0, workloads.QMAX + 1, 2)
        }
        assert oracle.predicted_ranks(th, g, trunc, workloads.QMAX) == expected, th.label


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    rc = cli.main(argv, out, err)
    return rc, out.getvalue(), err.getvalue()


def _with_trunc(argv, trunc):
    argv = list(argv)
    argv[argv.index("--trunc") + 1] = str(trunc)
    return argv


def _integrate_jobs(tmp_path, known_failures=False):
    specs = [s for s in workloads.specs("localize", known_failures) if s.command == "integrate"]
    return workloads.materialize(specs, 3, tmp_path)


def test_budget_is_the_smallest_trunc_that_succeeds(tmp_path):
    for job in _integrate_jobs(tmp_path):
        trunc = int(job.argv[job.argv.index("--trunc") + 1])
        rc, out, _err = _run(job.argv)
        assert job.check(rc, out) is None, job.id
        rc, _out, err = _run(_with_trunc(job.argv, trunc - 1))
        assert rc == 4 and "precision budget" in err, job.id


def test_known_failing_integrals_exit_4(tmp_path):
    jobs = _integrate_jobs(tmp_path, known_failures=True)
    assert {j.spec.known_failure for j in jobs} == {
        workloads.KNOWN_MULT_SCALARS, workloads.KNOWN_BUDGET,
    }
    for job in jobs:
        rc, _out, err = _run(job.argv)
        assert rc == 4, job.id
        mult = job.spec.theory.kind == "mult"
        assert ("no unit leading coefficient" if mult else "precision exhausted") in err, job.id


def test_known_lattice_stalls_outlive_a_deadline(tmp_path):
    jobs = workloads.materialize(workloads.specs("lattice-solve", known_failures=True), 1, tmp_path)
    assert {j.spec.known_failure for j in jobs} == {
        workloads.KNOWN_STALL, workloads.KNOWN_SWAP_STALL,
    }
    for job in jobs:
        result = harness.run_job(job.argv, deadline=2.0)
        assert result.killed and result.seconds == 2.0, job.id


def test_fgl_check_reads_the_height_n_p_series():
    rc, out, _ = _run(["fgl", *oracle.K2P2.flags(8), "--ell", "2"])
    assert rc == 0 and oracle.check_fgl(out, oracle.K2P2) is None
    assert oracle.check_fgl(out, oracle.K1P2) is not None


def test_solve_check_rejects_a_wrong_rank(tmp_path):
    spec = workloads.JobSpec("solve", oracle.ORDINARY, "CP3x2")
    [job] = workloads.materialize([spec], 1, tmp_path)
    rc, out, _ = _run(job.argv)
    assert job.check(rc, out) is None
    assert "divisors q=" in out
    assert job.check(rc, out.replace("\n2 4\n", "\n2 5\n", 1)) is not None
    assert job.check(1, out) == "exit code 1"
