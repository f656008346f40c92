"""The run's statistics and its per-pass workers."""

import statistics

import pytest

import harness
import oracle
import workloads
from run import SRC, hash_seed, hd_quantile
from workloads import JobSpec


def test_hd_quantile_of_a_constant_is_the_constant():
    assert hd_quantile([7.0] * 50, 0.9) == pytest.approx(7.0)


def test_hd_quantile_tracks_the_sample_quantiles():
    xs = list(range(1, 201))
    assert hd_quantile(xs, 0.5) == pytest.approx(statistics.median(xs), rel=1e-3)
    assert hd_quantile(xs, 0.9) == pytest.approx(0.9 * 201, rel=1e-2)


def test_hd_quantile_moves_smoothly_across_a_gap():
    low, high = [10.0] * 50, [100.0] * 50
    below = hd_quantile(low + [10.0] + high, 0.5)
    above = hd_quantile(low + [100.0] + high, 0.5)
    assert 10.0 < below < above < 100.0
    assert above - below < 20.0


def test_hash_seeds_follow_the_seed_and_the_pass():
    assert hash_seed(3, 0) == hash_seed(3, 0)
    assert len({hash_seed(s, k) for s in range(4) for k in range(4)}) == 16
    assert all(0 <= hash_seed(s, 0) < 2**32 for s in range(20))


def test_a_pass_in_a_fresh_interpreter_gives_the_in_process_answers(tmp_path):
    specs = [
        JobSpec("solve", oracle.MOD3, "CP2"),
        JobSpec("integrate", oracle.K1P2, "CP2", "pt"),
        JobSpec("fgl", oracle.K1P2, trunc=8),
    ]
    jobs = workloads.materialize(specs, 2, tmp_path)
    argvs = [job.argv for job in jobs]
    results = harness.run_pass(argvs, False, hash_seed(2, 0), SRC, tmp_path)
    traced = harness.run_pass(argvs, True, hash_seed(2, 1), SRC, tmp_path)
    for job, r, t in zip(jobs, results, traced):
        assert job.check(r.rc, r.out) is None, job.id
        assert r.out == harness.run_job(job.argv).out == t.out, job.id
        assert 0 < r.cpu_seconds and r.maxrss_kb > 0, job.id
        assert not r.trace and t.trace["metrics"]["cli.calls"] == 1, job.id
