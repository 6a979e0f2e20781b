"""``pool.spread``: every job's result in job order, its jobs dealt round-robin."""

from __future__ import annotations

import os

import pytest

from speclab import pool


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    """Two CPUs for the pool on any machine."""
    monkeypatch.setattr(pool, "cpus", lambda: 2)


def no_fork(monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))


def test_five_jobs_come_back_in_job_order():
    assert pool.spread(lambda job: job * job, [3, 1, 4, 1, 5]) == [9, 1, 16, 1, 25]


def test_job_i_runs_in_bin_i_mod_2():
    here = os.getpid()
    pids = pool.spread(lambda job: os.getpid(), list(range(5)))
    # bin 0, jobs 0, 2 and 4, runs here; bin 1, jobs 1 and 3, in one child
    assert pids[0::2] == [here] * 3
    assert pids[1] == pids[3] != here


def test_no_jobs_run_nothing_and_fork_nothing(monkeypatch):
    no_fork(monkeypatch)
    assert pool.spread(lambda job: pytest.fail(f"ran {job}"), []) == []


@pytest.mark.parametrize(
    "cpus, jobs", [(2, ["only"]), (1, list("abcde"))], ids=["one-job", "one-cpu"]
)
def test_one_bin_forks_nothing(monkeypatch, cpus, jobs):
    monkeypatch.setattr(pool, "cpus", lambda: cpus)
    no_fork(monkeypatch)
    here = os.getpid()
    assert pool.spread(lambda job: (job, os.getpid()), jobs) == [(job, here) for job in jobs]


def test_a_failed_child_has_its_bin_run_here():
    here = os.getpid()

    def run(job):
        if os.getpid() != here:
            raise ArithmeticError("failed in the child")
        return job, os.getpid()

    jobs = list(range(4))
    assert pool.spread(run, jobs) == [(job, here) for job in jobs]


def test_a_job_that_raised_in_a_child_runs_here_with_the_rest_of_its_bin():
    here = os.getpid()

    def run(job):
        if job == 3 and os.getpid() != here:
            raise ArithmeticError("failed in the child")
        return job, os.getpid()

    jobs, pids = zip(*pool.spread(run, list(range(6))))
    # bin 1 holds jobs 1, 3 and 5: job 1 came from the child, 3 and 5 ran here
    assert jobs == tuple(range(6))
    assert pids[1] != here and pids[:1] + pids[2:] == (here,) * 5


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_the_first_failing_job_in_job_order_raises_here(monkeypatch, cpus):
    # on two CPUs job 2 fails in bin 0 here and job 1 in the child
    monkeypatch.setattr(pool, "cpus", lambda: cpus)
    here = os.getpid()

    def run(job):
        if job in (1, 2):
            raise ArithmeticError(job, os.getpid())
        return job

    with pytest.raises(ArithmeticError) as info:
        pool.spread(run, [0, 1, 2, 3])
    assert info.value.args == (1, here)
