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
