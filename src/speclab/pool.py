"""One pool of forked processes for jobs that do not depend on each other.

``spread(run, jobs)`` returns ``run(job)`` of every job, in job order.
It deals the jobs round-robin, in the order given, over
min(``cpus()``, jobs) bins, ``cpus()`` being the CPUs this process may
run on: job i goes to bin i mod that count.  Two callers hand it their
jobs.  ``fdlab.spectrum.fd_spectra`` hands it one job per symmetry
class of each round of asks, listed largest first; ``cli.run_config``
hands it the (experiment, kind) spectra of the analytic and cap
backends, in config order, before any experiment runs.

One rule serves both because the FD classes barely differ in size:
the classes of a grid differ only by the nodes on its axes of
symmetry, under 5% on every benchmark grid.  Dealt largest first in
turn, they leave the largest bin at most 2.7% more unknowns than
placing each into the lightest bin would: +2.7% on the square at
h = 1/40, +1.3% at h = 1/80, +0.6-1.3% on the parts of the L-shape at
h = 1/160, and 0 on the two-class L-shape grids.

``spread`` runs bin 0 here and each other bin in a child made by
``os.fork``, which shares this process's memory without copying it,
sends back only its results, pickled, through a pipe, and leaves by
``os._exit``.  Threads would gain nothing: SuperLU's factor and solve
and ARPACK hold the GIL, as does the Python of the closed forms.  A
child that fails, by a nonzero exit or a refused fork, has its bin run
again here, so that an error is raised here with its type and message.
One bin, whether of one job, on one CPU or on a platform without
``os.fork``, runs here with no child; no jobs run nothing.

Each child is pinned to a CPU of its own, and this process to the
first, for the spread.  Left to the scheduler, the processes forked at
once may take turns on one CPU: on a 2-vCPU machine the cap's Neumann
and Dirichlet solves, forked unpinned, took 0.130 s against 0.125 s one
after the other, and 0.068 s pinned, and a cold report of a disk and
two caps was slower unpinned in 10 of 10 runs (median 0.878 s against
0.784 s).  Where the system refuses a mask, the spread runs unpinned.

The cost is memory, since each child holds its own working set while
this process holds another: on the L-shape at h = 1/320 with all four
kinds, the summed proportional set size of the processes peaks at
274-276 MB against 179 MB in one process, and the largest process at
186-187 MB against 183 MB.

This module imports the standard library alone, so that importing
``speclab.cli`` loads no scipy.
"""

from __future__ import annotations

import os
import pickle
import signal


def cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _pin(cpu: int) -> None:
    """Pin this process to ``cpu``, or leave it be where the system refuses."""
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        pass


def _fork(run, jobs: list, cpu: int):
    """A child on ``cpu`` that pickles ``run(job)`` of each job down a pipe: its pid and pipe.

    The child leaves by ``os._exit``, so it never returns into the caller
    and runs no exit hooks; an error there is exit status 1, and a child
    that exits 0 has written its whole result.  None if the fork is
    refused.
    """
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read)
            _pin(cpu)
            with open(write, "wb") as pipe:
                pickle.dump([run(job) for job in jobs], pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, open(read, "rb")


def spread(run, jobs: list) -> list:
    """``run(job)`` of every job, in job order, its bins dealt round-robin.

    Job i runs in bin i mod min(``cpus()``, jobs): bin 0 here, each
    other bin in a forked child.  A child that fails, by a nonzero exit
    or a refused fork, has its bin run again here, so that its error is
    raised here with its type and message.  Every child is reaped, and
    this process's CPU mask restored, before this returns or raises.
    """
    count = min(cpus(), len(jobs))
    if count <= 1:
        return [run(job) for job in jobs]
    bins = [jobs[b::count] for b in range(count)]
    mask = os.sched_getaffinity(0)
    allowed = sorted(mask)
    children = [_fork(run, part, allowed[b % len(allowed)]) for b, part in enumerate(bins[1:], 1)]
    reaped = set()
    try:
        _pin(allowed[0])
        done = [[run(job) for job in bins[0]]]
        for part, child in zip(bins[1:], children):
            if child is not None:
                pid, pipe = child
                data = pipe.read()
                status = os.waitpid(pid, 0)[1]
                reaped.add(pid)
                if status == 0:
                    done.append(pickle.loads(data))
                    continue
            done.append([run(job) for job in part])
        return [done[i % count][i // count] for i in range(len(jobs))]
    finally:
        try:
            os.sched_setaffinity(0, mask)
        except OSError:
            pass
        for pid, pipe in filter(None, children):
            pipe.close()
            if pid not in reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
