"""Eigenvalue laboratory for membrane, plate and buckling spectra.

The package computes the four classical spectra (free membrane,
fixed membrane, clamped plate, buckling) on intervals, rectangles,
disks, grid-mask domains and spherical caps, then checks the
inequalities and asymptotic laws that tie them together.
"""

import os

# BLAS runs on one thread unless the user has set OPENBLAS_NUM_THREADS.
# The BLAS work here (SuperLU solves, ARPACK Lanczos steps, LAPACK on
# cap tridiagonals) is too small for a second thread to speed up, and
# the second thread's worker spins while it waits.  On 2 cores, an
# L-shape report took 2.5 s of wall time either way, but 4.4 s of CPU
# with two threads against 2.5 s with one; after 20 s idle, the first
# README report took 2.2 s with two threads against 1.4 s with one.
# OpenBLAS reads the variable when it loads, so this comes before the
# first numpy import.  It holds for the whole process and for the
# processes it starts.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .spectra import CHAIN_ORDER, MEMBRANE_KINDS, ProblemKind, Spectrum  # noqa: E402

__version__ = "0.1.0"

__all__ = [
    "CHAIN_ORDER",
    "MEMBRANE_KINDS",
    "ProblemKind",
    "Spectrum",
    "__version__",
]
