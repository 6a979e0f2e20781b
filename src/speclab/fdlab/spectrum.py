"""Finite-difference spectra for the four eigenvalue problems.

The membrane problems discretize the Laplacian directly.  The clamped
plate solves the bilaplacian and reports square roots of the computed
eigenvalues, matching the convention used by the analytic backends.
Buckling solves the pencil (bilaplacian, Dirichlet Laplacian).

All kinds asked of one grid share their operators: each of the Neumann
Laplacian, the Dirichlet Laplacian and the bilaplacian is assembled at
most once and factored at most once.  The Dirichlet Laplacian is both
the Dirichlet operator and the buckling mass matrix, and the clamped
and buckling solves both shift-invert at zero on the bilaplacian, so
they run on one LU of it.

The Neumann Laplacian is singular, so it is shift-inverted at
sigma = -(pi/D)^2 below zero, with D the side of the grid's bounding
box.  That shift scales as the lowest values do, as L^-2 in the
domain's size L, and keeps L_N - sigma I positive definite for any
sigma < 0.  A shift tied to the grid, such as -0.04/h^2 (-1024 at
h = 1/160, where the wanted values are below 200), crowds the
shift-inverted values 1/(lambda - sigma) together, and Lanczos
converges at the pace of their relative gaps (Ericsson & Ruhe, Math.
Comp. 35, 1980): on the L-shape at h = 1/160 the Neumann spectrum
takes 158 solves with that shift and 58 with -(pi/D)^2.

The lowest Neumann value is reported as exactly 0.0, with no threshold,
since the solver returns it as roundoff of either sign.  That zero is
structural: the flux form annihilates constants exactly, and a grid
domain is one 4-connected component, so the constants span the whole
null space.  There is exactly one null value, and it is the lowest.
"""

from __future__ import annotations

import math

import numpy as np

from ..spectra import ProblemKind, Spectrum, check_count
from .grid import GridDomain
from .operators import assemble_bilaplacian_clamped, assemble_laplacian
from .solver import solve_gevp

#: Fraction of the grid's degrees of freedom a discrete eigenvalue may
#: use up before it stops tracking the continuum problem at all.
TRUST_FRACTION = 4


def _neumann_shift(domain: GridDomain) -> float:
    """Neumann shift-invert target -(pi/D)^2, D the grid's bounding-box side."""
    return -((math.pi / (max(domain.mask.shape) * domain.h)) ** 2)


def fd_spectra(
    domain: GridDomain, kinds, count: int = 6
) -> dict[ProblemKind, Spectrum]:
    """Lowest ``count`` eigenvalues of every one of ``kinds`` on a grid domain."""
    kinds = [ProblemKind(kind) for kind in kinds]
    count = check_count(count)
    n = domain.n_unknowns
    if count > n:
        raise ValueError(
            f"requested {count} eigenvalues but the grid has {n} unknowns"
        )

    # kind -> (stiffness, mass or None, shift, reported values), operators
    # named by the kind whose walls they carry; the singular Neumann
    # operator is shifted below zero so that its LU exists
    problems = {
        ProblemKind.NEUMANN: (
            ProblemKind.NEUMANN, None, _neumann_shift(domain), lambda v: np.r_[0.0, v[1:]]
        ),
        ProblemKind.DIRICHLET: (ProblemKind.DIRICHLET, None, 0.0, lambda v: v),
        ProblemKind.CLAMPED: (
            ProblemKind.CLAMPED, None, 0.0, lambda v: np.sqrt(np.maximum(v, 0.0))
        ),
        ProblemKind.BUCKLING: (ProblemKind.CLAMPED, ProblemKind.DIRICHLET, 0.0, lambda v: v),
    }
    operators, factors = {}, {}

    def operator(kind: ProblemKind):
        if kind not in operators:
            operators[kind] = (
                assemble_bilaplacian_clamped(domain)
                if kind is ProblemKind.CLAMPED
                else assemble_laplacian(domain, kind)
            )
        return operators[kind]

    out = {}
    for pos, kind in enumerate(kinds):
        stiffness, mass, sigma, report = problems[kind]
        solution = solve_gevp(
            operator(stiffness),
            None if mass is None else operator(mass),
            count=count,
            sigma=sigma,
            lu=factors.pop(stiffness, None),
        )
        if any(problems[later][0] is stiffness for later in kinds[pos + 1 :]):
            factors[stiffness] = solution.lu
        out[kind] = Spectrum(
            kind=kind,
            domain=domain.descriptor,
            values=report(solution.values),
            source=f"fd(h={domain.h:g})",
            trusted_count=min(count, max(1, n // TRUST_FRACTION)),
        )
        # an LU that no later kind solves with goes before the next is made
        del solution
    return out


def fd_spectrum(domain: GridDomain, kind: ProblemKind, count: int = 6) -> Spectrum:
    """Lowest ``count`` eigenvalues of ``kind`` on a grid domain."""
    return fd_spectra(domain, [kind], count)[ProblemKind(kind)]
