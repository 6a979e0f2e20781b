"""Finite-difference spectra for the four eigenvalue problems.

The membrane problems discretize the Laplacian directly.  The clamped
plate solves the bilaplacian and reports square roots of the computed
eigenvalues, matching the convention used by the analytic backends.
Buckling solves the pencil (bilaplacian, Dirichlet Laplacian).

Every grid is solved one symmetry class at a time.  A mask that maps
onto itself under a row flip, a column flip or the transpose splits
the grid functions into orthogonal classes that every operator maps
into themselves (``fdlab.symmetry``): four on rectangles, two on a rod
and on an L-shape with equal sides, and one, the whole grid, on a mask
with no symmetry.  Squares and disks have four too, but the transpose
maps one of them onto another with the same spectrum, so they are
solved as three, one of which counts twice: its values are merged as
two bit-equal copies.  Each operator is projected onto each class,
Q_c^T A Q_c, and the class spectra are merged.  Two things come of it.
Each class is solved from a start vector of its own, so none of them
enters the Krylov space only through roundoff: from one constant start
vector on the whole grid, Lanczos stopped before a class showed up,
and the unit square at h = 1/16, count 30, lost one copy of its
fourfold Neumann value 267.19.  And the class problems are smaller:
their LUs hold less fill and each solve costs less than a whole-grid
one.  A mask with one class runs the whole-grid solve, bit for bit.

Class c of n_c unknowns is first asked for
k_c = min(n_c, count, ceil(count / C) + 2) values, with C the copies
summed over the classes, which is the number of characters; a twin
class is asked what it would be asked if its partner were solved too.
A class whose k_c-th value is at or below the merged count-th value may
hold more of the lowest ``count``, so it is asked again at twice k_c,
until none is; a class with min(n_c, count) values is complete.  So the
first k_c sets only the cost, never the values.

All kinds asked of one grid share their operators: each of the Neumann
Laplacian, the Dirichlet Laplacian and the bilaplacian is assembled at
most once and projected once per class.  The Dirichlet Laplacian is
both the Dirichlet operator and the buckling mass matrix.  One sparse
LU is alive at a time.  The kinds are grouped by the operator they
factor: the bilaplacian (clamped and buckling, which both shift-invert
at zero on it), then the Dirichlet and the Neumann Laplacian.  For each
class, the group's operator is factored once, every kind of the group
makes its first ask on that LU, and the LU is dropped before the next
class is factored; then each kind's class values are merged.  A re-ask
factors its class again; SuperLU is deterministic, so the values are
those of the first LU bit for bit.  The largest LUs, the bilaplacian's,
come first, so the smaller ones later reuse the memory they leave: on
the L-shape at h = 1/320 with all four kinds, the peak resident memory
fell from 251-259 MB, with every class's LU of a kind kept until its
last re-ask, to 183 MB.

The Neumann Laplacian is singular, so it is shift-inverted at
sigma = -(pi/D)^2 below zero, with D the side of the grid's bounding
box.  That shift scales as the lowest values do, as L^-2 in the
domain's size L, and keeps L_N - sigma I positive definite for any
sigma < 0.  A shift tied to the grid, such as -0.04/h^2 (-1024 at
h = 1/160, where the wanted values are below 200), crowds the
shift-inverted values 1/(lambda - sigma) together, and Lanczos
converges at the pace of their relative gaps (Ericsson & Ruhe, Math.
Comp. 35, 1980): on the L-shape at h = 1/160 the Neumann spectrum
takes 172 solves over its two classes with that shift and 99 with
-(pi/D)^2.

The lowest Neumann value is reported as exactly 0.0, with no threshold,
since the solver returns it as roundoff of either sign.  That zero is
structural: the flux form annihilates constants exactly, and a grid
domain is one 4-connected component, so the constants span the whole
null space.  There is exactly one null value, and it is the lowest; it
lies in the fully symmetric class.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ..spectra import ProblemKind, Spectrum, check_count
from .grid import GridDomain
from .operators import SparseSymOperator, assemble_bilaplacian_clamped, assemble_laplacian
from .solver import solve_gevp
from .symmetry import project, symmetry_classes

#: Fraction of the grid's degrees of freedom a discrete eigenvalue may
#: use up before it stops tracking the continuum problem at all.
TRUST_FRACTION = 4


def _neumann_shift(domain: GridDomain) -> float:
    """Neumann shift-invert target -(pi/D)^2, D the grid's bounding-box side."""
    return -((math.pi / (max(domain.mask.shape) * domain.h)) ** 2)


def _first_ask(count: int, classes: int) -> int:
    """Values first asked of each class, before the cap at min(n_c, count)."""
    return -(-count // classes) + 2


def _lowest_over_classes(
    values: list[np.ndarray], solve, sizes: list[int], copies: list[int], count: int
) -> np.ndarray:
    """Lowest ``count`` values over the classes, ascending.

    ``values[c]`` holds the ascending lowest values first found in class
    c, which has ``sizes[c]`` unknowns and stands for ``copies[c]``
    classes of the same spectrum; its values are merged that many times.
    A class is asked again at twice as many values, ``solve(c, k)``
    returning its ascending lowest k, while its last value is at or below
    the merged count-th one and it has fewer than min(n_c, count) values.
    """
    wanted = [min(size, count) for size in sizes]
    values = list(values)
    while True:
        merged = np.sort(np.concatenate([np.repeat(v, n) for v, n in zip(values, copies)]))
        top = merged[count - 1] if len(merged) >= count else math.inf
        short = [c for c, v in enumerate(values) if len(v) < wanted[c] and v[-1] <= top]
        if not short:
            return merged[:count]
        for c in short:
            values[c] = solve(c, min(wanted[c], 2 * len(values[c])))


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
    classes = symmetry_classes(domain.mask)
    bases = [cls.basis for cls in classes]
    sizes = [basis.shape[1] for basis in bases]
    copies = [cls.copies for cls in classes]
    first = [min(size, count, _first_ask(count, sum(copies))) for size in sizes]

    # kind -> (stiffness, mass or None, shift, reported values), operators
    # named by the kind whose walls they carry; the singular Neumann
    # operator is shifted below zero so that its LU exists.  The kinds that
    # factor one stiffness operator stand together, the bilaplacian's first
    problems = {
        ProblemKind.CLAMPED: (
            ProblemKind.CLAMPED, None, 0.0, lambda v: np.sqrt(np.maximum(v, 0.0))
        ),
        ProblemKind.BUCKLING: (ProblemKind.CLAMPED, ProblemKind.DIRICHLET, 0.0, lambda v: v),
        ProblemKind.DIRICHLET: (ProblemKind.DIRICHLET, None, 0.0, lambda v: v),
        ProblemKind.NEUMANN: (
            ProblemKind.NEUMANN, None, _neumann_shift(domain), lambda v: np.r_[0.0, v[1:]]
        ),
    }
    operators = {}

    def operator(kind: ProblemKind) -> list[SparseSymOperator]:
        """The class operators Q_c^T A Q_c of the operator named by ``kind``."""
        if kind not in operators:
            whole = (
                assemble_bilaplacian_clamped(domain)
                if kind is ProblemKind.CLAMPED
                else assemble_laplacian(domain, kind)
            )
            operators[kind] = [
                SparseSymOperator(project(whole.matrix, basis)) for basis in bases
            ]
        return operators[kind]

    def solve(kind: ProblemKind, c: int, k: int, lu=None):
        stiffness, mass, sigma, _ = problems[kind]
        m = None if mass is None else operator(mass)[c]
        return solve_gevp(operator(stiffness)[c], m, count=k, sigma=sigma, lu=lu)

    def first_values(group: list[ProblemKind], c: int) -> list[np.ndarray]:
        """Every kind's first values of class c, from one LU that dies here."""
        lu, values = None, []
        for kind in group:
            solution = solve(kind, c, first[c], lu)
            lu = solution.lu
            values.append(solution.values)
        return values

    out = {}
    asked = [kind for kind in problems if kind in kinds]
    for _, group in itertools.groupby(asked, key=lambda kind: problems[kind][0]):
        group = list(group)
        found = zip(*(first_values(group, c) for c in range(len(bases))))
        for kind, values in zip(group, found):
            # a re-ask factors its class again, to the same LU bit for bit
            values = _lowest_over_classes(
                values, lambda c, k: solve(kind, c, k).values, sizes, copies, count
            )
            out[kind] = Spectrum(
                kind=kind,
                domain=domain.descriptor,
                values=problems[kind][3](values),
                source=f"fd(h={domain.h:g})",
                trusted_count=min(count, max(1, n // TRUST_FRACTION)),
            )
    return {kind: out[kind] for kind in kinds}


def fd_spectrum(domain: GridDomain, kind: ProblemKind, count: int = 6) -> Spectrum:
    """Lowest ``count`` eigenvalues of ``kind`` on a grid domain."""
    return fd_spectra(domain, [kind], count)[ProblemKind(kind)]
