"""Finite-difference spectra for the four eigenvalue problems.

The membrane problems discretize the Laplacian directly.  The clamped
plate solves the bilaplacian and reports square roots of the computed
eigenvalues, matching the convention used by the analytic backends;
they are roots of values already checked positive (below).  Buckling
solves the pencil (bilaplacian, Dirichlet Laplacian).

Every grid is split into its symmetry classes, each solved on its
own.  A mask that maps onto itself under a row flip, a column flip or
the transpose splits the grid functions into orthogonal classes that
every operator maps into themselves (``fdlab.symmetry``): four on
rectangles, two on a rod and on an L-shape with equal sides, and one,
the whole grid, on a mask with no symmetry.  Squares and disks have
four too, but the transpose maps one of them onto another with the
same spectrum, so they are solved as three, one of which counts twice:
its values are merged as two bit-equal copies.  Each operator is
projected onto each class, Q_c^T A Q_c, and the class spectra are
merged.  Two things come of it.
Each class is solved from a start vector of its own, so none of them
enters the Krylov space only through roundoff: from one constant start
vector on the whole grid, Lanczos stopped before a class showed up,
and the unit square at h = 1/16, count 30, lost one copy of its
fourfold Neumann value 267.19.  And the class problems are smaller:
their LUs hold less fill and each solve costs less than a whole-grid
one.  A mask with one class runs the whole-grid solve, bit for bit.

Every solve is an ask (kind, c, k), for the lowest k values of one
kind in class c, and the asks run in rounds.  Class c of n_c unknowns
is first asked for k_c = min(n_c, count, ceil(count / C) + 2) values,
with C the copies summed over the classes, which is the number of
characters; a twin class is asked what it would be asked if its
partner were solved too.  After each round every kind's class values
are merged.  A class with fewer than min(n_c, count) values whose last
is at or below the merged count-th one is short: the next round asks
it for twice as many.  The rounds end when no class of any kind is
short, so the first k_c sets only the cost, never the values.

All kinds share their operators: each of the Neumann Laplacian, the
Dirichlet Laplacian (also the buckling mass matrix) and the
bilaplacian is assembled at most once and projected once per class,
before any class is solved.  Within a round the asks are grouped by the
operator they factor: the bilaplacian (clamped and buckling, which both
shift-invert at zero on it) first, so that the smaller LUs of the
Dirichlet and then the Neumann Laplacian reuse the memory it leaves.
Each (operator, class) of a round is factored once, serves every ask on
it, and is dropped before the next LU is made: a process holds one
sparse LU at a time.  A class asked in a later round is factored again;
SuperLU is deterministic, so that LU is the first one bit for bit.

Each round runs on every CPU the process may use, since its classes do
not depend on each other, and gives the values of one CPU bit for bit.
Each class asked in the round is one job, and the jobs, listed
largest class first, are dealt round-robin over the CPUs by
``speclab.pool``: this process makes the asks of bin 0, and a forked
child the asks of each other bin, sharing the operators without
copying them.  A child that fails has its bin run again here, so an
error such as ``ConvergenceError`` reaches the caller with its type and
message.  One class or one CPU make one bin, run here with no child.

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

The lowest Neumann value of the fully symmetric class, class 0, whose
character is the trivial one, is set to exactly 0.0 as soon as that
class is solved, with no threshold, since the solver returns it as
roundoff of either sign.  That zero is structural: the flux form
annihilates constants exactly, the constants lie in that class, and
``fd_spectra`` refuses a mask that is not one 4-connected component,
so they span the whole null space.  There is exactly one null value,
and it is the lowest.

Every other value is positive in exact arithmetic: the Dirichlet
Laplacian and the bilaplacian are positive definite, and a connected
mask leaves the Neumann Laplacian one null value.  So once the classes
are merged, a Dirichlet, clamped or buckling value at or below zero
raises ``IndefiniteSpectrumError``, naming the kind, the index, the raw
value and the grid.  So does a Neumann value at or below zero, read
past the structural zero only when that exact 0.0 is the lowest merged
value, so a value another class puts below it is caught whatever the
sign of the zero's roundoff was.  Such a value is the solver's error,
not a spectrum: on a rod at h = 2e-5 roundoff turns the lowest
bilaplacian values negative.  Nothing is clamped to zero.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .. import pool
from ..spectra import ProblemKind, Spectrum, check_count
from .grid import GridDomain
from .operators import SparseSymOperator, assemble_bilaplacian_clamped, assemble_laplacian
from .solver import ConvergenceError, solve_gevp
from .symmetry import project, symmetry_classes

#: Fraction of the grid's degrees of freedom a discrete eigenvalue may
#: use up before it stops tracking the continuum problem at all.
TRUST_FRACTION = 4


class IndefiniteSpectrumError(ConvergenceError):
    """Raised when a solved value that the operators make positive is not."""


def _neumann_shift(domain: GridDomain) -> float:
    """Neumann shift-invert target -(pi/D)^2, D the grid's bounding-box side."""
    return -((math.pi / (max(domain.mask.shape) * domain.h)) ** 2)


def _require_connected(mask: np.ndarray) -> None:
    """Raise ValueError unless ``mask`` is one 4-connected component.

    The components are those of the graph joining horizontal and
    vertical neighbour pairs.
    """
    n = int(mask.sum())
    index = np.full(mask.shape, -1, dtype=np.int64)
    index[mask] = np.arange(n)
    across = mask[:, :-1] & mask[:, 1:]
    down = mask[:-1, :] & mask[1:, :]
    rows = np.concatenate((index[:, :-1][across], index[:-1, :][down]))
    cols = np.concatenate((index[:, 1:][across], index[1:, :][down]))
    graph = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    if connected_components(graph, directed=False, return_labels=False) != 1:
        raise ValueError("mask must form a single 4-connected component")


def _first_ask(count: int, classes: int) -> int:
    """Values first asked of each class, before the cap at min(n_c, count)."""
    return -(-count // classes) + 2


def _lowest_over_classes(
    values: list[np.ndarray], sizes: list[int], copies: list[int], count: int
) -> tuple[np.ndarray, list[int]]:
    """Lowest ``count`` values over the classes, ascending, and the short classes.

    ``values[c]`` holds the ascending lowest values found so far in class
    c, which has ``sizes[c]`` unknowns and stands for ``copies[c]``
    classes of the same spectrum; its values are merged that many times.
    Class c is short, and must be asked for more values, while its last
    value is at or below the merged count-th one and it has fewer than
    min(n_c, count) values.
    """
    merged = np.sort(np.concatenate([np.repeat(v, n) for v, n in zip(values, copies)]))
    top = merged[count - 1] if len(merged) >= count else math.inf
    short = [c for c, v in enumerate(values) if len(v) < min(sizes[c], count) and v[-1] <= top]
    return merged[:count], short


def fd_spectra(
    domain: GridDomain, kinds, count: int = 6
) -> dict[ProblemKind, Spectrum]:
    """Lowest ``count`` eigenvalues of every one of ``kinds`` on a grid domain.

    Raises ValueError first if the mask is not one 4-connected component,
    and ``IndefiniteSpectrumError`` if a value that must be positive is not.
    """
    _require_connected(domain.mask)
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

    # kind -> (stiffness, mass or None, shift, reported values), operators
    # named by the kind whose walls they carry; the singular Neumann
    # operator is shifted below zero so that its LU exists.  The kinds that
    # factor one stiffness operator stand together, the bilaplacian's first
    problems = {
        ProblemKind.CLAMPED: (ProblemKind.CLAMPED, None, 0.0, np.sqrt),
        ProblemKind.BUCKLING: (ProblemKind.CLAMPED, ProblemKind.DIRICHLET, 0.0, lambda v: v),
        ProblemKind.DIRICHLET: (ProblemKind.DIRICHLET, None, 0.0, lambda v: v),
        ProblemKind.NEUMANN: (ProblemKind.NEUMANN, None, _neumann_shift(domain), lambda v: v),
    }
    order = list(problems)
    asked = [kind for kind in order if kind in kinds]

    def assembled(name: ProblemKind) -> list[SparseSymOperator]:
        """The class operators Q_c^T A Q_c of the operator named by ``name``."""
        whole = (
            assemble_bilaplacian_clamped(domain)
            if name is ProblemKind.CLAMPED
            else assemble_laplacian(domain, name)
        )
        return [SparseSymOperator(project(whole.matrix, basis)) for basis in bases]

    # every operator the kinds need, named by the kind whose walls it
    # carries, made before any worker is forked
    needed = [name for kind in asked for name in problems[kind][:2] if name is not None]
    operators = {name: assembled(name) for name in dict.fromkeys(needed)}

    def answers(job: list[tuple]) -> dict:
        """The values of every ask ``(kind, c, k)`` of ``job``, by (kind, c).

        A job is the asks of one class, and the classes of a round are
        listed largest first.  The asks are made grouped by the operator
        they factor, in the order of ``problems``, so each operator of
        the class is factored once and its LU dies before the next one
        is made.
        """
        values, held, lu = {}, None, None
        for kind, c, k in sorted(job, key=lambda ask: order.index(problems[ask[0]][0])):
            stiffness, mass, sigma, _ = problems[kind]
            if held != stiffness:
                # the last LU dies, with the solution holding it, before the next
                held, lu, solution = stiffness, None, None
            m = None if mass is None else operators[mass][c]
            solution = solve_gevp(operators[stiffness][c], m, count=k, sigma=sigma, lu=lu)
            lu, values[kind, c] = solution.lu, solution.values
            if (kind, c) == (ProblemKind.NEUMANN, 0):
                # the trivial class holds the constants: its lowest value is the zero
                values[kind, c] = np.r_[0.0, solution.values[1:]]
        return values

    # rounds of asks, each spread over the CPUs one class a job, the
    # largest first, until no class of any kind is short
    first, found = _first_ask(count, sum(copies)), {}
    asks = [(kind, c, min(size, count, first)) for kind in asked for c, size in enumerate(sizes)]
    while asks:
        cs = sorted(dict.fromkeys(c for _, c, _ in asks), key=sizes.__getitem__, reverse=True)
        for values in pool.spread(answers, [[ask for ask in asks if ask[1] == c] for c in cs]):
            found.update(values)
        merged = {
            kind: _lowest_over_classes(
                [found[kind, c] for c in range(len(bases))], sizes, copies, count
            )
            for kind in asked
        }
        asks = [
            (kind, c, min(sizes[c], count, 2 * len(found[kind, c])))
            for kind in asked
            for c in merged[kind][1]
        ]

    for kind in asked:
        # the values are ascending, so the lowest decides, or the next past the
        # structural zero when that zero is the lowest
        values = merged[kind][0]
        k = int(kind is ProblemKind.NEUMANN and values[0] == 0.0)
        if k < len(values) and values[k] <= 0:
            raise IndefiniteSpectrumError(
                f"{kind.value} value {k + 1} is {values[k]:g} on {domain.descriptor} "
                f"at h={domain.h:g}, where it must be positive"
            )

    return {
        kind: Spectrum(
            kind=kind,
            domain=domain.descriptor,
            values=problems[kind][3](merged[kind][0]),
            source=f"fd(h={domain.h:g})",
            trusted_count=min(count, max(1, n // TRUST_FRACTION)),
        )
        for kind in kinds
    }


def fd_spectrum(domain: GridDomain, kind: ProblemKind, count: int = 6) -> Spectrum:
    """Lowest ``count`` eigenvalues of ``kind`` on a grid domain."""
    return fd_spectra(domain, [kind], count)[ProblemKind(kind)]
