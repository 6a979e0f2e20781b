"""Sparse symmetric operators on grid domains.

The membrane Laplacian uses the 5-point stencil: Dirichlet walls read
exterior values as zero, the Neumann form drops absent fluxes so every
diagonal counts only present neighbours and constants are annihilated
exactly.  The clamped plate operator is the 13-point bilaplacian with
wall value zero plus mirror ghosts for the normal derivative: when the
two-step neighbour and the node between both fall outside, the ghost
value equals the centre value, which folds one unit back onto the
diagonal and keeps the matrix symmetric.

Both operators are one array stencil over the d steps along the axes a
mask spans: d = 4 on two-dimensional masks, d = 2 on one-row and
one-column masks.  The Laplacian puts d (Dirichlet) or the present
neighbour count (Neumann) on the diagonal and -1 on each neighbour.  The
bilaplacian puts d^2 + d at the centre, -2d on near and +1 on far
neighbours, and +2 on the diagonals that pair one step on each axis.
For d = 4 that is the 13-point stencil (20, -8, 1, 2); for d = 2 it is
the rod stencil (6, -4, 1, with 7 at the clamped ends), so the same
assemblers double as the interval oracles.

Matrices are assembled in CSC, the format the sparse LU and ARPACK
consume, so a solve uses the operator's own matrix and copies nothing.
Symmetry is judged against the matrix's own largest entry, so the test
means the same at every domain size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..spectra import ProblemKind
from .grid import GridDomain


@dataclass(frozen=True)
class SparseSymOperator:
    """Sparse matrix checked to be symmetric to 1e-12 of its largest entry."""

    matrix: sp.csc_matrix

    def __post_init__(self) -> None:
        gap = abs(self.matrix - self.matrix.T)
        if gap.nnz and gap.max() > 1e-12 * abs(self.matrix).max():
            raise ValueError("operator is not symmetric")

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


def _layout(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Node indices padded by two layers of wall (-1), node positions, steps.

    Positions are the (2, n) row and column coordinates of the nodes in
    the padded array, so every gather up to two steps away stays inside
    it.  Steps run both ways along each axis the mask spans (size > 1).
    """
    index = np.full(np.add(mask.shape, 4), -1, dtype=np.int64)
    nodes = np.argwhere(mask).T + 2
    index[tuple(nodes)] = np.arange(nodes.shape[1])
    unit = np.eye(2, dtype=np.int64)
    steps = [sign * unit[axis] for axis in (0, 1) if mask.shape[axis] > 1 for sign in (1, -1)]
    return index, nodes, steps


def _neighbours(index: np.ndarray, nodes: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """Index of the node ``offset`` away from every node, -1 where that is wall."""
    return index[tuple(nodes + offset[:, None])]


def _operator(diag: np.ndarray, couplings, scale: float) -> SparseSymOperator:
    """Matrix with ``diag`` plus each ``(neighbours, value)`` coupling to present nodes."""
    node = np.arange(len(diag))
    rows, cols, vals = [node], [node], [diag]
    for target, value in couplings:
        present = target >= 0
        rows.append(node[present])
        cols.append(target[present])
        vals.append(np.full(np.count_nonzero(present), value))
    matrix = sp.csc_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(len(node), len(node)),
    )
    return SparseSymOperator(matrix / scale)


def assemble_laplacian(domain: GridDomain, bc: ProblemKind) -> SparseSymOperator:
    """Negative Laplacian on the mask with Dirichlet or Neumann walls."""
    bc = ProblemKind(bc)
    if bc not in (ProblemKind.DIRICHLET, ProblemKind.NEUMANN):
        raise ValueError(f"laplacian boundary condition must be membrane kind, got {bc.value}")
    index, nodes, steps = _layout(domain.mask)
    near = [_neighbours(index, nodes, s) for s in steps]
    if bc is ProblemKind.DIRICHLET:
        diag = np.full(nodes.shape[1], float(len(steps)))
    else:
        diag = np.sum([nb >= 0 for nb in near], axis=0, dtype=float)
    return _operator(diag, [(nb, -1.0) for nb in near], domain.h**2)


def assemble_bilaplacian_clamped(domain: GridDomain) -> SparseSymOperator:
    """Bilaplacian with clamped walls (zero value and normal derivative)."""
    index, nodes, steps = _layout(domain.mask)
    d = len(steps)
    near = [_neighbours(index, nodes, s) for s in steps]
    far = [_neighbours(index, nodes, 2 * s) for s in steps]
    diagonal = [_neighbours(index, nodes, s + t) for s in steps if s[0] for t in steps if t[1]]
    # wall next to the node: the two-step ghost mirrors back onto the centre;
    # near in, far out leaves the far node as wall with value zero
    ghosts = np.sum([(a < 0) & (b < 0) for a, b in zip(near, far)], axis=0, dtype=float)
    couplings = [(nb, -2.0 * d) for nb in near] + [(nb, 1.0) for nb in far]
    couplings += [(nb, 2.0) for nb in diagonal]
    return _operator(d * d + d + ghosts, couplings, domain.h**4)
