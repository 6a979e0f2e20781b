"""Reflection-symmetry classes of a grid mask.

A mask that maps onto itself under a row flip, a column flip or the
transpose has operators that commute with that node permutation, since
every stencil here is invariant under the lattice's reflections.  The
row and column flips commute with each other but not with the
transpose, which swaps them; and a mask with the transpose and one flip
has the other flip too.  So the largest commuting set of these
reflections is both flips when the mask has either, else the transpose
when it has that, else nothing.  A flip that moves no node, such as the
row flip of a one-row rod, is left out.

The k commuting reflections generate a group of 2^k elements, and each
of its 2^k characters (a sign per reflection) has at most one class:
the grid functions f with f(g x) = chi(g) f(x), when there are any.
The classes are orthogonal and together span every grid function, and
each operator maps every class into itself, so its spectrum is the
union of its class spectra (Bossavit, Comput. Methods Appl. Mech.
Engrg. 56, 1986).

A mask with both flips that the transpose also maps onto itself (a
square, an FD disk) has the dihedral group of the square.  The
transpose does not commute with the flips, but it maps the class odd
about the column flip alone onto the class odd about the row flip
alone, and it commutes with every operator, so the two classes have the
same spectrum: together they are the two-dimensional representation E
of that group.  The first of them is kept and counted twice, and the
second is left out, so a square is solved as three classes, not four.

A class's basis comes from the sum over the group of chi(g) P_g, where
P_g is g's permutation matrix, taken at each orbit's smallest node r.
Its column r holds chi(g) |stab r| on each image g(r) when the character
is trivial on r's stabilizer, and is zero otherwise.  The nonzero
columns, each divided by its norm |stab r| sqrt(|orbit|), are the basis;
|stab r| is a power of two, so every entry is exactly
+-1/sqrt(|orbit|).  The columns have disjoint supports, so the basis is
orthonormal.  The sum needs only each element's image of each index, so
it serves any index set the group permutes.  A mask with no symmetry has
one class, and its basis is the identity.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp


def _reflections(mask: np.ndarray) -> tuple[list[np.ndarray], np.ndarray | None]:
    """Node permutations of the mask's row and column flips, and of its transpose.

    A permutation maps each node's index to its image's; nodes are
    indexed in row-major order, as the operators index them.  A flip
    that moves no node is left out, and the transpose is None when it
    does not map the mask onto itself.
    """
    index = np.full(mask.shape, -1, dtype=np.int64)
    index[mask] = np.arange(np.count_nonzero(mask))

    def permutation(image: np.ndarray) -> np.ndarray | None:
        # each reflection is its own inverse, so the node at p maps to
        # the node at r(p), whose index is the reflected array's at p
        if image.shape != mask.shape or not np.array_equal(image >= 0, mask):
            return None
        perm = image[mask]
        return None if np.array_equal(perm, index[mask]) else perm

    flips = [permutation(index[::-1, :]), permutation(index[:, ::-1])]
    return [perm for perm in flips if perm is not None], permutation(index.T)


def _character_bases(
    mask: np.ndarray, gens: list[np.ndarray]
) -> list[tuple[tuple[int, ...], sp.csc_matrix]]:
    """Each character's signs (0 for +1, 1 for -1, per generator) and class basis.

    The characters come in the order of their signs, the trivial one
    first; one with no grid function is left out.
    """
    n = int(np.count_nonzero(mask))
    # every group element as a product of generators, with its exponents
    exponents = np.array(list(itertools.product((0, 1), repeat=len(gens))), dtype=np.int64)
    images = np.empty((len(exponents), n), dtype=np.int64)
    for row, powers in enumerate(exponents):
        images[row] = np.arange(n)
        for gen, power in zip(gens, powers):
            if power:
                images[row] = gen[images[row]]
    # each element's image of each orbit's smallest node, and that node's column
    reps = images[:, images.min(axis=0) == np.arange(n)]
    columns = np.broadcast_to(np.arange(reps.shape[1]), reps.shape)
    bases = []
    for signs in exponents:
        chi = 1.0 - 2.0 * ((exponents @ signs) % 2)
        summed = sp.csc_matrix(
            (np.repeat(chi, reps.shape[1]), (reps.ravel(), columns.ravel())),
            shape=(n, reps.shape[1]),
        )
        summed.eliminate_zeros()
        basis = summed[:, np.diff(summed.indptr) > 0]
        if basis.shape[1]:
            norms = np.sqrt(np.add.reduceat(basis.data**2, basis.indptr[:-1]))
            basis.data /= np.repeat(norms, np.diff(basis.indptr))
            bases.append((tuple(int(sign) for sign in signs), basis))
    return bases


class SymmetryClass(NamedTuple):
    """Orthonormal basis Q_c, n x n_c, of a class, and the classes it stands for."""

    basis: sp.csc_matrix
    copies: int


def symmetry_classes(mask: np.ndarray) -> list[SymmetryClass]:
    """The mask's symmetry classes, each with the number of classes it stands for.

    The classes come in the order of their characters, the trivial
    (fully symmetric) one first, and the copies times the n_c sum to the
    mask's node count.  A character trivial on no orbit's stabilizer has
    no class: on a plus sign every node lies on an axis, and no grid
    function is odd about both.  On a mask with both flips and the
    transpose, the transpose maps the class odd about the column flip
    alone onto the one odd about the row flip alone, so the first stands
    for both, with 2 copies, and the second is left out.
    """
    mask = np.asarray(mask, dtype=bool)
    flips, transpose = _reflections(mask)
    twins = len(flips) == 2 and transpose is not None
    classes = []
    for signs, basis in _character_bases(mask, flips or ([] if transpose is None else [transpose])):
        if not (twins and signs == (1, 0)):
            classes.append(SymmetryClass(basis, 2 if twins and signs == (0, 1) else 1))
    return classes


def project(matrix: sp.csc_matrix, basis: sp.csc_matrix) -> sp.csc_matrix:
    """Q^T A Q in canonical CSC; on the identity basis, A bit for bit."""
    projected = (basis.T @ matrix @ basis).tocsc()
    projected.sum_duplicates()
    projected.eliminate_zeros()
    return projected
