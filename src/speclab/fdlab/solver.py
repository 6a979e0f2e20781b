"""Generalized symmetric eigenvalue solves with residual reporting.

Every solve is shift-invert Lanczos (ARPACK) on a sparse LU of
A - sigma M, started from a seeded Gaussian vector so repeated runs
return identical results, and asked for a few spare pairs so that none
of the wanted ones is skipped.  The one exception is a request for all
n pairs, which ARPACK cannot deliver; dense LAPACK ``eigh`` answers
that.
Every returned pair is re-checked against the relative residual
||A u - theta M u|| / (||A u|| + theta ||M u||); a pair whose relative
residual cannot reach the tolerance but whose backward error
||A u - theta M u|| / (||A|| ||u||) sits at machine scale still counts
as converged, which is the best any double-precision solver can deliver
on very stiff operators.  ||A|| is the operator's own infinity norm,
with no floor, so the rule means the same at every domain size.  The
pairs are sorted and cut to the count asked for before this check, so
it runs once, on the returned pairs only; a pencil with a returned pair
that misses the rule gets one inverse-iteration step and a second check.

Every LU is ordered by minimum degree on A + A^T.  The operators here
all have symmetric structure, which that ordering exploits and
SuperLU's default COLAMD (an ordering for A^T A) does not: it leaves a
third less fill and solves faster (George & Liu, SIAM Review 31, 1989).
A caller that solves several problems on one matrix passes the
factorization along, so each matrix is factored once for them; it may
also drop it and factor again later, which costs time but no accuracy,
since SuperLU repeats its factorization bit for bit.

ARPACK is handed the pencil scaled to unit size: A and M times powers of
two, alpha with ||alpha (A - sigma M)|| < 1 and beta with ||beta M|| < 1
in the infinity norm, and the shift times alpha / beta.  Without M,
every eigenvalue of the shift-inverted operator is then above 1, and on
the pencils here the wanted ones are too.  That matters because ARPACK
accepts a Ritz value theta once its residual bound is below
tol * max(eps^(2/3), |theta|) (Lehoucq, Sorensen & Yang, *ARPACK
Users' Guide*, 1998): on a 1e-6 square the clamped values near 1e27
shift-invert to about 1e-27, the absolute floor took over, and the
solve failed.  Scaling by a power of two is exact, the caller's LU is
used as it is (its solves are divided by alpha), and M is scaled as an
operator, so no matrix is copied; the values are scaled back exactly.
ARPACK stops at DEFAULT_TOL / 100 rather than at machine precision,
since the residual check above, not ARPACK, decides which pairs are
accepted; that saves 12-15% of the solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..spectra import check_count
from .operators import SparseSymOperator

#: Default bound accepted for the relative eigenpair residuals.
DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class EvpSolution:
    """Ascending eigenvalues with their relative residuals.

    ``lu`` is the factorization of A - sigma M, for reuse by the next
    solve on the same matrix, and ``solves`` counts the right-hand sides
    solved with it; the dense path factors nothing and solves none.
    ``vectors`` holds the eigenvectors as columns, in the values' order.
    """

    values: np.ndarray
    residuals: np.ndarray
    method: str
    lu: spla.SuperLU | None = field(default=None, repr=False, compare=False)
    solves: int = 0
    vectors: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def fill(self) -> int:
        """Nonzeros in the L and U factors, 0 on the dense path."""
        return 0 if self.lu is None else self.lu.L.nnz + self.lu.U.nnz


class ConvergenceError(RuntimeError):
    """Eigensolver failed to reach the residual tolerance ``DEFAULT_TOL``."""


_EPS = float(np.finfo(float).eps)

#: Backward errors below this many machine epsilons count as converged
#: even when the theta-relative residual cannot reach the tolerance.
_BACKWARD_SLACK = 50.0

#: Pairs computed past the wanted ones.  From one start vector, Lanczos
#: sees the second copy of a multiple eigenvalue only through roundoff,
#: and can stop before it shows up.  Spare pairs keep it running until it
#: does.  A symmetry class that the start vector misses altogether is no
#: longer left to roundoff: ``fd_spectra`` solves each class of a grid on
#: its own (``fdlab.symmetry``), and the twin classes of a square are one
#: solve counted twice.  So the guard is there for multiplicities within
#: one class: on a square, the only transposed pairs that still share a
#: class are the (p, q), (q, p) modes with p and q of the same parity.
_GUARD = 3


def _norm_inf(mat: sp.csc_matrix) -> float:
    """Largest absolute row sum, without copying the matrix's structure."""
    return float(np.bincount(mat.indices, np.abs(mat.data), mat.shape[0]).max())


def _inverse_power_of_two(norm: float) -> float:
    """The power of two that scales ``norm`` into [1/2, 1)."""
    return math.ldexp(1.0, -math.frexp(norm)[1])


def _lowest(
    values: np.ndarray, vectors: np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``count`` smallest values, ascending, with their vectors."""
    order = np.argsort(values)[:count]
    return values[order], vectors[:, order]


def _residuals(
    a, m, values: np.ndarray, vectors: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Theta-relative residuals and backward errors per pair.

    For a null mode (the Neumann constant) both ||Au|| and theta are
    pure roundoff and their ratio is meaningless, so pairs with |theta|
    below roundoff relative to ||A|| are judged on the backward scale
    ||A|| ||u|| directly.
    """
    anorm = _norm_inf(a)
    au = a @ vectors
    mu = vectors if m is None else m @ vectors
    num = np.linalg.norm(au - values * mu, axis=0)
    scale = anorm * np.linalg.norm(vectors, axis=0)
    backward = num / scale
    den = np.where(
        np.abs(values) <= 1e-12 * anorm,
        scale,
        np.linalg.norm(au, axis=0) + np.abs(values) * np.linalg.norm(mu, axis=0),
    )
    relative = num / np.where(den > 0, den, 1.0)
    return relative, backward


def _accepted(relative: np.ndarray, backward: np.ndarray) -> np.ndarray:
    # For kappa(A) beyond 1/tol the theta-relative residual is
    # unreachable in double precision no matter the algorithm; machine
    # level backward error is then the right notion of converged.
    return (relative <= DEFAULT_TOL) | (backward <= _BACKWARD_SLACK * _EPS)


def solve_gevp(
    a: SparseSymOperator,
    m: SparseSymOperator | None = None,
    count: int = 6,
    sigma: float = 0.0,
    lu: spla.SuperLU | None = None,
) -> EvpSolution:
    """Smallest ``count`` eigenvalues of A u = theta M u (M omitted: identity).

    ``sigma`` is the shift-invert target; it must keep A - sigma M
    invertible, so singular operators (the Neumann Laplacian) need a
    negative value.  ``lu``, when given, is a factorization of that
    A - sigma M, such as the ``lu`` of an earlier solution on it; without
    it the matrix is factored here.

    Raises:
        ConvergenceError: when the iteration stalls or a residual ends
            up above ``DEFAULT_TOL``.
    """
    n = a.shape[0]
    count = check_count(count)
    if count > n:
        raise ValueError(f"count must lie in [1, {n}], got {count}")

    a_csc = a.matrix.tocsc()
    m_csc = None if m is None else m.matrix.tocsc()
    if m_csc is not None and m_csc.shape != a_csc.shape:
        raise ValueError("operator shapes differ")

    solves = 0
    if count == n:
        method = "dense"
        values, vectors = scipy.linalg.eigh(
            a_csc.toarray(), None if m_csc is None else m_csc.toarray()
        )
    else:
        method = "shift-invert"
        # an unstructured start vector, seeded so that runs repeat: a
        # constant one is orthogonal to every mode odd across a local
        # mirror, such as e_a - e_b on two leaves of one node
        v0 = np.random.default_rng(0).standard_normal(n)
        # ARPACK sees alpha A and beta M, both powers of two, with
        # ||alpha (A - sigma M)|| < 1 and ||beta M|| < 1; its pencil's
        # values are theta alpha / beta and its shift sigma alpha / beta
        m_norm = 1.0 if m_csc is None else _norm_inf(m_csc)
        alpha = _inverse_power_of_two(_norm_inf(a_csc) + abs(sigma) * m_norm)
        beta = 1.0 if m_csc is None else _inverse_power_of_two(m_norm)
        if lu is None:
            shifted = a_csc if sigma == 0.0 else (
                a_csc
                - sigma * (sp.identity(n, format="csc") if m_csc is None else m_csc)
            )
            lu = spla.splu(shifted.tocsc(), permc_spec="MMD_AT_PLUS_A")

        def solve(rhs: np.ndarray) -> np.ndarray:
            nonlocal solves
            solves += 1 if rhs.ndim == 1 else rhs.shape[1]
            return lu.solve(rhs)

        # (alpha A - sigma alpha M)^-1 is the caller's LU solve over alpha
        opinv = spla.LinearOperator(
            (n, n), matvec=lambda rhs: solve(rhs) / alpha, dtype=float
        )
        wanted = min(count + _GUARD, n - 1)
        try:
            values, vectors = spla.eigsh(
                a_csc,
                k=wanted,
                M=None if m_csc is None else spla.aslinearoperator(m_csc) * beta,
                sigma=sigma * alpha / beta,
                which="LM",
                v0=v0,
                OPinv=opinv,
                tol=DEFAULT_TOL / 100,
            )
        except spla.ArpackNoConvergence as exc:
            got = min(count, 0 if exc.eigenvalues is None else len(exc.eigenvalues))
            raise ConvergenceError(
                f"eigensolver did not converge ({got} of {count} pairs)"
            ) from exc
        values = values * (beta / alpha)

    values, vectors = _lowest(values, vectors, count)
    relative, backward = _residuals(a_csc, m_csc, values, vectors)
    accepted = _accepted(relative, backward)
    if method == "shift-invert" and m_csc is not None and not np.all(accepted):
        # ARPACK judges a pencil's pairs in the M-norm, which on stiff
        # pencils (the fine-grid buckling rod) can leave the residual
        # far above machine level; one inverse-iteration step and the
        # Rayleigh quotient bring it back, at one solve per pair.
        vectors = solve(m_csc @ vectors)
        values = (vectors * (a_csc @ vectors)).sum(axis=0) / (
            vectors * (m_csc @ vectors)
        ).sum(axis=0)
        values, vectors = _lowest(values, vectors, count)
        relative, backward = _residuals(a_csc, m_csc, values, vectors)
        accepted = _accepted(relative, backward)
    if not np.all(accepted):
        worst = float(relative.max())
        raise ConvergenceError(
            f"eigenpair residual {worst:.3e} exceeds tolerance {DEFAULT_TOL:.3e}"
        )
    return EvpSolution(
        values=values,
        residuals=relative,
        method=method,
        lu=lu,
        solves=solves,
        vectors=vectors,
    )
