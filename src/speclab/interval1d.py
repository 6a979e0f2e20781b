"""Closed-form spectra of the four problems on an interval (0, L).

Neumann and Dirichlet values are elementary.  The clamped rod values are
the squared roots of cos(z) cosh(z) = 1 rescaled by L, recorded on the
square-root convention (the fourth-order eigenvalue is the square of the
stored value).  The buckling problem u'''' = -Lambda u'' with clamped
ends splits into two families: symmetric modes 1 - cos(2 k pi x / L)
with Lambda = (2 k pi / L)^2, and antisymmetric modes whose frequencies
y = sqrt(Lambda) L / 2 solve tan y = y.  The two families interleave,
and the second buckling value undercuts the third Dirichlet value: the
one-dimensional counterexample that a ``payne`` check on an interval
reports.  Each family of roots is one ``specfun.find_root`` call, all
its brackets bisected together.
"""

from __future__ import annotations

import math

import numpy as np

from .specfun import find_root
from .spectra import ProblemKind, Spectrum, check_count, check_length


def tan_roots(count: int) -> np.ndarray:
    """The first ``count`` positive roots of tan y = y, ascending.

    The k-th lies in (k pi, k pi + pi / 2).  Solved as sin y - y cos y = 0,
    which is bounded on each bracket.
    """
    k = np.arange(1, check_count(count, "root count") + 1, dtype=float)
    return find_root(
        lambda y: np.sin(y) - y * np.cos(y),
        k * math.pi + 1e-12,
        k * math.pi + math.pi / 2 - 1e-12,
    )


def clamped_beam_roots(count: int) -> np.ndarray:
    """The first ``count`` roots z_k of cos(z) cosh(z) = 1, ascending.

    z_k lies within 0.4 of (2k + 1) pi / 2.  Solved as cos z - sech z = 0
    to keep the function bounded.  Where cosh overflows to inf, sech z
    (below 1e-308 there) comes out as exactly 0.
    """
    k = np.arange(1, check_count(count, "root count") + 1, dtype=float)
    center = (2 * k + 1) * math.pi / 2

    def f(z):
        with np.errstate(over="ignore"):
            return np.cos(z) - 1.0 / np.cosh(z)

    return find_root(f, center - 0.4, center + 0.4)


def interval_spectrum(length: float, kind: ProblemKind, count: int) -> Spectrum:
    """Smallest ``count`` eigenvalues of the given problem on (0, L).

    Clamped values are reported as kappa^2 where kappa^4 solves the rod
    equation, so they are directly comparable with the membrane values.
    The length must lie in ``spectra.LENGTH_RANGE``: past about 1e154
    either way the values leave the float range.
    """
    length = check_length("interval length", length)
    count = check_count(count)
    kind = ProblemKind(kind)
    k = np.arange(1, count + 1, dtype=float)
    if kind is ProblemKind.DIRICHLET:
        values = (k * math.pi / length) ** 2
    elif kind is ProblemKind.NEUMANN:
        values = ((k - 1) * math.pi / length) ** 2
    elif kind is ProblemKind.CLAMPED:
        values = (clamped_beam_roots(count) / length) ** 2
    else:
        # (2 k pi / L)^2 and (2 y_k / L)^2 with k pi < y_k < k pi + pi / 2
        # alternate, so the lowest count of both hold the count lowest
        per_family = np.arange(1, count // 2 + 2)
        values = np.sort(np.concatenate((
            (2 * per_family * math.pi / length) ** 2,
            (2 * tan_roots(per_family.size) / length) ** 2,
        )))[:count]
    return Spectrum(
        kind=kind,
        domain=f"interval(L={length:g})",
        values=values,
        source="analytic",
    )

