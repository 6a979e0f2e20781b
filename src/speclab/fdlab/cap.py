"""Membrane spectra of spherical caps via the separated radial problem.

A cap of aperture delta on the unit sphere separates into azimuthal
orders m; each order leaves the weighted Sturm-Liouville problem

    -(sin t f')' + (m^2 / sin t) f = lam (sin t) f   on (0, delta)

with the requested condition at the rim.  The staggered grid puts cell
centers at (i + 1/2) h, so every mass weight sin t is strictly positive
and the zero face weight sin 0 enforces regularity at the pole by
itself.  For m >= 1 the singular potential keeps eigenfunctions away
from the pole, which realizes f(0) = 0 without an explicit row.

Each order's tridiagonal matrix is solved by LAPACK ``stebz`` bisection
at the explicit tolerance ``BISECTION_TOL``, which holds every value to a
few ulps of the discrete eigenvalue, so bisecting by index and by value
agree to about 1e-15.  What remains is the O(h^2) discretization error
against roots in nu of the Legendre functions P_nu^m(cos delta)
(DLMF 14).  At the default 4000 points it grows with the value, to
1.8e-6 relative over the lowest 60 Dirichlet values of the delta =
3 pi / 4 cap; one Richardson step between 2000 and 4000 points lands
within 1e-9.  ``scipy.linalg`` is imported at the first solve, so
building a ``CapDomain``, as parsing a config does, needs numpy alone.

The orders are swept from m = 0 up by ``spectra.lowest_over_orders``,
each asked only for its values at or below a cutoff, so bisection runs
only for values the spectrum may keep.  The first cutoff is the
``count``-th Dirichlet value of the flat disk with the cap's area, from
the two-term Weyl law (Weyl, Math. Ann. 71, 1912).  A cutoff too low
leaves the sweep short, and it runs again at twice the cutoff, so the
values never depend on the start.  At count 60 on 4000 points this
bisects 33 to 38 values instead of about 170.

The lowest Neumann value is reported as exactly 0.0, with no threshold.
That zero is structural: each order's flux form annihilates constants,
but only order 0 admits them, since the potential m^2 / sin t makes
every order m >= 1 positive definite.  So the cap has exactly one null
value, and it is the lowest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..spectra import (
    LENGTH_RANGE,
    MEMBRANE_KINDS,
    ProblemKind,
    Spectrum,
    check_count,
    lowest_over_orders,
)

#: Absolute bisection tolerance for LAPACK ``stebz``.  Its default (any
#: value <= 0) is eps * ||T||, and ||T|| ~ 4 / h^2 + m^2 / sin t dwarfs
#: the low eigenvalues, leaving them about 1e-9 relative error.  The
#: smallest positive double leaves ``stebz``'s own relative floor, two
#: ulps of each eigenvalue, in charge instead.
BISECTION_TOL = np.finfo(float).tiny

#: The fewest radial grid points a cap is solved on.
MIN_CAP_POINTS = 8


def eigh_tridiagonal(d: np.ndarray, e: np.ndarray, **kwargs) -> np.ndarray:
    """``scipy.linalg.eigh_tridiagonal``, imported at the first solve."""
    from scipy.linalg import eigh_tridiagonal as solve

    return solve(d, e, **kwargs)


@dataclass(frozen=True)
class CapDomain:
    """Geodesic ball of aperture ``delta`` on the unit sphere.

    Its values scale as delta^-2, as they do in a length, so ``delta``
    lies in [LENGTH_RANGE[0], pi).  Far below that floor the radial
    solve fails to converge or overflows.
    """

    delta: float
    points: int = 4000

    def __post_init__(self):
        if not (LENGTH_RANGE[0] <= self.delta < math.pi):
            raise ValueError(
                f"aperture must lie in [{LENGTH_RANGE[0]:g}, pi), got {self.delta!r}"
            )
        points = check_count(self.points, "grid points")
        if points < MIN_CAP_POINTS:
            raise ValueError(f"need at least {MIN_CAP_POINTS} grid points, got {points}")
        object.__setattr__(self, "points", points)

    @property
    def descriptor(self) -> str:
        return f"cap(delta={self.delta:g})"


def _radial_values(
    domain: CapDomain,
    order: int,
    kind: ProblemKind,
    count: int,
    cutoff: float = math.inf,
) -> np.ndarray:
    """Lowest ``count`` eigenvalues of the order-m radial problem at or below ``cutoff``.

    Without a cutoff LAPACK ``stebz`` bisects for the lowest ``count``
    values by index; with one it bisects only for the values in
    (-inf, cutoff], so the cost follows the number of values returned.
    """
    n = domain.points
    h = domain.delta / n
    centers = (np.arange(n) + 0.5) * h
    faces = np.arange(n + 1) * h
    w = np.sin(faces)
    s = np.sin(centers)

    diag = (w[:-1] + w[1:]) / h**2
    if kind is ProblemKind.NEUMANN:
        diag[-1] = w[-2] / h**2
    else:
        # ghost value -f_{n-1} across the rim face
        diag[-1] = (w[-2] + 2.0 * w[-1]) / h**2
    if order:
        diag = diag + order**2 / s
    off = -w[1:-1] / h**2

    # symmetrize the pencil (A, diag(sin)) as D^{-1/2} A D^{-1/2}
    d = diag / s
    e = off / np.sqrt(s[:-1] * s[1:])
    if cutoff == math.inf:
        select, bounds = "i", (0, min(count, n) - 1)
    else:
        select, bounds = "v", (-math.inf, cutoff)
    values = eigh_tridiagonal(
        d, e, select=select, select_range=bounds, eigvals_only=True, tol=BISECTION_TOL
    )
    return values[:count]


def cap_spectrum(
    domain: CapDomain, kind: ProblemKind, count: int = 6
) -> Spectrum:
    """Lowest ``count`` membrane eigenvalues of the cap, all orders merged.

    Orders m >= 1 carry multiplicity 2 (the two azimuthal phases).  The
    sweep starts from the ``count``-th Dirichlet value of the flat disk
    of the cap's area pi r^2, r = 2 sin(delta / 2): inverting the
    two-term Weyl law N = r^2 lam / 4 - r sqrt(lam) / 2 gives
    ((1 + sqrt(1 + 4 count)) / r)^2.  A start too low only doubles the
    cutoff and sweeps again; the values never depend on it.
    """
    kind = ProblemKind(kind)
    if kind not in MEMBRANE_KINDS:
        raise ValueError(
            f"cap spectra cover the membrane problems only, got {kind.value}"
        )
    count = check_count(count)

    r = 2.0 * math.sin(0.5 * domain.delta)
    out = lowest_over_orders(
        lambda m, cutoff: _radial_values(domain, m, kind, count, cutoff),
        count,
        ((1.0 + math.sqrt(1.0 + 4.0 * count)) / r) ** 2,
    )
    if kind is ProblemKind.NEUMANN:
        # the symmetrized solve leaves roundoff on the one null value
        out[0] = 0.0
    return Spectrum(
        kind=kind,
        domain=domain.descriptor,
        values=out,
        source=f"cap(n={domain.points})",
    )
