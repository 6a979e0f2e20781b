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
agree to about 1e-15.  What remains is the O(h^2) discretization error,
about 1e-7 relative at the default 4000 points; against roots in nu of
the Legendre functions P_nu^m(cos delta) (DLMF 14), one Richardson step
between 2000 and 4000 points lands within 1e-9.

The orders are swept from m = 0 up, each asked only for its values at or
below a cutoff, so bisection runs only for values the spectrum may keep.
The first cutoff comes from the same cap on a grid ``COARSENING`` times
coarser, itself seeded the same way: coarse values lie within O(h^2) of
the fine ones, so the coarse ``count``-th value raised by ``SEED_MARGIN``
nearly always bounds the answer (nested iteration; Brandt, Math. Comp.
31, 1977).  A guess too low leaves the sweep short of ``count`` values,
and the cap is then swept again without a cutoff, so the values never
depend on the guess.  At count 60 on 4000 points this bisects about 33
values on the fine grid instead of about 170.

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
from scipy.linalg import eigh_tridiagonal

from ..spectra import MEMBRANE_KINDS, ProblemKind, Spectrum, check_count

#: Absolute bisection tolerance for LAPACK ``stebz``.  Its default (any
#: value <= 0) is eps * ||T||, and ||T|| ~ 4 / h^2 + m^2 / sin t dwarfs
#: the low eigenvalues, leaving them about 1e-9 relative error.  The
#: smallest positive double leaves ``stebz``'s own relative floor, two
#: ulps of each eigenvalue, in charge instead.
BISECTION_TOL = np.finfo(float).tiny

#: Ratio of grid points between a cap and the coarser cap that seeds its
#: order sweep with a first cutoff.
COARSENING = 8

#: Relative raise of the coarse-grid cutoff.  Coarse values mostly sit
#: below the fine ones, so the raise points up; from a 500-point coarse
#: grid it covers the O(h^2) gap about twenty times at count 200.
SEED_MARGIN = 0.01


@dataclass(frozen=True)
class CapDomain:
    """Geodesic ball of aperture ``delta`` on the unit sphere."""

    delta: float
    points: int = 4000

    def __post_init__(self):
        if not (0.0 < self.delta < math.pi):
            raise ValueError(
                f"aperture must lie in (0, pi), got {self.delta!r}"
            )
        if self.points < 8:
            raise ValueError(f"need at least 8 grid points, got {self.points}")

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


def _sweep(
    domain: CapDomain, kind: ProblemKind, count: int, cutoff: float = math.inf
) -> np.ndarray:
    """Lowest ``count`` cap values at or below ``cutoff``, all orders merged.

    Orders m >= 1 carry multiplicity 2 (the two azimuthal phases).  Once
    ``count`` values are held the cutoff drops to the largest of them.
    The first order with none at or below the cutoff ends the sweep: the
    potential m^2/sin t grows with m, so every later order starts higher
    still.  Only a finite cutoff set too low leaves fewer than ``count``.
    """
    out = np.empty(0)
    order = 0
    while True:
        if len(out) == count:
            cutoff = out[-1]
        radial = _radial_values(domain, order, kind, count, cutoff)
        if not len(radial):
            return out
        copies = np.repeat(radial, 2) if order else radial
        out = np.sort(np.concatenate((out, copies)))[:count]
        order += 1


def _seed_cutoff(domain: CapDomain, kind: ProblemKind, count: int) -> float:
    """A cutoff just above the cap's ``count``-th value, from a coarser grid.

    The coarse ``count``-th value lies below the fine one by O(h^2), at
    most 5.3e-4 relative between 500 and 4000 points at count 200, or
    above it by far less.  A hundred ulps of the fine operator's scale
    4/h^2 lift the cutoff above the roundoff that the symmetrized solve
    leaves on the Neumann null value.  Without a coarse grid of at least
    8 points the cutoff is infinite, which leaves the sweep unseeded.
    """
    points = domain.points // COARSENING
    if points < 8:
        return math.inf
    coarse = _cap_values(CapDomain(domain.delta, points), kind, count)[-1]
    h = domain.delta / domain.points
    return coarse + SEED_MARGIN * abs(coarse) + 100.0 * np.finfo(float).eps * 4.0 / h**2


def _cap_values(domain: CapDomain, kind: ProblemKind, count: int) -> np.ndarray:
    """The sweep from a coarse-grid cutoff, unseeded again if that falls short."""
    out = _sweep(domain, kind, count, _seed_cutoff(domain, kind, count))
    if len(out) < count:
        out = _sweep(domain, kind, count)
    return out


def cap_spectrum(
    domain: CapDomain, kind: ProblemKind, count: int = 6
) -> Spectrum:
    """Lowest ``count`` membrane eigenvalues of the cap, all orders merged.

    Orders m >= 1 carry multiplicity 2 (the two azimuthal phases).  Each
    order is asked only for its values at or below a cutoff, the first
    one the same cap's ``count``-th value on a grid ``COARSENING`` times
    coarser, raised by ``SEED_MARGIN``.  A sweep left short of ``count``
    values by a guess too low is run again without a cutoff, so the
    values never depend on the guess, only their cost does.
    """
    kind = ProblemKind(kind)
    if kind not in MEMBRANE_KINDS:
        raise ValueError(
            f"cap spectra cover the membrane problems only, got {kind.value}"
        )
    count = check_count(count)

    out = _cap_values(domain, kind, count)
    if kind is ProblemKind.NEUMANN:
        # the symmetrized solve leaves roundoff on the one null value
        out[0] = 0.0
    return Spectrum(
        kind=kind,
        domain=domain.descriptor,
        values=out,
        source=f"cap(n={domain.points})",
        trusted_count=len(out),
    )
