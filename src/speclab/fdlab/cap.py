"""Membrane spectra of spherical caps via the separated radial problem.

A cap of aperture delta on the unit sphere separates into azimuthal
orders m; each order leaves the weighted Sturm-Liouville problem

    -(sin t f')' + (m^2 / sin t) f = lam (sin t) f   on (0, delta)

with the requested condition at the rim.  The staggered grid puts cell
centers at (i + 1/2) h, so every mass weight sin t is strictly positive
and the zero face weight sin 0 enforces regularity at the pole by
itself.  For m >= 1 the singular potential keeps eigenfunctions away
from the pole, which realizes f(0) = 0 without an explicit row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from ..spectra import MEMBRANE_KINDS, ProblemKind, Spectrum


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
    domain: CapDomain, order: int, kind: ProblemKind, count: int
) -> np.ndarray:
    """Lowest eigenvalues of the order-m radial problem."""
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
    k = min(count, n)
    return eigh_tridiagonal(
        d, e, select="i", select_range=(0, k - 1), eigvals_only=True
    )


def cap_spectrum(
    domain: CapDomain, kind: ProblemKind, count: int = 6
) -> Spectrum:
    """Lowest ``count`` membrane eigenvalues of the cap, all orders merged.

    Orders m >= 1 carry multiplicity 2 (the two azimuthal phases).  After
    each order only the lowest ``count`` values are kept, and the loop
    stops once the lowest value of the next order exceeds the largest of
    them, which is safe because the potential m^2/sin t grows with m.
    """
    kind = ProblemKind(kind)
    if kind not in MEMBRANE_KINDS:
        raise ValueError(
            f"cap spectra cover the membrane problems only, got {kind.value}"
        )
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")

    out = np.empty(0)
    order = 0
    while True:
        radial = _radial_values(domain, order, kind, count)
        if len(out) == count and radial[0] > out[-1]:
            break
        mult = 1 if order == 0 else 2
        out = np.sort(np.concatenate((out, np.repeat(radial, mult))))[:count]
        order += 1

    if kind is ProblemKind.NEUMANN:
        # the flux form annihilates constants, but the symmetrized solve
        # reports the null value with roundoff of order eps * ||A||
        h = domain.delta / domain.points
        tiny = 100.0 * np.finfo(float).eps * 4.0 / h**2
        if abs(out[0]) <= tiny and (len(out) == 1 or abs(out[0]) <= 1e-6 * abs(out[1])):
            out[0] = 0.0
    return Spectrum(
        kind=kind,
        domain=domain.descriptor,
        values=out,
        source=f"cap(n={domain.points})",
        trusted_count=len(out),
    )
