"""Reference spectra on rectangles and disks.

Rectangles get the classical separated membrane eigenvalues.  Disks get
all four problems through Bessel characteristic equations: three from
scipy's Bessel zeros, the clamped one from one ``specfun.find_root``
call per azimuthal order.  Rectangles have no closed form for the plate
problems, so finite differences are the source of rectangle clamped and
buckling values.
"""

from __future__ import annotations

import math

import numpy as np

from .specfun import bessel_j_prime_zeros, bessel_j_zeros, find_root
from .spectra import (
    ProblemKind,
    Spectrum,
    check_count,
    check_length,
    lowest_over_orders,
)

# ---------------------------------------------------------------------------
# rectangle membrane


def rect_spectrum(a: float, b: float, kind: ProblemKind, count: int) -> Spectrum:
    """Smallest ``count`` membrane eigenvalues pi^2 (l^2/a^2 + m^2/b^2).

    Dirichlet indices run from 1, Neumann from 0 (the constant mode).
    Both sides must lie in ``spectra.LENGTH_RANGE``: past about 1e154
    either way the values leave the float range.
    """
    a = check_length("side a", a)
    b = check_length("side b", b)
    count = check_count(count)
    kind = ProblemKind(kind)
    if kind not in (ProblemKind.NEUMANN, ProblemKind.DIRICHLET):
        raise ValueError(f"rectangle closed form covers membrane kinds only, got {kind.value}")
    start = 0 if kind is ProblemKind.NEUMANN else 1
    # Grow the enumeration window until it certainly holds `count` values.
    bound = 4.0 * math.pi**2 * (count + 4) / (a * b) + math.pi**2 * (1 / a**2 + 1 / b**2)
    while len(values := _rect_values(a, b, start, bound)) < count:
        bound *= 2.0
    return Spectrum(
        kind=kind,
        domain=f"rect({a:g}x{b:g})",
        values=np.sort(values)[:count],
        source="analytic",
    )


def _rect_values(a: float, b: float, start: int, bound: float) -> np.ndarray:
    """Every pi^2 (l^2/a^2 + m^2/b^2) <= bound with l, m >= start, unsorted."""
    l = np.arange(start, int(math.sqrt(bound) * a / math.pi) + 2)[:, None]
    m = np.arange(start, int(math.sqrt(bound) * b / math.pi) + 2)
    values = math.pi**2 * (l**2 / a**2 + m**2 / b**2)
    return values[values <= bound]


# ---------------------------------------------------------------------------
# disk


def _disk_clamped_roots(m: int, limit: float) -> np.ndarray:
    """Roots up to ``limit`` of J_m(x) I_{m+1}(x) + I_m(x) J_{m+1}(x) = 0.

    Dividing by I_m > 0 gives the overflow-free ratio form
    J_m I_{m+1}/I_m + J_{m+1}, whose ratio the exponentially scaled
    ``ive`` gives at any x.  At each zero of J_m it equals J_{m+1},
    whose sign alternates, so one root lies between each pair of
    consecutive zeros of J_m.  Past the last zero below the limit, a
    sign change up to the limit tells whether that pair's root is in
    range.  One ``find_root`` call bisects every bracket down to two
    adjacent doubles, so each root lies within the few ulps that
    rounding in the ratio form leaves.
    """
    import scipy.special as special

    def f(x: np.ndarray) -> np.ndarray:
        ratio = special.ive(m + 1, x) / special.ive(m, x)
        return special.jv(m, x) * ratio + special.jv(m + 1, x)

    zeros = bessel_j_zeros(m, limit)
    ends = np.append(zeros, limit)
    if zeros.size and zeros[-1] < limit and np.prod(f(ends[-2:])) <= 0.0:
        return find_root(f, zeros, ends[1:])
    return find_root(f, zeros[:-1], zeros[1:])


def disk_spectrum(radius: float, kind: ProblemKind, count: int) -> Spectrum:
    """Smallest ``count`` eigenvalues of the given problem on a disk.

    Dirichlet values are (j_m^l / R)^2 and Neumann values come from the
    zeros of J_m' plus the zero constant mode.  Clamped values are the
    squared roots of the J/I cross determinant, on the square-root
    convention.  Buckling values are (j_{m+1}^l / R)^2; the modes pair a
    Bessel radial part with a harmonic r^m correction, and the first of
    them coincides with the second Dirichlet value.  Angular orders
    m >= 1 carry multiplicity two.

    ``spectra.lowest_over_orders`` merges the orders, asking each for
    its roots up to R sqrt(cutoff).  By Weyl's law about x^2 / 4 values
    lie below (x / R)^2, so the sweep starts at x = 2 sqrt(count) + 4,
    whose 4 covers the boundary terms up to buckling, the highest kind.

    The radius must lie in ``spectra.LENGTH_RANGE``, the CLI's length
    range: past about 1e154 either way the values leave the float range,
    as subnormals or as an overflow of the first cutoff.
    """
    radius = check_length("radius", radius)
    count = check_count(count)
    kind = ProblemKind(kind)

    def order_roots(m: int, limit: float) -> np.ndarray:
        if kind is ProblemKind.DIRICHLET:
            return bessel_j_zeros(m, limit)
        if kind is ProblemKind.NEUMANN:
            roots = bessel_j_prime_zeros(m, limit)
            return np.concatenate(([0.0], roots)) if m == 0 else roots
        if kind is ProblemKind.CLAMPED:
            return _disk_clamped_roots(m, limit)
        return bessel_j_zeros(m + 1, limit)

    values = lowest_over_orders(
        lambda m, cutoff: (order_roots(m, radius * math.sqrt(cutoff)) / radius) ** 2,
        count,
        ((2.0 * math.sqrt(count) + 4.0) / radius) ** 2,
    )
    return Spectrum(
        kind=kind,
        domain=f"disk(R={radius:g})",
        values=values,
        source="analytic",
    )
