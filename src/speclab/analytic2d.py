"""Reference spectra on rectangles and disks, plus lattice counting.

Rectangles get the classical separated membrane eigenvalues and exact
lattice-point counts against the leading Weyl term.  Disks get all four
problems through Bessel characteristic equations.  The rectangle
buckling "product" family is handled with care: the four labeled
families of tensor-product trial functions are counted exactly as
described, but ``buckling_product_residual`` demonstrates that those
products do not satisfy the two-dimensional buckling equation (the
cross-derivative term survives), so the family counts are a labeled
reproduction and finite differences remain the trusted source for
rectangle buckling values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .interval1d import tan_root
from .specfun import (
    RootBracket,
    bessel_i_ratio,
    bessel_j,
    bessel_j_prime_zeros,
    bessel_j_zeros,
    find_root,
)
from .spectra import ProblemKind, Spectrum, check_count, check_positive, lowest_over_orders

_EPS = float(np.finfo(float).eps)


# ---------------------------------------------------------------------------
# rectangle membrane


def rect_spectrum(a: float, b: float, kind: ProblemKind, count: int) -> Spectrum:
    """Smallest ``count`` membrane eigenvalues pi^2 (l^2/a^2 + m^2/b^2).

    Dirichlet indices run from 1, Neumann from 0 (the constant mode).
    """
    a = check_positive("side a", a)
    b = check_positive("side b", b)
    count = check_count(count)
    kind = ProblemKind(kind)
    if kind not in (ProblemKind.NEUMANN, ProblemKind.DIRICHLET):
        raise ValueError(f"rectangle closed form covers membrane kinds only, got {kind.value}")
    start = 0 if kind is ProblemKind.NEUMANN else 1
    # Grow the enumeration window until it certainly holds `count` values.
    bound = 4.0 * math.pi**2 * (count + 4) / (a * b) + math.pi**2 * (1 / a**2 + 1 / b**2)
    while len(values := _rect_values(a, b, start, bound)) < count:
        bound *= 2.0
    values.sort()
    return Spectrum(
        kind=kind,
        domain=f"rect({a:g}x{b:g})",
        values=np.array(values[:count]),
        source="analytic",
        trusted_count=count,
    )


def _rect_values(a: float, b: float, start: int, bound: float) -> list[float]:
    """Every pi^2 (l^2/a^2 + m^2/b^2) <= bound with l, m >= start, unsorted."""
    values = []
    l = start
    while math.pi**2 * l**2 / a**2 <= bound:
        m = start
        while (v := math.pi**2 * (l**2 / a**2 + m**2 / b**2)) <= bound:
            values.append(v)
            m += 1
        l += 1
    return values


@dataclass(frozen=True)
class LatticeCount:
    """Exact eigenvalue count at tau next to the leading Weyl term."""

    tau: float
    count: int
    weyl_term: float
    remainder: float


def rect_lattice_count(a: float, b: float, kind: ProblemKind, tau: float) -> LatticeCount:
    """Count rectangle membrane eigenvalues <= tau by direct enumeration.

    The Weyl term is tau * a * b / (4 pi); the remainder is count minus
    that term and carries the boundary contribution.
    """
    a = check_positive("side a", a)
    b = check_positive("side b", b)
    tau = float(tau)
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError(f"tau must be finite and >= 0, got {tau!r}")
    kind = ProblemKind(kind)
    if kind not in (ProblemKind.NEUMANN, ProblemKind.DIRICHLET):
        raise ValueError(f"lattice count covers membrane kinds only, got {kind.value}")
    count = len(_rect_values(a, b, 0 if kind is ProblemKind.NEUMANN else 1, tau))
    weyl = tau * a * b / (4.0 * math.pi)
    return LatticeCount(tau=tau, count=count, weyl_term=weyl, remainder=count - weyl)


# ---------------------------------------------------------------------------
# rectangle buckling product families


@dataclass(frozen=True)
class FamilyCounts:
    """Counts of the four tensor-product buckling families below tau."""

    tau: float
    n1: int
    n2: int
    n3: int
    n4: int

    @property
    def total(self) -> int:
        return self.n1 + self.n2 + self.n3 + self.n4


def _branch1_value(length: float, k: int) -> float:
    return (2.0 * k * math.pi / length) ** 2


def _branch2_value(length: float, k: int) -> float:
    return (2.0 * tan_root(k) / length) ** 2


def buckling_family_counts(a: float, b: float, tau: float) -> FamilyCounts:
    """Exact counts of the four product families with combined value <= tau.

    Family 1 pairs cosine branch values in both directions, families 2
    and 3 mix one cosine branch with one tan y = y branch, family 4
    pairs two tan y = y branches.  These reproduce a claimed counting
    argument; see ``buckling_product_residual`` for why the underlying
    product functions are not actual buckling eigenfunctions.
    """
    a = check_positive("side a", a)
    b = check_positive("side b", b)
    tau = float(tau)
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError(f"tau must be finite and >= 0, got {tau!r}")

    def values(length: float, branch: int) -> list[float]:
        out = []
        k = 1
        while True:
            v = _branch1_value(length, k) if branch == 1 else _branch2_value(length, k)
            if v > tau:
                break
            out.append(v)
            k += 1
        return out

    a1, a2 = values(a, 1), values(a, 2)
    b1, b2 = values(b, 1), values(b, 2)

    def pair_count(xs: list[float], ys: list[float]) -> int:
        return sum(1 for x in xs for y in ys if x + y <= tau)

    return FamilyCounts(
        tau=tau,
        n1=pair_count(a1, b1),
        n2=pair_count(a1, b2),
        n3=pair_count(a2, b1),
        n4=pair_count(a2, b2),
    )


@dataclass(frozen=True)
class ProductResidual:
    """Max-norm residual of a product trial function in the buckling PDE."""

    eigenvalue_guess: float
    residual_max: float
    value_max: float

    @property
    def normalized(self) -> float:
        return self.residual_max / self.value_max


def buckling_product_residual(
    a: float, b: float, l: int, m: int, grid: int = 201
) -> ProductResidual:
    """Residual of u = (1 - cos(2 l pi x / a)) (1 - cos(2 m pi y / b)).

    The candidate eigenvalue is Lambda = alpha^2 + beta^2 with
    alpha = 2 l pi / a, beta = 2 m pi / b.  All derivatives are closed
    form; the grid only samples the interior for the max norms.  A
    genuine eigenfunction would give a residual at roundoff scale; this
    one leaves alpha^2 beta^2 (cos(alpha x) + cos(beta y)) behind.
    """
    a = check_positive("side a", a)
    b = check_positive("side b", b)
    if l < 1 or m < 1 or l != int(l) or m != int(m):
        raise ValueError(f"mode indices must be positive integers, got ({l!r}, {m!r})")
    if grid < 8:
        raise ValueError(f"grid must have at least 8 points per side, got {grid!r}")
    alpha = 2.0 * l * math.pi / a
    beta = 2.0 * m * math.pi / b
    lam = alpha**2 + beta**2
    x = np.linspace(0.0, a, grid)[1:-1]
    y = np.linspace(0.0, b, grid)[1:-1]
    cx = np.cos(alpha * x)[:, None]
    cy = np.cos(beta * y)[None, :]
    u = (1.0 - cx) * (1.0 - cy)
    # u_xx = alpha^2 cx (1 - cy), u_yy = beta^2 cy (1 - cx)
    lap = alpha**2 * cx * (1.0 - cy) + beta**2 * cy * (1.0 - cx)
    # bilaplacian assembled from u_xxxx, u_yyyy and the mixed term u_xxyy
    u_xxxx = -(alpha**4) * cx * (1.0 - cy)
    u_yyyy = -(beta**4) * cy * (1.0 - cx)
    u_xxyy = (alpha**2) * (beta**2) * cx * cy
    residual = (u_xxxx + u_yyyy + 2.0 * u_xxyy) + lam * lap
    return ProductResidual(
        eigenvalue_guess=lam,
        residual_max=float(np.max(np.abs(residual))),
        value_max=float(np.max(np.abs(u))),
    )


# ---------------------------------------------------------------------------
# disk


def _disk_clamped_roots(m: int, limit: float) -> np.ndarray:
    """Roots up to ``limit`` of J_m(x) I_{m+1}(x) + I_m(x) J_{m+1}(x) = 0.

    Dividing by I_m > 0 gives the overflow-free ratio form
    J_m I_{m+1}/I_m + J_{m+1}.  At each zero of J_m it equals J_{m+1},
    whose sign alternates, so one root lies between each pair of
    consecutive zeros of J_m.  Past the last zero below the limit, a
    sign change up to the limit tells whether that pair's root is in
    range.  Bisection runs down to a few ulps.
    """

    def f(x: float) -> float:
        return bessel_j(m, x) * bessel_i_ratio(m, x) + bessel_j(m + 1, x)

    def root(lo: float, hi: float) -> float:
        return find_root(f, RootBracket(lo, hi), tol=4.0 * _EPS * hi)

    zeros = bessel_j_zeros(m, limit)
    roots = [root(lo, hi) for lo, hi in zip(zeros[:-1], zeros[1:])]
    if zeros.size and zeros[-1] < limit and f(zeros[-1]) * f(limit) <= 0.0:
        roots.append(root(zeros[-1], limit))
    return np.array(roots)


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
    """
    radius = check_positive("radius", radius)
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
        trusted_count=count,
    )
