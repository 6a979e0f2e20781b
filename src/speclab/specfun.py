"""Bessel functions, their zeros, and the bracketed root finder.

J_m, J_m' and I_m for integer m >= 0, the ratio I_{m+1}/I_m, and the
zeros of J_m and J_m' are thin wrappers over ``scipy.special`` (the
Amos routines and scipy's Bessel zero tables).  They hold to roughly
machine precision at every order and argument, so the analytic disk
spectra built on them hold at any ``count``.  ``scipy.special`` is
imported on the first Bessel call: the command line pays its import
cost only when a run needs a Bessel function.

``find_root`` is the package's one root finder, used for the
transcendental characteristic equations elsewhere in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .spectra import check_count, check_nonnegative, check_order

#: Default bracket width at which root bisection stops.
ROOT_TOL = 1e-10

# I_m overflows float64 shortly past this argument (e^x / sqrt(2 pi x)).
_BESSEL_I_MAX_X = 705.0


class BracketError(ValueError):
    """Raised when a root bracket does not actually straddle a sign change."""


@dataclass(frozen=True)
class RootBracket:
    """Closed interval [lo, hi] expected to contain exactly one sign change."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("bracket endpoints must be finite")
        if not self.lo < self.hi:
            raise ValueError(f"bracket requires lo < hi, got [{self.lo}, {self.hi}]")


def _special():
    import scipy.special

    return scipy.special


def bessel_j(m: int, x: float) -> float:
    """Bessel function of the first kind J_m(x) for integer m >= 0, x >= 0."""
    m, x = check_order(m, "Bessel order"), check_nonnegative("argument", x)
    return float(_special().jv(m, x))


def bessel_j_prime(m: int, x: float) -> float:
    """Derivative J_m'(x) for integer m >= 0, x >= 0."""
    m, x = check_order(m, "Bessel order"), check_nonnegative("argument", x)
    return float(_special().jvp(m, x))


def bessel_i(m: int, x: float) -> float:
    """Modified Bessel function I_m(x) for integer m >= 0, x >= 0.

    Raises:
        OverflowError: if x is large enough that I_m(x) exceeds float64.
    """
    m, x = check_order(m, "Bessel order"), check_nonnegative("argument", x)
    if x > _BESSEL_I_MAX_X:
        raise OverflowError(
            f"I_{m}({x:g}) exceeds float64 range (supported up to x = {_BESSEL_I_MAX_X:g})"
        )
    return float(_special().iv(m, x))


def bessel_i_ratio(m: int, x: float) -> float:
    """I_{m+1}(x) / I_m(x) for integer m >= 0, x >= 0, at any x.

    The exponentially scaled functions have the same ratio and never
    overflow.
    """
    m, x = check_order(m, "Bessel order"), check_nonnegative("argument", x)
    if x == 0.0:
        return 0.0
    ive = _special().ive
    return float(ive(m + 1, x) / ive(m, x))


def find_root(
    f: Callable[[float], float],
    bracket: RootBracket,
    tol: float = ROOT_TOL,
    fprime: Callable[[float], float] | None = None,
) -> float:
    """Locate the sign change of f inside the bracket.

    Deterministic bisection narrows the bracket to width tol; when a
    derivative is supplied a few guarded Newton steps then polish the
    midpoint without leaving the bracket.

    Raises:
        BracketError: if f has the same sign at both endpoints.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    lo, hi = bracket.lo, bracket.hi
    f_lo = f(lo)
    f_hi = f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0) == (f_hi > 0):
        raise BracketError(
            f"no sign change on [{lo:.6g}, {hi:.6g}]: f(lo)={f_lo:.6g}, f(hi)={f_hi:.6g}"
        )
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    root = 0.5 * (lo + hi)
    if fprime is not None:
        for _ in range(3):
            slope = fprime(root)
            if slope == 0.0:
                break
            step = f(root) / slope
            candidate = root - step
            if not bracket.lo <= candidate <= bracket.hi:
                break
            root = candidate
            if abs(step) < 1e-15 * max(1.0, abs(root)):
                break
    return float(root)


def _zeros_up_to(table, m: int, limit: float) -> np.ndarray:
    # Zeros of J_m and J_m' start past m and lie about pi apart, so this
    # many reach past the limit; the loop covers a short first guess.
    n = int(max(limit - m, 0.0) / math.pi) + 3
    while True:
        zeros = table(m, n)
        if zeros[-1] > limit:
            return zeros[zeros <= limit]
        n *= 2


def bessel_j_zeros(m: int, limit: float) -> np.ndarray:
    """Every positive zero of J_m up to ``limit``, ascending."""
    m, limit = check_order(m, "Bessel order"), check_nonnegative("limit", limit)
    return _zeros_up_to(_special().jn_zeros, m, limit)


def bessel_j_prime_zeros(m: int, limit: float) -> np.ndarray:
    """Every positive zero of J_m' up to ``limit``, ascending.

    For m = 0 these are the zeros of J_1, since J_0' = -J_1.
    """
    m = check_order(m, "Bessel order")
    if m == 0:
        return bessel_j_zeros(1, limit)
    return _zeros_up_to(_special().jnp_zeros, m, check_nonnegative("limit", limit))


@lru_cache(maxsize=None)
def bessel_j_zero(m: int, l: int) -> float:
    """l-th positive zero of J_m (l >= 1)."""
    m, l = check_order(m, "Bessel order"), check_count(l, "zero index")
    return float(_special().jn_zeros(m, l)[l - 1])


@lru_cache(maxsize=None)
def bessel_j_prime_zero(m: int, l: int) -> float:
    """l-th positive zero of J_m' (l >= 1, the trivial zero at 0 excluded).

    For m = 0 these are the zeros of J_1.
    """
    m, l = check_order(m, "Bessel order"), check_count(l, "zero index")
    if m == 0:
        return bessel_j_zero(1, l)
    return float(_special().jnp_zeros(m, l)[l - 1])
