"""Bessel functions, their zeros, and the bracketed root finder.

J_m, J_m' and I_m for integer m >= 0, the ratio I_{m+1}/I_m, and the
zeros of J_m and J_m' are thin wrappers over ``scipy.special`` (the
Amos routines and scipy's Bessel zero tables).  They hold to roughly
machine precision at every order and argument, so the analytic disk
spectra built on them hold at any ``count``.  ``scipy.special`` is
imported on the first Bessel call: the command line pays its import
cost only when a run needs a Bessel function.

``find_root`` is the package's one root finder, used for the
transcendental characteristic equations elsewhere in the package.  It
bisects a sign change down to two adjacent doubles, so every root it
returns is as close as float64 can place it to where f changes sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .spectra import check_count, check_nonnegative, check_order

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


def find_root(f: Callable[[float], float], bracket: RootBracket) -> float:
    """Locate the sign change of f inside the bracket.

    Deterministic bisection halves the bracket until f is exactly 0 at
    its midpoint, or until no double lies strictly between its ends; it
    returns that midpoint, which is then one of the two ends.  So f
    either vanishes at the root or changes sign between the root and
    one of its neighbouring doubles.

    Raises:
        BracketError: if f has the same sign at both endpoints.
    """
    lo, hi = float(bracket.lo), float(bracket.hi)
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
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid


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
