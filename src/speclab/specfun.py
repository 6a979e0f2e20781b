"""Bessel functions, their zeros, and the bracketed root finder.

J_m, J_m' and I_m for integer m >= 0 and the zeros of J_m and J_m' are
thin wrappers over ``scipy.special`` (the Amos routines and scipy's
Bessel zero tables).  They hold to roughly machine precision at every
order and argument, so the analytic disk spectra built on them hold at
any ``count``.  As with every scipy subpackage speclab uses, the import
waits until a run first needs it, here the first Bessel call, so a run
that needs none of them pays none of their import cost.

``find_root`` is the package's one root finder, used for the
transcendental characteristic equations elsewhere in the package.  It
takes an array of brackets and bisects them all in lockstep, one call
of f per halving, down to two adjacent doubles: every root it returns
is as close as float64 can place it to where f changes sign.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

from .spectra import check_count, check_nonnegative, check_order

# I_m overflows float64 shortly past this argument (e^x / sqrt(2 pi x)).
_BESSEL_I_MAX_X = 705.0


class BracketError(ValueError):
    """Raised when a root bracket does not actually straddle a sign change."""


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


def find_root(
    f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Locate the sign change of f inside each bracket [lo[i], hi[i]].

    f maps an array of points to the array of its values there.  Every
    bracket is halved until f is exactly 0 at its midpoint, or until no
    double lies strictly between its ends; the root returned is that
    midpoint, which is then one of the two ends.  So f either vanishes
    at each root or changes sign between it and one of its neighbouring
    doubles.  The brackets are bisected in lockstep: each halving calls
    f once, on the midpoints of the brackets not yet done.

    Raises:
        ValueError: if a bracket is not a pair of finite ends lo < hi.
        BracketError: if f has the same sign at both ends of a bracket;
            the message names the first such bracket.
    """
    lo, hi = np.array(lo, dtype=float, ndmin=1), np.array(hi, dtype=float, ndmin=1)
    bad = ~(np.isfinite(lo) & np.isfinite(hi) & (lo < hi))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"bracket {i} requires finite lo < hi, got [{lo[i]}, {hi[i]}]")
    f_lo, f_hi = f(lo), f(hi)
    same = ((f_lo > 0) == (f_hi > 0)) & (f_lo != 0.0) & (f_hi != 0.0)
    if same.any():
        i = int(np.argmax(same))
        raise BracketError(
            f"no sign change on bracket {i}, [{lo[i]:.6g}, {hi[i]:.6g}]: "
            f"f(lo)={f_lo[i]:.6g}, f(hi)={f_hi[i]:.6g}"
        )
    roots = np.where(f_lo == 0.0, lo, hi)
    todo = np.flatnonzero((f_lo != 0.0) & (f_hi != 0.0))
    lo, hi, positive = lo[todo], hi[todo], f_lo[todo] > 0
    while todo.size:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        done = ~((lo < mid) & (mid < hi)) | (f_mid == 0.0)
        roots[todo[done]] = mid[done]
        # where f(mid) has the sign of f(lo), the sign change lies above mid
        right = (f_mid > 0) == positive
        lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
        keep = ~done
        todo, lo, hi, positive = todo[keep], lo[keep], hi[keep], positive[keep]
    return roots


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
