"""Reference eigenvalues that do not come from speclab.

Disk spectra come from ``scipy.special`` zeros and ``brentq`` roots,
rectangle and interval spectra from their closed forms, and the
finite-difference membrane spectra of a rectangle from the closed-form
eigenvalues of the 5-point stencil.  Spectra without a closed form
(finite-difference fourth-order problems, L-shapes, caps) are compared
against values recorded once in ``refs.json`` by ``record_refs.py``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import ive, jn_zeros, jnp_zeros, jv

#: Relative tolerance for values with an independent closed form.  The
#: CLI rounds to 12 significant digits and the analytic root finder
#: stops at a bracket of 1e-10, so agreement is far tighter than this.
CLOSED_FORM_RTOL = 1e-9

#: Relative tolerance against recorded values: twice the solver's 1e-8
#: relative-residual acceptance rule, the eigenvalue error that rule
#: still admits for a symmetric pencil.
RECORDED_RTOL = 2e-8

#: Nodes strictly inside a side of length a at spacing h, the grid's
#: node-centre inclusion rule.
_EDGE_TOL = 1e-9


def matches(values, expected, rtol: float) -> bool:
    """Whether ``values`` equal ``expected`` elementwise within ``rtol``.

    Zero entries (the Neumann constant mode) are judged on the scale of
    the largest expected value.
    """
    values = np.asarray(values, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if values.shape != expected.shape:
        return False
    atol = rtol * float(np.max(np.abs(expected)))
    return bool(np.all(np.abs(values - expected) <= rtol * np.abs(expected) + atol))


def _merge_orders(order_values, count: int, initial=()) -> np.ndarray:
    """Smallest ``count`` values over angular orders m = 0, 1, ...

    ``order_values(m, n)`` gives the n smallest values of order m in
    ascending order; orders m >= 1 count twice.  The first value of an
    order grows with m, so the scan stops at the first order that
    starts above the running count-th value.
    """
    values = list(initial)
    m = 0
    while True:
        cutoff = sorted(values)[count - 1] if len(values) >= count else math.inf
        order = order_values(m, count)
        if order[0] > cutoff:
            break
        values.extend(np.repeat(order, 1 if m == 0 else 2))
        m += 1
    return np.sort(values)[:count]


def _clamped_roots(m: int, n: int) -> np.ndarray:
    """First n roots of J_m I_{m+1} + I_m J_{m+1}, one between each pair of J_m zeros.

    Scaled Bessel I (ive) has the same roots and never overflows.
    """
    zeros = jn_zeros(m, n + 1)

    def f(x):
        return jv(m, x) * ive(m + 1, x) + ive(m, x) * jv(m + 1, x)

    return np.array(
        [brentq(f, lo, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps)
         for lo, hi in zip(zeros[:-1], zeros[1:])]
    )


def disk(kind: str, radius: float, count: int) -> np.ndarray:
    """Lowest ``count`` eigenvalues of the disk, clamped on the square-root convention."""
    if kind == "dirichlet":
        roots, initial = (lambda m, n: jn_zeros(m, n)), ()
    elif kind == "neumann":
        roots, initial = (lambda m, n: jnp_zeros(m, n)), (0.0,)
    elif kind == "buckling":
        roots, initial = (lambda m, n: jn_zeros(m + 1, n)), ()
    elif kind == "clamped":
        roots, initial = _clamped_roots, ()
    else:
        raise ValueError(f"no disk oracle for {kind!r}")
    return _merge_orders(lambda m, n: (roots(m, n) / radius) ** 2, count, initial)


def rect_membrane(a: float, b: float, kind: str, count: int) -> np.ndarray:
    """Lowest ``count`` values of pi^2 (i^2/a^2 + j^2/b^2), i, j from 1 (Dirichlet) or 0."""
    start = {"dirichlet": 1, "neumann": 0}[kind]
    top = 4.0 * math.pi * (count + 4) / (a * b)
    while True:
        i = np.arange(start, int(a * math.sqrt(top) / math.pi) + 2)
        j = np.arange(start, int(b * math.sqrt(top) / math.pi) + 2)
        grid = math.pi**2 * ((i[:, None] / a) ** 2 + (j[None, :] / b) ** 2)
        values = np.sort(grid[grid <= top])
        if len(values) >= count:
            return values[:count]
        top *= 2.0


def interval(length: float, kind: str, count: int) -> np.ndarray:
    """Lowest ``count`` Dirichlet or buckling eigenvalues on (0, L)."""
    k = np.arange(1, count + 1)
    if kind == "dirichlet":
        return (k * math.pi / length) ** 2
    if kind == "buckling":
        # (2 k pi / L)^2 merged with (2 y_k / L)^2, tan(y_k) = y_k
        tan_roots = [
            brentq(lambda y: math.sin(y) - y * math.cos(y),
                   j * math.pi + 1e-9, j * math.pi + math.pi / 2 - 1e-9, xtol=1e-15)
            for j in k
        ]
        both = np.concatenate([2 * k * math.pi, 2 * np.array(tan_roots)]) / length
        return np.sort(both**2)[:count]
    raise ValueError(f"no interval oracle for {kind!r}")


def _nodes(side: float, h: float) -> int:
    return int(math.floor((side - _EDGE_TOL * side) / h))


def _fd_line(n: int, h: float, kind: str) -> np.ndarray:
    """Eigenvalues of the 3-point -d2/dx2 on n nodes: zero walls or dropped fluxes."""
    if kind == "dirichlet":
        return 4.0 / h**2 * np.sin(np.arange(1, n + 1) * math.pi / (2 * (n + 1))) ** 2
    if kind == "neumann":
        return 4.0 / h**2 * np.sin(np.arange(n) * math.pi / (2 * n)) ** 2
    raise ValueError(f"no finite-difference closed form for {kind!r}")


def rect_fd(a: float, b: float, h: float, kind: str, count: int) -> np.ndarray:
    """Lowest ``count`` eigenvalues of the 5-point Laplacian on an a x b rectangle."""
    x = _fd_line(_nodes(a, h), h, kind)
    y = _fd_line(_nodes(b, h), h, kind)
    return np.sort((x[:, None] + y[None, :]).ravel())[:count]
