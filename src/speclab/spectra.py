"""Shared container for computed eigenvalue lists.

Every producer in the package (closed forms, characteristic equations,
finite differences, the cap solver) returns the same ``Spectrum`` shape
so the downstream checks can stay source-agnostic.  Values follow the
square-root convention for fourth-order problems: a clamped spectrum
stores the values whose squares are the plate eigenvalues, which is what
the membrane-to-plate comparisons are phrased in.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class ProblemKind(str, Enum):
    """The four eigenvalue problems handled by the package."""

    NEUMANN = "neumann"
    DIRICHLET = "dirichlet"
    CLAMPED = "clamped"
    BUCKLING = "buckling"


#: Kinds in the order the one-index-at-a-time inequalities run.
CHAIN_ORDER = (
    ProblemKind.NEUMANN,
    ProblemKind.DIRICHLET,
    ProblemKind.CLAMPED,
    ProblemKind.BUCKLING,
)

#: Second-order membrane problems (the ones with Weyl/heat predictions here).
MEMBRANE_KINDS = (ProblemKind.NEUMANN, ProblemKind.DIRICHLET)


def _real(value):
    """``value`` as a float where it converts, else as it is."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return value


def check_positive(name: str, value: float) -> float:
    """``value`` as a float; ValueError unless it is finite and positive."""
    value = _real(value)
    if not (isinstance(value, float) and math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def check_nonnegative(name: str, value: float) -> float:
    """``value`` as a float; ValueError unless it is finite and >= 0."""
    value = _real(value)
    if not (isinstance(value, float) and math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    return value


#: Lengths (sides, radii) accepted where a length sets a spectrum's
#: scale.  Values scale as length^-2, so far outside this range some of
#: them overflow or underflow.
LENGTH_RANGE = (1e-3, 1e3)


def check_length(name: str, value: float) -> float:
    """``value`` as a float; ValueError unless it lies in ``LENGTH_RANGE``."""
    lo, hi = LENGTH_RANGE
    value = _real(value)
    if not (isinstance(value, float) and lo <= value <= hi):
        raise ValueError(f"{name} must be a length in [{lo:g}, {hi:g}], got {value!r}")
    return value


def _whole(value, name: str, least: int) -> int:
    """``value`` as an int; ValueError unless it is an integer >= ``least`` (0 or 1).

    Fractions, nan, infinities, None and strings all raise the same
    ValueError, never int()'s own TypeError or OverflowError.
    """
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = least - 1
    if whole < least or value != whole:
        sign = "positive" if least else "nonnegative"
        raise ValueError(f"{name} must be a {sign} integer, got {value!r}")
    return whole


def check_count(count: int, name: str = "count") -> int:
    """``count`` as an int; ValueError unless it is a positive integer."""
    return _whole(count, name, 1)


def check_order(order: int, name: str = "order") -> int:
    """``order`` as an int; ValueError unless it is a nonnegative integer."""
    return _whole(order, name, 0)


def lowest_over_orders(
    values_below: Callable[[int, float], np.ndarray], count: int, cutoff: float
) -> np.ndarray:
    """Lowest ``count`` values of a separable problem, all orders merged.

    ``values_below(m, cutoff)`` returns the ascending values of azimuthal
    order m at or below ``cutoff``.  Orders are swept from m = 0 up, and
    orders m >= 1 count twice (the two azimuthal phases).  Once ``count``
    values are held the cutoff drops to the largest of them.  The first
    order m >= 1 with no values ends the sweep: on disks and caps the
    lowest value grows with m from m = 1 on.  A sweep that ends short of
    ``count`` values runs again at twice the cutoff, so the values never
    depend on the first cutoff, only their cost does.  A first cutoff
    that is not finite and positive, as an underflowed one, is a
    ValueError rather than an endless doubling of zero.
    """
    cutoff = check_positive("first cutoff", cutoff)
    while True:
        out, limit, order = np.empty(0), cutoff, 0
        while True:
            if len(out) == count:
                limit = out[-1]
            values = values_below(order, limit)
            if order and not len(values):
                break
            copies = np.repeat(values, 2) if order else values
            out = np.sort(np.concatenate((out, copies)))[:count]
            order += 1
        if len(out) == count:
            return out
        cutoff *= 2.0


@dataclass
class Spectrum:
    """Sorted eigenvalues of one problem kind on one domain.

    Attributes:
        kind: which of the four problems the values solve.
        domain: human-readable descriptor, compared verbatim when two
            spectra must live on the same domain.
        values: nondecreasing float64 array, repeated entries encode
            multiplicity.
        source: where the numbers came from, e.g. ``analytic`` or
            ``fd(h=0.025)``.
        trusted_count: how many leading values are deemed reliable;
            counting queries refuse to look past this index.
    """

    kind: ProblemKind
    domain: str
    values: np.ndarray
    source: str
    trusted_count: int = field(default=0)

    def __post_init__(self) -> None:
        self.kind = ProblemKind(self.kind)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValueError("spectrum requires a nonempty 1-d value array")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("spectrum values must be finite")
        if np.any(np.diff(self.values) < 0):
            raise ValueError("spectrum values must be nondecreasing")
        if self.trusted_count == 0:
            self.trusted_count = self.values.size
        if not 1 <= self.trusted_count <= self.values.size:
            raise ValueError(
                f"trusted_count must lie in [1, {self.values.size}], got {self.trusted_count}"
            )

    def __len__(self) -> int:
        return int(self.values.size)
