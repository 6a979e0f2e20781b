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


def check_positive(name: str, value: float) -> float:
    """``value`` as a float; ValueError unless it is finite and positive."""
    value = float(value)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def check_count(count: int) -> int:
    """``count`` as an int; ValueError unless it is a positive integer."""
    if count != int(count) or count < 1:
        raise ValueError(f"count must be a positive integer, got {count!r}")
    return int(count)


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
