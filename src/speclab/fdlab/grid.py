"""Node masks for finite-difference domains.

A domain is a uniform lattice of spacing h; the mask marks the nodes
that lie strictly inside the continuous region (node-center inclusion).
Everything outside the mask is wall: second-order operators read it as
zero boundary data and the clamped fourth-order operator additionally
mirrors across it.  Masks can be built from a few stock shapes or read
from a small text format, one line ``h <value>`` followed by rows of
``#`` (inside) and ``.`` (outside).

Building a grid needs numpy alone.  A ``GridDomain`` checks its spacing,
its shape and ``MIN_UNKNOWNS``; that the mask is one 4-connected
component, which the structural Neumann zero needs, is checked by
``fd_spectra`` before it solves.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..spectra import check_positive

_REL_TOL = 1e-9

#: Fewest unknowns a grid may resolve to.
MIN_UNKNOWNS = 9


class DegenerateDomainError(ValueError):
    """Raised when a mask resolves to fewer than MIN_UNKNOWNS unknowns."""

    def __init__(self, unknowns: int):
        super().__init__(
            f"domain resolves to {unknowns} unknowns at this spacing; "
            f"at least {MIN_UNKNOWNS} are required"
        )
        self.unknowns = unknowns


@dataclass
class GridDomain:
    """Interior-node mask of one domain at one resolution.

    ``mask[j, i]`` marks the node at ``(origin[0] + i h, origin[1] + j h)``;
    row index moves along y.
    """

    h: float
    mask: np.ndarray
    origin: tuple[float, float]
    descriptor: str = field(default="mask")

    def __post_init__(self) -> None:
        self.h = check_positive("grid spacing", self.h)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.ndim != 2:
            raise ValueError("mask must be a 2-d boolean array")
        if self.n_unknowns < MIN_UNKNOWNS:
            raise DegenerateDomainError(self.n_unknowns)

    @property
    def n_unknowns(self) -> int:
        return int(self.mask.sum())

    def node_coordinates(self) -> np.ndarray:
        """(n, 2) array of the x, y coordinates of every interior node."""
        jj, ii = np.nonzero(self.mask)
        return np.column_stack(
            (self.origin[0] + ii * self.h, self.origin[1] + jj * self.h)
        )


def axis_nodes(length: float, h: float) -> int:
    """Lattice nodes h, 2h, ... strictly inside (0, length), at most sys.maxsize."""
    return int(min((length - _REL_TOL * length) / h, sys.maxsize))


def _inside_disk(x: np.ndarray, y: np.ndarray, radius: float) -> np.ndarray:
    # a square that overflows to inf compares false and leaves the node out
    with np.errstate(over="ignore"):
        return x**2 + y**2 < radius**2 * (1.0 - _REL_TOL)


def _past_notch(n: int, h: float, length: float, notch: float) -> np.ndarray:
    """Which of the nodes h, ..., n h along a side of ``length`` lie in the notch's span."""
    return np.arange(1, n + 1) * h >= length * (1.0 - notch) - _REL_TOL * length


def rectangle_domain(
    a: float, b: float, h: float, corner: tuple[float, float] = (0.0, 0.0)
) -> GridDomain:
    """Interior nodes of the rectangle [cx, cx + a] x [cy, cy + b]."""
    a = check_positive("side a", a)
    b = check_positive("side b", b)
    h = check_positive("spacing h", h)
    cx, cy = float(corner[0]), float(corner[1])
    mask = np.ones((axis_nodes(b, h), axis_nodes(a, h)), dtype=bool)
    return GridDomain(
        h=h,
        mask=mask,
        origin=(cx + h, cy + h),
        descriptor=f"rectangle({a:g},{b:g})",
    )


def interval_domain(length: float, h: float) -> GridDomain:
    """Single-row mask standing in for the interval (0, L).

    The operator assemblers only step along the axes a mask spans, so a
    one-row mask gets the rod stencils and this is the grid-side twin of
    the closed-form interval spectra.
    """
    length = check_positive("length", length)
    h = check_positive("spacing h", h)
    return GridDomain(
        h=h,
        mask=np.ones((1, axis_nodes(length, h)), dtype=bool),
        origin=(h, 0.0),
        descriptor=f"interval({length:g})",
    )


def disk_domain(radius: float, h: float, center: tuple[float, float] = (0.0, 0.0)) -> GridDomain:
    """Interior nodes of a disk, nodes with |x - c| strictly below R."""
    radius = check_positive("radius", radius)
    h = check_positive("spacing h", h)
    n = int(math.ceil(radius / h))
    coords = np.arange(-n, n + 1) * h
    mask = _inside_disk(coords[None, :], coords[:, None], radius)
    # the nodes |i| <= m of the centre row are inside; no row is wider, and
    # the mask is symmetric in x and y, so they span its bounding box
    m = int(mask[n].sum()) // 2
    return GridDomain(
        h=h,
        mask=mask[n - m : n + m + 1, n - m : n + m + 1],
        origin=(center[0] - m * h, center[1] - m * h),
        descriptor=f"disk(R={radius:g})",
    )


def lshape_domain(
    a: float, b: float, h: float, notch: float = 0.5, corner: tuple[float, float] = (0.0, 0.0)
) -> GridDomain:
    """Rectangle [0, a] x [0, b] with the closed top-right notch removed.

    The notch is the block [a (1 - notch), a] x [b (1 - notch), b]; its
    two inner edges belong to the boundary, so nodes on them are wall.
    """
    a = check_positive("side a", a)
    b = check_positive("side b", b)
    h = check_positive("spacing h", h)
    notch = float(notch)
    if not 0.0 < notch < 1.0:
        raise ValueError(f"notch fraction must lie in (0, 1), got {notch!r}")
    base = rectangle_domain(a, b, h, corner=corner)
    ny, nx = base.mask.shape
    notched = _past_notch(ny, h, b, notch)[:, None] & _past_notch(nx, h, a, notch)[None, :]
    return GridDomain(
        h=h,
        mask=base.mask & ~notched,
        origin=base.origin,
        descriptor=f"lshape({a:g},{b:g},notch={notch:g})",
    )


def read_mask_file(path: str | Path) -> GridDomain:
    """Read a domain from the ``h ...`` / ``#``-row text format.

    A malformed file raises ValueError; naming the path is left to the caller.
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    parts = lines[0].split() if lines else []
    if len(parts) != 2 or parts[0].lower() != "h":
        raise ValueError("first line must be 'h <spacing>'")
    try:
        h = float(parts[1])
    except ValueError as exc:
        raise ValueError(f"bad spacing {parts[1]!r}") from exc
    rows = [line for line in lines[1:] if line.strip()]
    if not rows:
        raise ValueError("no mask rows")
    width = max(len(r) for r in rows)
    cells = np.array([row.ljust(width, ".") for row in rows]).view("U1").reshape(len(rows), -1)
    mask = cells == "#"
    bad = np.argwhere(~mask & (cells != "."))
    if len(bad):
        j, i = bad[0]
        raise ValueError(f"row {j + 2} has invalid character {rows[j][i]!r}")
    return GridDomain(h=h, mask=mask, origin=(0.0, 0.0), descriptor=f"mask({path.name})")

