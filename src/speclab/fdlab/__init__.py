"""Finite-difference laboratory: grids, operators, eigensolver, spectra.

The grid builders, ``read_mask_file`` and the cap backend need numpy
alone and load with the package.  The sparse side (``operators``,
``solver``, ``spectrum``, ``symmetry``) imports ``scipy.sparse`` and
``scipy.sparse.linalg``, so its names load on first access: ``from
speclab.fdlab import fd_spectra`` imports them then, and a run that
never solves on a grid never does.  So a grid is built and sized
without scipy; ``fd_spectra`` checks, before it solves, that its mask
is one 4-connected component.
"""

import importlib

from .cap import MIN_CAP_POINTS, CapDomain, cap_spectrum
from .grid import (
    MIN_UNKNOWNS,
    DegenerateDomainError,
    GridDomain,
    axis_nodes,
    disk_domain,
    interval_domain,
    lshape_domain,
    read_mask_file,
    rectangle_domain,
)

#: The submodule that defines each name loaded on first access.
_SPARSE = {
    "SparseSymOperator": "operators",
    "assemble_bilaplacian_clamped": "operators",
    "assemble_laplacian": "operators",
    "ConvergenceError": "solver",
    "EvpSolution": "solver",
    "solve_gevp": "solver",
    "fd_spectra": "spectrum",
    "fd_spectrum": "spectrum",
    "IndefiniteSpectrumError": "spectrum",
    "symmetry_classes": "symmetry",
}


def __getattr__(name: str):
    if name not in _SPARSE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SPARSE[name]}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "MIN_CAP_POINTS",
    "MIN_UNKNOWNS",
    "CapDomain",
    "ConvergenceError",
    "DegenerateDomainError",
    "EvpSolution",
    "GridDomain",
    "IndefiniteSpectrumError",
    "SparseSymOperator",
    "assemble_bilaplacian_clamped",
    "assemble_laplacian",
    "axis_nodes",
    "cap_spectrum",
    "disk_domain",
    "fd_spectra",
    "fd_spectrum",
    "interval_domain",
    "lshape_domain",
    "read_mask_file",
    "rectangle_domain",
    "solve_gevp",
    "symmetry_classes",
]
