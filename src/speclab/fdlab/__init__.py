"""Finite-difference laboratory: grids, operators, eigensolver, spectra.

The grid builders, ``read_mask_file`` and the cap backend need numpy
alone and load with the package.  The sparse side (``symmetry``,
``operators``, ``solver``, ``spectrum``) imports ``scipy.sparse`` and
``scipy.sparse.linalg``, so its names in ``__all__`` load on first
access: such a name is looked up in those submodules in that order,
each after the ones it imports, so the first that holds it is the one
that defines it.  ``from speclab.fdlab import fd_spectra`` imports them
then, and a run that never solves on a grid never does.  A name outside
``__all__`` is an AttributeError that imports nothing.  So a grid is
built and sized without scipy; ``fd_spectra`` checks, before it solves,
that its mask is one 4-connected component.
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

#: The submodules whose names load on first access, each after those it imports.
_SPARSE_MODULES = ("symmetry", "operators", "solver", "spectrum")


def __getattr__(name: str):
    for module in _SPARSE_MODULES if name in __all__ else ():
        module = importlib.import_module(f".{module}", __name__)
        if hasattr(module, name):
            globals()[name] = value = getattr(module, name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
