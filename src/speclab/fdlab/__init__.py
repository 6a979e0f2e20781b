"""Finite-difference laboratory: grids, operators, eigensolver, spectra."""

from .cap import CapDomain, cap_spectrum
from .grid import (
    MIN_UNKNOWNS,
    DegenerateDomainError,
    GridDomain,
    axis_nodes,
    disk_domain,
    disk_unknowns,
    interval_domain,
    lshape_domain,
    lshape_unknowns,
    read_mask_file,
    rectangle_domain,
)
from .operators import (
    SparseSymOperator,
    assemble_bilaplacian_clamped,
    assemble_laplacian,
)
from .solver import ConvergenceError, EvpSolution, solve_gevp
from .spectrum import fd_spectra, fd_spectrum
from .symmetry import symmetry_classes

__all__ = [
    "MIN_UNKNOWNS",
    "CapDomain",
    "ConvergenceError",
    "DegenerateDomainError",
    "EvpSolution",
    "GridDomain",
    "SparseSymOperator",
    "assemble_bilaplacian_clamped",
    "assemble_laplacian",
    "axis_nodes",
    "cap_spectrum",
    "disk_domain",
    "disk_unknowns",
    "fd_spectra",
    "fd_spectrum",
    "interval_domain",
    "lshape_domain",
    "lshape_unknowns",
    "read_mask_file",
    "rectangle_domain",
    "solve_gevp",
    "symmetry_classes",
]
