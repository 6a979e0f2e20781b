"""Finite-difference laboratory: grids, operators, eigensolver, spectra."""

from .cap import CapDomain, cap_spectrum
from .grid import (
    DegenerateDomainError,
    GridDomain,
    disk_domain,
    interval_domain,
    lshape_domain,
    read_mask_file,
    rectangle_domain,
    write_mask_file,
)
from .operators import (
    SparseSymOperator,
    assemble_bilaplacian_clamped,
    assemble_laplacian,
)
from .solver import ConvergenceError, EvpSolution, solve_gevp
from .spectrum import fd_spectra, fd_spectrum

__all__ = [
    "CapDomain",
    "ConvergenceError",
    "DegenerateDomainError",
    "EvpSolution",
    "GridDomain",
    "SparseSymOperator",
    "assemble_bilaplacian_clamped",
    "assemble_laplacian",
    "cap_spectrum",
    "disk_domain",
    "fd_spectra",
    "fd_spectrum",
    "interval_domain",
    "lshape_domain",
    "read_mask_file",
    "rectangle_domain",
    "solve_gevp",
    "write_mask_file",
]
