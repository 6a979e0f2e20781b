"""Grids, operator stencils and the eigenvalue solver."""

from __future__ import annotations

import dataclasses
import errno
import importlib
import json
import math
import os
import re
import signal
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.ndimage
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from probes import REASK_PROBES

from speclab import cli, fdlab, pool
from speclab.cli import parse_config, run_config
from speclab.fdlab import (
    CapDomain,
    ConvergenceError,
    DegenerateDomainError,
    GridDomain,
    IndefiniteSpectrumError,
    SparseSymOperator,
    assemble_bilaplacian_clamped,
    assemble_laplacian,
    cap_spectrum,
    disk_domain,
    fd_spectra,
    fd_spectrum,
    interval_domain,
    lshape_domain,
    read_mask_file,
    rectangle_domain,
    solve_gevp,
    symmetry_classes,
)
from speclab.fdlab import cap as cap_mod
from speclab.fdlab import grid as grid_mod
from speclab.fdlab import solver as solver_mod
from speclab.fdlab import spectrum as spectrum_mod
from speclab.fdlab import symmetry as symmetry_mod
from speclab.fdlab.grid import MIN_UNKNOWNS
from speclab.fdlab.symmetry import project
from speclab.interval1d import clamped_beam_roots
from speclab.spectra import ProblemKind


def live_factorizations(monkeypatch) -> tuple[list, list[int]]:
    """The LUs alive now, and the number alive as each one was made.

    SuperLU objects cannot be weakly referenced, so each one rides in a
    delegating wrapper that counts the live ones as they come and go.
    Making an LU while another is alive fails, in a forked worker too,
    whose bin is then run again in this process and fails here.
    """
    live, made = [], []
    original = spla.splu

    class Counted:
        def __init__(self, lu):
            assert not live, f"a second LU alive in process {os.getpid()}"
            self._lu = lu
            live.append(1)
            made.append(len(live))

        def __getattr__(self, name):
            return getattr(self._lu, name)

        def __del__(self):
            live.pop()

    monkeypatch.setattr(spla, "splu", lambda *args, **kwargs: Counted(original(*args, **kwargs)))
    return live, made


@pytest.fixture
def workers(request, monkeypatch):
    """``fd_spectra`` on ``request.param`` workers, one unless parametrized.

    A patch here does not see the calls made in a forked worker, so a
    test that observes the solver's calls runs the classes it observes
    in this process.
    """
    count = getattr(request, "param", 1)
    monkeypatch.setattr(pool, "cpus", lambda: count)
    return count


def test_every_public_fdlab_name_is_the_one_its_submodule_defines():
    for name in fdlab.__all__:
        value = getattr(fdlab, name)
        if callable(value):
            home = importlib.import_module(value.__module__)
        else:  # the two integer constants
            home = {"MIN_CAP_POINTS": cap_mod, "MIN_UNKNOWNS": grid_mod}[name]
        assert home.__name__.startswith("speclab.fdlab."), name
        assert getattr(home, name) is value, name


def dealt(sizes: list[int], workers: int) -> list[list[int]]:
    """The classes of ``sizes[c]`` unknowns in each bin: largest first, round-robin."""
    largest_first = sorted(range(len(sizes)), key=sizes.__getitem__, reverse=True)
    return [largest_first[b::workers] for b in range(workers)]


class TestGridDomains:
    def test_unit_square_quarter_spacing(self):
        d = rectangle_domain(1.0, 1.0, 0.25)
        assert d.n_unknowns == 9
        assert d.mask.shape == (3, 3)
        assert d.origin == (0.25, 0.25)
        coords = d.node_coordinates()
        assert coords.shape == (9, 2)
        assert coords.min() == 0.25 and coords.max() == 0.75

    def test_disk_half_spacing(self):
        d = disk_domain(1.0, 0.5)
        # lattice nodes strictly inside the unit circle
        assert d.n_unknowns == 9

    def test_lshape_counts_match_direct_enumeration(self):
        h = 1.0 / 8.0
        d = lshape_domain(1.0, 1.0, h)
        expected = sum(
            1
            for j in range(7)
            for i in range(7)
            if not ((i + 1) * h >= 0.5 - 1e-9 and (j + 1) * h >= 0.5 - 1e-9)
        )
        assert expected == 33
        assert d.n_unknowns == expected

    def test_lshape_too_coarse_raises(self):
        with pytest.raises(DegenerateDomainError):
            lshape_domain(1.0, 1.0, 0.25)

    def test_too_few_unknowns_rejected(self):
        with pytest.raises(DegenerateDomainError):
            GridDomain(h=0.1, mask=np.ones((2, 2), dtype=bool), origin=(0.0, 0.0))

    def test_mask_file_reads_the_lshape(self, tmp_path):
        d = lshape_domain(1.0, 1.0, 1.0 / 8.0)
        path = tmp_path / "dom.mask"
        path.write_text("h 0.125\n" + "#######\n" * 3 + "###....\n" * 4)
        back = read_mask_file(path)
        assert back.h == d.h
        assert np.array_equal(back.mask, d.mask)
        assert back.descriptor == "mask(dom.mask)"

    def test_mask_file_roundtrip(self, tmp_path):
        # a mask written row by row as '#' and '.' reads back unchanged
        domains = [
            rectangle_domain(1.0, 0.6, 1.0 / 20.0),
            lshape_domain(1.0, 0.8, 1.0 / 20.0),
            disk_domain(1.0, 0.1),
        ]
        for d in domains:
            path = tmp_path / "dom.mask"
            rows = ["".join("#" if cell else "." for cell in row) for row in d.mask]
            path.write_text(f"h {d.h!r}\n" + "\n".join(rows) + "\n")
            back = read_mask_file(path)
            assert back.h == d.h
            assert np.array_equal(back.mask, d.mask)

    def test_mask_file_bad_characters(self, tmp_path):
        path = tmp_path / "bad.mask"
        path.write_text("h 0.1\n###\n#x#\n###\n")
        with pytest.raises(ValueError, match="invalid character"):
            read_mask_file(path)

    # a blank line between rows was dropped, joining the rows around it
    @pytest.mark.parametrize(
        "text, line",
        [
            ("h 0.1\n#####\n#####\n\n#####\n#####\n", 4),
            ("h 0.1\n\n##x##\n#####\n", 2),
            ("h 0.1\n#####\n   \n#####\n#####\n", 3),
        ],
        ids=["between-rows", "after-header", "spaces-only"],
    )
    def test_mask_file_refuses_a_blank_line_before_the_last_row(self, tmp_path, text, line):
        path = tmp_path / "gap.mask"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^line {line} is blank, before the last row$"):
            read_mask_file(path)

    def test_mask_file_rows_are_named_by_their_file_line(self, tmp_path):
        path = tmp_path / "bad.mask"
        path.write_text("h 0.1\n#####\n#####\n##x##\n\n \n")
        with pytest.raises(ValueError, match="^row 4 has invalid character 'x'$"):
            read_mask_file(path)

    def test_mask_file_pads_short_rows_with_wall_and_allows_trailing_blanks(self, tmp_path):
        path = tmp_path / "ragged.mask"
        path.write_text("h 0.25\n####\n##\n####\n\n\n")
        expected = np.array([[c == "#" for c in row] for row in ("####", "##..", "####")])
        assert np.array_equal(read_mask_file(path).mask, expected)

    def test_mask_file_requires_header(self, tmp_path):
        path = tmp_path / "bad.mask"
        path.write_text("###\n###\n###\n")
        with pytest.raises(ValueError, match="first line"):
            read_mask_file(path)

    # a header merely starting with "h" was read as h = 0.125 before
    @pytest.mark.parametrize("header", ["height 0.125", "hx 0.125", "0.125 h", "h"])
    def test_mask_file_header_token_is_h(self, tmp_path, header):
        path = tmp_path / "bad.mask"
        path.write_text(header + "\n" + "####\n" * 4)
        with pytest.raises(ValueError, match=r"first line must be 'h <spacing>'"):
            read_mask_file(path)

    def test_mask_file_header_any_case(self, tmp_path):
        path = tmp_path / "upper.mask"
        path.write_text("H 0.125\n" + "####\n" * 4)
        assert read_mask_file(path).h == 0.125

    def test_interval_domain_needs_nine_nodes(self):
        with pytest.raises(DegenerateDomainError):
            interval_domain(1.0, 0.2)

    # each builder's good arguments and the name each one is refused under
    BUILDERS = {
        "rectangle": (rectangle_domain, (1.0, 1.0, 0.125), ("side a", "side b", "spacing h")),
        "lshape": (lshape_domain, (1.0, 1.0, 0.125), ("side a", "side b", "spacing h")),
        "interval": (interval_domain, (1.0, 0.0625), ("length", "spacing h")),
        "disk": (disk_domain, (1.0, 0.25), ("radius", "spacing h")),
        "grid": (
            lambda h: GridDomain(h=h, mask=np.ones((3, 3), dtype=bool), origin=(0.0, 0.0)),
            (0.1,),
            ("grid spacing",),
        ),
    }
    BAD_LENGTHS = [
        (None, "None"), ("x", "'x'"), (math.nan, "nan"), (math.inf, "inf"), (0, "0.0"), (-1, "-1.0")
    ]

    @pytest.mark.parametrize("builder", BUILDERS)
    @pytest.mark.parametrize("bad, shown", BAD_LENGTHS, ids=[shown for _, shown in BAD_LENGTHS])
    def test_a_bad_side_radius_or_width_is_refused_by_name(self, builder, bad, shown):
        build, good, names = self.BUILDERS[builder]
        for position, name in enumerate(names):
            args = list(good)
            args[position] = bad
            message = f"{name} must be positive, got {shown}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build(*args)

    @pytest.mark.parametrize(
        "notch, error, message",
        [
            (math.nan, ValueError, "notch fraction must lie in (0, 1), got nan"),
            (math.inf, ValueError, "notch fraction must lie in (0, 1), got inf"),
            (0, ValueError, "notch fraction must lie in (0, 1), got 0.0"),
            (-1, ValueError, "notch fraction must lie in (0, 1), got -1.0"),
            (1, ValueError, "notch fraction must lie in (0, 1), got 1.0"),
            ("x", ValueError, "could not convert string to float: 'x'"),
            (None, TypeError, "float() argument must be a string or a real number, not 'NoneType'"),
        ],
        ids=["nan", "inf", "0", "-1", "1", "x", "None"],
    )
    def test_a_bad_notch_is_refused(self, notch, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            lshape_domain(1.0, 1.0, 0.125, notch=notch)
        # a bad side is named before a bad notch
        with pytest.raises(ValueError, match="^side a must be positive, got -1.0$"):
            lshape_domain(-1.0, 1.0, 0.125, notch=notch)

    def test_strings_that_convert_build_the_same_grid(self):
        for built, expected in (
            (lshape_domain("1", "1", "0.125", notch="0.5"), lshape_domain(1.0, 1.0, 0.125)),
            (rectangle_domain("1", "0.5", "0.125"), rectangle_domain(1.0, 0.5, 0.125)),
        ):
            assert (built.h, built.origin, built.descriptor) == (
                expected.h, expected.origin, expected.descriptor
            )
            assert type(built.h) is float
            assert np.array_equal(built.mask, expected.mask)


class TestOperators:
    @staticmethod
    def asymmetry(matrix) -> float:
        gap = matrix - matrix.T
        return 0.0 if gap.nnz == 0 else float(abs(gap).max())

    def test_laplacian_exactly_symmetric(self):
        d = lshape_domain(1.0, 1.0, 1.0 / 16.0)
        for kind in (ProblemKind.DIRICHLET, ProblemKind.NEUMANN):
            assert self.asymmetry(assemble_laplacian(d, kind).matrix) == 0.0

    def test_bilaplacian_exactly_symmetric(self):
        d = disk_domain(1.0, 1.0 / 12.0)
        assert self.asymmetry(assemble_bilaplacian_clamped(d).matrix) == 0.0

    def test_neumann_annihilates_constants_exactly(self):
        # flux form: row sums cancel in exact arithmetic, h a power of two
        d = lshape_domain(1.0, 1.0, 1.0 / 8.0)
        op = assemble_laplacian(d, ProblemKind.NEUMANN)
        out = op.matrix @ np.ones(d.n_unknowns)
        assert np.all(out == 0.0)

    def test_dirichlet_positive_definite(self):
        d = disk_domain(1.0, 0.25)
        dense = assemble_laplacian(d, ProblemKind.DIRICHLET).matrix.toarray()
        assert np.linalg.eigvalsh(dense).min() > 0.0

    def test_square_eigenvalues_match_discrete_sine_formula(self):
        h = 0.25
        d = rectangle_domain(1.0, 1.0, h)
        sol = solve_gevp(assemble_laplacian(d, ProblemKind.DIRICHLET), count=9)
        modes = sorted(
            (4.0 / h**2) * (math.sin(l * math.pi * h / 2.0) ** 2 + math.sin(m * math.pi * h / 2.0) ** 2)
            for l in range(1, 4)
            for m in range(1, 4)
        )
        assert np.allclose(sol.values, modes, rtol=1e-12)
        assert sol.values[0] == pytest.approx(18.745166004060962, rel=1e-13)

    def test_one_row_mask_uses_rod_stencils(self):
        row = interval_domain(1.0, 1.0 / 16.0)
        column = GridDomain(h=row.h, mask=row.mask.T, origin=(0.0, row.h))
        for d in (row, column):
            n = d.n_unknowns
            h2, h4 = d.h**2, d.h**4
            for kind, end in ((ProblemKind.NEUMANN, 1.0), (ProblemKind.DIRICHLET, 2.0)):
                lap = assemble_laplacian(d, kind).matrix
                diag = np.full(n, 2.0)
                diag[0] = diag[-1] = end
                expected = sp.diags([-np.ones(n - 1), diag, -np.ones(n - 1)], (-1, 0, 1)) / h2
                assert self.asymmetry(lap - expected.tocsr()) == 0.0
                assert (lap - expected.tocsr()).nnz == 0

            bilap = assemble_bilaplacian_clamped(d).matrix
            diag4 = np.full(n, 6.0)
            diag4[0] = diag4[-1] = 7.0
            expected4 = sp.diags(
                [np.ones(n - 2), -4 * np.ones(n - 1), diag4, -4 * np.ones(n - 1), np.ones(n - 2)],
                (-2, -1, 0, 1, 2),
            ) / h4
            assert (bilap - expected4.tocsr()).nnz == 0

    def test_clamped_couplings_across_wall_and_reentrant_corner(self):
        # a hole at (1, 1) and a notch at (0, 3):
        #   ###.
        #   #.##
        #   ####
        mask = np.array([[1, 1, 1, 0], [1, 0, 1, 1], [1, 1, 1, 1]], dtype=bool)
        h = 0.5
        d = GridDomain(h=h, mask=mask, origin=(0.0, 0.0))
        index = -np.ones(mask.shape, dtype=int)
        index[mask] = np.arange(d.n_unknowns)
        bilap = assemble_bilaplacian_clamped(d).matrix.toarray() * h**4
        lap2 = np.linalg.matrix_power(
            assemble_laplacian(d, ProblemKind.DIRICHLET).matrix.toarray(), 2
        )
        lap2 *= h**4

        # two steps across the single wall node: +1, where L_D^2 has 0
        for a, b in (((1, 0), (1, 2)), ((0, 1), (2, 1))):
            assert bilap[index[a], index[b]] == bilap[index[b], index[a]] == 1.0
            assert lap2[index[a], index[b]] == 0.0
        # diagonal past the re-entrant corner: +2, where L_D^2 has 1
        a, b = index[0, 2], index[1, 3]
        assert bilap[a, b] == bilap[b, a] == 2.0
        assert lap2[a, b] == 1.0
        # near node wall, far node present: no mirror ghost on the centre;
        # the left wall with its outer ghost folds one unit back
        assert bilap[index[1, 0], index[1, 0]] == 21.0
        assert bilap[index[1, 0], index[0, 0]] == -8.0

    def test_clamped_corner_mirror_weight(self):
        h = 0.25
        d = rectangle_domain(1.0, 1.0, h)
        matrix = assemble_bilaplacian_clamped(d).matrix
        # corner node: two wall directions each mirror one unit back
        assert matrix[0, 0] == (20.0 + 2.0) / h**4

    def test_asymmetric_matrix_rejected(self):
        bad = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="symmetric"):
            SparseSymOperator(bad)

    def test_asymmetry_is_judged_against_the_largest_entry(self):
        # every entry is far below 1, so a floor of 1 under the scale hid the gap
        bad = sp.csc_matrix(np.array([[1e-18, 2e-18], [5e-18, 1e-18]]))
        with pytest.raises(ValueError, match="symmetric"):
            SparseSymOperator(bad)

    def test_laplacian_kind_validation(self):
        d = rectangle_domain(1.0, 1.0, 0.25)
        with pytest.raises(ValueError, match="membrane"):
            assemble_laplacian(d, ProblemKind.CLAMPED)


def clamped_factor(mask: np.ndarray) -> sp.csr_matrix:
    """G, in integer stencil units, node by node: the clamped bilaplacian is GᵀG/h⁴.

    Its rows are the Dirichlet Laplacian (d on the diagonal, -1 to each
    present neighbour); one row per wall node beside the mask, with a 1
    on each of its mask neighbours; and one row e_i per step from node i
    onto a wall node with wall behind it, the mirror ghost.  Steps run
    along the axes the mask spans, as the assembler's do.
    """
    axes = [unit for unit, size in zip([(1, 0), (0, 1)], mask.shape) if size > 1]
    steps = [(sign * dy, sign * dx) for dy, dx in axes for sign in (1, -1)]
    index = {(int(y), int(x)): i for i, (y, x) in enumerate(np.argwhere(mask))}

    def at(node, step, times=1):
        return node[0] + times * step[0], node[1] + times * step[1]

    rows = []
    for node, i in index.items():
        row = {index[at(node, s)]: -1 for s in steps if at(node, s) in index}
        rows.append({i: len(steps), **row})
    walls = dict.fromkeys(at(node, s) for node in index for s in steps if at(node, s) not in index)
    rows += [{index[at(wall, s)]: 1 for s in steps if at(wall, s) in index} for wall in walls]
    for node, i in index.items():
        rows += [{i: 1} for s in steps if at(node, s) not in index and at(node, s, 2) not in index]
    coords = [(r, c, v) for r, row in enumerate(rows) for c, v in row.items()]
    r, c, v = map(np.array, zip(*coords))
    return sp.csr_matrix((v.astype(float), (r, c)), shape=(len(rows), len(index)))


def random_mask(seed: int) -> np.ndarray:
    """A seeded mask with holes and one-node walls between its regions."""
    rng = np.random.default_rng(seed)
    mask = rng.random((rng.integers(6, 14), rng.integers(6, 14))) < 0.75
    mask[:, rng.integers(mask.shape[1])] = False
    return mask


class TestClampedFactor:
    """The clamped bilaplacian is GᵀG/h⁴ bit for bit, G built in the test only."""

    @pytest.mark.parametrize(
        "domain",
        [
            rectangle_domain(1.0, 1.0, 0.25),
            rectangle_domain(1.0, 0.75, 1.0 / 16.0),
            rectangle_domain(0.3, 2.0, 0.1),
            lshape_domain(1.0, 1.0, 1.0 / 160.0, notch=39.0 / 80.0),
            lshape_domain(1.0, 0.8, 1.0 / 20.0),
            disk_domain(1.0, 0.25),
            disk_domain(1.0, 1.0 / 12.0),
            interval_domain(1.0, 1.0 / 16.0),
            GridDomain(h=0.125, mask=np.ones((12, 1), dtype=bool), origin=(0.0, 0.0)),
            *[GridDomain(h=0.5, mask=random_mask(seed), origin=(0.0, 0.0)) for seed in range(12)],
        ],
        ids=lambda d: d.descriptor if d.descriptor != "mask" else None,
    )
    def test_bilaplacian_is_the_factor_squared(self, domain):
        factor = clamped_factor(domain.mask)
        ours = (factor.T @ factor).tocsr() / domain.h**4
        theirs = assemble_bilaplacian_clamped(domain).matrix.tocsr()
        for matrix in (ours, theirs):
            matrix.sort_indices()
        assert np.array_equal(ours.indptr, theirs.indptr)
        assert np.array_equal(ours.indices, theirs.indices)
        assert ours.data.tobytes() == theirs.data.tobytes()

    def test_random_masks_have_holes_and_one_node_walls(self):
        # a wall node with mask on all four sides, and one with mask on both sides of one axis
        holes = walls = 0
        for seed in range(12):
            padded = np.pad(random_mask(seed), 1)
            inside = padded[1:-1, 1:-1]
            up, down = padded[:-2, 1:-1], padded[2:, 1:-1]
            left, right = padded[1:-1, :-2], padded[1:-1, 2:]
            holes += np.count_nonzero(~inside & up & down & left & right)
            walls += np.count_nonzero(~inside & ((up & down) | (left & right)))
        assert holes and walls > holes


class TestSolver:
    def test_diagonal_matrix(self):
        op = SparseSymOperator(sp.diags([3.0, 1.0, 2.0, 5.0, 4.0, 6.0, 7.0, 8.0, 9.0]).tocsr())
        sol = solve_gevp(op, count=3)
        assert np.allclose(sol.values, [1.0, 2.0, 3.0], atol=1e-12)
        assert sol.method == "shift-invert"
        assert np.all(sol.residuals <= solver_mod.DEFAULT_TOL)

    def test_argument_validation(self):
        op = SparseSymOperator(sp.identity(9, format="csr"))
        with pytest.raises(ValueError):
            solve_gevp(op, count=0)
        with pytest.raises(ValueError):
            solve_gevp(op, count=10)
        other = SparseSymOperator(sp.identity(4, format="csr"))
        with pytest.raises(ValueError, match="shapes"):
            solve_gevp(op, m=other, count=2)

    def test_dense_and_iterative_paths_agree(self):
        # the square has double eigenvalues; operators and shifts are fd_spectrum's
        for domain in (rectangle_domain(1.0, 1.0, 1.0 / 8.0), disk_domain(1.0, 0.2)):
            n = domain.n_unknowns
            lap = assemble_laplacian(domain, ProblemKind.DIRICHLET)
            bilap = assemble_bilaplacian_clamped(domain)
            problems = [
                (
                    assemble_laplacian(domain, ProblemKind.NEUMANN),
                    None,
                    spectrum_mod._neumann_shift(domain),
                ),
                (lap, None, 0.0),
                (bilap, None, 0.0),
                (bilap, lap, 0.0),
            ]
            for a, m, sigma in problems:
                dense = scipy.linalg.eigh(
                    a.matrix.toarray(), None if m is None else m.matrix.toarray(), eigvals_only=True
                )
                # the square's double eigenvalues: count 5 ends on one copy of a pair
                for count in (1, 5, n - 1, n):
                    sol = solve_gevp(a, m=m, count=count, sigma=sigma)
                    assert np.allclose(sol.values, dense[:count], rtol=1e-10)
                    if count == n:
                        assert sol.method == "dense"
                    else:
                        assert sol.method == "shift-invert"
                        assert np.all(sol.residuals <= solver_mod.DEFAULT_TOL)

    def test_symmetric_domain_keeps_the_mode_its_start_vector_misses(self):
        # the L-shape and the constant start vector are both symmetric about
        # the diagonal, so the antisymmetric second mode enters the Krylov
        # space only through roundoff; the spare pairs keep it from being skipped
        d = lshape_domain(1.0, 1.0, 1.0 / 32.0, notch=0.75)
        op = assemble_laplacian(d, ProblemKind.DIRICHLET)
        dense = scipy.linalg.eigh(op.matrix.toarray(), eigvals_only=True, subset_by_index=(0, 1))
        assert np.allclose(solve_gevp(op, count=2).values, dense, rtol=1e-10)

    def test_stiff_rod_pencil_meets_the_residual_rule(self):
        # judged in ARPACK's M-norm alone, these buckling pairs leave
        # residuals near 1e-6, far above what the residual rule accepts
        d = interval_domain(1.0, 1.0 / 400.0)
        bilap = assemble_bilaplacian_clamped(d)
        lap = assemble_laplacian(d, ProblemKind.DIRICHLET)
        sol = solve_gevp(bilap, m=lap, count=15)
        dense = scipy.linalg.eigh(bilap.matrix.toarray(), lap.matrix.toarray(), eigvals_only=True)
        assert np.allclose(sol.values, dense[:15], rtol=1e-8)

    def test_iterative_path_is_deterministic(self):
        d = disk_domain(1.0, 1.0 / 10.0)
        op = assemble_laplacian(d, ProblemKind.DIRICHLET)
        first = solve_gevp(op, count=4)
        second = solve_gevp(op, count=4)
        assert np.array_equal(first.values, second.values)

    def test_generalized_problem(self):
        d = rectangle_domain(1.0, 1.0, 1.0 / 10.0)
        bilap = assemble_bilaplacian_clamped(d)
        lap = assemble_laplacian(d, ProblemKind.DIRICHLET)
        sol = solve_gevp(bilap, m=lap, count=3)
        assert np.all(np.diff(sol.values) >= 0)
        assert sol.values[0] > 0

    @pytest.mark.parametrize(
        "converged, message", [([2.0, 1.0], "2 of 3"), ([4.0, 2.0, 1.0, 3.0], "3 of 3")]
    )
    def test_stalled_lanczos_raises_with_its_converged_pairs(
        self, monkeypatch, converged, message
    ):
        # counts are against the pairs asked for, not the spare ones
        def stalled(*args, **kwargs):
            values = np.array(converged)
            raise spla.ArpackNoConvergence("stalled", values, np.zeros((9, len(values))))

        monkeypatch.setattr(spla, "eigsh", stalled)
        # a norm in [1/2, 1) needs no scaling, so ARPACK's units are the caller's
        op = SparseSymOperator(sp.diags(np.arange(1.0, 10.0) / 16.0).tocsr())
        with pytest.raises(ConvergenceError, match=rf"\({message} pairs\)"):
            solve_gevp(op, count=3)

    @pytest.mark.parametrize("k, j", [(10, 0), (-7, 3), (40, -40), (0, 5)])
    def test_power_of_two_scaling_is_exact(self, k, j):
        # ARPACK is handed the same scaled pencil whatever the caller's
        # units, so the values move by exactly 2^(k - j)
        d = lshape_domain(1.0, 1.0, 1.0 / 24.0)
        bilap = assemble_bilaplacian_clamped(d)
        lap = assemble_laplacian(d, ProblemKind.DIRICHLET)
        neumann = assemble_laplacian(d, ProblemKind.NEUMANN)
        scaled = lambda op, p: SparseSymOperator(op.matrix * 2.0**p)  # noqa: E731
        for (a, m, sigma), (a2, m2, sigma2) in (
            ((bilap, lap, 0.0), (scaled(bilap, k), scaled(lap, j), 0.0)),
            ((neumann, None, -3.0), (scaled(neumann, k - j), None, -3.0 * 2.0 ** (k - j))),
        ):
            base = solve_gevp(a, m, count=8, sigma=sigma)
            moved = solve_gevp(a2, m2, count=8, sigma=sigma2)
            assert np.array_equal(moved.values, base.values * 2.0 ** (k - j))
            assert moved.solves == base.solves > 0

    @pytest.mark.parametrize("side", [1.0, 1000.0])
    def test_residuals_match_the_per_pair_loop(self, side):
        # the Neumann null mode takes the backward-scale denominator; at
        # side 1000 the operator norm is far below 1, so a floor shows
        d = rectangle_domain(side, side, side / 8.0)
        lap = assemble_laplacian(d, ProblemKind.DIRICHLET)
        bilap = assemble_bilaplacian_clamped(d)
        neumann = assemble_laplacian(d, ProblemKind.NEUMANN)
        for a, m in ((neumann, None), (lap, None), (bilap, lap)):
            values, vectors = scipy.linalg.eigh(
                a.matrix.toarray(), None if m is None else m.matrix.toarray()
            )
            values, vectors = values[:6], vectors[:, :6]
            a_csc = a.matrix.tocsc()
            m_csc = None if m is None else m.matrix.tocsc()
            relative, backward = solver_mod._residuals(a_csc, m_csc, values, vectors)
            anorm = float(np.max(np.abs(a_csc).sum(axis=1)))
            for idx, theta in enumerate(values):
                u = vectors[:, idx]
                au = a_csc @ u
                mu = u if m is None else m_csc @ u
                num = np.linalg.norm(au - theta * mu)
                assert backward[idx] == pytest.approx(
                    num / (anorm * np.linalg.norm(u)), rel=1e-12, abs=1e-300
                )
                if abs(theta) <= 1e-12 * anorm:
                    den = anorm * np.linalg.norm(u)
                else:
                    den = np.linalg.norm(au) + abs(theta) * np.linalg.norm(mu)
                assert relative[idx] == pytest.approx(num / den, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("theta", [2e-18, 1e-21])
    def test_residual_rule_rejects_a_random_pair_on_a_small_norm_operator(self, theta):
        # the clamped operator of a 1e6 square has norm 4.2e-18; judged
        # against a norm floored at 1, any vector passed as converged
        a = assemble_bilaplacian_clamped(rectangle_domain(1e6, 1e6, 6.25e4)).matrix
        u = np.random.default_rng(0).standard_normal((a.shape[0], 1))
        relative, backward = solver_mod._residuals(a, None, np.array([theta]), u)
        assert not solver_mod._accepted(relative, backward).any()

    def test_minimum_degree_ordering_cuts_the_bilaplacian_fill(self):
        d = lshape_domain(1.0, 1.0, 1.0 / 80.0)
        bilap = assemble_bilaplacian_clamped(d)
        sol = solve_gevp(bilap, count=6)
        colamd = spla.splu(bilap.matrix.tocsc(), permc_spec="COLAMD")
        assert sol.fill == sol.lu.L.nnz + sol.lu.U.nnz
        assert sol.fill <= 0.75 * (colamd.L.nnz + colamd.U.nnz)
        # at least one solve per Lanczos vector of the 6 + spare pairs
        assert sol.solves >= 6 + solver_mod._GUARD

    def test_given_factorization_is_reused_as_is(self, monkeypatch):
        d = rectangle_domain(1.0, 1.0, 1.0 / 12.0)
        bilap = assemble_bilaplacian_clamped(d)
        lap = assemble_laplacian(d, ProblemKind.DIRICHLET)
        first = solve_gevp(bilap, m=lap, count=4)
        monkeypatch.setattr(spla, "splu", lambda *args, **kwargs: pytest.fail("refactored"))
        again = solve_gevp(bilap, m=lap, count=4, lu=first.lu)
        assert again.lu is first.lu
        assert np.array_equal(again.values, first.values)
        assert again.solves == first.solves > 0

    def test_dense_path_factors_nothing(self):
        op = SparseSymOperator(sp.diags(np.arange(1.0, 10.0)).tocsr())
        sol = solve_gevp(op, count=9)
        assert sol.method == "dense"
        assert sol.lu is None and sol.fill == 0 and sol.solves == 0


class TestFdSpectrum:
    def test_square_membrane_values(self, tmp_path):
        d = rectangle_domain(1.0, 1.0, 1.0 / 32.0)
        dirichlet = fd_spectrum(d, ProblemKind.DIRICHLET, 3)
        assert dirichlet.values[0] == pytest.approx(2.0 * math.pi**2, rel=2e-3)
        assert dirichlet.values[1] == pytest.approx(5.0 * math.pi**2, rel=5e-3)
        assert dirichlet.source == "fd(h=0.03125)"
        neumann = fd_spectrum(d, ProblemKind.NEUMANN, 3)
        # the null value is exactly zero on every domain type, and the
        # other values are the shifted class solves' own, merged, bit for bit
        ring = tmp_path / "ring.mask"
        ring.write_text("h 0.125\n.######.\n########\n###..###\n###..###\n########\n.######.\n")
        # each domain with its count of twin classes, solved once and
        # counted twice: the square's and the disk's
        for domain, twins in (
            (d, 1),
            (lshape_domain(1.0, 1.0, 1.0 / 16.0), 0),
            (disk_domain(1.0, 1.0 / 8.0), 1),
            (interval_domain(1.0, 1.0 / 32.0), 0),
            (read_mask_file(ring), 0),
        ):
            values = fd_spectrum(domain, ProblemKind.NEUMANN, 3).values
            whole = assemble_laplacian(domain, ProblemKind.NEUMANN)
            classes = symmetry_classes(domain.mask)
            copies = [cls.copies for cls in classes]
            assert copies.count(2) == twins and set(copies) <= {1, 2}
            asked = min(3, math.ceil(3 / sum(copies)) + 2)
            solves = [
                solve_gevp(
                    SparseSymOperator(project(whole.matrix, basis)),
                    count=min(basis.shape[1], asked),
                    sigma=spectrum_mod._neumann_shift(domain),
                ).values
                for basis, _ in classes
            ]
            solved = np.sort(np.concatenate(
                [np.repeat(v, times) for v, times in zip(solves, copies)]
            ))[:3]
            # no class is asked again: each holds 3 or tops the merged third
            assert all(len(v) == 3 or v[-1] > solved[-1] for v in solves)
            assert values[0] == 0.0
            assert np.array_equal(values[1:], solved[1:])
        # flux-form rod modes cos(k pi (i + 1/2) / n) give the exact
        # discrete value; the 1/h - 1 node mask puts the rim half a cell
        # in, hence the first-order gap to pi^2
        n = 31
        mu2 = (4.0 / d.h**2) * math.sin(math.pi / (2 * n)) ** 2
        assert neumann.values[1] == pytest.approx(mu2, rel=1e-10)
        assert neumann.values[1] == pytest.approx(math.pi**2, rel=7e-2)

    def test_neumann_null_mode_snap_scales_with_the_domain(self):
        # a 1e6 square at h = L/16 is the unit square's grid scaled by 1e6,
        # so its values are the unit ones times 1e-12, not snapped to zero
        unit = fd_spectrum(rectangle_domain(1.0, 1.0, 1.0 / 16.0), ProblemKind.NEUMANN, 6)
        big = fd_spectrum(rectangle_domain(1e6, 1e6, 6.25e4), ProblemKind.NEUMANN, 6)
        assert unit.values[0] == big.values[0] == 0.0
        assert np.all(big.values[1:] > 0.0)
        assert np.allclose(big.values * 1e12, unit.values, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("side", [1e-6, 1e-3, 1e3, 1e6])
    def test_tiny_and_huge_domains_match_the_unit_square(self, side):
        # the grid at h = L/16 is the unit one scaled by L, so every kind's
        # values are the unit ones times L^-2; ARPACK's absolute stopping
        # floor once failed the clamped solve at side 1e-6
        for kind in ProblemKind:
            unit = fd_spectrum(rectangle_domain(1.0, 1.0, 1.0 / 16.0), kind, 6).values
            moved = fd_spectrum(rectangle_domain(side, side, side / 16.0), kind, 6).values
            assert np.allclose(moved * side**2, unit, rtol=1e-12, atol=0.0)

    @pytest.mark.usefixtures("workers")
    def test_neumann_needs_no_more_solves_than_dirichlet(self, monkeypatch):
        # summed over the L-shape's two classes, with the shift -(pi/D)^2
        # the Neumann spectrum takes 99 solves against Dirichlet's 101 on
        # this grid; a grid-scaled shift of -0.04/h^2 took 172
        calls = []
        original = spectrum_mod.solve_gevp

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append((kwargs["sigma"], result.solves))
            return result

        monkeypatch.setattr(spectrum_mod, "solve_gevp", counted)
        fd_spectra(
            lshape_domain(1.0, 1.0, 1.0 / 160.0), [ProblemKind.NEUMANN, ProblemKind.DIRICHLET], 15
        )
        neumann = sum(solves for sigma, solves in calls if sigma < 0.0)
        dirichlet = sum(solves for sigma, solves in calls if sigma == 0.0)
        assert len(calls) == 4
        assert neumann <= dirichlet, f"Neumann {neumann} solves, Dirichlet {dirichlet}"

    def test_trusted_count_caps_at_quarter_of_unknowns(self):
        d = rectangle_domain(1.0, 1.0, 1.0 / 6.0)  # 25 unknowns
        s = fd_spectrum(d, ProblemKind.DIRICHLET, 10)
        assert s.trusted_count == 6
        small = fd_spectrum(d, ProblemKind.DIRICHLET, 3)
        assert small.trusted_count == 3

    def test_count_beyond_unknowns_raises(self):
        d = rectangle_domain(1.0, 1.0, 0.25)
        with pytest.raises(ValueError, match="unknowns"):
            fd_spectrum(d, ProblemKind.DIRICHLET, 10)

    def test_disconnected_mask_rejected(self):
        # the grid builds, with numpy alone; the solve refuses it, since its
        # Neumann null space would hold one constant per component
        mask = np.zeros((3, 7), dtype=bool)
        mask[:, :3] = True
        mask[:, 4:] = True
        d = GridDomain(h=0.1, mask=mask, origin=(0.0, 0.0))
        assert d.n_unknowns == 18
        with pytest.raises(ValueError, match="connected"):
            fd_spectra(d, [ProblemKind.NEUMANN], 2)
        with pytest.raises(ValueError, match="connected"):
            fd_spectrum(d, ProblemKind.DIRICHLET, 2)

    @pytest.mark.parametrize("count", [2.5, 0])
    def test_count_must_be_a_positive_integer(self, count):
        # a fractional count once reached ARPACK, which died with a SystemError
        d = rectangle_domain(1.0, 1.0, 0.25)
        calls = (
            lambda: solve_gevp(assemble_laplacian(d, ProblemKind.DIRICHLET), count=count),
            lambda: fd_spectra(d, [ProblemKind.DIRICHLET], count),
            lambda: cap_spectrum(CapDomain(1.0), ProblemKind.DIRICHLET, count),
        )
        for call in calls:
            with pytest.raises(ValueError, match="count"):
                call()

    def test_chain_ordering_on_square_grid(self):
        d = rectangle_domain(1.0, 1.0, 1.0 / 24.0)
        spectra = {k: fd_spectrum(d, k, 4).values for k in ProblemKind}
        for k in range(4):
            assert spectra[ProblemKind.NEUMANN][k] < spectra[ProblemKind.DIRICHLET][k]
            assert spectra[ProblemKind.DIRICHLET][k] < spectra[ProblemKind.CLAMPED][k]
            assert spectra[ProblemKind.CLAMPED][k] < spectra[ProblemKind.BUCKLING][k]

    def test_dirichlet_second_order_convergence(self):
        exact = 2.0 * math.pi**2
        errors = []
        for h in (1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0):
            d = rectangle_domain(1.0, 1.0, h)
            errors.append(abs(fd_spectrum(d, ProblemKind.DIRICHLET, 1).values[0] - exact))
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert min(orders) >= 1.8

    def test_clamped_beam_second_order_convergence(self):
        exact = clamped_beam_roots(1)[0] ** 2
        errors = []
        for h in (1.0 / 50.0, 1.0 / 100.0, 1.0 / 200.0):
            d = interval_domain(1.0, h)
            errors.append(abs(fd_spectrum(d, ProblemKind.CLAMPED, 1).values[0] - exact))
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert min(orders) >= 1.8

    def test_square_fourth_order_values_match_published(self):
        # Bjorstad & Tjostheim, Computing 63 (1999): unit-square clamped plate
        # Gamma_1^2 and buckling Lambda_1; the 13-point values rise to them
        # as O(h^2), so one Richardson step at h = 1/40, 1/80 lands close
        for kind, published, rtol in (
            (ProblemKind.CLAMPED, 1294.9339796, 3e-5),
            (ProblemKind.BUCKLING, 52.3446912, 5e-6),
        ):
            coarse, fine = (
                fd_spectrum(rectangle_domain(1.0, 1.0, h), kind, 1).values[0]
                for h in (1.0 / 40.0, 1.0 / 80.0)
            )
            if kind is ProblemKind.CLAMPED:
                coarse, fine = coarse**2, fine**2
            assert coarse < fine < published
            assert (4.0 * fine - coarse) / 3.0 == pytest.approx(published, rel=rtol)

    def test_clamped_values_nonnegative_sorted(self):
        d = disk_domain(1.0, 1.0 / 10.0)
        s = fd_spectrum(d, ProblemKind.CLAMPED, 4)
        assert np.all(s.values >= 0)
        assert np.all(np.diff(s.values) >= 0)


class TestFdSpectra:
    """All kinds on one grid from one set of operators."""

    @staticmethod
    def counting(monkeypatch, module, name):
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append(result)
            return result

        monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("kind", ["dirichlet", "clamped", "buckling"])
    @pytest.mark.usefixtures("workers")
    def test_a_nonpositive_value_is_refused(self, monkeypatch, kind):
        # the clamp sqrt(max(v, 0)) reported a negative clamped value as 0,
        # and a negative buckling or Dirichlet value went out as it was
        original, negated = spectrum_mod.solve_gevp, []

        def negating_one_ask(*args, **kwargs):
            solution = original(*args, **kwargs)
            if not negated:
                negated.append(-solution.values[0])
                values = np.r_[negated[0], solution.values[1:]]
                solution = dataclasses.replace(solution, values=values)
            return solution

        monkeypatch.setattr(spectrum_mod, "solve_gevp", negating_one_ask)
        with pytest.raises(IndefiniteSpectrumError) as raised:
            fd_spectra(rectangle_domain(1.0, 0.5, 1.0 / 16.0), [kind], 5)
        assert isinstance(raised.value, ConvergenceError)
        assert str(raised.value) == (
            f"{kind} value 1 is {negated[0]:g} on rectangle(1,0.5) at h=0.0625, "
            "where it must be positive"
        )

    @pytest.mark.usefixtures("workers")
    def test_a_negative_neumann_value_is_refused_past_a_positive_zero(self, monkeypatch):
        # with every class's values merged and the lowest taken as the zero,
        # a zero whose roundoff came out positive sorted above a negative
        # value of another class, and that value was reported as the zero
        original, negated = spectrum_mod.solve_gevp, []

        def positive_zero_and_one_negated_class(*args, **kwargs):
            solution = original(*args, **kwargs)
            values = solution.values
            if kwargs["sigma"] < 0 and abs(values[0]) < 1e-9:
                values = np.r_[1e-14, values[1:]]
            elif kwargs["sigma"] < 0 and not negated:
                negated.append(-values[0])
                values = np.r_[negated[0], values[1:]]
            return dataclasses.replace(solution, values=values)

        monkeypatch.setattr(spectrum_mod, "solve_gevp", positive_zero_and_one_negated_class)
        with pytest.raises(IndefiniteSpectrumError) as raised:
            fd_spectra(rectangle_domain(1.0, 0.7, 0.1), ["neumann"], 6)
        assert str(raised.value) == (
            f"neumann value 1 is {negated[0]:g} on rectangle(1,0.7) at h=0.1, "
            "where it must be positive"
        )

    @pytest.mark.parametrize(
        "domain, classes",
        [
            (lshape_domain(1.0, 1.0, 1.0 / 16.0), 2),
            (lshape_domain(1.0, 0.8, 1.0 / 16.0), 1),
            # four characters, of which the twin is left out: 9 LUs, not 12
            (rectangle_domain(1.0, 1.0, 1.0 / 16.0), 3),
        ],
        ids=["symmetric", "asymmetric", "square"],
    )
    @pytest.mark.usefixtures("workers")
    def test_each_operator_assembled_and_factored_once(self, monkeypatch, domain, classes):
        factored = self.counting(monkeypatch, spla, "splu")
        laplacians = self.counting(monkeypatch, spectrum_mod, "assemble_laplacian")
        bilaplacians = self.counting(monkeypatch, spectrum_mod, "assemble_bilaplacian_clamped")
        projected = self.counting(monkeypatch, spectrum_mod, "project")
        fd_spectra(domain, list(ProblemKind), 5)
        # shifted L_N, L_D and B per class: the clamped and buckling
        # solves of a class share its LU of B
        assert len(symmetry_classes(domain.mask)) == classes
        assert len(factored) == 3 * classes
        assert len(laplacians) == 2 and len(bilaplacians) == 1
        assert len(projected) == 3 * classes

    @pytest.mark.parametrize(
        "domain",
        [
            rectangle_domain(1.0, 1.0, 1.0 / 16.0),
            lshape_domain(1.0, 1.0, 1.0 / 24.0),
            disk_domain(1.0, 0.1),
            interval_domain(1.0, 1.0 / 100.0),
        ],
        ids=["square", "lshape", "disk", "rod"],
    )
    def test_values_bit_identical_to_per_kind_solves(self, domain):
        for kinds in (list(ProblemKind), list(reversed(ProblemKind))):
            together = fd_spectra(domain, kinds, 8)
            assert list(together) == kinds
            for kind in kinds:
                alone = fd_spectrum(domain, kind, 8)
                assert np.array_equal(together[kind].values, alone.values)
                for field in ("kind", "domain", "source", "trusted_count"):
                    assert getattr(together[kind], field) == getattr(alone, field)

    @pytest.mark.usefixtures("workers")
    def test_a_twin_class_is_solved_once_and_counted_twice(self, monkeypatch):
        # the left-out twin of the unit square, solved on its own, has its
        # partner's values; the merged spectrum holds those twice, bit for bit
        domain = rectangle_domain(1.0, 1.0, 1.0 / 16.0)
        solutions = self.counting(monkeypatch, spectrum_mod, "solve_gevp")
        values = fd_spectra(domain, [ProblemKind.DIRICHLET], 12)[ProblemKind.DIRICHLET].values
        classes = symmetry_classes(domain.mask)
        assert len(solutions) == len(classes) == 3
        copies = [cls.copies for cls in classes]
        merged = np.concatenate(
            [np.repeat(sol.values, times) for sol, times in zip(solutions, copies)]
        )
        assert np.array_equal(values, np.sort(merged)[:12])
        kept = classes[copies.index(2)].basis
        twin, _ = TestSymmetryClasses.left_out_twin(domain.mask, kept)
        lap = assemble_laplacian(domain, ProblemKind.DIRICHLET).matrix
        partner = solutions[copies.index(2)].values
        own = solve_gevp(SparseSymOperator(project(lap, twin)), count=len(partner)).values
        assert np.allclose(own, partner, rtol=1e-12, atol=0.0)

    @pytest.mark.usefixtures("workers")
    def test_every_returned_pair_meets_the_residual_rule(self, monkeypatch):
        # each class pair, lifted by its basis, is judged on the whole operator
        domain = lshape_domain(1.0, 1.0, 1.0 / 32.0)
        bases = [cls.basis for cls in symmetry_classes(domain.mask)]
        calls = []
        original = spectrum_mod.solve_gevp

        def recorded(a, m=None, **kwargs):
            solution = original(a, m, **kwargs)
            calls.append((a, m, solution))
            return solution

        monkeypatch.setattr(spectrum_mod, "solve_gevp", recorded)
        spectra = fd_spectra(domain, list(ProblemKind), 10)
        lap = assemble_laplacian(domain, ProblemKind.DIRICHLET).matrix
        bilap = assemble_bilaplacian_clamped(domain).matrix
        wholes = {
            ProblemKind.NEUMANN: (assemble_laplacian(domain, ProblemKind.NEUMANN).matrix, None),
            ProblemKind.DIRICHLET: (lap, None),
            ProblemKind.CLAMPED: (bilap, None),
            ProblemKind.BUCKLING: (bilap, lap),
        }

        def same(op, whole, basis):
            if op is None or whole is None:
                return op is None and whole is None
            projected = project(whole, basis)
            return op.shape == projected.shape and (op.matrix != projected).nnz == 0

        # each call is named by the (kind, class) whose operators it solved
        solutions = {}
        for a, m, sol in calls:
            (label,) = [
                (kind, c)
                for kind, (whole_a, whole_m) in wholes.items()
                for c, basis in enumerate(bases)
                if same(a, whole_a, basis) and same(m, whole_m, basis)
            ]
            assert label not in solutions
            solutions[label] = sol
        assert len(bases) == 2 and len(solutions) == 4 * len(bases)
        for (kind, c), sol in solutions.items():
            a, m = wholes[kind]
            # each class is asked for ceil(10 / 2) + 2 values
            assert len(sol.values) == 7 and sol.vectors.shape == (bases[c].shape[1], 7)
            assert np.all(sol.residuals <= solver_mod.DEFAULT_TOL)
            relative, _ = solver_mod._residuals(a, m, sol.values, bases[c] @ sol.vectors)
            assert np.all(relative <= solver_mod.DEFAULT_TOL)
        clamped = [solutions[ProblemKind.CLAMPED, c] for c in range(len(bases))]
        buckling = [solutions[ProblemKind.BUCKLING, c] for c in range(len(bases))]
        for c in range(len(bases)):
            assert buckling[c].lu is clamped[c].lu
        merged = np.sort(np.concatenate([sol.values for sol in clamped]))[:10]
        assert np.array_equal(spectra[ProblemKind.CLAMPED].values, np.sqrt(merged))

    @pytest.mark.parametrize(
        "domain, workers",
        [
            (lshape_domain(1.0, 1.0, 1.0 / 16.0), 1),
            (rectangle_domain(1.0, 1.0, 1.0 / 16.0), 1),
            (lshape_domain(1.0, 1.0, 1.0 / 16.0), 2),
            (rectangle_domain(1.0, 1.0, 1.0 / 16.0), 2),
        ],
        ids=["lshape", "square", "lshape-two-workers", "square-two-workers"],
        indirect=["workers"],
    )
    def test_at_most_one_factorization_is_alive(self, monkeypatch, domain, workers):
        live, made = live_factorizations(monkeypatch)
        fd_spectra(domain, list(ProblemKind), 6)
        # L_N, L_D and B of every class this process solves, each factored
        # while no other is held here; a forked worker holds its own
        sizes = [cls.basis.shape[1] for cls in symmetry_classes(domain.mask)]
        here = dealt(sizes, workers)[0]
        assert (len(here) == len(sizes)) == (workers == 1)
        assert len(made) == 3 * len(here)
        assert not live

    @pytest.mark.usefixtures("workers")
    def test_clamped_and_buckling_re_asks_of_a_class_share_one_lu(self, monkeypatch):
        # a first ask of one value leaves every class to its re-asks
        domain = lshape_domain(1.0, 1.0, 1.0 / 16.0)
        monkeypatch.setattr(spectrum_mod, "_first_ask", lambda count, classes: 1)
        calls = []
        original = spectrum_mod.solve_gevp

        def recorded(a, m=None, **kwargs):
            calls.append((a, m is None, kwargs["count"], kwargs["lu"] is not None))
            return original(a, m, **kwargs)

        monkeypatch.setattr(spectrum_mod, "solve_gevp", recorded)
        fd_spectra(domain, [ProblemKind.CLAMPED, ProblemKind.BUCKLING], 20)
        # two solves in a row on one class operator share its LU, and a
        # buckling re-ask is made on the LU of its class's clamped re-ask
        pairs = list(zip(calls, calls[1:]))
        assert all(given for (a, *_), (b, _, _, given) in pairs if a is b)
        assert any(
            a is b and first and not second and k > 1
            for (a, first, _, _), (b, second, k, _) in pairs
        )


class TestWorkers:
    """``fd_spectra`` with its symmetry classes spread over forked workers."""

    @staticmethod
    def forks(monkeypatch) -> list[int]:
        """The pids of the children ``fd_spectra`` forks from here on."""
        made = []
        original = os.fork

        def counted():
            pid = original()
            if pid:
                made.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted)
        return made

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def assert_bit_identical(one, two):
        assert list(one) == list(two)
        for kind in one:
            assert one[kind].values.tobytes() == two[kind].values.tobytes(), kind

    @pytest.mark.parametrize("workers", [2], indirect=True)
    @pytest.mark.parametrize(
        "domain, classes",
        [
            (lshape_domain(1.0, 1.0, 1.0 / 24.0), 2),
            (rectangle_domain(1.0, 1.0, 1.0 / 16.0), 3),
            (rectangle_domain(1.0, 0.75, 1.0 / 16.0), 4),
            (lshape_domain(1.0, 0.8, 1.0 / 20.0), 1),
        ],
        ids=["lshape", "square", "rectangle", "asymmetric"],
    )
    def test_values_bit_identical_on_one_and_two_workers(
        self, monkeypatch, workers, domain, classes
    ):
        assert len(symmetry_classes(domain.mask)) == classes
        with monkeypatch.context() as patch:
            patch.setattr(pool, "cpus", lambda: 1)
            one = fd_spectra(domain, list(ProblemKind), 20)
        forks = self.forks(monkeypatch)
        two = fd_spectra(domain, list(ProblemKind), 20)
        # one worker per bin, and a mask of one class has one bin
        assert len(forks) == min(workers, classes) - 1
        self.assert_bit_identical(one, two)
        self.assert_no_child_left()

    @pytest.mark.parametrize("workers", [2], indirect=True)
    @pytest.mark.parametrize("probe", REASK_PROBES.values(), ids=REASK_PROBES.keys())
    def test_re_asks_bit_identical_on_one_and_two_workers(self, monkeypatch, workers, probe):
        (exp,) = parse_config(json.dumps({"experiments": [probe]}))
        (domain,), count = exp.grids, exp.count
        shorts = []
        merge = spectrum_mod._lowest_over_classes

        def recorded(*args):
            values, short = merge(*args)
            shorts.append(short)
            return values, short

        with monkeypatch.context() as patch:
            patch.setattr(pool, "cpus", lambda: 1)
            patch.setattr(spectrum_mod, "_lowest_over_classes", recorded)
            one = fd_spectra(domain, list(ProblemKind), count)
        # one class of one kind is asked again, in a second round
        assert sum(map(len, shorts)) == 1 and len(shorts) == 2 * len(ProblemKind)
        live, _ = live_factorizations(monkeypatch)
        self.assert_bit_identical(one, fd_spectra(domain, list(ProblemKind), count))
        assert not live
        self.assert_no_child_left()

    @pytest.mark.parametrize("workers", [2], indirect=True)
    def test_one_class_is_never_forked(self, monkeypatch, workers):
        domain = lshape_domain(1.0, 0.8, 1.0 / 20.0)
        assert len(symmetry_classes(domain.mask)) == 1
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked with one class"))
        spectra = fd_spectra(domain, list(ProblemKind), 12)
        assert all(len(spectrum.values) == 12 for spectrum in spectra.values())

    @pytest.mark.parametrize("workers", [2], indirect=True)
    @pytest.mark.parametrize("where", [0, 1], ids=["here", "forked"])
    def test_convergence_error_reaches_the_caller_whole(self, monkeypatch, workers, where):
        # the buckling solve of one class stalls, in this process or in
        # the forked worker; either way the caller must get the error
        # object raised in this process, not a copy sent through a pipe
        domain = lshape_domain(1.0, 1.0, 1.0 / 16.0)
        sizes = [cls.basis.shape[1] for cls in symmetry_classes(domain.mask)]
        assert len(set(sizes)) == len(sizes) == 2
        (failing,) = dealt(sizes, workers)[where]
        original = spectrum_mod.solve_gevp
        raised = []

        def stalled(a, m=None, **kwargs):
            solution = original(a, m, **kwargs)
            if m is not None and a.shape[0] == sizes[failing]:
                raised.append(ConvergenceError(f"stalled on {a.shape[0]} unknowns"))
                raise raised[-1]
            return solution

        monkeypatch.setattr(spectrum_mod, "solve_gevp", stalled)
        forks = self.forks(monkeypatch)
        message = rf"^stalled on {sizes[failing]} unknowns$"
        with pytest.raises(ConvergenceError, match=message) as info:
            fd_spectra(domain, list(ProblemKind), 6)
        assert len(forks) == 1
        assert raised == [info.value]
        self.assert_no_child_left()

    @pytest.mark.parametrize("workers", [2], indirect=True)
    @pytest.mark.parametrize("failure", ["raises", "killed", "refused"])
    def test_a_failed_worker_has_its_classes_solved_here(self, monkeypatch, workers, failure):
        domain = rectangle_domain(1.0, 0.75, 1.0 / 16.0)
        with monkeypatch.context() as patch:
            patch.setattr(pool, "cpus", lambda: 1)
            one = fd_spectra(domain, list(ProblemKind), 20)
        here = os.getpid()
        original = spectrum_mod.solve_gevp

        def failing(*args, **kwargs):
            if os.getpid() != here:
                if failure == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise ConvergenceError("stalled in the worker")
            return original(*args, **kwargs)

        def refused():
            raise OSError(errno.EAGAIN, "fork refused")

        monkeypatch.setattr(spectrum_mod, "solve_gevp", failing)
        if failure == "refused":
            monkeypatch.setattr(os, "fork", refused)
        self.assert_bit_identical(one, fd_spectra(domain, list(ProblemKind), 20))
        self.assert_no_child_left()


class TestReportWorkers:
    """``run_config`` with the analytic and cap spectra spread over forked workers."""

    #: Ten (experiment, kind) jobs, dealt round-robin over two workers:
    #: the cap's Dirichlet spectrum is the worker's third job.
    CONFIG = {
        "experiments": [
            {
                "name": "disk",
                "domain": {"type": "disk", "radius": 1.0},
                "kinds": ["neumann", "dirichlet", "clamped", "buckling"],
                "backend": {"type": "analytic"},
                "count": 20,
                "checks": [{"type": "chain"}, {"type": "sharpness", "caps": [{"delta": 2.0}]}],
            },
            {
                "name": "cap",
                "domain": {"type": "cap", "delta": 2.0},
                "kinds": ["neumann", "dirichlet"],
                "backend": {"type": "cap", "points": 200},
                "count": 10,
            },
            {
                "name": "rod",
                "domain": {"type": "interval", "length": 2.0},
                "kinds": ["neumann", "dirichlet", "clamped", "buckling"],
                "backend": {"type": "analytic"},
                "count": 10,
                "checks": [{"type": "chain"}],
            },
        ]
    }

    def run(self, out) -> tuple[int, dict[str, bytes]]:
        """The exit code of a report of CONFIG written to ``out``, and what it wrote."""
        code = run_config(parse_config(json.dumps(self.CONFIG)), out)
        return code, {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def test_outputs_byte_identical_on_one_and_two_workers(self, monkeypatch, tmp_path):
        with monkeypatch.context() as patch:
            patch.setattr(pool, "cpus", lambda: 1)
            patch.setattr(os, "fork", lambda: pytest.fail("forked on one CPU"))
            one = self.run(tmp_path / "one")
        monkeypatch.setattr(pool, "cpus", lambda: 2)
        forks = TestWorkers.forks(monkeypatch)
        assert self.run(tmp_path / "two") == one
        assert one[0] == 0 and len(forks) == 1
        TestWorkers.assert_no_child_left()

    @pytest.mark.parametrize("failure", ["raises", "killed"])
    def test_a_failure_stays_with_its_experiment(self, monkeypatch, tmp_path, capsys, failure):
        with monkeypatch.context() as patch:
            patch.setattr(pool, "cpus", lambda: 1)
            _, one = self.run(tmp_path / "one")
        here = os.getpid()
        original = cli.cap_spectrum

        def failing(cap, kind, count):
            # the cap experiment's Dirichlet spectrum, not the sharpness
            # check's, raises in the worker; a killed worker's jobs run
            # again here, where it raises too
            if kind is ProblemKind.DIRICHLET and cap.points == 200:
                if os.getpid() != here and failure == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                if os.getpid() != here or failure == "killed":
                    raise ArithmeticError(f"no cap spectrum in {failure}")
            return original(cap, kind, count)

        monkeypatch.setattr(cli, "cap_spectrum", failing)
        monkeypatch.setattr(pool, "cpus", lambda: 2)
        capsys.readouterr()
        code, two = self.run(tmp_path / "two")
        error = f"ArithmeticError: no cap spectrum in {failure}"
        assert code == 2
        assert capsys.readouterr().err == f"speclab: cap: {error}\n"
        assert json.loads(two.pop("cap.report.json")) == {"name": "cap", "error": error}
        # the failed experiment writes no spectra; every other writes its bytes
        del one["cap.report.json"], one["cap.spectra.csv"]
        assert two == one
        TestWorkers.assert_no_child_left()


def test_an_fd_only_report_spreads_no_closed_forms(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    calls = []
    original = pool.spread

    def recorded(run, jobs):
        calls.append(list(jobs))
        return original(run, jobs)

    monkeypatch.setattr(pool, "spread", recorded)
    monkeypatch.setattr(cli, "_closed_form", lambda *job: pytest.fail(f"closed form of {job}"))
    config = workloads.fd_lshape_config(workloads.NOTCHES[0])
    assert run_config(parse_config(json.dumps(config)), tmp_path) == 0
    # every spread is fd_spectra's: one nonempty job of asks per class
    assert calls
    for jobs in calls:
        assert jobs and all(job and all(ask[0] in ProblemKind for ask in job) for job in jobs)


def five_point_values(a: float, b: float, h: float, kind: str, count: int) -> np.ndarray:
    """Lowest ``count`` eigenvalues of the 5-point Laplacian on an a x b rectangle.

    Each axis of m nodes contributes 4/h^2 sin^2(k pi / (2 (m + 1))),
    k = 1..m, with zero walls, and 4/h^2 sin^2(k pi / (2 m)), k = 0..m-1,
    with dropped fluxes; the rectangle's values are their pairwise sums.
    """
    lines = []
    for side in (a, b):
        # nodes h, 2h, ..., m h strictly inside (0, side)
        m = math.floor(side / h * (1.0 - 1e-9))
        if kind == "dirichlet":
            angles = np.arange(1, m + 1) * math.pi / (2 * (m + 1))
        else:
            angles = np.arange(m) * math.pi / (2 * m)
        lines.append(4.0 / h**2 * np.sin(angles) ** 2)
    return np.sort((lines[0][:, None] + lines[1][None, :]).ravel())[:count]


class TestRectangleClosedForm:
    """Multiple eigenvalues of rectangles, against the 5-point closed form."""

    @pytest.mark.parametrize("kind", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("h", [1.0 / 16.0, 1.0 / 24.0, 1.0 / 40.0], ids=["16", "24", "40"])
    @pytest.mark.parametrize("sides", [(1.0, 1.0), (1.0, 0.6)], ids=["square", "rect"])
    def test_every_copy_of_every_value_is_found(self, sides, h, kind):
        # from the constant start vector on the whole grid, the unit square
        # at h = 1/16 lost a copy of its Neumann value 267.188 at counts
        # 29-31 and 37-38 (index 28 read 300.26) and one at count 46
        domain = rectangle_domain(*sides, h)
        for count in (29, 30, 38, 46, 60):
            values = fd_spectrum(domain, ProblemKind(kind), count).values
            expected = five_point_values(*sides, h, kind, count)
            assert np.allclose(values, expected, rtol=1e-10, atol=1e-10 * expected[-1])


def plus_mask(side: int, arm: int) -> np.ndarray:
    """A plus sign ``side`` nodes across, with arms ``arm`` nodes wide."""
    mask = np.zeros((side, side), dtype=bool)
    low = (side - arm) // 2
    mask[low : low + arm, :] = mask[:, low : low + arm] = True
    return mask


class TestSymmetryClasses:
    DOMAINS = {
        "square": (rectangle_domain(1.0, 1.0, 1.0 / 16.0), 3),
        "rect": (rectangle_domain(1.0, 0.6, 1.0 / 16.0), 4),
        "disk": (disk_domain(1.0, 0.1), 3),
        "plus": (GridDomain(h=0.1, mask=plus_mask(9, 3), origin=(0.0, 0.0)), 3),
        "lshape": (lshape_domain(1.0, 1.0, 1.0 / 16.0), 2),
        "lshape-uneven": (lshape_domain(1.0, 0.8, 1.0 / 16.0), 1),
        "rod": (interval_domain(1.0, 1.0 / 50.0), 2),
        "column": (GridDomain(h=0.1, mask=np.ones((12, 1), dtype=bool), origin=(0.0, 0.0)), 2),
    }

    @staticmethod
    def left_out_twin(mask: np.ndarray, kept: sp.csc_matrix):
        """The class left out for ``kept``, and the signed permutation P with T twin = kept P.

        The twin is the character odd about the row flip alone, built as
        every other class is; T is the transpose's node permutation.
        """
        flips, transpose = symmetry_mod._reflections(mask)
        bases = dict(symmetry_mod._character_bases(mask, flips))
        assert (bases[(0, 1)] != kept).nnz == 0
        twin = bases[(1, 0)]
        n = len(transpose)
        swap = sp.csc_matrix((np.ones(n), (transpose, np.arange(n))), shape=(n, n))
        signed = (kept.T @ swap @ twin).toarray()
        exact = np.rint(signed)
        assert np.abs(signed - exact).max() <= 1e-15
        ones = np.ones(twin.shape[1])
        assert np.array_equal(np.abs(exact).sum(axis=0), ones)
        assert np.array_equal(np.abs(exact).sum(axis=1), ones)
        return twin, sp.csc_matrix(exact)

    @pytest.mark.parametrize("name", list(DOMAINS))
    def test_classes_split_the_grid_and_commute_with_every_operator(self, name):
        domain, count = self.DOMAINS[name]
        classes = symmetry_classes(domain.mask)
        assert len(classes) == count
        assert sum(cls.copies * cls.basis.shape[1] for cls in classes) == domain.n_unknowns
        operators = [
            assemble_laplacian(domain, ProblemKind.NEUMANN).matrix,
            assemble_laplacian(domain, ProblemKind.DIRICHLET).matrix,
            assemble_bilaplacian_clamped(domain).matrix,
        ]
        bases = [cls.basis for cls in classes]
        twinned = [cls.basis for cls in classes if cls.copies == 2]
        # a mask with both flips and the transpose keeps one of its two
        # transposed classes, counted twice; the left-out one's operators
        # are the kept one's, up to the transpose's signed permutation
        assert len(twinned) == (name in ("square", "disk", "plus"))
        assert all(cls.copies in (1, 2) for cls in classes)
        for kept in twinned:
            twin, signed = self.left_out_twin(domain.mask, kept)
            bases.append(twin)
            for a in operators:
                gap = abs(project(a, twin) - signed.T @ project(a, kept) @ signed)
                assert gap.max() <= 1e-15 * abs(a).max()
        for basis in bases:
            gram = (basis.T @ basis).toarray()
            assert np.abs(gram - np.eye(basis.shape[1])).max() <= 1e-15
            projector = basis @ basis.T
            for a in operators:
                gap = abs(projector @ a - a @ projector)
                assert gap.max() <= 1e-15 * abs(a).max()
        # the classes, the left-out twin with them, are mutually orthogonal
        whole = sp.hstack(bases)
        assert np.abs((whole.T @ whole).toarray() - np.eye(domain.n_unknowns)).max() <= 1e-15

    def test_transpose_is_used_only_without_a_flip(self):
        # a plus sign has every reflection: its two commuting flips give 4
        # characters, of which the transpose pairs the two odd about one flip
        classes = symmetry_classes(plus_mask(7, 3))
        assert [cls.copies for cls in classes] == [1, 2, 1]
        # an L whose only reflection is the transpose
        ell = np.ones((6, 6), dtype=bool)
        ell[3:, 3:] = False
        assert [cls.copies for cls in symmetry_classes(ell)] == [1, 1]

    def test_a_character_with_no_grid_function_has_no_class(self):
        # every node of a one-node-wide plus lies on an axis, so no grid
        # function is odd about both, and that character has no class;
        # the two odd about one axis are transposed twins
        mask = plus_mask(5, 1)
        classes = symmetry_classes(mask)
        assert [(basis.shape[1], copies) for basis, copies in classes] == [(5, 1), (2, 2)]
        domain = GridDomain(h=0.2, mask=mask, origin=(0.0, 0.0))
        lap = assemble_laplacian(domain, ProblemKind.DIRICHLET).matrix.toarray()
        values = fd_spectrum(domain, ProblemKind.DIRICHLET, 6).values
        assert np.allclose(values, scipy.linalg.eigvalsh(lap)[:6], rtol=1e-12)

    def test_asymmetric_mask_is_the_whole_grid_solve_bit_for_bit(self):
        domain = lshape_domain(1.0, 0.8, 1.0 / 20.0)
        ((basis, copies),) = symmetry_classes(domain.mask)
        assert copies == 1
        assert (basis != sp.identity(domain.n_unknowns)).nnz == 0
        spectra = fd_spectra(domain, list(ProblemKind), 12)
        lap = assemble_laplacian(domain, ProblemKind.DIRICHLET)
        bilap = assemble_bilaplacian_clamped(domain)
        neumann = solve_gevp(
            assemble_laplacian(domain, ProblemKind.NEUMANN),
            count=12,
            sigma=spectrum_mod._neumann_shift(domain),
        ).values
        assert spectra[ProblemKind.NEUMANN].values[0] == 0.0
        assert np.array_equal(spectra[ProblemKind.NEUMANN].values[1:], neumann[1:])
        dirichlet = solve_gevp(lap, count=12).values
        assert np.array_equal(spectra[ProblemKind.DIRICHLET].values, dirichlet)
        assert np.array_equal(
            spectra[ProblemKind.CLAMPED].values,
            np.sqrt(np.maximum(solve_gevp(bilap, count=12).values, 0.0)),
        )
        assert np.array_equal(
            spectra[ProblemKind.BUCKLING].values, solve_gevp(bilap, lap, count=12).values
        )

    @pytest.mark.parametrize(
        "domain, kept, copies",
        [
            (rectangle_domain(1.0, 1.0, 1.0 / 16.0), 3, 4),
            (lshape_domain(1.0, 1.0, 1.0 / 24.0), 2, 2),
        ],
        ids=["square", "lshape"],
    )
    @pytest.mark.usefixtures("workers")
    def test_first_ask_sets_only_the_cost(self, monkeypatch, domain, kept, copies):
        count = 30
        usual = fd_spectra(domain, list(ProblemKind), count)
        asked, shared = [], []
        original = spectrum_mod.solve_gevp

        def recorded(*args, **kwargs):
            asked.append(kwargs["count"])
            return original(*args, **kwargs)

        def first_ask(count, classes):
            shared.append(classes)
            return 1

        monkeypatch.setattr(spectrum_mod, "solve_gevp", recorded)
        monkeypatch.setattr(spectrum_mod, "_first_ask", first_ask)
        every = fd_spectra(domain, list(ProblemKind), count)
        # the count is shared over the copies, a twin counted twice, as
        # when every class was solved; only the kept classes are asked
        assert len(symmetry_classes(domain.mask)) == kept
        assert set(shared) == {copies}
        # every kept class starts at 1 and is asked again at 2, 4, ...
        assert asked[:kept] == [1] * kept
        assert len(asked) > 4 * kept and 2 in asked
        for kind in ProblemKind:
            assert np.allclose(every[kind].values, usual[kind].values, rtol=1e-10, atol=1e-12)


@st.composite
def random_masks(draw) -> np.ndarray:
    """A connected mask up to 12 x 12, often with a reflection OR-ed in.

    The reflections make masks of one to four symmetry classes, twins
    among them.  The random cells make leaves, two of them on one node
    now and then; a drawn star puts three leaves on one node, whose
    local modes no reflection of the whole mask sees.
    """
    rows, cols = draw(st.integers(3, 12)), draw(st.integers(3, 12))
    reflection = draw(st.sampled_from(["none", "rows", "cols", "both", "transpose", "all"]))
    if reflection in ("transpose", "all"):
        rows = cols = min(rows, cols)
    density = draw(st.sampled_from([0.55, 0.7, 0.85]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((rows, cols)) < density
    star, walls = np.zeros_like(mask), np.zeros_like(mask)
    if draw(st.booleans()):
        # a node and its four arms; every cell next to an arm but the node
        # is walled off, except the one that joins the stem to the rest
        r, c = rng.integers(1, rows - 1), rng.integers(1, cols - 1)
        star[r, c] = True
        stem = rng.integers(4)
        for side, (dr, dc) in enumerate([(-1, 0), (1, 0), (0, -1), (0, 1)]):
            star[r + dr, c + dc] = True
            walls[r + dr + dc, c + dc + dr] = walls[r + dr - dc, c + dc - dr] = True
            beyond = (r + 2 * dr, c + 2 * dc)
            if 0 <= beyond[0] < rows and 0 <= beyond[1] < cols:
                walls[beyond] = side != stem
                star[beyond] = side == stem

    def symmetric(cells: np.ndarray) -> np.ndarray:
        if reflection in ("rows", "both", "all"):
            cells = cells | cells[::-1, :]
        if reflection in ("cols", "both", "all"):
            cells = cells | cells[:, ::-1]
        if reflection in ("transpose", "all"):
            cells = cells | cells.T
        return cells

    mask = (symmetric(mask) | symmetric(star)) & ~symmetric(walls)
    # the largest 4-connected piece, which keeps the reflections OR-ed in
    # unless two mirror-image pieces tie
    labels, pieces = scipy.ndimage.label(mask)
    assume(pieces > 0)
    sizes = np.bincount(labels.ravel())[1:]
    mask = labels == 1 + int(np.argmax(sizes))
    assume(mask.sum() >= MIN_UNKNOWNS)
    return mask


class TestAgainstDenseSpectra:
    """``fd_spectra`` on random masks against dense ``eigh`` of the whole grid."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        mask=random_masks(),
        h=st.sampled_from([0.1, 0.125]),
        first_ask_of_one=st.booleans(),
        data=st.data(),
    )
    def test_every_kind_matches_the_dense_spectrum(self, mask, h, first_ask_of_one, data):
        domain = GridDomain(h=h, mask=mask, origin=(0.0, 0.0))
        n = domain.n_unknowns
        count = data.draw(st.integers(1, n - 1), label="count")
        # a first ask of one value leaves every class to its re-asks
        first_ask = (lambda count, classes: 1) if first_ask_of_one else spectrum_mod._first_ask
        with mock.patch.object(spectrum_mod, "_first_ask", first_ask):
            spectra = fd_spectra(domain, list(ProblemKind), count)
        neumann = assemble_laplacian(domain, ProblemKind.NEUMANN).matrix.toarray()
        lap = assemble_laplacian(domain, ProblemKind.DIRICHLET).matrix.toarray()
        bilap = assemble_bilaplacian_clamped(domain).matrix.toarray()
        dense = {
            ProblemKind.NEUMANN: scipy.linalg.eigvalsh(neumann),
            ProblemKind.DIRICHLET: scipy.linalg.eigvalsh(lap),
            ProblemKind.CLAMPED: np.sqrt(np.maximum(scipy.linalg.eigvalsh(bilap), 0.0)),
            ProblemKind.BUCKLING: scipy.linalg.eigvalsh(bilap, lap),
        }
        for kind, values in dense.items():
            expected = values[:count]
            got = spectra[kind].values
            # a missed value shifts every later one down to its successor;
            # roundoff, the Neumann zero's too, is judged against the top value
            assert np.allclose(got, expected, rtol=1e-8, atol=1e-12 * values[-1]), kind
