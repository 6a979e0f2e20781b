"""Grids, operator stencils and the eigenvalue solver."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from speclab.fdlab import (
    CapDomain,
    ConvergenceError,
    DegenerateDomainError,
    GridDomain,
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
    write_mask_file,
)
from speclab.fdlab import solver as solver_mod
from speclab.fdlab import spectrum as spectrum_mod
from speclab.interval1d import clamped_beam_root
from speclab.spectra import ProblemKind


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

    def test_disconnected_mask_rejected(self):
        mask = np.zeros((3, 7), dtype=bool)
        mask[:, :3] = True
        mask[:, 4:] = True
        with pytest.raises(ValueError, match="connected"):
            GridDomain(h=0.1, mask=mask, origin=(0.0, 0.0))

    def test_too_few_unknowns_rejected(self):
        with pytest.raises(DegenerateDomainError):
            GridDomain(h=0.1, mask=np.ones((2, 2), dtype=bool), origin=(0.0, 0.0))

    def test_mask_file_roundtrip(self, tmp_path):
        d = lshape_domain(1.0, 1.0, 1.0 / 8.0)
        path = tmp_path / "dom.mask"
        write_mask_file(d, path)
        back = read_mask_file(path)
        assert back.h == d.h
        assert np.array_equal(back.mask, d.mask)
        assert back.descriptor == "mask(dom.mask)"

    def test_mask_file_bad_characters(self, tmp_path):
        path = tmp_path / "bad.mask"
        path.write_text("h 0.1\n###\n#x#\n###\n")
        with pytest.raises(ValueError, match="invalid character"):
            read_mask_file(path)

    def test_mask_file_requires_header(self, tmp_path):
        path = tmp_path / "bad.mask"
        path.write_text("###\n###\n###\n")
        with pytest.raises(ValueError, match="first line"):
            read_mask_file(path)

    def test_interval_domain_needs_nine_nodes(self):
        with pytest.raises(DegenerateDomainError):
            interval_domain(1.0, 0.2)


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


class TestSolver:
    def test_diagonal_matrix(self):
        op = SparseSymOperator(sp.diags([3.0, 1.0, 2.0, 5.0, 4.0, 6.0, 7.0, 8.0, 9.0]).tocsr())
        sol = solve_gevp(op, count=3)
        assert np.allclose(sol.values, [1.0, 2.0, 3.0], atol=1e-12)
        assert sol.method == "shift-invert"
        assert np.all(sol.residuals <= sol.tol)

    def test_argument_validation(self):
        op = SparseSymOperator(sp.identity(9, format="csr"))
        with pytest.raises(ValueError):
            solve_gevp(op, count=0)
        with pytest.raises(ValueError):
            solve_gevp(op, count=10)
        with pytest.raises(ValueError):
            solve_gevp(op, count=2, tol=0.0)
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
                        assert np.all(sol.residuals <= sol.tol)

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
        "converged, message, partial",
        [([2.0, 1.0], "2 of 3", [1.0, 2.0]), ([4.0, 2.0, 1.0, 3.0], "3 of 3", [1.0, 2.0, 3.0])],
    )
    def test_stalled_lanczos_raises_with_its_converged_pairs(
        self, monkeypatch, converged, message, partial
    ):
        # counts are against the pairs asked for, not the spare ones
        def stalled(*args, **kwargs):
            values = np.array(converged)
            raise spla.ArpackNoConvergence("stalled", values, np.zeros((9, len(values))))

        monkeypatch.setattr(spla, "eigsh", stalled)
        # a norm in [1/2, 1) needs no scaling, so ARPACK's units are the caller's
        op = SparseSymOperator(sp.diags(np.arange(1.0, 10.0) / 16.0).tocsr())
        with pytest.raises(ConvergenceError, match=rf"\({message} pairs\)") as info:
            solve_gevp(op, count=3)
        assert np.array_equal(info.value.partial.values, partial)

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

    def test_stalled_lanczos_reports_values_in_the_callers_units(self, monkeypatch):
        original = spla.eigsh

        def stalled(*args, **kwargs):
            values, vectors = original(*args, **kwargs)
            raise spla.ArpackNoConvergence("stalled", values, vectors)

        d = rectangle_domain(1e-3, 1e-3, 1e-3 / 16.0)
        bilap = assemble_bilaplacian_clamped(d)
        lap = assemble_laplacian(d, ProblemKind.DIRICHLET)
        for m in (None, lap):
            expected = solve_gevp(bilap, m, count=4).values
            monkeypatch.setattr(spla, "eigsh", stalled)
            with pytest.raises(ConvergenceError, match=r"\(4 of 4 pairs\)") as info:
                solve_gevp(bilap, m, count=4)
            monkeypatch.setattr(spla, "eigsh", original)
            assert np.array_equal(info.value.partial.values, expected)

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
        assert not solver_mod._accepted(relative, backward, 1e-8).any()

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

    def test_convergence_error_carries_partial(self):
        err = ConvergenceError("stalled")
        assert err.partial is None


class TestFdSpectrum:
    def test_square_membrane_values(self, tmp_path):
        d = rectangle_domain(1.0, 1.0, 1.0 / 32.0)
        dirichlet = fd_spectrum(d, ProblemKind.DIRICHLET, 3)
        assert dirichlet.values[0] == pytest.approx(2.0 * math.pi**2, rel=2e-3)
        assert dirichlet.values[1] == pytest.approx(5.0 * math.pi**2, rel=5e-3)
        assert dirichlet.source == "fd(h=0.03125)"
        neumann = fd_spectrum(d, ProblemKind.NEUMANN, 3)
        # the null value is exactly zero on every domain type, and the
        # other values are the shifted solve's own, bit for bit
        ring = tmp_path / "ring.mask"
        ring.write_text("h 0.125\n.######.\n########\n###..###\n###..###\n########\n.######.\n")
        for domain in (
            d,
            lshape_domain(1.0, 1.0, 1.0 / 16.0),
            disk_domain(1.0, 1.0 / 8.0),
            interval_domain(1.0, 1.0 / 32.0),
            read_mask_file(ring),
        ):
            values = fd_spectrum(domain, ProblemKind.NEUMANN, 3).values
            solved = solve_gevp(
                assemble_laplacian(domain, ProblemKind.NEUMANN),
                count=3,
                sigma=spectrum_mod._neumann_shift(domain),
            ).values
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

    def test_neumann_needs_no_more_solves_than_dirichlet(self, monkeypatch):
        # with the shift -(pi/D)^2 the Neumann spectrum takes 58 solves
        # against Dirichlet's 79 on this grid; a grid-scaled shift of
        # -0.04/h^2 took 158 against 91
        solutions = TestFdSpectra.counting(monkeypatch, spectrum_mod, "solve_gevp")
        fd_spectra(
            lshape_domain(1.0, 1.0, 1.0 / 160.0), [ProblemKind.NEUMANN, ProblemKind.DIRICHLET], 15
        )
        neumann, dirichlet = (sol.solves for sol in solutions)
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
        exact = clamped_beam_root(1) ** 2
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

    def test_each_operator_assembled_and_factored_once(self, monkeypatch):
        factored = self.counting(monkeypatch, spla, "splu")
        laplacians = self.counting(monkeypatch, spectrum_mod, "assemble_laplacian")
        bilaplacians = self.counting(monkeypatch, spectrum_mod, "assemble_bilaplacian_clamped")
        fd_spectra(lshape_domain(1.0, 1.0, 1.0 / 16.0), list(ProblemKind), 5)
        # shifted L_N, L_D and B: the clamped and buckling solves share B's LU
        assert len(factored) == 3
        assert len(laplacians) == 2 and len(bilaplacians) == 1

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

    def test_every_returned_pair_meets_the_residual_rule(self, monkeypatch):
        solutions = self.counting(monkeypatch, spectrum_mod, "solve_gevp")
        spectra = fd_spectra(lshape_domain(1.0, 1.0, 1.0 / 32.0), list(ProblemKind), 10)
        assert len(solutions) == 4
        for sol in solutions:
            assert len(sol.values) == 10
            assert np.all(sol.residuals <= sol.tol)
        clamped, buckling = solutions[2:]
        assert buckling.lu is clamped.lu
        assert np.array_equal(
            spectra[ProblemKind.CLAMPED].values, np.sqrt(clamped.values)
        )
