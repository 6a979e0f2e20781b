"""Closed-form rectangle and disk spectra against independent enumeration."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.special as ss
from scipy.optimize import brentq

from speclab.analytic2d import (
    buckling_family_counts,
    buckling_product_residual,
    disk_spectrum,
    rect_lattice_count,
    rect_spectrum,
)
from speclab.interval1d import tan_root
from speclab.spectra import ProblemKind


def brute_rect_values(a: float, b: float, start: int, count: int) -> np.ndarray:
    """Oracle: vectorized enumeration of pi^2 (l^2/a^2 + m^2/b^2)."""
    n = 4 * count + 40
    l = np.arange(start, n)[:, None]
    m = np.arange(start, n)[None, :]
    values = np.sort((np.pi**2 * (l**2 / a**2 + m**2 / b**2)).ravel())
    return values[:count]


class TestRectSpectrum:
    def test_unit_square_dirichlet_matches_enumeration(self):
        got = rect_spectrum(1.0, 1.0, ProblemKind.DIRICHLET, 10).values
        assert np.allclose(got, brute_rect_values(1.0, 1.0, 1, 10), rtol=1e-13)

    def test_unit_square_second_and_third_coincide(self):
        values = rect_spectrum(1.0, 1.0, ProblemKind.DIRICHLET, 3).values
        assert values[1] == values[2] == 5.0 * math.pi**2

    def test_neumann_starts_at_zero_constant_mode(self):
        s = rect_spectrum(1.0, 2.0, ProblemKind.NEUMANN, 6)
        assert s.values[0] == 0.0
        expected = [
            0.0,
            2.4674011002723395,
            9.869604401089358,
            9.869604401089358,
            12.337005501361698,
            19.739208802178716,
        ]
        assert np.allclose(s.values, expected, rtol=1e-13)
        assert np.allclose(s.values, brute_rect_values(1.0, 2.0, 0, 6), rtol=1e-13)

    def test_metadata(self):
        s = rect_spectrum(1.0, 2.0, ProblemKind.DIRICHLET, 4)
        assert s.domain == "rect(1x2)"
        assert s.source == "analytic"
        assert s.trusted_count == 4

    @pytest.mark.parametrize("c", [0.5, 2.0, 3.7])
    def test_dilation_scaling(self, c):
        base = rect_spectrum(1.0, 2.0, ProblemKind.DIRICHLET, 8).values
        scaled = rect_spectrum(c, 2.0 * c, ProblemKind.DIRICHLET, 8).values
        assert np.allclose(scaled, base / c**2, rtol=1e-12)

    @pytest.mark.parametrize("kind", [ProblemKind.CLAMPED, ProblemKind.BUCKLING])
    def test_fourth_order_kinds_rejected(self, kind):
        with pytest.raises(ValueError, match="membrane"):
            rect_spectrum(1.0, 1.0, kind, 4)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            rect_spectrum(0.0, 1.0, ProblemKind.DIRICHLET, 4)
        with pytest.raises(ValueError):
            rect_spectrum(1.0, 1.0, ProblemKind.DIRICHLET, 0)


class TestLatticeCount:
    @staticmethod
    def brute_count(a, b, start, tau):
        n = int(math.sqrt(tau) * max(a, b) / math.pi) + 2
        l = np.arange(start, n)[:, None]
        m = np.arange(start, n)[None, :]
        return int(np.sum(np.pi**2 * (l**2 / a**2 + m**2 / b**2) <= tau))

    @pytest.mark.parametrize(
        "tau,count", [(100.0, 12), (1000.0, 146), (1e4, 1545)]
    )
    def test_one_by_two_dirichlet_counts(self, tau, count):
        lc = rect_lattice_count(1.0, 2.0, ProblemKind.DIRICHLET, tau)
        assert lc.count == count
        assert lc.count == self.brute_count(1.0, 2.0, 1, tau)
        assert lc.weyl_term == pytest.approx(tau * 2.0 / (4.0 * math.pi))
        assert lc.remainder == pytest.approx(lc.count - lc.weyl_term)

    def test_normalized_count_approaches_one_from_below(self):
        # boundary deficit shrinks like 1/sqrt(tau) for Dirichlet
        ratios = [
            rect_lattice_count(1.0, 2.0, ProblemKind.DIRICHLET, tau).count
            * 4.0
            * math.pi
            / (tau * 2.0)
            for tau in (100.0, 1000.0, 1e4)
        ]
        assert ratios == sorted(ratios)
        assert ratios[-1] == pytest.approx(0.9707521299592461, rel=1e-12)

    def test_threshold_is_inclusive(self):
        near = 5.0 * math.pi**2
        assert rect_lattice_count(1.0, 1.0, ProblemKind.DIRICHLET, near + 1e-9).count == 3
        assert rect_lattice_count(1.0, 1.0, ProblemKind.DIRICHLET, near - 1e-9).count == 1

    def test_neumann_counts_constant_mode(self):
        assert rect_lattice_count(1.0, 1.0, ProblemKind.NEUMANN, 1.0).count == 1
        assert rect_lattice_count(1.0, 1.0, ProblemKind.NEUMANN, 0.0).count == 1

    def test_agrees_with_spectrum_prefix(self):
        s = rect_spectrum(1.0, 2.0, ProblemKind.DIRICHLET, 120)
        tau = float(s.values[80])
        lc = rect_lattice_count(1.0, 2.0, ProblemKind.DIRICHLET, tau)
        assert lc.count == int(np.searchsorted(s.values, tau, side="right"))

    def test_validation(self):
        with pytest.raises(ValueError):
            rect_lattice_count(1.0, 1.0, ProblemKind.DIRICHLET, -1.0)
        with pytest.raises(ValueError, match="membrane"):
            rect_lattice_count(1.0, 1.0, ProblemKind.CLAMPED, 10.0)


class TestFamilyCounts:
    def test_unit_square_at_200(self):
        fc = buckling_family_counts(1.0, 1.0, 200.0)
        assert (fc.n1, fc.n2, fc.n3, fc.n4) == (3, 1, 1, 1)
        assert fc.total == 6

    def test_matches_direct_pairing(self):
        tau = 200.0

        def branch(length, use_tan):
            out, k = [], 1
            while True:
                base = 2.0 * tan_root(k) / length if use_tan else 2.0 * k * math.pi / length
                if base**2 > tau:
                    return out
                out.append(base**2)
                k += 1

        a1, a2 = branch(1.0, False), branch(1.0, True)
        b1, b2 = branch(2.0, False), branch(2.0, True)
        pairs = lambda xs, ys: sum(x + y <= tau for x in xs for y in ys)
        fc = buckling_family_counts(1.0, 2.0, tau)
        assert (fc.n1, fc.n2, fc.n3, fc.n4) == (
            pairs(a1, b1),
            pairs(a1, b2),
            pairs(a2, b1),
            pairs(a2, b2),
        )
        assert (fc.n1, fc.n2, fc.n3, fc.n4) == (6, 4, 3, 3)

    def test_below_first_value_all_empty(self):
        fc = buckling_family_counts(1.0, 1.0, 10.0)
        assert fc.total == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            buckling_family_counts(-1.0, 1.0, 100.0)
        with pytest.raises(ValueError):
            buckling_family_counts(1.0, 1.0, math.inf)


class TestProductResidual:
    def test_residual_matches_simplified_form(self):
        # by hand the defect collapses to alpha^2 beta^2 (cos ax + cos by)
        a, b, l, m, grid = 1.0, 2.0, 2, 1, 301
        alpha, beta = 2.0 * l * math.pi / a, 2.0 * m * math.pi / b
        x = np.linspace(0.0, a, grid)[1:-1]
        y = np.linspace(0.0, b, grid)[1:-1]
        simplified = alpha**2 * beta**2 * np.abs(
            np.cos(alpha * x)[:, None] + np.cos(beta * y)[None, :]
        )
        pr = buckling_product_residual(a, b, l, m, grid=grid)
        assert pr.residual_max == pytest.approx(float(simplified.max()), rel=1e-10)

    def test_unit_square_fundamental_is_far_from_solving(self):
        pr = buckling_product_residual(1.0, 1.0, 1, 1)
        assert pr.eigenvalue_guess == pytest.approx(8.0 * math.pi**2)
        assert pr.value_max == pytest.approx(4.0)
        assert pr.normalized == pytest.approx(779.2727282720198, rel=1e-12)
        assert pr.normalized > 1.0

    def test_higher_modes_also_fail(self):
        assert buckling_product_residual(1.0, 2.0, 2, 3).normalized > 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            buckling_product_residual(1.0, 1.0, 0, 1)
        with pytest.raises(ValueError):
            buckling_product_residual(1.0, 1.0, 1, 1, grid=4)


def merged_disk_roots(order_roots, count: int, initial=()) -> np.ndarray:
    """Oracle: smallest ``count`` roots over all angular orders, m >= 1 twice.

    ``order_roots(m)`` gives a prefix of the ascending roots of order m.
    The merge checks that the prefixes reach past the answer and that
    the next order starts above it, so no root can be missing.
    """
    merged = list(initial)
    per_order = []
    m = 0
    while True:
        roots = order_roots(m)
        per_order.append(roots)
        merged.extend(np.repeat(roots, 1 if m == 0 else 2))
        if m > 1 and len(merged) >= count and roots[0] > np.sort(merged)[count - 1]:
            break
        m += 1
    result = np.sort(merged)[:count]
    assert all(roots[-1] > result[-1] for roots in per_order)
    return result


def ratio_clamped_determinant(m: int):
    """J_m I_{m+1}/I_m + J_{m+1}, written with scaled I so it never overflows."""
    return lambda x: ss.jv(m, x) * ss.ive(m + 1, x) / ss.ive(m, x) + ss.jv(m + 1, x)


def brentq_clamped_roots(m: int, n: int) -> np.ndarray:
    zeros = ss.jn_zeros(m, n + 1)
    f = ratio_clamped_determinant(m)
    return np.array([brentq(f, lo, hi, xtol=1e-14) for lo, hi in zip(zeros[:-1], zeros[1:])])


DISK_REFERENCE = {
    # direct evaluation of the characteristic roots, frozen
    ProblemKind.NEUMANN: [
        0.0,
        3.389957716818789,
        3.389957716818789,
        9.328363213476507,
        9.328363213476507,
        14.681970642123895,
    ],
    ProblemKind.DIRICHLET: [
        5.783185962946785,
        14.681970642123895,
        14.681970642123895,
        26.374616427163392,
        26.374616427163392,
        30.471262343662087,
    ],
    ProblemKind.CLAMPED: [
        10.215826229872492,
        21.260397694742526,
        21.260397694742526,
        34.8770354204088,
        34.8770354204088,
        39.77114823685436,
    ],
    ProblemKind.BUCKLING: [
        14.681970642123895,
        26.374616427163392,
        26.374616427163392,
        40.706465818200314,
        40.706465818200314,
        49.2184563216946,
    ],
}


class TestDiskSpectrum:
    @pytest.mark.parametrize("kind", list(ProblemKind))
    def test_unit_disk_reference_values(self, kind):
        s = disk_spectrum(1.0, kind, 6)
        assert np.allclose(s.values, DISK_REFERENCE[kind], atol=1e-12)
        assert s.domain == "disk(R=1)"
        assert s.trusted_count == 6

    def test_dirichlet_values_are_squared_bessel_zeros(self):
        values = disk_spectrum(1.0, ProblemKind.DIRICHLET, 10).values
        # oracle: merge (j_m^l)^2 with order multiplicity, then sort
        merged = []
        for m in range(5):
            mult = 1 if m == 0 else 2
            for z in ss.jn_zeros(m, 4):
                merged.extend([z**2] * mult)
        assert np.allclose(values, np.sort(merged)[:10], atol=1e-9)

    def test_neumann_against_scipy_prime_zeros(self):
        values = disk_spectrum(1.0, ProblemKind.NEUMANN, 6).values
        merged = [0.0]
        for m in range(4):
            mult = 1 if m == 0 else 2
            zeros = ss.jnp_zeros(m, 3)
            for z in zeros:
                merged.extend([z**2] * mult)
        assert np.allclose(values, np.sort(merged)[:6], atol=1e-9)

    def test_order_multiplicity_pairs_are_exact(self):
        for kind in ProblemKind:
            values = disk_spectrum(1.0, kind, 6).values
            assert values[1] == values[2]

    def test_first_buckling_equals_second_dirichlet(self):
        b = disk_spectrum(1.0, ProblemKind.BUCKLING, 1).values[0]
        d = disk_spectrum(1.0, ProblemKind.DIRICHLET, 2).values[1]
        assert b == d

    def test_clamped_roots_satisfy_cross_determinant(self):
        # J_m I_{m+1} + I_m J_{m+1} vanishes at sqrt(value), scipy oracle
        for m, value in [(0, 10.215826229872492), (1, 21.260397694742526), (0, 39.77114823685436)]:
            x = math.sqrt(value)
            det = ss.jv(m, x) * ss.iv(m + 1, x) + ss.iv(m, x) * ss.jv(m + 1, x)
            scale = abs(ss.iv(m + 1, x)) + abs(ss.iv(m, x))
            assert abs(det) / scale < 1e-9

    def test_strict_ordering_between_problems(self):
        spectra = {k: disk_spectrum(1.0, k, 6).values for k in ProblemKind}
        for k in range(6):
            assert spectra[ProblemKind.NEUMANN][k] < spectra[ProblemKind.DIRICHLET][k]
            assert spectra[ProblemKind.DIRICHLET][k] < spectra[ProblemKind.CLAMPED][k]
            assert spectra[ProblemKind.CLAMPED][k] < spectra[ProblemKind.BUCKLING][k]

    @pytest.mark.parametrize("c", [0.5, 3.0])
    def test_radius_scaling(self, c):
        base = disk_spectrum(1.0, ProblemKind.DIRICHLET, 6).values
        scaled = disk_spectrum(c, ProblemKind.DIRICHLET, 6).values
        assert np.allclose(scaled, base / c**2, rtol=1e-12)

    def test_dirichlet_at_count_2000(self):
        values = disk_spectrum(1.0, ProblemKind.DIRICHLET, 2000).values
        oracle = merged_disk_roots(lambda m: ss.jn_zeros(m, 40), 2000) ** 2
        assert np.allclose(values, oracle, rtol=1e-12, atol=0.0)

    def test_neumann_at_count_1000(self):
        values = disk_spectrum(1.0, ProblemKind.NEUMANN, 1000).values
        oracle = merged_disk_roots(lambda m: ss.jnp_zeros(m, 30), 1000, [0.0]) ** 2
        assert values[0] == 0.0
        assert np.allclose(values[1:], oracle[1:], rtol=1e-12, atol=0.0)

    def test_clamped_at_count_500(self):
        values = disk_spectrum(1.0, ProblemKind.CLAMPED, 500).values
        oracle = merged_disk_roots(lambda m: brentq_clamped_roots(m, 20), 500)
        assert np.allclose(np.sqrt(values), oracle, rtol=0.0, atol=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            disk_spectrum(0.0, ProblemKind.DIRICHLET, 4)
        with pytest.raises(ValueError):
            disk_spectrum(1.0, ProblemKind.DIRICHLET, 0)

    def test_underflowing_start_is_refused_not_doubled_forever(self):
        # ((2 sqrt(count) + 4) / R)^2 is 0.0 here, and so would be every doubling
        with pytest.raises(ValueError, match="first cutoff"):
            disk_spectrum(1e200, ProblemKind.DIRICHLET, 3)
