"""Closed-form rectangle and disk spectra against independent enumeration."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.special as ss
from scipy.optimize import brentq

from speclab.analytic2d import disk_spectrum, rect_spectrum
from speclab.spectra import LENGTH_RANGE, ProblemKind, lowest_over_orders


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

    @pytest.mark.parametrize("side", [1e160, 1e-200, 2e3, 5e-4, math.nan, math.inf, 10**400])
    def test_side_outside_the_length_range_is_refused(self, side):
        # at 1e160 the enumeration bound raised OverflowError, and at
        # 1e-200 its 1 / a^2 raised ZeroDivisionError
        for kind in (ProblemKind.NEUMANN, ProblemKind.DIRICHLET):
            with pytest.raises(ValueError, match=r"side a must be a length in \[0.001, 1000\]"):
                rect_spectrum(side, side, kind, 3)
            with pytest.raises(ValueError, match=r"side b must be a length in \[0.001, 1000\]"):
                rect_spectrum(1.0, side, kind, 3)

    @pytest.mark.parametrize("tau, count", [(100.0, 12), (1000.0, 146), (1e4, 1545)])
    def test_one_by_two_dirichlet_counts(self, tau, count):
        # the lattice count the weyl checks read off the 1 x 2 rectangle
        values = rect_spectrum(1.0, 2.0, ProblemKind.DIRICHLET, 1600).values
        assert values[-1] > tau
        n = int(math.sqrt(tau) * 2.0 / math.pi) + 2
        l = np.arange(1, n)[:, None]
        m = np.arange(1, n)[None, :]
        brute = int(np.sum(np.pi**2 * (l**2 / 1.0**2 + m**2 / 2.0**2) <= tau))
        assert int(np.searchsorted(values, tau, side="right")) == brute == count

    @pytest.mark.parametrize("side", LENGTH_RANGE)
    def test_side_at_the_ends_of_the_length_range(self, side):
        base = rect_spectrum(1.0, 1.0, ProblemKind.DIRICHLET, 6).values
        scaled = rect_spectrum(side, side, ProblemKind.DIRICHLET, 6).values
        assert np.allclose(scaled, base / side**2, rtol=1e-12)


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
        # the disk's start ((2 sqrt(count) + 4) / R)^2 is 0.0 at R = 1e200,
        # and so would be every doubling; the sweep refuses it before any order
        cutoff = ((2.0 * math.sqrt(3) + 4.0) / 1e200) ** 2
        assert cutoff == 0.0
        with pytest.raises(ValueError, match="first cutoff"):
            lowest_over_orders(lambda m, limit: pytest.fail("swept an order"), 3, cutoff)

    @pytest.mark.parametrize("radius", [1e160, 1e-200, 2e3, 5e-4, math.nan, math.inf, 10**400])
    def test_radius_outside_the_length_range_is_refused(self, radius):
        # at 1e160 the values came back subnormal, [5.8e-320, 1.5e-319, ...],
        # and at 1e-200 the first cutoff raised OverflowError
        for kind in ProblemKind:
            with pytest.raises(ValueError, match=r"radius must be a length in \[0.001, 1000\]"):
                disk_spectrum(radius, kind, 3)

    @pytest.mark.parametrize("radius", LENGTH_RANGE)
    def test_radius_at_the_ends_of_the_length_range(self, radius):
        base = disk_spectrum(1.0, ProblemKind.DIRICHLET, 6).values
        scaled = disk_spectrum(radius, ProblemKind.DIRICHLET, 6).values
        assert np.allclose(scaled, base / radius**2, rtol=1e-12)
