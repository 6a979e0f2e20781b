"""Spherical cap membrane spectra from the separated radial problem."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq
from scipy.special import lpmv

from speclab.fdlab import CapDomain, cap_spectrum
from speclab.fdlab import cap
from speclab.fdlab.cap import _radial_values
from speclab.specfun import bessel_j_prime_zero, bessel_j_zero
from speclab.spectra import LENGTH_RANGE, ProblemKind, lowest_over_orders


class TestHemisphere:
    # exact values are l (l + 1): spherical harmonics split at the
    # equator into odd (Dirichlet) and even (Neumann) families
    def test_dirichlet_values(self):
        s = cap_spectrum(CapDomain(math.pi / 2), ProblemKind.DIRICHLET, 6)
        assert np.allclose(s.values, [2, 6, 6, 12, 12, 12], atol=1e-3)

    def test_neumann_values(self):
        s = cap_spectrum(CapDomain(math.pi / 2), ProblemKind.NEUMANN, 6)
        assert np.allclose(s.values, [0, 2, 2, 6, 6, 6], atol=1e-3)

    def test_neumann_constant_mode_is_exactly_zero(self):
        s = cap_spectrum(CapDomain(math.pi / 2), ProblemKind.NEUMANN, 2)
        assert s.values[0] == 0.0

    def test_refinement_tightens_the_ground_value(self):
        coarse = cap_spectrum(CapDomain(math.pi / 2, points=1000), ProblemKind.DIRICHLET, 1)
        fine = cap_spectrum(CapDomain(math.pi / 2, points=4000), ProblemKind.DIRICHLET, 1)
        assert abs(coarse.values[0] - 2.0) < 1e-3
        assert abs(fine.values[0] - 2.0) < abs(coarse.values[0] - 2.0)


class TestApertureComparison:
    def test_wide_cap_puts_neumann_second_above_dirichlet_first(self):
        delta = 0.75 * math.pi
        mu2 = cap_spectrum(CapDomain(delta), ProblemKind.NEUMANN, 2).values[1]
        lam1 = cap_spectrum(CapDomain(delta), ProblemKind.DIRICHLET, 1).values[0]
        assert mu2 == pytest.approx(1.5919040596748002, rel=1e-8)
        assert lam1 == pytest.approx(0.6775587906691369, rel=1e-8)
        assert mu2 - lam1 > 0.9

    def test_narrow_cap_orders_the_other_way(self):
        delta = 0.40 * math.pi
        mu2 = cap_spectrum(CapDomain(delta), ProblemKind.NEUMANN, 2).values[1]
        lam1 = cap_spectrum(CapDomain(delta), ProblemKind.DIRICHLET, 1).values[0]
        assert mu2 == pytest.approx(2.7086290656398706, rel=1e-8)
        assert lam1 == pytest.approx(3.32258675411327, rel=1e-8)
        assert mu2 < lam1

    def test_hemisphere_is_the_crossing_point(self):
        mu2 = cap_spectrum(CapDomain(math.pi / 2), ProblemKind.NEUMANN, 2).values[1]
        lam1 = cap_spectrum(CapDomain(math.pi / 2), ProblemKind.DIRICHLET, 1).values[0]
        assert abs(mu2 - lam1) < 1e-3

    def test_small_cap_approaches_flat_disk(self):
        # lam delta^2 tends to the disk values as the cap flattens
        delta = 0.1
        mu2 = cap_spectrum(CapDomain(delta), ProblemKind.NEUMANN, 2).values[1]
        lam1 = cap_spectrum(CapDomain(delta), ProblemKind.DIRICHLET, 1).values[0]
        assert mu2 * delta**2 == pytest.approx(bessel_j_prime_zero(1, 1) ** 2, rel=1e-2)
        assert lam1 * delta**2 == pytest.approx(bessel_j_zero(0, 1) ** 2, rel=1e-2)


class TestStructure:
    def test_azimuthal_pair_is_exact(self):
        s = cap_spectrum(CapDomain(0.6 * math.pi), ProblemKind.DIRICHLET, 4)
        assert s.values[1] == s.values[2]

    def test_metadata(self):
        s = cap_spectrum(CapDomain(math.pi / 2, points=1000), ProblemKind.DIRICHLET, 3)
        assert s.domain == "cap(delta=1.5708)"
        assert s.source == "cap(n=1000)"
        assert s.trusted_count == 3

    def test_values_sorted(self):
        s = cap_spectrum(CapDomain(0.9 * math.pi), ProblemKind.NEUMANN, 8)
        assert np.all(np.diff(s.values) >= 0)

    def test_domain_validation(self):
        with pytest.raises(ValueError, match="aperture"):
            CapDomain(0.0)
        with pytest.raises(ValueError, match="aperture"):
            CapDomain(math.pi)
        with pytest.raises(ValueError, match="grid points"):
            CapDomain(1.0, points=4)
        for points in (1000.5, math.nan, math.inf, None):
            with pytest.raises(ValueError, match="grid points"):
                CapDomain(math.pi / 2, points=points)
        assert CapDomain(1.0, points=1000.0).points == 1000

    @pytest.mark.parametrize("delta", [1e-4, 1e-100, 1e-300])
    def test_aperture_below_the_shortest_length_refused(self, delta):
        # the solve raised LinAlgError at 1e-100 and OverflowError at 1e-300, before
        with pytest.raises(ValueError, match=r"aperture must lie in \[0\.001, pi\)"):
            CapDomain(delta)

    def test_shortest_aperture_solves(self):
        values = cap_spectrum(CapDomain(LENGTH_RANGE[0], points=200), ProblemKind.DIRICHLET, 2)
        assert np.all(np.isfinite(values.values)) and values.values[0] > 0

    def test_kind_and_count_validation(self):
        with pytest.raises(ValueError, match="membrane"):
            cap_spectrum(CapDomain(1.0), ProblemKind.CLAMPED, 3)
        for count in (0, 2.5, math.nan, math.inf, None):
            with pytest.raises(ValueError, match="count"):
                cap_spectrum(CapDomain(1.0), ProblemKind.DIRICHLET, count)


def _legendre_dirichlet(order: int, delta: float, count: int) -> np.ndarray:
    """Lowest ``count`` Dirichlet values nu (nu + 1) of one order, from P_nu^m.

    The order-m eigenfunctions regular at the pole are P_nu^m(cos t)
    (DLMF 14), so the rim condition puts nu at the roots of
    P_nu^m(cos delta) in nu > -1/2.  For integer m, P_nu^m vanishes for
    every argument at the integers nu < m; those roots are no eigenvalues.
    """
    x = math.cos(delta)
    grid = np.arange(-0.5, 40.0, 0.01) + 0.005
    f = lpmv(order, grid, x)
    nus = []
    for i in np.nonzero(np.sign(f[:-1]) != np.sign(f[1:]))[0]:
        nu = brentq(lambda v: lpmv(order, v, x), grid[i], grid[i + 1], xtol=1e-15, rtol=1e-15)
        if nu < order - 0.5 and abs(nu - round(nu)) < 1e-6:
            continue
        nus.append(nu)
        if len(nus) == count:
            break
    nus = np.array(nus)
    return nus * (nus + 1.0)


class TestLegendreOracle:
    # the oracle shares nothing with the discretization, so the
    # staggered grid must converge to it at O(h^2), and one Richardson
    # step must remove nearly all of the error
    @pytest.mark.parametrize("delta", [0.75 * math.pi, 0.4 * math.pi])
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_dirichlet_orders_converge_at_second_order(self, delta, order):
        exact = _legendre_dirichlet(order, delta, 3)
        assert len(exact) == 3
        coarse = _radial_values(CapDomain(delta, 2000), order, ProblemKind.DIRICHLET, 3)
        fine = _radial_values(CapDomain(delta, 4000), order, ProblemKind.DIRICHLET, 3)
        ratio = (coarse - exact) / (fine - exact)
        assert np.all((3.9 <= ratio) & (ratio <= 4.1)), ratio
        richardson = (4.0 * fine - coarse) / 3.0
        assert np.allclose(richardson, exact, rtol=1e-9, atol=0.0)

    def test_lowest_sixty_dirichlet_values_at_the_default_points(self):
        # the accuracy the README and the cap module state: O(h^2) leaves
        # about 2e-6 relative error at 4000 points, not the 1e-7 once claimed
        delta = 0.75 * math.pi
        values = cap_spectrum(CapDomain(delta), ProblemKind.DIRICHLET, 60).values
        exact = []
        for order in range(40):
            per_order = _legendre_dirichlet(order, delta, 12)
            # no order misses a value below the 60th
            assert per_order[-1] > values[-1]
            if per_order[0] > values[-1]:
                break
            exact.extend(np.repeat(per_order, 2 if order else 1))
        exact = np.sort(exact)[:60]
        assert np.max(np.abs(values - exact) / exact) < 2.5e-6

    def test_hemisphere_roots_are_integers(self):
        # P_nu^m(0) = 0 exactly when nu - m is odd
        assert np.allclose(_legendre_dirichlet(0, math.pi / 2, 3), [2, 12, 30], rtol=1e-12)
        assert np.allclose(_legendre_dirichlet(2, math.pi / 2, 2), [12, 30], rtol=1e-12)


def _brute_force(domain: CapDomain, kind: ProblemKind, count: int, orders: int) -> np.ndarray:
    """The lowest ``count`` cap values from every order below ``orders``, by index."""
    per_order = [_radial_values(domain, m, kind, count) for m in range(orders)]
    copies = [np.repeat(v, 1 if m == 0 else 2) for m, v in enumerate(per_order)]
    merged = np.sort(np.concatenate(copies))[:count]
    # the first order left out starts above the result, so no later one
    # can reach it: the potential m^2 / sin t grows with m
    assert _radial_values(domain, orders, kind, 1)[0] > merged[-1]
    return merged


class TestOrderSweep:
    @pytest.mark.parametrize(
        "delta, points, count, orders",
        [
            (delta, 1000, count, 16)
            for delta in (0.75 * math.pi, 0.4 * math.pi, math.pi / 2)
            for count in (1, 2, 60)
        ]
        + [(1.0, 8, 200, 30)],
    )
    @pytest.mark.parametrize("kind", [ProblemKind.DIRICHLET, ProblemKind.NEUMANN])
    def test_sweep_matches_every_order_by_index(self, delta, points, count, orders, kind):
        domain = CapDomain(delta, points)
        values = cap_spectrum(domain, kind, count).values
        expected = _brute_force(domain, kind, count, orders)
        assert len(values) == count
        assert np.all(np.diff(values) >= 0)
        if kind is ProblemKind.NEUMANN:
            # the null value is snapped to 0 in the spectrum only
            assert values[0] == 0.0
            values, expected = values[1:], expected[1:]
        assert np.allclose(values, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("delta", [0.75 * math.pi, 0.4 * math.pi])
    @pytest.mark.parametrize("kind", [ProblemKind.DIRICHLET, ProblemKind.NEUMANN])
    def test_value_and_index_bisection_agree(self, delta, kind):
        domain = CapDomain(delta)
        for order in range(13):
            by_index = _radial_values(domain, order, kind, 11)
            # a cutoff between the 10th and 11th value leaves no tie at it
            cutoff = 0.5 * (by_index[9] + by_index[10])
            by_value = _radial_values(domain, order, kind, 11, cutoff)
            assert len(by_value) == 10
            assert np.allclose(by_value, by_index[:10], rtol=1e-12, atol=0.0)


class TestSeededSweep:
    # the Weyl-law start sets only the cost: a cutoff too low doubles and
    # sweeps again, and a grid with only 40 values per order still fills
    @pytest.mark.parametrize("kind", [ProblemKind.DIRICHLET, ProblemKind.NEUMANN])
    def test_cutoff_below_the_answer_doubles(self, kind):
        domain = CapDomain(0.75 * math.pi, 1000)
        expected = _brute_force(domain, kind, 60, 16)
        swept = []

        def values_below(order, cutoff):
            swept.append(order)
            return _radial_values(domain, order, kind, 60, cutoff)

        values = lowest_over_orders(values_below, 60, 0.25 * expected[-1])
        assert swept.count(0) >= 2
        assert len(values) == 60
        if kind is ProblemKind.NEUMANN:
            values, expected = values[1:], expected[1:]
        assert np.allclose(values, expected, rtol=1e-12, atol=0.0)

    def test_grid_without_a_coarse_level(self):
        domain = CapDomain(1.0, 40)
        values = cap_spectrum(domain, ProblemKind.DIRICHLET, 100).values
        expected = _brute_force(domain, ProblemKind.DIRICHLET, 100, 40)
        assert len(values) == 100
        assert np.allclose(values, expected, rtol=1e-12, atol=0.0)

    def test_fine_grid_bisects_little_more_than_it_keeps(self, monkeypatch):
        # unseeded, orders 0 and 1 alone bisect 119 values on the fine grid
        domain, count = CapDomain(0.75 * math.pi, 4000), 60
        returned = []

        def counted(d, e, **kwargs):
            values = eigh_tridiagonal(d, e, **kwargs)
            if len(d) == domain.points:
                returned.append(len(values))
            return values

        monkeypatch.setattr(cap, "eigh_tridiagonal", counted)
        cap_spectrum(domain, ProblemKind.DIRICHLET, count)
        # every solve goes through the patched name: each value counts at
        # most twice, so at least half of count were bisected
        assert sum(returned) >= count / 2
        assert sum(returned) <= count + 10
