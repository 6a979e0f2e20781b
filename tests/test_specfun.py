"""Bessel evaluation, zero ladders, and the bracketed root finder."""

import math

import numpy as np
import pytest
import scipy.special as ss
from hypothesis import given, settings
from hypothesis import strategies as st

from speclab.analytic2d import _disk_clamped_roots
from speclab.interval1d import clamped_beam_root, tan_root
from speclab.specfun import (
    BracketError,
    RootBracket,
    bessel_i,
    bessel_i_ratio,
    bessel_j,
    bessel_j_prime,
    bessel_j_prime_zero,
    bessel_j_prime_zeros,
    bessel_j_zero,
    bessel_j_zeros,
    find_root,
)

# mpmath besselj/besseli at 30 digits, frozen
J_REFERENCE = {
    (0, 1.0): 0.765197686557966551449717526103,
    (1, 2.5): 0.497094102464274038010816276264,
    (3, 14.0): -0.17680940686509600250666725066,
    (5, 17.3): -0.195789936948724024671741607516,
    (7, 21.5): -0.0236275808264812294857641658029,
    (12, 40.0): -0.126977996117848063612192200383,
    # the turning-point regime m ~ x, where a large-argument expansion fails
    (60, 70.0): -0.124230136973084740592636506909,
    (100, 100.0): 0.0963666732958615596743140248704,
    (200, 230.0): -0.0746792147105686048894925619076,
}
I_REFERENCE = {
    (0, 1.0): 1.26606587775200833559824462521,
    (1, 0.5): 0.257894305390896316362479659523,
    (2, 7.5): 201.605480735805861923582682941,
    (4, 30.0): 596208736201.89243269005176501,
}


class TestBesselJ:
    def test_frozen_reference_values(self):
        for (m, x), want in J_REFERENCE.items():
            assert bessel_j(m, x) == pytest.approx(want, abs=1e-13)

    def test_against_scipy_grid(self):
        # the advertised evaluation contract: 1e-12 absolute for m <= 12
        xs = np.arange(0.0, 50.0, 0.37)
        worst = 0.0
        for m in range(13):
            for x in xs:
                worst = max(worst, abs(bessel_j(m, float(x)) - ss.jv(m, x)))
        assert worst < 1e-12

    def test_special_arguments(self):
        assert bessel_j(0, 0.0) == 1.0
        assert bessel_j(3, 0.0) == 0.0

    @pytest.mark.parametrize(
        "m, x, message",
        [
            (-1, 1.0, "Bessel order must be a nonnegative integer"),
            (2.5, 1.0, "Bessel order must be a nonnegative integer"),
            # TypeError, OverflowError and int()'s own nan message before
            (None, 1.0, "Bessel order must be a nonnegative integer, got None"),
            (math.inf, 1.0, "Bessel order must be a nonnegative integer, got inf"),
            (math.nan, 1.0, "Bessel order must be a nonnegative integer, got nan"),
            (0, -1.0, "argument must be finite and >= 0"),
            (0, math.inf, "argument must be finite and >= 0"),
            # float() raised OverflowError before
            (0, 10**400, "argument must be finite and >= 0"),
            (0, None, "argument must be finite and >= 0, got None"),
        ],
    )
    def test_input_validation(self, m, x, message):
        with pytest.raises(ValueError, match=message):
            bessel_j(m, x)

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(min_value=0, max_value=10),
        x=st.floats(min_value=0.0, max_value=40.0),
    )
    def test_matches_scipy_everywhere(self, m, x):
        assert bessel_j(m, x) == pytest.approx(ss.jv(m, x), abs=1e-11)


class TestBesselJPrime:
    def test_against_scipy(self):
        for m in range(8):
            for x in (0.5, 1.7, 4.2, 9.9, 23.0):
                assert bessel_j_prime(m, x) == pytest.approx(
                    ss.jvp(m, x), abs=1e-11
                )

    def test_zero_order_is_minus_j1(self):
        for x in (0.3, 2.0, 11.0):
            assert bessel_j_prime(0, x) == -bessel_j(1, x)


class TestBesselI:
    def test_frozen_reference_values(self):
        for (m, x), want in I_REFERENCE.items():
            assert bessel_i(m, x) == pytest.approx(want, rel=1e-13)

    def test_against_scipy_grid(self):
        for m in range(9):
            for x in np.arange(0.1, 30.0, 1.3):
                assert bessel_i(m, float(x)) == pytest.approx(
                    ss.iv(m, x), rel=1e-12
                )

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            bessel_i(0, 706.0)
        # just inside the guard still finite
        assert math.isfinite(bessel_i(0, 705.0))

    def test_at_zero(self):
        assert bessel_i(0, 0.0) == 1.0
        assert bessel_i(2, 0.0) == 0.0


class TestBesselIRatio:
    def test_frozen_reference_values(self):
        # mpmath besseli(m + 1, x) / besseli(m, x) at 30 digits
        assert bessel_i_ratio(29, 40.0) == pytest.approx(0.501999686243623062937678864226, rel=1e-13)
        # far past the point where I_m itself overflows float64
        assert bessel_i_ratio(0, 800.0) == pytest.approx(0.999374804442881294052532166889, rel=1e-13)

    def test_matches_quotient_where_both_are_finite(self):
        for m in range(6):
            for x in (0.5, 3.0, 17.0, 90.0):
                assert bessel_i_ratio(m, x) == pytest.approx(bessel_i(m + 1, x) / bessel_i(m, x), rel=1e-13)

    def test_at_zero(self):
        assert bessel_i_ratio(0, 0.0) == 0.0
        assert bessel_i_ratio(3, 0.0) == 0.0


class TestFindRoot:
    def test_simple_root(self):
        root = find_root(math.cos, RootBracket(1.0, 2.0))
        assert root == pytest.approx(math.pi / 2, abs=1e-10)

    @staticmethod
    def at_sign_change(f, r: float) -> bool:
        """f vanishes at r, or takes the opposite sign at a neighbouring double."""
        return f(r) == 0.0 or any(
            f(r) > 0 > f(n) or f(r) < 0 < f(n)
            for n in (math.nextafter(r, -math.inf), math.nextafter(r, math.inf))
        )

    def test_roots_stop_at_adjacent_doubles(self):
        def tan(y):
            return math.sin(y) - y * math.cos(y)

        def beam(z):
            return math.cos(z) - (1.0 / math.cosh(z) if z < 710.0 else 0.0)

        for k in range(1, 51):
            assert self.at_sign_change(tan, tan_root(k)), k
            assert self.at_sign_change(beam, clamped_beam_root(k)), k
        for m in range(6):

            def disk(x):
                return bessel_j(m, x) * bessel_i_ratio(m, x) + bessel_j(m + 1, x)

            roots = _disk_clamped_roots(m, 40.0)
            assert len(roots) >= 8
            assert all(self.at_sign_change(disk, r) for r in roots), m

    def test_root_at_midpoint(self):
        assert find_root(lambda x: x - 1.5, RootBracket(1.0, 2.0)) == 1.5

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x * x + 1.0, RootBracket(0.0, 1.0))

    def test_root_at_endpoint(self):
        assert find_root(lambda x: x - 1.0, RootBracket(1.0, 2.0)) == 1.0

    def test_bracket_validation(self):
        with pytest.raises(ValueError):
            RootBracket(2.0, 1.0)
        with pytest.raises(ValueError):
            RootBracket(0.0, math.nan)


class TestBesselZeros:
    def test_first_zeros_frozen(self):
        assert bessel_j_zero(0, 1) == pytest.approx(2.404825557695773, abs=1e-10)
        assert bessel_j_zero(1, 1) == pytest.approx(3.831705970207512, abs=1e-10)
        assert bessel_j_zero(0, 2) == pytest.approx(5.520078110286311, abs=1e-10)
        assert bessel_j_zero(2, 1) == pytest.approx(5.135622301840683, abs=1e-10)

    def test_against_scipy_table(self):
        for m in range(6):
            table = ss.jn_zeros(m, 5)
            for l in range(1, 6):
                assert bessel_j_zero(m, l) == pytest.approx(
                    table[l - 1], abs=1e-9
                )

    def test_residuals_vanish(self):
        for m in range(11):
            for l in range(1, 11):
                assert abs(bessel_j(m, bessel_j_zero(m, l))) < 1e-9

    def test_interlacing(self):
        # j_m^l < j_(m+1)^l < j_m^(l+1), the ladder the brackets rely on
        for m in range(11):
            for l in range(1, 11):
                here = bessel_j_zero(m, l)
                right = bessel_j_zero(m + 1, l)
                up = bessel_j_zero(m, l + 1)
                assert here < right < up

    @pytest.mark.parametrize(
        "m, l, message",
        [
            (0, 0, "zero index must be a positive integer"),
            (-1, 1, "Bessel order must be a nonnegative integer"),
            # OverflowError before
            (1, math.inf, "zero index must be a positive integer, got inf"),
        ],
    )
    def test_validation(self, m, l, message):
        with pytest.raises(ValueError, match=message):
            bessel_j_zero(m, l)

    @pytest.mark.parametrize("m", [0, 1, 7, 40, 150])
    def test_zeros_up_to_a_limit(self, m):
        limit = 180.0
        zeros = bessel_j_zeros(m, limit)
        table = ss.jn_zeros(m, len(zeros) + 1)
        assert np.array_equal(zeros, table[:-1])
        assert zeros[-1] <= limit < table[-1]

    def test_no_zeros_below_the_first(self):
        assert bessel_j_zeros(5, 8.0).size == 0
        assert bessel_j_zeros(5, 0.0).size == 0


class TestBesselPrimeZeros:
    def test_first_values(self):
        # mu'_(1,1) = 1.8412 is the smallest positive one
        assert bessel_j_prime_zero(1, 1) == pytest.approx(
            1.8411837813406593, abs=1e-9
        )
        assert bessel_j_prime_zero(2, 1) == pytest.approx(
            3.0542369282271403, abs=1e-9
        )
        # order zero: stationary points of J_0 are the zeros of J_1
        assert bessel_j_prime_zero(0, 1) == bessel_j_zero(1, 1)

    def test_against_scipy_table(self):
        for m in range(1, 6):
            table = ss.jnp_zeros(m, 4)
            for l in range(1, 5):
                assert bessel_j_prime_zero(m, l) == pytest.approx(
                    table[l - 1], abs=1e-8
                )

    def test_residuals_vanish(self):
        for m in range(1, 8):
            for l in range(1, 6):
                z = bessel_j_prime_zero(m, l)
                assert abs(bessel_j_prime(m, z)) < 1e-9

    @pytest.mark.parametrize("m", [1, 2, 40, 150])
    def test_zeros_up_to_a_limit(self, m):
        limit = 180.0
        zeros = bessel_j_prime_zeros(m, limit)
        table = ss.jnp_zeros(m, len(zeros) + 1)
        assert np.array_equal(zeros, table[:-1])
        assert zeros[-1] <= limit < table[-1]

    def test_order_zero_uses_the_zeros_of_j1(self):
        assert np.array_equal(bessel_j_prime_zeros(0, 50.0), bessel_j_zeros(1, 50.0))
