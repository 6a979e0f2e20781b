"""Bessel evaluation, zero ladders, and the bracketed root finder."""

import math

import numpy as np
import pytest
import scipy.special as ss
from hypothesis import given, settings
from hypothesis import strategies as st

from speclab.analytic2d import _disk_clamped_roots
from speclab.interval1d import clamped_beam_roots, tan_roots
from speclab.specfun import (
    BracketError,
    bessel_i,
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


def reference_root(f, lo: float, hi: float) -> float:
    """The scalar bisection ``find_root`` runs in lockstep, one bracket at a time."""
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    assert (f_lo > 0) != (f_hi > 0)
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid


def tan_equation(y):
    return np.sin(y) - y * np.cos(y)


def beam_equation(z):
    return np.cos(z) - np.where(z < 710.0, 1.0 / np.cosh(np.minimum(z, 710.0)), 0.0)


def disk_equation(m: int):
    """J_m I_(m+1) / I_m + J_(m+1), the clamped disk determinant divided by I_m."""
    return lambda x: ss.jv(m, x) * (ss.ive(m + 1, x) / ss.ive(m, x)) + ss.jv(m + 1, x)


def sign_changes(f, pairs) -> tuple[list[float], list[float]]:
    """The ends of the pairs, ordered, on which f changes sign or vanishes."""
    lo, hi = [], []
    for a, b in pairs:
        a, b = min(a, b), max(a, b)
        if a < b and (f(a) == 0.0 or f(b) == 0.0 or (f(a) > 0) != (f(b) > 0)):
            lo.append(a)
            hi.append(b)
    return lo, hi


def ends(low: float, high: float):
    return st.lists(st.tuples(*[st.floats(low, high)] * 2), min_size=1, max_size=25)


class TestFindRoot:
    def test_simple_root(self):
        (root,) = find_root(np.cos, [1.0], [2.0])
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

        assert all(self.at_sign_change(tan, y) for y in tan_roots(50))
        assert all(self.at_sign_change(beam, z) for z in clamped_beam_roots(50))
        for m in range(6):
            roots = _disk_clamped_roots(m, 40.0)
            assert len(roots) >= 8
            assert all(self.at_sign_change(disk_equation(m), r) for r in roots), m

    @pytest.mark.parametrize("m", [0, 29])
    def test_disk_roots_past_the_overflow_of_i_m(self, m):
        # I_m overflows float64 past x = 705; the ratio of the scaled ive
        # in the determinant does not
        roots = _disk_clamped_roots(m, 800.0)
        zeros = bessel_j_zeros(m, 800.0)
        between = roots[: len(zeros) - 1]
        assert np.all((zeros[:-1] < between) & (between < zeros[1:]))
        assert roots[-1] > 790.0 and np.all(np.isfinite(roots))
        assert all(self.at_sign_change(disk_equation(m), r) for r in roots[roots > 700.0])

    def test_interval_roots_match_the_scalar_bisection(self):
        # the brackets and equations of tan_roots and clamped_beam_roots,
        # evaluated by math one root at a time, give the same doubles
        def tan(y):
            return math.sin(y) - y * math.cos(y)

        def beam(z):
            return math.cos(z) - (1.0 / math.cosh(z) if z < 710.0 else 0.0)

        pi = math.pi
        ks = range(1, 301)
        tans = [reference_root(tan, k * pi + 1e-12, k * pi + pi / 2 - 1e-12) for k in ks]
        centers = [(2 * k + 1) * pi / 2 for k in ks]
        beams = [reference_root(beam, c - 0.4, c + 0.4) for c in centers]
        assert tan_roots(300).tolist() == tans
        assert clamped_beam_roots(300).tolist() == beams

    @settings(max_examples=40, deadline=None)
    @given(pairs=ends(0.0, 2000.0))
    def test_tan_equation_matches_the_scalar_bisection(self, pairs):
        lo, hi = sign_changes(tan_equation, pairs)
        want = [reference_root(tan_equation, a, b) for a, b in zip(lo, hi)]
        assert find_root(tan_equation, lo, hi).tolist() == want

    @settings(max_examples=40, deadline=None)
    @given(pairs=ends(0.0, 1000.0))
    def test_beam_equation_matches_the_scalar_bisection(self, pairs):
        # the range crosses z = 710, past which sech is taken as 0
        lo, hi = sign_changes(beam_equation, pairs)
        want = [reference_root(beam_equation, a, b) for a, b in zip(lo, hi)]
        assert find_root(beam_equation, lo, hi).tolist() == want

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(0, 30), pairs=ends(0.01, 120.0))
    def test_disk_determinant_matches_the_scalar_bisection(self, m, pairs):
        f = disk_equation(m)
        lo, hi = sign_changes(f, pairs)
        want = [reference_root(f, a, b) for a, b in zip(lo, hi)]
        assert find_root(f, lo, hi).tolist() == want

    def test_root_at_midpoint(self):
        assert find_root(lambda x: x - 1.5, [1.0], [2.0]).tolist() == [1.5]

    def test_root_at_endpoint(self):
        assert find_root(lambda x: x - 1.0, [1.0], [2.0]).tolist() == [1.0]

    def test_zeros_at_ends_and_midpoints_in_one_call(self):
        roots = find_root(lambda x: x - 1.0, [1.0, 0.0, 0.0, -3.0], [2.0, 1.0, 2.0, 4.0])
        assert roots.tolist() == [1.0, 1.0, 1.0, reference_root(lambda x: x - 1.0, -3.0, 4.0)]

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x * x + 1.0, [0.0], [1.0])

    def test_no_sign_change_names_the_first_such_bracket(self):
        # cos keeps its sign on [0, 1] and on [3.5, 3.6]
        with pytest.raises(BracketError, match=r"no sign change on bracket 1, \[0, 1\]"):
            find_root(np.cos, [1.0, 0.0, 4.0, 3.5], [2.0, 1.0, 5.0, 3.6])

    def test_no_brackets(self):
        roots = find_root(np.cos, [], [])
        assert roots.shape == (0,) and roots.dtype == float

    @pytest.mark.parametrize(
        "lo, hi", [([2.0], [1.0]), ([0.0, 0.0], [1.0, math.nan]), ([-math.inf], [1.0])]
    )
    def test_bracket_validation(self, lo, hi):
        with pytest.raises(ValueError, match=f"bracket {len(lo) - 1} requires finite lo < hi"):
            find_root(np.cos, lo, hi)


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
