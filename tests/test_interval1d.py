"""Closed-form interval spectra and the roots they are built from."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speclab import ProblemKind
from speclab.interval1d import clamped_beam_roots, interval_spectrum, tan_roots
from speclab.spectra import LENGTH_RANGE

# mpmath findroot at 30 digits, frozen
Y1 = 4.493409457909064
Y2 = 7.725251836937707
Z1 = 4.730040744862704
Z2 = 7.853204624095838


def bisect_tan_root(k: int, tol: float = 1e-12) -> float:
    """Oracle for tan y = y: bisection on the monotone y - k pi - atan y."""
    lo, hi = (k * math.pi, k * math.pi + math.pi / 2)
    f = lambda y: y - k * math.pi - math.atan(y)
    assert f(lo) < 0 < f(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestRoots:
    def test_tan_root_frozen(self):
        y1, y2 = tan_roots(2)
        assert y1 == pytest.approx(Y1, abs=1e-12)
        assert y2 == pytest.approx(Y2, abs=1e-12)

    def test_tan_root_certified_against_bisection(self):
        for k, y in enumerate(tan_roots(6), start=1):
            assert abs(y - bisect_tan_root(k)) < 1e-8

    def test_tan_root_solves_equation(self):
        for y in tan_roots(6):
            assert math.sin(y) - y * math.cos(y) == pytest.approx(0.0, abs=1e-9)

    def test_beam_root_frozen(self):
        z1, z2 = clamped_beam_roots(2)
        assert z1 == pytest.approx(Z1, abs=1e-12)
        assert z2 == pytest.approx(Z2, abs=1e-12)

    def test_beam_root_solves_equation(self):
        for z in clamped_beam_roots(5):
            # relative form: cosh grows fast
            assert math.cos(z) * math.cosh(z) - 1.0 == pytest.approx(
                0.0, abs=1e-8 * math.cosh(z)
            )

    @pytest.mark.parametrize("roots", [tan_roots, clamped_beam_roots])
    def test_roots_ascend_one_per_bracket(self, roots):
        values = roots(500)
        assert values.shape == (500,) and np.all(np.diff(values) > 3.0)
        assert np.array_equal(roots(7), values[:7])

    # 1.5 raised an unexplained BracketError before
    @pytest.mark.parametrize("count", [0, 1.5, math.nan, None])
    @pytest.mark.parametrize("roots", [tan_roots, clamped_beam_roots])
    def test_count_validation(self, roots, count):
        with pytest.raises(ValueError, match="root count must be a positive integer"):
            roots(count)


class TestSpectrum:
    def test_dirichlet_neumann(self):
        d = interval_spectrum(1.0, ProblemKind.DIRICHLET, 4)
        n = interval_spectrum(1.0, ProblemKind.NEUMANN, 4)
        assert np.allclose(d.values, [k**2 * math.pi**2 for k in (1, 2, 3, 4)])
        assert n.values[0] == 0.0
        assert np.allclose(n.values, [k**2 * math.pi**2 for k in (0, 1, 2, 3)])

    def test_clamped_square_root_convention(self):
        c = interval_spectrum(1.0, ProblemKind.CLAMPED, 2)
        assert c.values[0] == pytest.approx(Z1**2, rel=1e-12)
        assert c.values[1] == pytest.approx(Z2**2, rel=1e-12)

    def test_buckling_values(self):
        b = interval_spectrum(1.0, ProblemKind.BUCKLING, 4)
        want = [4 * math.pi**2, 4 * Y1**2, 16 * math.pi**2, 4 * Y2**2]
        assert np.allclose(b.values, want, rtol=1e-12)

    @pytest.mark.parametrize("length", [1.0, 2.0, 0.3])
    def test_buckling_families_alternate(self, length):
        # (2 k pi / L)^2 and (2 y_k / L)^2 take turns, at every count
        cosine = (2 * np.arange(1, 7) * math.pi / length) ** 2
        tan = (2 * tan_roots(6) / length) ** 2
        alternating = np.column_stack((cosine, tan)).ravel().tolist()
        for count in range(1, 12):
            values = interval_spectrum(length, ProblemKind.BUCKLING, count).values
            assert values.tolist() == alternating[:count]

    def test_clamped_past_cosh_overflow(self):
        # cosh(z) overflows from z_226 on; sech must underflow instead.  The
        # digest pins the first 225 values, whose roots lie below the overflow,
        # as bisection to adjacent doubles gives them, squared as z * z.  (The
        # square of z_141 was one ulp below the correctly rounded z * z when
        # each value was squared by libm pow.)
        values = interval_spectrum(1.0, ProblemKind.CLAMPED, 2000).values
        digest = hashlib.sha256(values[:225].tobytes()).hexdigest()
        assert digest == "63744280416cf89d296855704a62786c575aebba991ce9965bc5895352431f41"
        for k, z in enumerate(clamped_beam_roots(2000)[29:], start=30):
            assert z == pytest.approx((2 * k + 1) * math.pi / 2, rel=1e-15)

    def test_metadata(self):
        s = interval_spectrum(2.0, ProblemKind.DIRICHLET, 3)
        assert s.domain == "interval(L=2)"
        assert s.source == "analytic"
        assert s.trusted_count == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            interval_spectrum(-1.0, ProblemKind.DIRICHLET, 3)
        with pytest.raises(ValueError):
            interval_spectrum(1.0, ProblemKind.DIRICHLET, 0)

    @pytest.mark.parametrize("length", [1e160, 1e-200, 2e3, 5e-4, math.nan, math.inf, 10**400])
    def test_length_outside_the_length_range_is_refused(self, length):
        # at 1e160 the Dirichlet values came back subnormal, [9.9e-320, ...],
        # and at 1e-200 they overflowed with a RuntimeWarning
        message = r"interval length must be a length in \[0.001, 1000\]"
        for kind in ProblemKind:
            with pytest.raises(ValueError, match=message):
                interval_spectrum(length, kind, 3)

    @pytest.mark.parametrize("length", LENGTH_RANGE)
    def test_length_at_the_ends_of_the_length_range(self, length):
        for kind in ProblemKind:
            base = interval_spectrum(1.0, kind, 6).values
            scaled = interval_spectrum(length, kind, 6).values
            assert np.allclose(scaled, base / length**2, rtol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        length=st.floats(min_value=0.3, max_value=5.0),
        scale=st.floats(min_value=0.5, max_value=4.0),
        kind=st.sampled_from(list(ProblemKind)),
    )
    def test_scaling_law(self, length, scale, kind):
        base = interval_spectrum(length, kind, 6)
        scaled = interval_spectrum(scale * length, kind, 6)
        assert np.allclose(scaled.values, base.values / scale**2, rtol=1e-9)

    def test_chain_property(self):
        spectra = {k: interval_spectrum(1.0, k, 10).values for k in ProblemKind}
        for i in range(10):
            mu = spectra[ProblemKind.NEUMANN][i]
            lam = spectra[ProblemKind.DIRICHLET][i]
            gam = spectra[ProblemKind.CLAMPED][i]
            buck = spectra[ProblemKind.BUCKLING][i]
            assert mu < lam < gam < buck


class TestBeamAgainstGrid:
    def test_clamped_matches_fd_with_certified_error(self):
        # second-order scheme: the two-grid spread bounds the fine-grid
        # error by spread/3, so one spread is a comfortable certificate
        from speclab.fdlab import fd_spectrum, interval_domain

        coarse = fd_spectrum(
            interval_domain(1.0, 1 / 100), ProblemKind.CLAMPED, 1
        ).values[0]
        fine = fd_spectrum(
            interval_domain(1.0, 1 / 200), ProblemKind.CLAMPED, 1
        ).values[0]
        spread = abs(coarse - fine)
        assert abs(fine - Z1**2) < spread

    def test_buckling_matches_fd(self):
        from speclab.fdlab import fd_spectrum, interval_domain

        fd = fd_spectrum(interval_domain(1.0, 1 / 200), ProblemKind.BUCKLING, 4)
        exact = interval_spectrum(1.0, ProblemKind.BUCKLING, 4)
        assert np.allclose(fd.values, exact.values, rtol=1e-3)

