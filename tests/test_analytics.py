"""Counting, Weyl and heat asymptotics, and the comparison reports."""

from __future__ import annotations

import math
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speclab.analytic2d import disk_spectrum, rect_spectrum
from speclab.analytics import (
    DomainMismatchError,
    InsufficientDataError,
    PartitionError,
    TruncationError,
    TrustRangeError,
    ball_volume,
    check_partition,
    counting_chain_check,
    decomposition_check,
    heat_trace_check,
    inequality_chain_check,
    links,
    payne_scan,
    sharpness_report,
    trusted_edge,
    two_grid_uncertainty,
    weyl_boundary_coefficient,
    weyl_fit,
    weyl_leading_coefficient,
    weyl_two_term_fit,
)
from speclab import fdlab
from speclab.fdlab import (
    CapDomain,
    cap_spectrum,
    disk_domain,
    fd_spectrum,
    lshape_domain,
    rectangle_domain,
)
from speclab.interval1d import interval_spectrum
from speclab.spectra import CHAIN_ORDER, ProblemKind, Spectrum


def make_spectrum(kind, values, domain="fake", source="analytic", trusted=0):
    return Spectrum(
        kind=kind,
        domain=domain,
        values=np.asarray(values, dtype=float),
        source=source,
        trusted_count=trusted,
    )


class TestCounting:
    def test_counts_are_inclusive_and_stop_at_the_trusted_edge(self):
        spectra = {k: make_spectrum(k, [1, 2, 3, 4, 5, 6], trusted=4) for k in ProblemKind}
        assert trusted_edge(spectra[ProblemKind.DIRICHLET]) == 4.0
        report = counting_chain_check(spectra, [0.0, 2.0 - 1e-9, 2.0, 4.0])
        assert report["counts"]["dirichlet"] == [0, 1, 2, 4]
        with pytest.raises(TrustRangeError, match=r"tau=4\.5 beyond trusted range"):
            counting_chain_check(spectra, [1.0, 4.5])

    def test_ball_volume(self):
        assert ball_volume(1) == pytest.approx(2.0)
        assert ball_volume(2) == pytest.approx(math.pi)
        assert ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)
        with pytest.raises(ValueError):
            ball_volume(0)


class TestSpectrumEquality:
    def test_equal_values_in_two_arrays_compare_equal(self):
        # it raised "The truth value of an array ... is ambiguous", before
        one, two = (Spectrum("dirichlet", "d", [1.0, 2.0], "x") for _ in range(2))
        assert one == two and not one != two
        assert one == replace(two, uncertainty=[0.5, 0.5])

    @pytest.mark.parametrize(
        "change",
        [
            {"kind": "neumann"},
            {"domain": "e"},
            {"source": "y"},
            {"trusted_count": 1},
            {"values": [1.0, 3.0]},
            {"values": [1.0, 2.0, 3.0]},
        ],
        ids=["kind", "domain", "source", "trusted_count", "value", "length"],
    )
    def test_any_other_field_tells_them_apart(self, change):
        base = dict(kind="dirichlet", domain="d", values=[1.0, 2.0], source="x")
        assert Spectrum(**base) != Spectrum(**{**base, **change})
        assert Spectrum(**base) != "d"


class TestTwoGridUncertainty:
    def test_matches_absolute_difference(self):
        from speclab.fdlab import fd_spectrum

        coarse = fd_spectrum(rectangle_domain(1.0, 1.0, 1.0 / 8.0), ProblemKind.DIRICHLET, 4)
        fine = fd_spectrum(rectangle_domain(1.0, 1.0, 1.0 / 16.0), ProblemKind.DIRICHLET, 4)
        unc = two_grid_uncertainty(coarse, fine, 4)
        assert np.all(unc > 0)
        assert np.allclose(unc, np.abs(coarse.values - fine.values))

    def test_kind_mismatch_rejected(self):
        a = make_spectrum(ProblemKind.DIRICHLET, [1, 2])
        b = make_spectrum(ProblemKind.NEUMANN, [0, 1])
        with pytest.raises(ValueError, match="kinds"):
            two_grid_uncertainty(a, b, 2)
        with pytest.raises(ValueError, match="count"):
            two_grid_uncertainty(a, make_spectrum(ProblemKind.DIRICHLET, [1, 2]), 3)


class TestInequalityChain:
    @staticmethod
    def disk_spectra(count=5):
        return {k: disk_spectrum(1.0, k, count) for k in ProblemKind}

    def test_disk_chain_passes(self):
        report = inequality_chain_check(self.disk_spectra(), count=5)
        assert report["ok"]
        assert report["domain"] == "disk(R=1)"
        assert len(report["rows"]) == 5
        for row in report["rows"]:
            assert all(m > 0 for m in row["margins"])
        assert report["check"] == "chain"

    def test_large_uncertainty_defeats_margins(self):
        spectra = self.disk_spectra()
        dirichlet = spectra[ProblemKind.DIRICHLET]
        spectra[ProblemKind.DIRICHLET] = replace(dirichlet, uncertainty=np.full(5, 100.0))
        report = inequality_chain_check(spectra, count=5)
        assert not report["ok"]
        # only the two comparisons touching the dirichlet values fail
        for row in report["rows"]:
            assert not row["passes"][0] and not row["passes"][1]
            assert row["passes"][2]
        assert report["uncertainty"] == {"dirichlet": [100.0] * 5}

    def test_bars_are_read_up_to_the_count(self):
        spectra = self.disk_spectra()
        neumann = spectra[ProblemKind.NEUMANN]
        spectra[ProblemKind.NEUMANN] = replace(neumann, uncertainty=[1e6, 1e6, 1e6, 0.0, 0.0])
        report = inequality_chain_check(spectra, count=3)
        assert all(not row["passes"][0] for row in report["rows"])
        assert report["uncertainty"] == {"neumann": [1e6] * 3}
        assert inequality_chain_check(self.disk_spectra(), count=3)["uncertainty"] is None

    @pytest.mark.parametrize(
        "bars, reason",
        [
            ([1e6], "one error bar per value"),
            (np.zeros((5, 1)), "one error bar per value"),
            ([0.0, 0.0, -1e-9, 0.0, 0.0], "nonnegative"),
            ([0.0, math.nan, 0.0, 0.0, 0.0], "nonnegative, not nan"),
        ],
        ids=["short", "2-d", "negative", "nan"],
    )
    def test_spectrum_refuses_malformed_bars(self, bars, reason):
        neumann = self.disk_spectra()[ProblemKind.NEUMANN]
        with pytest.raises(ValueError, match=reason):
            replace(neumann, uncertainty=bars)
        kept = replace(neumann, uncertainty=[0.0, 1.0, 2.0, 3.0, math.inf])
        # the bars stay out of repr and equality
        assert kept == neumann and repr(kept) == repr(neumann)
        assert kept.uncertainty.dtype == float and neumann.uncertainty is None

    def test_missing_kind_rejected(self):
        spectra = self.disk_spectra()
        spectra.pop(ProblemKind.CLAMPED)
        with pytest.raises(ValueError, match="missing"):
            inequality_chain_check(spectra, count=3)

    def test_domain_mismatch_rejected(self):
        spectra = self.disk_spectra()
        spectra[ProblemKind.NEUMANN] = rect_spectrum(1.0, 1.0, ProblemKind.NEUMANN, 5)
        with pytest.raises(DomainMismatchError):
            inequality_chain_check(spectra, count=3)

    def test_count_beyond_trust_rejected(self):
        with pytest.raises(TrustRangeError, match="trusted"):
            inequality_chain_check(self.disk_spectra(), count=6)


class TestCountingChain:
    def test_disk_counts_never_cross(self):
        spectra = {k: disk_spectrum(1.0, k, 25) for k in ProblemKind}
        taus = np.linspace(0.0, 30.0, 21)
        report = counting_chain_check(spectra, taus)
        assert report["ok"] and not report["violations"]
        counts = report["counts"]
        for j in range(21):
            assert (
                counts["neumann"][j]
                >= counts["dirichlet"][j]
                >= counts["clamped"][j]
                >= counts["buckling"][j]
            )

    def test_fabricated_violation_is_reported(self):
        spectra = {
            ProblemKind.NEUMANN: make_spectrum(ProblemKind.NEUMANN, [0.0, 1.5, 2.5]),
            ProblemKind.DIRICHLET: make_spectrum(ProblemKind.DIRICHLET, [1.0, 2.0, 3.0]),
            ProblemKind.CLAMPED: make_spectrum(ProblemKind.CLAMPED, [0.5, 2.6, 3.1]),
            ProblemKind.BUCKLING: make_spectrum(ProblemKind.BUCKLING, [2.7, 3.2, 3.3]),
        }
        report = counting_chain_check(spectra, [0.75])
        assert not report["ok"]
        assert report["violations"][0]["pair"] == "dirichlet>=clamped"
        assert report["violations"][0]["counts"] == [1, 0, 1, 0]

    def test_tau_beyond_trust_propagates(self):
        spectra = {k: disk_spectrum(1.0, k, 4) for k in ProblemKind}
        with pytest.raises(TrustRangeError):
            counting_chain_check(spectra, [100.0])


class TestWeylFit:
    def test_interval_samples_sit_on_the_jumps(self):
        # with lambda_k = k^2 the fit is algebraically exact: N = sqrt(tau)
        # at every sample point
        s = interval_spectrum(math.pi, ProblemKind.DIRICHLET, 400)
        fit = weyl_fit(s, 1, math.pi, (400.0, 160000.0))
        assert fit["leading_theory"] == pytest.approx(1.0)
        assert abs(fit["ratio"] - 1.0) < 1e-12
        assert fit["points"] == 380

    def test_unit_square_one_term_underestimates(self):
        # the uncompensated boundary term depresses the one-term fit by
        # a few percent at these tau; frozen for regression
        s = rect_spectrum(1.0, 1.0, ProblemKind.DIRICHLET, 900)
        fit = weyl_fit(s, 2, 1.0, (1e3, 1e4))
        assert fit["ratio"] == pytest.approx(0.9547721666655846, rel=1e-12)
        assert 0.9 < fit["ratio"] < 0.97
        assert "second" not in fit

    def test_split_double_value_samples_like_an_exact_pair(self):
        # a double eigenvalue can come back as two floats a hair apart;
        # it must give one sample, counted after both copies
        exact = np.sort(np.concatenate([np.arange(1.0, 40.0), [12.0, 25.0]]))
        split = exact.copy()
        split[np.flatnonzero(exact == 12.0)[1]] *= 1.0 + 1e-13
        fits = [
            fit(make_spectrum(ProblemKind.DIRICHLET, values), 2, 1.0, *extra, (5.0, 30.0))
            for values in (exact, split)
            for fit, extra in ((weyl_fit, ()), (weyl_two_term_fit, (4.0,)))
        ]
        for plain, nudged in zip(fits[:2], fits[2:]):
            assert nudged["points"] == plain["points"] == 25
            assert nudged["leading"] == pytest.approx(plain["leading"], rel=1e-12)
            assert nudged["ratio"] == pytest.approx(plain["ratio"], rel=1e-12)
        assert fits[3]["second"] == pytest.approx(fits[1]["second"], rel=1e-11)

    def test_window_validation(self):
        s = rect_spectrum(1.0, 1.0, ProblemKind.DIRICHLET, 60)
        with pytest.raises(ValueError, match="window"):
            weyl_fit(s, 2, 1.0, (50.0, 50.0))
        with pytest.raises(TrustRangeError):
            weyl_fit(s, 2, 1.0, (50.0, 1e9))
        with pytest.raises(InsufficientDataError):
            weyl_fit(s, 2, 1.0, (0.0, 100.0))

    def test_two_term_square_dirichlet(self):
        s = rect_spectrum(1.0, 1.0, ProblemKind.DIRICHLET, 8200)
        fit = weyl_two_term_fit(s, 2, 1.0, 4.0, (100.0, 1e5))
        assert fit["ratio"] == pytest.approx(0.9995356081843253, rel=1e-10)
        assert fit["second"] == pytest.approx(-0.30160746137523176, rel=1e-10)
        assert fit["second_theory"] == pytest.approx(1.0 / math.pi)
        assert fit["second_sign_ok"]
        assert abs(fit["second_ratio"] - 1.0) < 0.25

    def test_two_term_square_neumann(self):
        s = rect_spectrum(1.0, 1.0, ProblemKind.NEUMANN, 8200)
        fit = weyl_two_term_fit(s, 2, 1.0, 4.0, (100.0, 1e5))
        assert fit["second"] == pytest.approx(0.33502962123632307, rel=1e-10)
        assert fit["second_sign_ok"]
        assert abs(fit["second_ratio"] - 1.0) < 0.25
        assert fit["second_sign_ok"] is True

    def test_two_term_requires_analytic_source(self):
        s = make_spectrum(
            ProblemKind.DIRICHLET, np.arange(1.0, 40.0), source="fd(h=0.05)"
        )
        with pytest.raises(ValueError, match="analytic"):
            weyl_two_term_fit(s, 2, 1.0, 4.0, (1.0, 30.0))

    def test_two_term_requires_membrane_kind(self):
        s = make_spectrum(ProblemKind.CLAMPED, np.arange(1.0, 40.0))
        with pytest.raises(ValueError, match="membrane"):
            weyl_two_term_fit(s, 2, 1.0, 4.0, (1.0, 30.0))

    def test_coefficient_formulas(self):
        assert weyl_leading_coefficient(2, 1.0) == pytest.approx(1.0 / (4.0 * math.pi))
        assert weyl_boundary_coefficient(2, 4.0) == pytest.approx(1.0 / math.pi)
        assert weyl_leading_coefficient(1, math.pi) == pytest.approx(1.0)


class TestHeatTrace:
    def test_square_dirichlet_two_term_agreement(self):
        s = rect_spectrum(1.0, 1.0, ProblemKind.DIRICHLET, 1500)
        report = heat_trace_check(s, 1.0, 4.0, [0.002, 0.005, 0.01])
        assert report["ok"]
        expected = [
            (0.002, 0.8477500934029393, 0.8414669080957595),
            (0.005, 0.765045135804849, 0.7493371725369),
            (0.01, 0.6769251563547949, 0.6455092298188968),
        ]
        for row, (t, scaled, predicted) in zip(report["rows"], expected):
            assert row["t"] == t
            assert row["scaled_trace"] == pytest.approx(scaled, rel=1e-10)
            assert row["predicted"] == pytest.approx(predicted, rel=1e-10)
            assert row["rel_deviation"] < 0.1
            assert row["asymptotic"]

    def test_square_neumann_correction_enters_positively(self):
        s = rect_spectrum(1.0, 1.0, ProblemKind.NEUMANN, 1500)
        report = heat_trace_check(s, 1.0, 4.0, [0.002, 0.01])
        assert report["ok"]
        for row in report["rows"]:
            assert row["predicted"] > 1.0
        assert report["rows"][0]["scaled_trace"] == pytest.approx(1.1648162772114197, rel=1e-10)

    def test_large_times_reported_but_not_judged(self):
        s = rect_spectrum(1.0, 1.0, ProblemKind.DIRICHLET, 1500)
        report = heat_trace_check(s, 1.0, 4.0, [0.01, 0.1])
        assert report["rows"][1]["asymptotic"] is False
        assert report["ok"]  # judged on the t = 0.01 row alone

    def test_no_judged_time_raises_insufficient_data(self):
        # the report asserted ok false over no judged row, before
        s = rect_spectrum(1.0, 1.0, ProblemKind.DIRICHLET, 1500)
        message = (
            r"no time in \[0.1, 0.2\] is judged: each needs "
            r"0\.25\*sqrt\(4\*pi\*t\)\*boundary < volume, with boundary 4 and volume 1"
        )
        with pytest.raises(InsufficientDataError, match=message):
            heat_trace_check(s, 1.0, 4.0, [0.2, 0.1])

    def test_short_spectrum_raises_truncation(self):
        s = rect_spectrum(1.0, 1.0, ProblemKind.DIRICHLET, 50)
        with pytest.raises(TruncationError, match="tail"):
            heat_trace_check(s, 1.0, 4.0, [0.002])

    def test_source_and_kind_guards(self):
        fd_like = make_spectrum(
            ProblemKind.DIRICHLET, np.arange(1.0, 30.0), source="fd(h=0.1)"
        )
        with pytest.raises(ValueError, match="analytic"):
            heat_trace_check(fd_like, 1.0, 4.0, [0.01])
        clamped = disk_spectrum(1.0, ProblemKind.CLAMPED, 4)
        with pytest.raises(ValueError, match="membrane"):
            heat_trace_check(clamped, math.pi, 2 * math.pi, [0.01])

    def test_time_validation(self):
        s = rect_spectrum(1.0, 1.0, ProblemKind.DIRICHLET, 1500)
        with pytest.raises(ValueError, match="times"):
            heat_trace_check(s, 1.0, 4.0, [])
        with pytest.raises(ValueError, match="times"):
            heat_trace_check(s, 1.0, 4.0, [-0.01, 0.01])


class TestDecomposition:
    H = 1.0 / 16.0

    def whole(self):
        return rectangle_domain(1.0, 1.0, self.H)

    def buckling(self, count):
        return fd_spectrum(self.whole(), ProblemKind.BUCKLING, count)

    def halves(self):
        return [
            rectangle_domain(0.5, 1.0, self.H),
            rectangle_domain(0.5, 1.0, self.H, corner=(0.5, 0.0)),
        ]

    def test_halves_bound_the_square_from_above(self):
        report = decomposition_check(self.whole(), self.halves(), self.buckling(6), count=6)
        assert report["ok"]
        assert report["parts"] == ["rectangle(0.5,1)", "rectangle(0.5,1)"]
        for row in report["rows"]:
            assert row["margin"] > 0
            assert row["holds"]

    def test_identity_partition_is_tight(self):
        report = decomposition_check(self.whole(), [self.whole()], self.buckling(4), count=4)
        assert report["ok"]
        for row in report["rows"]:
            assert row["margin"] == 0.0

    def test_quarters_also_bound(self):
        quarters = [
            rectangle_domain(0.5, 0.5, self.H, corner=(x, y))
            for x in (0.0, 0.5)
            for y in (0.0, 0.5)
        ]
        report = decomposition_check(self.whole(), quarters, self.buckling(4), count=4)
        assert report["ok"]

    def test_overlapping_parts_rejected(self):
        parts = [
            rectangle_domain(0.5, 1.0, self.H),
            rectangle_domain(0.75, 1.0, self.H),
        ]
        with pytest.raises(PartitionError, match="overlap"):
            decomposition_check(self.whole(), parts, self.buckling(3), count=3)

    def test_overlap_names_its_count_and_first_node(self):
        # the first shared node is the smallest (i, j) offset: the disk's
        # leftmost column, not its lowest row
        parts = [
            rectangle_domain(0.5, 1.0, self.H),
            disk_domain(0.4, self.H, center=(0.5, 0.5)),
        ]
        with pytest.raises(PartitionError) as info:
            decomposition_check(self.whole(), parts, self.buckling(3), count=3)
        assert str(info.value) == "parts overlap at 58 nodes (first: (1, 5))"

    @pytest.mark.parametrize(
        "whole, part, message",
        [
            (
                rectangle_domain(1.0, 1.0, H),
                rectangle_domain(0.5, 1.0, H, corner=(-0.25, 0.0)),
                "parts[0] rectangle(0.5,1) has nodes outside rectangle(1,1)",
            ),
            (
                rectangle_domain(1.0, 1.0, H),
                rectangle_domain(0.5, 1.0, H, corner=(0.75, 0.0)),
                "parts[0] rectangle(0.5,1) has nodes outside rectangle(1,1)",
            ),
            (
                lshape_domain(1.0, 1.0, H),
                rectangle_domain(0.5, 0.5, H, corner=(0.5, 0.5)),
                "parts[0] rectangle(0.5,0.5) has nodes outside lshape(1,1,notch=0.5)",
            ),
        ],
        ids=["below-the-lattice", "past-the-lattice", "in-the-notch"],
    )
    def test_outside_names_the_part_and_the_whole(self, whole, part, message):
        buckling = fd_spectrum(whole, ProblemKind.BUCKLING, 3)
        with pytest.raises(PartitionError) as info:
            decomposition_check(whole, [part], buckling, count=3)
        assert str(info.value) == message

    @pytest.mark.parametrize("x", [1e300, 1.7976931348623157e308], ids=["1e300", "max-float"])
    def test_corner_far_off_the_lattice_is_outside(self, x):
        # its offset went through an invalid int64 cast, with a RuntimeWarning, before
        parts = [rectangle_domain(0.5, 1.0, self.H, corner=(x, 0.0))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PartitionError) as info:
                decomposition_check(self.whole(), parts, self.buckling(3), count=3)
        assert str(info.value) == "parts[0] rectangle(0.5,1) has nodes outside rectangle(1,1)"

    def test_overlap_is_counted_against_every_part_before(self):
        # the disk meets both halves: it shares all its nodes but the 13 on
        # the line x = 1/2 between them, twice the 58 it shares with the left
        # half alone, and the first is the smallest (i, j) offset, as there
        disk = disk_domain(0.4, self.H, center=(0.5, 0.5))
        assert disk.n_unknowns == 129
        check_partition(self.whole(), self.halves())
        with pytest.raises(PartitionError) as info:
            check_partition(self.whole(), [*self.halves(), disk])
        assert str(info.value) == "parts overlap at 116 nodes (first: (1, 5))"

    def test_part_outside_whole_rejected(self):
        parts = [rectangle_domain(0.5, 1.0, self.H, corner=(0.75, 0.0))]
        with pytest.raises(PartitionError, match="outside"):
            decomposition_check(self.whole(), parts, self.buckling(3), count=3)

    def test_mesh_width_mismatch_rejected(self):
        parts = [rectangle_domain(0.5, 1.0, self.H / 2.0)]
        with pytest.raises(PartitionError, match="mesh width"):
            decomposition_check(self.whole(), parts, self.buckling(3), count=3)

    def test_misaligned_part_rejected(self):
        parts = [rectangle_domain(0.5, 1.0, self.H, corner=(0.3, 0.0))]
        with pytest.raises(PartitionError, match="aligned"):
            decomposition_check(self.whole(), parts, self.buckling(3), count=3)

    def test_wrong_kind_spectrum_rejected(self):
        dirichlet = fd_spectrum(self.whole(), ProblemKind.DIRICHLET, 3)
        with pytest.raises(DomainMismatchError, match="dirichlet"):
            decomposition_check(self.whole(), self.halves(), dirichlet, count=3)

    def test_other_domains_spectrum_rejected(self):
        other = fd_spectrum(rectangle_domain(0.5, 1.0, self.H), ProblemKind.BUCKLING, 3)
        with pytest.raises(DomainMismatchError, match=r"rectangle\(0.5,1\)"):
            decomposition_check(self.whole(), self.halves(), other, count=3)

    def test_short_spectrum_rejected(self):
        with pytest.raises(ValueError, match="count 4 exceeds the 3"):
            decomposition_check(self.whole(), self.halves(), self.buckling(3), count=4)

    def test_part_with_fewer_unknowns_than_count_gives_all_it_has(self):
        # at h = 1/8 the 0.375 x 1 strip has 14 unknowns; asking it for 15
        # values used to fail the whole check
        h = 0.125
        whole = rectangle_domain(1.0, 1.0, h)
        strip = rectangle_domain(0.375, 1.0, h)
        rest = rectangle_domain(0.625, 1.0, h, corner=(0.375, 0.0))
        assert strip.n_unknowns == 14
        buckling = fd_spectrum(whole, ProblemKind.BUCKLING, 15)
        report = decomposition_check(whole, [strip, rest], buckling, count=15)
        assert report["ok"]
        expected = np.sort(
            np.concatenate(
                [
                    fd_spectrum(strip, ProblemKind.BUCKLING, 14).values,
                    fd_spectrum(rest, ProblemKind.BUCKLING, 15).values,
                ]
            )
        )[:15]
        assert [row["merged"] for row in report["rows"]] == expected.tolist()

    @pytest.mark.parametrize(
        "parts",
        [
            # the README's halves: one mask, translated
            [
                rectangle_domain(0.5, 1.0, H),
                rectangle_domain(0.5, 1.0, H, corner=(0.5, 0.0)),
            ],
            # a left strip and a bottom strip, each the other reflected
            # in the diagonal: their masks are transposes
            [
                rectangle_domain(0.25, 0.75, H, corner=(0.0, 0.25)),
                rectangle_domain(0.75, 0.25, H, corner=(0.25, 0.0)),
            ],
        ],
        ids=["translated-halves", "reflected-strips"],
    )
    def test_congruent_parts_are_solved_once(self, monkeypatch, parts):
        count = 6
        apart = [fd_spectrum(part, ProblemKind.BUCKLING, count).values for part in parts]
        solved = []
        original = fdlab.fd_spectrum

        def counted(domain, kind, count):
            solved.append(domain)
            return original(domain, kind, count)

        monkeypatch.setattr(fdlab, "fd_spectrum", counted)
        report = decomposition_check(self.whole(), parts, self.buckling(count), count=count)
        assert len(solved) == 1 and solved[0] is parts[0]
        merged = [row["merged"] for row in report["rows"]]
        # the first part's values, counted once for each part
        assert merged == np.sort(np.concatenate([apart[0], apart[0]]))[:count].tolist()
        # the same values, in exact arithmetic, as the parts solved apart
        assert np.allclose(merged, np.sort(np.concatenate(apart))[:count], rtol=1e-12, atol=0.0)
        assert report["ok"]

    def test_parts_holding_fewer_than_count_values_rejected(self):
        corner = [rectangle_domain(0.25, 0.25, self.H)]
        assert corner[0].n_unknowns == 9
        with pytest.raises(ValueError, match="parts supplied fewer eigenvalues than requested"):
            decomposition_check(self.whole(), corner, self.buckling(10), count=10)


class TestPayneScan:
    def test_disk_sits_exactly_on_the_bound(self):
        # lambda_(k+1) and Lambda_k come from the same Bessel zeros, so
        # the gaps at k = 1 and 3 are exactly zero
        d = disk_spectrum(1.0, ProblemKind.DIRICHLET, 4)
        b = disk_spectrum(1.0, ProblemKind.BUCKLING, 3)
        report = payne_scan(d, b, 3)
        assert report["holds_all"]
        assert report["rows"][0]["gap"] == 0.0
        assert report["rows"][1]["gap"] > 0.0
        assert report["rows"][2]["gap"] == 0.0

    @pytest.mark.parametrize("length", [1.0, 0.3, 2.0])
    def test_interval_fails_at_every_even_k(self, length):
        # Lambda_(2j-1) and lambda_(2j) are both (2 j pi / L)^2, while
        # Lambda_(2j) = (2 y_j / L)^2 < ((2 j + 1) pi / L)^2 = lambda_(2j+1)
        d = interval_spectrum(length, ProblemKind.DIRICHLET, 7)
        b = interval_spectrum(length, ProblemKind.BUCKLING, 6)
        report = payne_scan(d, b, 6)
        assert not report["holds_all"]
        assert [row["holds"] for row in report["rows"]] == [True, False] * 3
        assert [row["gap"] == 0.0 for row in report["rows"]] == [True, False] * 3

    def test_kind_order_enforced(self):
        d = disk_spectrum(1.0, ProblemKind.DIRICHLET, 4)
        b = disk_spectrum(1.0, ProblemKind.BUCKLING, 3)
        with pytest.raises(ValueError, match="dirichlet"):
            payne_scan(b, b, 2)
        with pytest.raises(ValueError, match="buckling"):
            payne_scan(d, d, 2)

    def test_needs_one_extra_dirichlet_value(self):
        d = disk_spectrum(1.0, ProblemKind.DIRICHLET, 3)
        b = disk_spectrum(1.0, ProblemKind.BUCKLING, 3)
        with pytest.raises(TrustRangeError):
            payne_scan(d, b, 3)

    def test_domain_mismatch_rejected(self):
        d = disk_spectrum(1.0, ProblemKind.DIRICHLET, 4)
        b = make_spectrum(ProblemKind.BUCKLING, [20.0, 30.0, 40.0], domain="rect(1x1)")
        with pytest.raises(DomainMismatchError):
            payne_scan(d, b, 2)


class TestSharpness:
    @staticmethod
    def cap_pair(delta, points=1200):
        dom = CapDomain(delta, points=points)
        return (
            delta,
            cap_spectrum(dom, ProblemKind.NEUMANN, 2),
            cap_spectrum(dom, ProblemKind.DIRICHLET, 1),
        )

    def test_disk_orderings_hold(self):
        spectra = {k: disk_spectrum(1.0, k, 2) for k in ProblemKind}
        report = sharpness_report(spectra)
        assert report["ok"]
        labels = [row["label"] for row in report["rows"]]
        assert labels == ["disk lambda_2 > Gamma_1", "disk Gamma_2 > Lambda_1"]
        assert all(row["asserted"] and row["holds"] for row in report["rows"])

    def test_cap_rows_asserted_only_beyond_hemisphere(self):
        spectra = {k: disk_spectrum(1.0, k, 2) for k in ProblemKind}
        report = sharpness_report(
            spectra,
            cap_results=[
                self.cap_pair(0.75 * math.pi),
                self.cap_pair(0.40 * math.pi),
            ],
        )
        wide, narrow = report["rows"][2], report["rows"][3]
        assert wide["asserted"] and wide["holds"]
        assert not narrow["asserted"] and not narrow["holds"]
        assert report["ok"]

    def test_cap_triples_validated(self):
        spectra = {k: disk_spectrum(1.0, k, 2) for k in ProblemKind}
        delta, n, d = self.cap_pair(0.75 * math.pi)
        with pytest.raises(ValueError, match="neumann"):
            sharpness_report(spectra, cap_results=[(delta, d, d)])
        with pytest.raises(ValueError, match="dirichlet"):
            sharpness_report(spectra, cap_results=[(delta, n, n)])


@st.composite
def tied_spectra(draw):
    """Nondecreasing value lists of one length, drawn from one small pool.

    Drawing every list from a pool of at most five values forces ties
    within a list and equal values across lists.
    """
    finite = st.floats(min_value=-1e300, max_value=1e300, allow_subnormal=True)
    pool = draw(st.lists(finite, min_size=1, max_size=5, unique=True))
    n = draw(st.integers(min_value=2, max_value=6))
    names = [k.value for k in ProblemKind] + ["cap_mu", "cap_lambda", "part_a", "part_b"]
    values = st.lists(st.sampled_from(pool), min_size=n, max_size=n)
    return {name: sorted(draw(values)) for name in names}


class TestLinks:
    def test_equal_values_fail_a_strict_link_and_hold_a_non_strict_one(self):
        assert links([1.0, 2.0], [1.0, 3.0]) == ([0.0, 1.0], [False, True])
        assert links([1.0, 2.0], [1.0, 3.0], strict=False) == ([0.0, 1.0], [True, True])
        assert links([2.0], [1.0], strict=False) == ([-1.0], [False])

    def test_slack_is_judged_index_by_index(self):
        margins, verdicts = links([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], slack=np.array([0.5, 1.0, 2.0]))
        assert margins == [1.0, 1.0, 1.0]
        assert verdicts == [True, False, False]

    def test_subnormal_difference_holds(self):
        margins, verdicts = links([5e-324], [1e-323])
        assert margins == [5e-324] and verdicts == [True]

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(tied_spectra())
    def test_every_row_is_the_direct_comparison_of_its_two_values(self, drawn):
        n = len(drawn["neumann"])
        spectra = {k: make_spectrum(k, drawn[k.value]) for k in ProblemKind}

        chain = inequality_chain_check(spectra, count=n)
        for idx, row in enumerate(chain["rows"]):
            vals = [drawn[k.value][idx] for k in CHAIN_ORDER]
            assert list(row["margins"]) == [vals[j + 1] - vals[j] for j in range(3)]
            assert list(row["passes"]) == [vals[j] < vals[j + 1] for j in range(3)]
        assert chain["ok"] == all(all(row["passes"]) for row in chain["rows"])

        lam, buck = drawn["dirichlet"], drawn["buckling"]
        payne = payne_scan(spectra[ProblemKind.DIRICHLET], spectra[ProblemKind.BUCKLING], n - 1)
        for k, row in enumerate(payne["rows"], start=1):
            assert (row["lambda_next"], row["Lambda"]) == (lam[k], buck[k - 1])
            assert row["gap"] == buck[k - 1] - lam[k]
            assert row["holds"] == (lam[k] <= buck[k - 1])

        cap = (
            2.0,
            make_spectrum(ProblemKind.NEUMANN, drawn["cap_mu"]),
            make_spectrum(ProblemKind.DIRICHLET, drawn["cap_lambda"]),
        )
        gam = drawn["clamped"]
        sharp = sharpness_report(spectra, [cap])
        pairs = [(lam[1], gam[0]), (gam[1], buck[0]), (drawn["cap_mu"][1], drawn["cap_lambda"][0])]
        assert [(row["left"], row["right"]) for row in sharp["rows"]] == pairs
        assert [row["holds"] for row in sharp["rows"]] == [left > right for left, right in pairs]

        h = 1.0 / 16.0
        whole = rectangle_domain(1.0, 1.0, h)
        parts = [rectangle_domain(0.25, 1.0, h), rectangle_domain(0.75, 1.0, h, corner=(0.25, 0.0))]
        held = {id(parts[0]): drawn["part_a"], id(parts[1]): drawn["part_b"]}

        def solved(domain, kind, count):
            return make_spectrum(kind, held[id(domain)][:count])

        whole_buckling = make_spectrum(ProblemKind.BUCKLING, buck, domain=whole.descriptor)
        with mock.patch.object(fdlab, "fd_spectrum", solved):
            decomposition = decomposition_check(whole, parts, whole_buckling, count=n)
        merged = sorted(drawn["part_a"] + drawn["part_b"])[:n]
        for idx, row in enumerate(decomposition["rows"]):
            assert (row["whole"], row["merged"]) == (buck[idx], merged[idx])
            assert row["margin"] == merged[idx] - buck[idx]
            assert row["holds"] == (buck[idx] <= merged[idx])
