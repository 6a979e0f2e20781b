"""Top-level acceptance checks, one printed verdict line per claim.

Run with ``pytest tests/test_acceptance.py -s`` to see every verdict;
without ``-s`` the lines still appear for any failing check.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np

from speclab.analytic2d import disk_spectrum, rect_spectrum
from speclab.analytics import (
    counting_chain_check,
    decomposition_check,
    heat_trace_check,
    inequality_chain_check,
    trusted_edge,
    two_grid_uncertainty,
    weyl_two_term_fit,
)
from speclab.fdlab import (
    CapDomain,
    assemble_bilaplacian_clamped,
    assemble_laplacian,
    cap_spectrum,
    fd_spectrum,
    interval_domain,
    lshape_domain,
    rectangle_domain,
)
from speclab.cli import main
from speclab.interval1d import clamped_beam_roots, interval_spectrum, tan_roots
from speclab.specfun import bessel_j_zero
from speclab.spectra import ProblemKind


def verdict(label: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def sig4(x: float, ref: float) -> bool:
    """Agreement to four significant digits."""
    return abs(x - ref) <= 5e-4 * abs(ref)


def sig12(x: float) -> float:
    """``x`` at the 12 significant digits of a report."""
    return float(f"{x:.12g}")


def report(tmp_path: Path, experiment: dict) -> dict:
    """The report of one experiment run through ``speclab report``."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiments": [experiment]}))
    out = tmp_path / "out"
    assert main(["report", "--config", str(config), "--out", str(out)]) == 0
    return json.loads((out / f"{experiment['name']}.report.json").read_text())


class TestAcceptance:
    def test_01_disk_ground_truth(self):
        start = time.perf_counter()
        lam = disk_spectrum(1.0, ProblemKind.DIRICHLET, 3).values
        gam = disk_spectrum(1.0, ProblemKind.CLAMPED, 1).values
        buck = disk_spectrum(1.0, ProblemKind.BUCKLING, 1).values
        elapsed = time.perf_counter() - start
        ok = (
            sig4(lam[0], 5.783)
            and sig4(lam[1], 14.68)
            and lam[1] == lam[2]
            and sig4(gam[0], 10.216)
            and sig4(buck[0], 14.682)
            and elapsed < 1.0
        )
        verdict(f"disk ground truth to 4 digits in {elapsed:.2f}s", ok)

    def test_02_chain_with_grid_uncertainty(self):
        ok = True
        for label, build in (
            ("square", lambda h: rectangle_domain(1.0, 1.0, h)),
            ("lshape", lambda h: lshape_domain(1.0, 1.0, h)),
        ):
            start = time.perf_counter()
            levels = {}
            for h in (1.0 / 40.0, 1.0 / 80.0):
                grid = build(h)
                levels[h] = {k: fd_spectrum(grid, k, 15) for k in ProblemKind}
            unc = {
                k: two_grid_uncertainty(
                    levels[1.0 / 40.0][k], levels[1.0 / 80.0][k], 15
                )
                for k in ProblemKind
            }
            report = inequality_chain_check(
                levels[1.0 / 80.0], count=15, uncertainties=unc
            )
            elapsed = time.perf_counter() - start
            domain_ok = report.ok and elapsed < 120.0
            verdict(
                f"chain beats two-grid uncertainty on {label} (k<=15) in {elapsed:.1f}s",
                domain_ok,
            )
            ok = ok and domain_ok
        assert ok

    def test_03_interval_second_buckling_breaks_the_bound(self, tmp_path):
        # certify the tan y = y root against plain bisection first
        def bisect_root(k: int) -> float:
            lo, hi = k * math.pi, k * math.pi + math.pi / 2.0 - 1e-12
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if mid - k * math.pi - math.atan(mid) > 0:
                    hi = mid
                else:
                    lo = mid
            return 0.5 * (lo + hi)

        y1 = tan_roots(1)[0]
        certified = abs(y1 - bisect_root(1)) < 1e-8 and abs(y1 - 4.49340946) < 5e-9
        # the README's rod experiment, as `speclab report` runs it
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = readme.split("### Config example")[1].split("```json")[1].split("```")[0]
        (rod,) = [exp for exp in json.loads(example)["experiments"] if exp["name"] == "rod"]
        k1, k2 = report(tmp_path, rod)["checks"][0]["rows"][:2]
        ok = (
            certified
            and k1["holds"]
            and k1["gap"] == 0.0
            and not k2["holds"]
            and k2["Lambda"] == 80.7629142257 == sig12((2.0 * y1) ** 2)
            and k2["lambda_next"] == 88.8264396098 == sig12(9.0 * math.pi**2)
        )
        verdict("interval: Lambda_2 = 80.76 undercuts lambda_3 = 9 pi^2", ok)

    def test_04_lattice_count_tracks_weyl(self, tmp_path):
        # the two-term fit's leading coefficient over [1e3, 1e4], and one-term
        # fits whose ratio rises toward 1 decade by decade
        windows = ([10.0, 100.0], [100.0, 1e3], [1e3, 1e4])
        rect = {
            "name": "rect",
            "domain": {"type": "rect", "a": 1.0, "b": 2.0},
            "kinds": ["dirichlet"],
            "backend": {"type": "analytic"},
            "count": 1600,
            "checks": [{"type": "weyl2", "window": [1e3, 1e4]}]
            + [{"type": "weyl", "window": window} for window in windows],
        }
        start = time.perf_counter()
        two_term, *one_term = report(tmp_path, rect)["checks"]
        elapsed = time.perf_counter() - start
        ratios = [fit["ratio"] for fit in one_term]
        ok = (
            two_term["ok"]
            and 0.97 <= two_term["ratio"] <= 1.03
            and ratios[0] < ratios[1] < ratios[2] < 1.0
            and elapsed < 5.0
        )
        verdict(
            f"1x2 rectangle Weyl ratio {two_term['ratio']:.4f} over [1e3, 1e4] "
            f"in {elapsed:.2f}s",
            ok,
        )

    def test_05_two_term_boundary_coefficients(self):
        window = (100.0, 1e5)
        fits = {
            k: weyl_two_term_fit(
                rect_spectrum(1.0, 1.0, k, 8200), 2, 1.0, 4.0, window
            )
            for k in (ProblemKind.DIRICHLET, ProblemKind.NEUMANN)
        }
        d, n = fits[ProblemKind.DIRICHLET], fits[ProblemKind.NEUMANN]
        ok = (
            d.second < 0 < n.second
            and abs(d.second_ratio - 1.0) <= 0.25
            and abs(n.second_ratio - 1.0) <= 0.25
        )
        verdict(
            "two-term fit: boundary coefficient signs and magnitudes "
            f"(D {d.second:+.3f}, N {n.second:+.3f}, theory {d.second_theory:.3f})",
            ok,
        )

    def test_06_counting_chain_never_crosses(self):
        disk = {k: disk_spectrum(1.0, k, 25) for k in ProblemKind}
        edge = min(trusted_edge(s) for s in disk.values())
        disk_report = counting_chain_check(disk, np.linspace(0.0, edge, 50))

        grid = rectangle_domain(1.0, 1.0, 1.0 / 32.0)
        square = {k: fd_spectrum(grid, k, 12) for k in ProblemKind}
        edge = min(trusted_edge(s) for s in square.values())
        square_report = counting_chain_check(square, np.linspace(0.0, edge, 50))

        ok = disk_report.ok and square_report.ok
        verdict("counting chain clean at 50 thresholds (disk analytic, square fd)", ok)

    def test_07_halving_the_square_raises_buckling(self):
        h = 1.0 / 64.0
        whole = rectangle_domain(1.0, 1.0, h)
        halves = [
            rectangle_domain(0.5, 1.0, h),
            rectangle_domain(0.5, 1.0, h, corner=(0.5, 0.0)),
        ]
        buckling = fd_spectrum(whole, ProblemKind.BUCKLING, 10)
        report = decomposition_check(whole, halves, buckling, count=10)
        ok = report.ok and len(report.rows) == 10
        verdict("square buckling below merged half-rectangle values (k<=10)", ok)

    def test_08_cap_reversal_across_the_hemisphere(self):
        hemi = CapDomain(math.pi / 2.0)
        mu2 = cap_spectrum(hemi, ProblemKind.NEUMANN, 2).values[1]
        lam1 = cap_spectrum(hemi, ProblemKind.DIRICHLET, 1).values[0]
        wide = CapDomain(0.75 * math.pi)
        wide_mu2 = cap_spectrum(wide, ProblemKind.NEUMANN, 2).values[1]
        wide_lam1 = cap_spectrum(wide, ProblemKind.DIRICHLET, 1).values[0]
        ok = (
            abs(mu2 - 2.0) < 1e-3
            and abs(lam1 - 2.0) < 1e-3
            and wide_mu2 - wide_lam1 > 0
        )
        verdict(
            "hemisphere ties mu_2 to lambda_1; wider cap puts mu_2 above lambda_1",
            ok,
        )

    def test_09_heat_trace_two_terms(self):
        spectrum = rect_spectrum(1.0, 1.0, ProblemKind.DIRICHLET, 1500)
        report = heat_trace_check(spectrum, 1.0, 4.0, [0.002, 0.005, 0.01])
        form_ok = all(
            abs(row.predicted - (1.0 - math.sqrt(4.0 * math.pi * row.t))) < 1e-12
            for row in report.rows
        )
        ok = report.ok and form_ok and all(r.rel_deviation < 0.1 for r in report.rows)
        verdict("heat trace matches 1 - sqrt(4 pi t) within 10%", ok)

    def test_10_product_ansatz_leaves_a_residual(self):
        import sympy as sp

        # u = (1 - cos(alpha x)) (1 - cos(beta y)) on the unit square, with
        # Lambda = alpha^2 + beta^2, the product of two rod buckling modes
        x, y = sp.symbols("x y")
        alpha = beta = 2 * sp.pi
        u = (1 - sp.cos(alpha * x)) * (1 - sp.cos(beta * y))
        lam = alpha**2 + beta**2
        lap = sp.diff(u, x, 2) + sp.diff(u, y, 2)
        bilap = (
            sp.diff(u, x, 4) + 2 * sp.diff(u, x, 2, y, 2) + sp.diff(u, y, 4)
        )
        defect = bilap + lam * lap
        # the cross-derivative term survives: alpha^2 beta^2 (cos ax + cos by)
        closed = alpha**2 * beta**2 * (sp.cos(alpha * x) + sp.cos(beta * y))
        closed_ok = sp.simplify(defect - closed) == 0
        grid = np.linspace(0.0, 1.0, 201)[1:-1]

        def peak(f) -> float:
            values = sp.lambdify((x, y), f, "numpy")(grid[:, None], grid[None, :])
            return float(np.max(np.abs(values)))

        normalized = peak(defect) / peak(u)
        ok = closed_ok and normalized > 1.0
        verdict(
            f"product trial function misses the buckling equation "
            f"(normalized residual {normalized:.1f})",
            ok,
        )

    def test_11_property_suite(self):
        base = interval_spectrum(1.3, ProblemKind.CLAMPED, 8).values
        scaled = interval_spectrum(1.3 * 2.5, ProblemKind.CLAMPED, 8).values
        scaling_ok = np.allclose(scaled, base / 2.5**2, rtol=1e-9)

        interlace_ok = all(
            bessel_j_zero(m, l) < bessel_j_zero(m + 1, l) < bessel_j_zero(m, l + 1)
            for m in range(11)
            for l in range(1, 11)
        )

        grid = lshape_domain(1.0, 1.0, 1.0 / 16.0)
        lap = assemble_laplacian(grid, ProblemKind.DIRICHLET).matrix
        bilap = assemble_bilaplacian_clamped(grid).matrix
        sym_ok = (lap - lap.T).nnz == 0 and (bilap - bilap.T).nnz == 0
        spd_ok = (
            np.linalg.eigvalsh(lap.toarray()).min() > 0
            and np.linalg.eigvalsh(bilap.toarray()).min() > 0
        )

        def order(errors):
            return min(
                math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)
            )

        lap_errors = [
            abs(
                fd_spectrum(
                    rectangle_domain(1.0, 1.0, h), ProblemKind.DIRICHLET, 1
                ).values[0]
                - 2.0 * math.pi**2
            )
            for h in (1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0)
        ]
        beam_errors = [
            abs(
                fd_spectrum(interval_domain(1.0, h), ProblemKind.CLAMPED, 1).values[0]
                - clamped_beam_roots(1)[0] ** 2
            )
            for h in (1.0 / 50.0, 1.0 / 100.0, 1.0 / 200.0)
        ]
        order_ok = order(lap_errors) >= 1.8 and order(beam_errors) >= 1.8

        ok = scaling_ok and interlace_ok and sym_ok and spd_ok and order_ok
        verdict(
            "properties: 1/c^2 scaling, zero interlacing, operator symmetry "
            f"and definiteness, convergence orders {order(lap_errors):.2f}/{order(beam_errors):.2f}",
            ok,
        )
