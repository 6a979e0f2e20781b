"""Tests of the benchmark's own helpers: statistics, oracles, configs, tracer."""

from __future__ import annotations

import json
import math
import sys
import time

import numpy as np
import pytest

import oracles
import run
import traced_cli
import workloads

J01 = 2.404825557695773
J11 = 3.831705970207512
J21 = 5.135622301840683
JP11 = 1.841183781340659
CLAMPED01 = 3.196220616582177  # first root of J0 I1 + I0 J1


def test_quartile_spread_is_iqr_over_median():
    assert run.quartile_spread(list(range(1, 11))) == pytest.approx(5.5 / 5.5)
    assert run.quartile_spread([2.0] * 10) == 0.0
    values = [9.0, 10.0, 10.0, 11.0, 30.0]
    q1, q3 = 9.5, 20.5  # exclusive quartiles of five values
    assert run.quartile_spread(values) == pytest.approx((q3 - q1) / 10.0)


def test_matches_uses_relative_tolerance_and_scale_for_zeros():
    assert oracles.matches([1.0, 2.0], [1.0, 2.0], 1e-9)
    assert oracles.matches([1.0 + 1e-10, 2.0], [1.0, 2.0], 1e-9)
    assert not oracles.matches([1.0 + 1e-6, 2.0], [1.0, 2.0], 1e-9)
    assert not oracles.matches([1.0], [1.0, 2.0], 1e-9)
    assert oracles.matches([1e-12, 100.0], [0.0, 100.0], 1e-9)
    assert not oracles.matches([1e-3, 100.0], [0.0, 100.0], 1e-9)


def test_disk_oracles_match_tabulated_zeros():
    assert np.allclose(oracles.disk("dirichlet", 1.0, 4), [J01**2, J11**2, J11**2, J21**2], rtol=1e-12)
    assert np.allclose(oracles.disk("neumann", 1.0, 3), [0.0, JP11**2, JP11**2], rtol=1e-12)
    assert oracles.disk("clamped", 1.0, 1)[0] == pytest.approx(CLAMPED01**2, rel=1e-12)
    assert oracles.disk("buckling", 1.0, 1)[0] == pytest.approx(J11**2, rel=1e-12)
    assert np.allclose(oracles.disk("dirichlet", 2.0, 5), oracles.disk("dirichlet", 1.0, 5) / 4)


def test_disk_oracles_are_sorted_with_paired_orders():
    for kind in ("neumann", "dirichlet", "clamped", "buckling"):
        values = oracles.disk(kind, 1.0, 40)
        assert len(values) == 40 and np.all(np.diff(values) >= 0)
        # every order m >= 1 contributes its values twice
        assert np.sum(np.isclose(values[1:], values[:-1], rtol=1e-13)) >= 15


def test_closed_forms_for_rectangles_and_intervals():
    pi2 = math.pi**2
    assert np.allclose(oracles.rect_membrane(1.0, 1.0, "dirichlet", 4), pi2 * np.array([2, 5, 5, 8]))
    assert np.allclose(oracles.rect_membrane(1.0, 2.0, "neumann", 3), pi2 * np.array([0, 0.25, 1]))
    assert np.allclose(oracles.interval(1.0, "dirichlet", 3), pi2 * np.array([1, 4, 9]))
    y1 = 4.493409457909064  # first positive root of tan y = y
    assert np.allclose(oracles.interval(1.0, "buckling", 3), [(2 * math.pi) ** 2, (2 * y1) ** 2, (4 * math.pi) ** 2])


def _stencil(n: int, h: float, kind: str) -> np.ndarray:
    line = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    if kind == "neumann":
        line[0, 0] = line[-1, -1] = 1.0
    return line / h**2


@pytest.mark.parametrize("kind", ["dirichlet", "neumann"])
def test_rect_fd_closed_form_matches_the_assembled_stencil(kind):
    h, nx, ny = 0.125, 6, 4
    lap = np.kron(np.eye(ny), _stencil(nx, h, kind)) + np.kron(_stencil(ny, h, kind), np.eye(nx))
    dense = np.linalg.eigvalsh(lap)[:10]
    closed = oracles.rect_fd((nx + 1) * h, (ny + 1) * h, h, kind, 10)
    assert np.allclose(closed, dense, rtol=1e-12, atol=1e-9)


def test_configs_depend_only_on_the_seed_and_stay_in_range():
    for name in workloads.WORKLOADS:
        assert workloads.make_config(name, 7) == workloads.make_config(name, 7)
    assert workloads.make_config("readme-report", 1) == workloads.make_config("readme-report", 2)
    for seed in range(200):
        disk, wide, narrow = workloads.make_config("analytic-disk-cap", seed)["experiments"]
        assert 0.8 <= disk["domain"]["radius"] <= 1.25
        for cap, base in ((wide, 3 * math.pi / 4), (narrow, 2 * math.pi / 5)):
            assert min(abs(cap["domain"]["delta"] / base - s) for s in workloads.CAP_SCALES) < 1e-12
        assert wide["domain"]["delta"] > math.pi / 2  # the asserted sharpness row


def test_every_seed_has_recorded_references():
    refs = workloads.load_refs()
    for name in workloads.WORKLOADS:
        for seed in range(200):
            config = workloads.make_config(name, seed)
            for key, exp, _, _ in workloads.recorded_cases(config):
                assert len(refs[key]) >= exp["count"]


def _node_set(grid, whole):
    rel = (grid.node_coordinates() - np.asarray(whole.origin)) / whole.h
    snapped = np.rint(rel)
    assert np.max(np.abs(rel - snapped)) < 1e-6, "part is off the whole grid's lattice"
    return {tuple(p) for p in snapped.astype(int)}


def test_every_seed_yields_valid_decomposition_parts():
    sys.path.insert(0, str(run.SRC))
    from speclab.fdlab import lshape_domain, rectangle_domain

    notches = set()
    for seed in range(500):
        exp = workloads.make_config("fd-lshape", seed)["experiments"][0]
        notches.add(exp["domain"]["notch"])
    assert notches == set(workloads.NOTCHES)
    for notch in notches:
        exp = workloads.fd_lshape_config(notch)["experiments"][0]
        parts = exp["checks"][2]["parts"]
        for h in exp["backend"]["h"]:
            whole = lshape_domain(1.0, 1.0, h, notch=notch)
            whole_nodes = _node_set(whole, whole)
            seen = set()
            for part in parts:
                grid = rectangle_domain(part["a"], part["b"], h, corner=tuple(part.get("corner", (0.0, 0.0))))
                nodes = _node_set(grid, whole)
                assert nodes <= whole_nodes and not nodes & seen
                seen |= nodes


def test_tracer_charges_child_spans_to_the_child():
    tracer = traced_cli.Tracer()
    inner = tracer.wrap(lambda: time.sleep(0.03), "demo.inner", "demo")

    def body():
        time.sleep(0.02)
        inner()

    outer = tracer.wrap(body, "demo.outer", "demo")
    start = time.perf_counter()
    outer()
    elapsed = time.perf_counter() - start
    stats = tracer.stats
    assert stats["demo.outer"]["calls"] == stats["demo.inner"]["calls"] == 1
    assert stats["demo.inner"]["self_s"] >= 0.03
    assert 0.02 <= stats["demo.outer"]["self_s"] <= elapsed - 0.03
    assert stats["demo.outer"]["self_s"] + stats["demo.inner"]["self_s"] <= elapsed


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def _write_outputs(out, exp, expected, report, scale=1.0):
    (out / f"{exp['name']}.report.json").write_text(json.dumps(report))
    rows = ["k,kind,value,source,h"]
    for (_, kind, h), (values, _) in expected.items():
        rows += [f"{k},{kind},{v * scale:.12g},fd,{h:.12g}" for k, v in enumerate(values, 1)]
    (out / f"{exp['name']}.spectra.csv").write_text("\n".join(rows) + "\n")


def test_output_check_passes_oracle_values_and_flags_everything_else(tmp_path):
    config = workloads.make_config("fd-lshape", 0)
    exp = config["experiments"][0]
    expected = workloads.expected_spectra(config, workloads.load_refs())
    assert workloads.check_experiment(exp, tmp_path, expected) == ["missing report"]
    _write_outputs(tmp_path, exp, expected, {"ok": True, "checks": [{"asserted": True, "ok": True}]})
    assert workloads.check_experiment(exp, tmp_path, expected) == []
    _write_outputs(tmp_path, exp, expected, {"ok": True, "checks": []}, scale=1 + 1e-6)
    assert len(workloads.check_experiment(exp, tmp_path, expected)) == 8
    _write_outputs(tmp_path, exp, expected, {"ok": False, "checks": [{"check": "chain", "asserted": True, "ok": False}]})
    assert workloads.check_experiment(exp, tmp_path, expected) == ["check chain failed", "report not ok"]
    (tmp_path / f"{exp['name']}.report.json").write_text("{truncated")
    assert workloads.check_experiment(exp, tmp_path, expected)[0].startswith("unreadable output")
