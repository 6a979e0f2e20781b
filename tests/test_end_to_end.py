"""``speclab report`` in a fresh process, against closed forms and byte for byte.

Every test here runs ``python -W error::RuntimeWarning -m speclab.cli
report`` on a config it writes, so an invalid cast or an overflow in any
run is an error, not a warning.  The references are the benchmark's, in
``bench/``: ``workloads.variant_configs()`` holds every geometry a
benchmark seed can produce, and ``oracles`` the closed forms.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest
from probes import KINDS, REASK_PROBES

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))  # workloads imports oracles by name
import workloads  # noqa: E402

#: speclab's own BLAS thread count, one, whatever the caller's environment sets
ENV = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}

#: Seconds before a run counts as hung; the slowest here takes about 5
TIMEOUT = 300

VARIANTS = workloads.variant_configs()
ANALYTIC = {"type": "analytic"}

#: Every config whose default run some comparison repeats: the benchmark
#: variants, then two configs whose fd_spectra asks one class again
SHARED = {f"variant{index}": config for index, config in enumerate(VARIANTS)}
SHARED.update((f"reask-{name}", {"experiments": [probe]}) for name, probe in REASK_PROBES.items())


@dataclass
class Run:
    code: int
    stderr: str
    out: Path
    #: CSV values in index order, by (experiment, kind)
    values: dict[tuple[str, str], list[float]]

    def outputs(self) -> dict[str, bytes]:
        """Every file the run wrote, by name."""
        if not self.out.is_dir():
            return {}
        return {p.name: p.read_bytes() for p in sorted(self.out.iterdir())}


def report(config: dict, out: Path, env: dict = ENV, preexec_fn=None) -> Run:
    """Write ``config`` beside ``out``, report it into ``out`` in a fresh process, read the CSVs."""
    path = out.with_suffix(".json")
    path.write_text(json.dumps(config))
    cmd = [sys.executable, "-W", "error::RuntimeWarning", "-m", "speclab.cli", "report"]
    cmd += ["--config", str(path), "--out", str(out)]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=env, preexec_fn=preexec_fn, timeout=TIMEOUT
    )
    values: dict[tuple[str, str], list[float]] = {}
    for csv_path in sorted(out.glob("*.spectra.csv")):
        name = csv_path.name.removesuffix(".spectra.csv")
        with open(csv_path, newline="") as handle:
            for row in csv.DictReader(handle):
                values.setdefault((name, row["kind"]), []).append(float(row["value"]))
    return Run(proc.returncode, proc.stderr, out, values)


def experiment(name: str, domain: dict, kinds: list[str], backend: dict, count: int) -> dict:
    """A config of one experiment."""
    block = {"name": name, "domain": domain, "kinds": kinds, "backend": backend, "count": count}
    return {"experiments": [block]}


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    """The default run of a SHARED config, made once for every comparison of it."""

    @functools.cache
    def run(name: str) -> Run:
        return report(SHARED[name], tmp_path_factory.mktemp(name) / "out")

    return run


def pin_to_one_cpu():
    """Between fork and exec: confine the child, and so the workers it would fork, to one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def assert_oracles_hold(config: dict, run: Run, refs: dict):
    """``run`` exited 0, and each spectrum of ``config`` matches its closed form or ``refs``."""
    assert run.code == 0, run.stderr
    expected = workloads.expected_spectra(config, refs)
    for exp in config["experiments"]:
        assert workloads.check_experiment(exp, run.out, expected) == [], exp["name"]


@pytest.mark.parametrize("index", range(len(VARIANTS)))
def test_variant_matches_its_oracles(default_run, index):
    assert_oracles_hold(VARIANTS[index], default_run(f"variant{index}"), workloads.load_refs())


#: Configs with a closed form, in ``oracles``, for every value
CLOSED_FORMS = {
    # the 5-point stencil's values
    "square-h-1-16": experiment(
        "square",
        {"type": "rect", "a": 1.0, "b": 1.0},
        ["neumann", "dirichlet"],
        {"type": "fd", "h": [0.0625]},
        30,
    ),
    # large counts through the array root finder: one lockstep bisection per
    # azimuthal order for the clamped disk, and one for all the tan y = y
    # roots behind the rod's buckling values
    "disk-500": experiment("disk", {"type": "disk", "radius": 1.0}, KINDS, ANALYTIC, 500),
    "rod-2000": experiment(
        "rod", {"type": "interval", "length": 1.0}, ["dirichlet", "buckling"], ANALYTIC, 2000
    ),
}


@pytest.mark.parametrize("config", CLOSED_FORMS.values(), ids=CLOSED_FORMS.keys())
def test_matches_its_closed_forms(tmp_path, config):
    assert_oracles_hold(config, report(config, tmp_path / "out"), refs={})


@pytest.mark.parametrize("index", range(len(VARIANTS)))
def test_variant_bytes_do_not_depend_on_the_blas_thread_count(default_run, tmp_path, index):
    two = report(VARIANTS[index], tmp_path / "out", env={**ENV, "OPENBLAS_NUM_THREADS": "2"})
    assert two.outputs() == default_run(f"variant{index}").outputs() != {}


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
@pytest.mark.parametrize("name", SHARED)
def test_one_cpu_writes_the_same_bytes(default_run, tmp_path, name):
    # fd_spectra forks one worker per CPU its process may run on; pinned to
    # one CPU, the report solves every symmetry class itself
    one = report(SHARED[name], tmp_path / "out", preexec_fn=pin_to_one_cpu)
    assert one.outputs() == default_run(name).outputs() != {}


def test_lshape_at_h_1_320_holds_the_product_modes(tmp_path):
    # the unit L-shape with its notch at 1/2 holds the product grid's modes
    # sin(2 p pi x) sin(2 q pi y) exactly, at the discrete values
    # (4/h^2)(sin^2(p pi h) + sin^2(q pi h)): lambda_3 is (1, 1),
    # lambda_8 = lambda_9 the pair (1, 2), (2, 1), lambda_14 is (2, 2)
    h = 1 / 320
    domain = {"type": "lshape", "a": 1.0, "b": 1.0, "notch": 0.5}
    config = experiment("lshape", domain, KINDS, {"type": "fd", "h": [h]}, 15)
    run = report(config, tmp_path / "out")
    assert run.code == 0, run.stderr
    dirichlet = run.values["lshape", "dirichlet"]

    def exact(p, q):
        return 4 / h**2 * (math.sin(p * math.pi * h) ** 2 + math.sin(q * math.pi * h) ** 2)

    for index, (p, q) in ((3, (1, 1)), (8, (1, 2)), (9, (2, 1)), (14, (2, 2))):
        assert math.isclose(dirichlet[index - 1], exact(p, q), rel_tol=1e-11), index
